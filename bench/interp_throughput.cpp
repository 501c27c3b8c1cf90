//===- bench/interp_throughput.cpp - Decoded vs tree-walk throughput ------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures Mini-IR interpreter throughput (executed instructions per
/// second) for the tree-walking engine, the pre-decoded engine, and the
/// copy-and-patch JIT, on four SPEC-shaped kernels mirroring the workload
/// models used elsewhere in the reproduction (perlbench-like hashing,
/// bzip2-like byte frequencies, mcf-like min scans, gcc-like mixed control
/// flow).
///
/// All engines run the same module object; the decoded engine pays its
/// one-time decode — and the JIT its decode+compile — on the warmup run,
/// which is exactly the deployment model (translate per function, execute
/// per invocation). Every kernel's (Steps, ReturnValue) pair is digested
/// per engine and the digests must agree exactly; any divergence is a
/// correctness bug and exits nonzero. Results land in BENCH_interp.json
/// (path overridable as argv[1]) plus BENCH_interp_jit.json (argv[2]) with
/// the JIT-vs-decoded identity digests and speedups, gated in CI at >= 2x.
///
/// -engine=all (default) measures everything; -engine=jit skips the slow
/// tree-walk and measures decoded vs jit only; -engine=decoded restores
/// the historical tree-walk vs decoded run; -engine=treewalk measures the
/// oracle alone. On hosts without jitAvailable() the JIT is skipped and
/// BENCH_interp_jit.json records jit_available=false.
///
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "jit/JitAbi.h"
#include "obs/JsonWriter.h"
#include "obs/Trace.h"
#include "vm/Engine.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace smokestack;

namespace {

/// perlbench-like: FNV-1a folding of a 32-word buffer, rehashed 4000 times.
void buildHashKernel(Module &M) {
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Outer = F->createBlock("outer");
  BasicBlock *Inner = F->createBlock("inner");
  BasicBlock *InnerBody = F->createBlock("inner.body");
  BasicBlock *OuterLatch = F->createBlock("outer.latch");
  BasicBlock *Exit = F->createBlock("exit");

  B.setInsertPoint(Entry);
  AllocaInst *Buf = B.alloca_(B.getContext().getArrayTy(B.i64(), 32), "buf");
  AllocaInst *Acc = B.alloca_(B.i64(), "acc");
  AllocaInst *I = B.alloca_(B.i64(), "i");
  AllocaInst *J = B.alloca_(B.i64(), "j");
  for (int K = 0; K != 32; ++K)
    B.store(B.constI64(0x9E3779B97F4A7C15ULL * (K + 1)),
            B.gepConst(Buf, 8 * K));
  B.store(B.constI64(1469598103934665603ULL), Acc);
  B.store(B.constI64(0), I);
  B.br(Outer);

  B.setInsertPoint(Outer);
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, B.load(B.i64(), I),
                  B.constI64(4000)),
           Inner, Exit);

  B.setInsertPoint(Inner);
  B.store(B.constI64(0), J);
  B.br(InnerBody);

  B.setInsertPoint(InnerBody);
  Value *JV = B.load(B.i64(), J);
  Value *Word = B.load(B.i64(), B.gep(Buf, JV, 8));
  Value *Hash = B.mul(B.xor_(B.load(B.i64(), Acc), Word),
                      B.constI64(1099511628211ULL));
  B.store(Hash, Acc);
  Value *JNext = B.add(JV, B.constI64(1));
  B.store(JNext, J);
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, JNext, B.constI64(32)), InnerBody,
           OuterLatch);

  B.setInsertPoint(OuterLatch);
  B.store(B.add(B.load(B.i64(), I), B.constI64(1)), I);
  B.br(Outer);

  B.setInsertPoint(Exit);
  B.ret(B.load(B.i64(), Acc));
}

/// bzip2-like: byte-frequency counting over a 256-byte block, 1500 passes.
void buildFreqKernel(Module &M) {
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Outer = F->createBlock("outer");
  BasicBlock *Inner = F->createBlock("inner");
  BasicBlock *InnerBody = F->createBlock("inner.body");
  BasicBlock *OuterLatch = F->createBlock("outer.latch");
  BasicBlock *Exit = F->createBlock("exit");

  B.setInsertPoint(Entry);
  AllocaInst *Block = B.alloca_(B.getContext().getArrayTy(B.i8(), 256), "blk");
  AllocaInst *Freq =
      B.alloca_(B.getContext().getArrayTy(B.i64(), 256), "freq");
  AllocaInst *I = B.alloca_(B.i64(), "i");
  AllocaInst *J = B.alloca_(B.i64(), "j");
  for (int K = 0; K != 256; ++K) {
    B.store(B.constI8((K * 67 + 13) & 0xFF), B.gepConst(Block, K));
    B.store(B.constI64(0), B.gepConst(Freq, 8 * K));
  }
  B.store(B.constI64(0), I);
  B.br(Outer);

  B.setInsertPoint(Outer);
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, B.load(B.i64(), I),
                  B.constI64(1500)),
           Inner, Exit);

  B.setInsertPoint(Inner);
  B.store(B.constI64(0), J);
  B.br(InnerBody);

  B.setInsertPoint(InnerBody);
  Value *JV = B.load(B.i64(), J);
  Value *Byte = B.zext(B.i64(), B.load(B.i8(), B.gep(Block, JV, 1)));
  Value *Slot = B.gep(Freq, Byte, 8);
  B.store(B.add(B.load(B.i64(), Slot), B.constI64(1)), Slot);
  Value *JNext = B.add(JV, B.constI64(1));
  B.store(JNext, J);
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, JNext, B.constI64(256)),
           InnerBody, OuterLatch);

  B.setInsertPoint(OuterLatch);
  B.store(B.add(B.load(B.i64(), I), B.constI64(1)), I);
  B.br(Outer);

  B.setInsertPoint(Exit);
  B.ret(B.load(B.i64(), B.gepConst(Freq, 8 * 42)));
}

/// mcf-like: repeated minimum-cost scans of a 128-entry arc table with
/// compare/select chains.
void buildMinScanKernel(Module &M) {
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Outer = F->createBlock("outer");
  BasicBlock *Inner = F->createBlock("inner");
  BasicBlock *InnerBody = F->createBlock("inner.body");
  BasicBlock *OuterLatch = F->createBlock("outer.latch");
  BasicBlock *Exit = F->createBlock("exit");

  B.setInsertPoint(Entry);
  AllocaInst *Costs =
      B.alloca_(B.getContext().getArrayTy(B.i64(), 128), "costs");
  AllocaInst *Best = B.alloca_(B.i64(), "best");
  AllocaInst *Sum = B.alloca_(B.i64(), "sum");
  AllocaInst *I = B.alloca_(B.i64(), "i");
  AllocaInst *J = B.alloca_(B.i64(), "j");
  for (int K = 0; K != 128; ++K)
    B.store(B.constI64((K * 2654435761ULL) % 100000 + 1),
            B.gepConst(Costs, 8 * K));
  B.store(B.constI64(0), Sum);
  B.store(B.constI64(0), I);
  B.br(Outer);

  B.setInsertPoint(Outer);
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, B.load(B.i64(), I),
                  B.constI64(2500)),
           Inner, Exit);

  B.setInsertPoint(Inner);
  B.store(B.constI64(~0ULL), Best);
  B.store(B.constI64(0), J);
  B.br(InnerBody);

  B.setInsertPoint(InnerBody);
  Value *JV = B.load(B.i64(), J);
  Value *Cost = B.load(B.i64(), B.gep(Costs, JV, 8));
  Value *BestV = B.load(B.i64(), Best);
  Value *Less = B.icmp(ICmpInst::Predicate::ULT, Cost, BestV);
  B.store(B.select(Less, Cost, BestV), Best);
  Value *JNext = B.add(JV, B.constI64(1));
  B.store(JNext, J);
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, JNext, B.constI64(128)),
           InnerBody, OuterLatch);

  B.setInsertPoint(OuterLatch);
  B.store(B.add(B.load(B.i64(), Sum), B.load(B.i64(), Best)), Sum);
  // Rotate the table so scans do not trivially repeat.
  Value *First = B.load(B.i64(), B.gepConst(Costs, 0));
  B.store(B.add(First, B.constI64(7919)), B.gepConst(Costs, 0));
  B.store(B.add(B.load(B.i64(), I), B.constI64(1)), I);
  B.br(Outer);

  B.setInsertPoint(Exit);
  B.ret(B.load(B.i64(), Sum));
}

/// gcc-like: worklist loop with data-dependent branching and mixed ALU ops.
void buildWorklistKernel(Module &M) {
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Even = F->createBlock("even");
  BasicBlock *Odd = F->createBlock("odd");
  BasicBlock *Latch = F->createBlock("latch");
  BasicBlock *Exit = F->createBlock("exit");

  B.setInsertPoint(Entry);
  AllocaInst *State = B.alloca_(B.i64(), "state");
  AllocaInst *Acc = B.alloca_(B.i64(), "acc");
  AllocaInst *I = B.alloca_(B.i64(), "i");
  B.store(B.constI64(0x243F6A8885A308D3ULL), State);
  B.store(B.constI64(0), Acc);
  B.store(B.constI64(0), I);
  B.br(Loop);

  B.setInsertPoint(Loop);
  Value *S = B.load(B.i64(), State);
  B.condBr(B.icmp(ICmpInst::Predicate::EQ, B.and_(S, B.constI64(1)),
                  B.constI64(0)),
           Even, Odd);

  B.setInsertPoint(Even);
  B.store(B.add(B.load(B.i64(), Acc), B.lshr(B.load(B.i64(), State),
                                             B.constI64(3))),
          Acc);
  B.store(B.xor_(B.load(B.i64(), State), B.constI64(0x5DEECE66DULL)), State);
  B.br(Latch);

  B.setInsertPoint(Odd);
  B.store(B.xor_(B.load(B.i64(), Acc),
                 B.mul(B.load(B.i64(), State), B.constI64(6364136223846793005ULL))),
          Acc);
  B.store(B.add(B.shl(B.load(B.i64(), State), B.constI64(1)),
                B.constI64(0xB5ULL)),
          State);
  B.br(Latch);

  B.setInsertPoint(Latch);
  Value *INext = B.add(B.load(B.i64(), I), B.constI64(1));
  B.store(INext, I);
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, INext, B.constI64(150000)), Loop,
           Exit);

  B.setInsertPoint(Exit);
  B.ret(B.load(B.i64(), Acc));
}

/// Observability-overhead A/B: a deliberately tiny request (a 64-iteration
/// accumulate) so the per-request probe cost — the always-on step histogram
/// record, plus two clock reads feeding vm.request-nanos when obs timing is
/// enabled — is visible against the run itself instead of vanishing into a
/// multi-million-step kernel.
void buildTinyRequestKernel(Module &M) {
  IRBuilder B(M);
  Function *F = M.createFunction("main", B.i64(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");

  B.setInsertPoint(Entry);
  AllocaInst *Acc = B.alloca_(B.i64(), "acc");
  AllocaInst *I = B.alloca_(B.i64(), "i");
  B.store(B.constI64(0), Acc);
  B.store(B.constI64(0), I);
  B.br(Loop);

  B.setInsertPoint(Loop);
  Value *IV = B.load(B.i64(), I);
  B.store(B.add(B.load(B.i64(), Acc), IV), Acc);
  Value *INext = B.add(IV, B.constI64(1));
  B.store(INext, I);
  B.condBr(B.icmp(ICmpInst::Predicate::ULT, INext, B.constI64(64)), Loop,
           Exit);

  B.setInsertPoint(Exit);
  B.ret(B.load(B.i64(), Acc));
}

/// Serves \p RequestsPerRep tiny requests through runRequest() per rep and
/// returns the median requests/sec over \p Reps reps.
double measureRequestRate(Interpreter &VM, int RequestsPerRep, int Reps) {
  std::vector<double> Times;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    for (int I = 0; I != RequestsPerRep; ++I) {
      ExecResult E = VM.runRequest("main");
      if (!E.ok()) {
        std::fprintf(stderr, "obs kernel trapped: %s\n", E.Message.c_str());
        std::exit(1);
      }
    }
    auto T1 = std::chrono::steady_clock::now();
    Times.push_back(std::chrono::duration<double>(T1 - T0).count());
  }
  std::sort(Times.begin(), Times.end());
  return RequestsPerRep / Times[Times.size() / 2];
}

struct KernelSpec {
  const char *Name;
  void (*Build)(Module &M);
};

const KernelSpec Kernels[] = {
    {"perlbench.fnv_hash", buildHashKernel},
    {"bzip2.byte_freq", buildFreqKernel},
    {"mcf.min_scan", buildMinScanKernel},
    {"gcc.worklist", buildWorklistKernel},
};

struct EngineResult {
  uint64_t Steps = 0;
  uint64_t ReturnValue = 0;
  double SecondsPerRun = 0.0;
  uint64_t Digest = 0;
};

/// FNV-1a over the result pair — the identity fingerprint compared across
/// engines (and archived in BENCH_interp_jit.json for the CI gate).
uint64_t digestResult(uint64_t Steps, uint64_t ReturnValue) {
  uint64_t H = 1469598103934665603ULL;
  for (uint64_t V : {Steps, ReturnValue})
    for (int B = 0; B != 8; ++B) {
      H ^= (V >> (B * 8)) & 0xFF;
      H *= 1099511628211ULL;
    }
  return H;
}

/// Runs `main` of \p M Reps times on one engine and returns the median
/// per-run wall time. The first (untimed) warmup run absorbs the one-time
/// decode cost for the decoded engine — plus the stencil compile for the
/// JIT (JitThreshold=0 promotes on the warmup call) — and any allocator
/// warmup for all of them.
EngineResult measureEngine(Module &M, VmEngine E, int Reps) {
  InterpreterOptions Opts;
  setEngine(Opts, E);
  Opts.JitThreshold = 0;
  Interpreter VM(M, nullptr, Opts);

  ExecResult Warm = VM.run("main");
  if (!Warm.ok()) {
    std::fprintf(stderr, "kernel trapped: %s\n", Warm.Message.c_str());
    std::exit(1);
  }

  std::vector<double> Times;
  EngineResult R;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    ExecResult Res = VM.run("main");
    auto T1 = std::chrono::steady_clock::now();
    if (!Res.ok()) {
      std::fprintf(stderr, "kernel trapped: %s\n", Res.Message.c_str());
      std::exit(1);
    }
    R.Steps = Res.Steps;
    R.ReturnValue = Res.ReturnValue;
    Times.push_back(std::chrono::duration<double>(T1 - T0).count());
  }
  std::sort(Times.begin(), Times.end());
  R.SecondsPerRun = Times[Times.size() / 2];
  R.Digest = digestResult(R.Steps, R.ReturnValue);
  return R;
}

} // namespace

int main(int argc, char **argv) {
  // -engine=all, or one engine by its shared table name.
  bool All = true;
  VmEngine Sel = VmEngine::Decoded;
  std::vector<const char *> Paths;
  for (int I = 1; I != argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("-engine=", 0) == 0) {
      All = Arg == "-engine=all";
      if (!All && !parseEngine(Arg.substr(8), Sel)) {
        std::fprintf(stderr, "unknown %s (all|%s)\n", Arg.c_str(),
                     VmEngineChoices);
        return 1;
      }
    } else {
      Paths.push_back(argv[I]);
    }
  }
  const char *JsonPath = Paths.size() > 0 ? Paths[0] : "BENCH_interp.json";
  const char *JitJsonPath =
      Paths.size() > 1 ? Paths[1] : "BENCH_interp_jit.json";
  const int Reps = 5;

  // The decoded engine is always measured: it is the digest oracle for the
  // JIT and the baseline of both speedup gates. -engine trims the rest.
  const bool WantTree = All || Sel != VmEngine::Jit;
  const bool WantDecoded = All || Sel != VmEngine::TreeWalk;
  const bool WantJit = (All || Sel == VmEngine::Jit) &&
                       availableEngine(VmEngine::Jit) == VmEngine::Jit;

  std::printf("Mini-IR interpreter throughput: tree-walk vs pre-decoded "
              "vs jit\n");
  std::printf("%-22s %12s %14s %14s %14s %9s %9s\n", "kernel", "steps",
              "tree Mst/s", "decoded Mst/s", "jit Mst/s", "speedup",
              "jit/dec");

  using Layout = JsonWriter::Layout;
  JsonWriter Json, JitJson;
  Json.beginObject();
  Json.key("benchmark").str("interp_throughput");
  Json.key("reps").integer(Reps);
  Json.key("kernels").beginArray();
  JitJson.beginObject();
  JitJson.key("benchmark").str("interp_jit");
  JitJson.key("jit_available").boolean(jitAvailable());
  JitJson.key("reps").integer(Reps);
  JitJson.key("kernels").beginArray();
  double MaxSpeedup = 0.0;
  double MinJitSpeedup = WantJit ? 1e300 : 0.0;
  bool DigestMismatch = false;
  for (size_t K = 0; K != std::size(Kernels); ++K) {
    const KernelSpec &Spec = Kernels[K];
    Module M(Spec.Name);
    Spec.Build(M);

    EngineResult Tree, Decoded, Jit;
    if (WantTree)
      Tree = measureEngine(M, VmEngine::TreeWalk, Reps);
    if (WantDecoded)
      Decoded = measureEngine(M, VmEngine::Decoded, Reps);
    else
      Decoded = Tree; // -engine=treewalk: reuse the oracle as the baseline
    if (WantJit)
      Jit = measureEngine(M, VmEngine::Jit, Reps);

    if (WantTree && WantDecoded &&
        (Tree.ReturnValue != Decoded.ReturnValue ||
         Tree.Steps != Decoded.Steps)) {
      std::fprintf(stderr, "%s: engine divergence (tree %llu/%llu steps, "
                           "decoded %llu/%llu steps)\n",
                   Spec.Name,
                   static_cast<unsigned long long>(Tree.ReturnValue),
                   static_cast<unsigned long long>(Tree.Steps),
                   static_cast<unsigned long long>(Decoded.ReturnValue),
                   static_cast<unsigned long long>(Decoded.Steps));
      return 1;
    }
    if (WantJit && Jit.Digest != Decoded.Digest) {
      std::fprintf(stderr, "%s: JIT identity violation (decoded %llu/%llu, "
                           "jit %llu/%llu)\n",
                   Spec.Name,
                   static_cast<unsigned long long>(Decoded.ReturnValue),
                   static_cast<unsigned long long>(Decoded.Steps),
                   static_cast<unsigned long long>(Jit.ReturnValue),
                   static_cast<unsigned long long>(Jit.Steps));
      DigestMismatch = true;
    }

    double TreeRate = WantTree ? Tree.Steps / Tree.SecondsPerRun : 0.0;
    double DecodedRate = Decoded.Steps / Decoded.SecondsPerRun;
    double JitRate = WantJit ? Jit.Steps / Jit.SecondsPerRun : 0.0;
    double Speedup = WantTree && WantDecoded ? DecodedRate / TreeRate : 0.0;
    double JitSpeedup = WantJit ? JitRate / DecodedRate : 0.0;
    MaxSpeedup = std::max(MaxSpeedup, Speedup);
    if (WantJit)
      MinJitSpeedup = std::min(MinJitSpeedup, JitSpeedup);

    std::printf("%-22s %12llu %14.2f %14.2f %14.2f %8.2fx %8.2fx\n",
                Spec.Name,
                static_cast<unsigned long long>(Decoded.Steps),
                TreeRate / 1e6, DecodedRate / 1e6, JitRate / 1e6, Speedup,
                JitSpeedup);

    Json.beginObject(Layout::Inline);
    Json.key("name").str(Spec.Name);
    Json.key("steps").integer(Decoded.Steps);
    Json.key("treewalk_steps_per_sec").fixed(TreeRate, 0);
    Json.key("decoded_steps_per_sec").fixed(DecodedRate, 0);
    Json.key("jit_steps_per_sec").fixed(JitRate, 0);
    Json.key("speedup").fixed(Speedup, 3);
    Json.key("jit_speedup_vs_decoded").fixed(JitSpeedup, 3);
    Json.endObject();

    JitJson.beginObject(Layout::Inline);
    JitJson.key("name").str(Spec.Name);
    JitJson.key("digest_decoded").hex(Decoded.Digest, /*Prefix=*/false);
    JitJson.key("digest_jit")
        .hex(WantJit ? Jit.Digest : Decoded.Digest, /*Prefix=*/false);
    JitJson.key("jit_speedup_vs_decoded").fixed(JitSpeedup, 3);
    JitJson.endObject();
  }
  // The JIT identity/throughput summary is written whenever the decoded
  // baseline was measured; on hosts without a JIT the digests are the
  // decoded ones and jit_available=false tells the gate to skip.
  if (WantDecoded) {
    JitJson.endArray();
    JitJson.key("min_jit_speedup_vs_decoded")
        .fixed(WantJit ? MinJitSpeedup : 0.0, 3);
    JitJson.endObject();
    if (JitJson.writeFile(JitJsonPath)) {
      std::printf("\nwrote %s\n", JitJsonPath);
    } else {
      std::fprintf(stderr, "cannot write %s\n", JitJsonPath);
      return 1;
    }
  }
  if (DigestMismatch)
    return 1;
  if (WantJit && MinJitSpeedup < 2.0) {
    std::fprintf(stderr,
                 "gate: min JIT speedup vs decoded %.2fx < 2.0x\n",
                 MinJitSpeedup);
    return 2;
  }
  if (!WantTree)
    return 0; // -engine=jit: no tree-walk baseline, no obs A/B, no gate below

  // Observability-overhead A/B (DESIGN.md §11): the same tiny request
  // served three ways — obs probes compiled in but timing off, off again
  // (the delta between the two off runs is the measurement noise floor),
  // then with obs timing enabled so every request reads the clock twice
  // and feeds vm.request-nanos. The off runs price the disabled probes
  // (one relaxed load + the step-histogram record); the on run prices full
  // per-request latency tracing.
  Module ObsM("obs.tiny_request");
  buildTinyRequestKernel(ObsM);
  InterpreterOptions ObsOpts;
  ObsOpts.UseDecodedEngine = true;
  Interpreter ObsVM(ObsM, nullptr, ObsOpts);
  const int ObsRequests = 20000;
  const int ObsReps = 9;
  measureRequestRate(ObsVM, ObsRequests, 1); // warmup: decode + allocator
  double DisabledRate = measureRequestRate(ObsVM, ObsRequests, ObsReps);
  double DisabledRerun = measureRequestRate(ObsVM, ObsRequests, ObsReps);
  double EnabledRate;
  {
    ObsTimingScope Timing;
    EnabledRate = measureRequestRate(ObsVM, ObsRequests, ObsReps);
  }
  double NoisePct =
      std::fabs(DisabledRate - DisabledRerun) / DisabledRate * 100.0;
  double OverheadPct = (DisabledRate - EnabledRate) / DisabledRate * 100.0;
  std::printf("\nobservability overhead (tiny request, %d reqs/rep):\n"
              "  timing off     %12.0f req/s\n"
              "  timing off #2  %12.0f req/s  (noise floor %.2f%%)\n"
              "  timing on      %12.0f req/s  (overhead %.2f%%)\n",
              ObsRequests, DisabledRate, DisabledRerun, NoisePct, EnabledRate,
              OverheadPct);

  Json.endArray();
  Json.key("obs_overhead").beginObject(Layout::Inline);
  Json.key("requests_per_rep").integer(ObsRequests);
  Json.key("disabled_req_per_sec").fixed(DisabledRate, 0);
  Json.key("disabled_rerun_req_per_sec").fixed(DisabledRerun, 0);
  Json.key("enabled_req_per_sec").fixed(EnabledRate, 0);
  Json.key("noise_pct").fixed(NoisePct, 2);
  Json.key("enabled_overhead_pct").fixed(OverheadPct, 2);
  Json.endObject();
  Json.key("max_speedup").fixed(MaxSpeedup, 3);
  Json.endObject();

  if (Json.writeFile(JsonPath)) {
    std::printf("\nwrote %s\n", JsonPath);
  } else {
    std::fprintf(stderr, "cannot write %s\n", JsonPath);
    return 1;
  }
  return MaxSpeedup >= 3.0 ? 0 : 2;
}
