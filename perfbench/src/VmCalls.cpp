//===- perfbench/src/VmCalls.cpp - The hardened VM call workload ----------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// A call-dense Mini-IR kernel built here: driver(x, n) loops n times over a
// leaf with a scalar frame and a leaf with an array frame, and every 16th
// iteration descends a recursive chain. Hardened with Smokestack, it runs
// on one Interpreter with the JIT on and an AES-1 source keyed per request,
// so every call pays the RNG draw, the P-BOX row, the slice adds and the
// function-id check, and no net or runtime layer is involved.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/SmokestackPass.h"
#include "defenses/Deploy.h"
#include "ir/IRBuilder.h"
#include "jit/JitAbi.h"
#include "rng/AesCtr.h"
#include "rng/Entropy.h"
#include "runtime/DeriveSeed.h"

#include <memory>

using namespace smokestack;

namespace perfbench {
namespace {

/// Driver iterations per request: about 1.3k calls.
constexpr uint64_t Iterations = 500;
constexpr unsigned RecursionDepth = 8;
/// Every CheckStride-th request is replayed against the references.
constexpr uint64_t CheckStride = 8;

using Pred = ICmpInst::Predicate;

void buildKernel(Module &M) {
  IRBuilder B(M);
  Type *I64 = B.i64();

  // leaf_scalar(x): three scalar locals.
  Function *Scalar = M.createFunction("leaf_scalar", I64, {I64});
  B.setInsertPoint(Scalar->createBlock("entry"));
  {
    AllocaInst *A = B.alloca_(I64, "a");
    AllocaInst *Bv = B.alloca_(I64, "b");
    AllocaInst *C = B.alloca_(I64, "c");
    Value *X = Scalar->getArg(0);
    B.store(X, A);
    B.store(B.add(B.mul(X, B.constI64(3)), B.constI64(1)), Bv);
    B.store(B.xor_(B.load(I64, A), B.load(I64, Bv)), C);
    B.ret(B.add(B.add(B.load(I64, A), B.load(I64, Bv)), B.load(I64, C)));
  }

  // leaf_array(x): a 16-word array next to two scalars.
  Function *Array = M.createFunction("leaf_array", I64, {I64});
  B.setInsertPoint(Array->createBlock("entry"));
  {
    AllocaInst *Arr = B.alloca_(B.getContext().getArrayTy(I64, 16), "arr");
    AllocaInst *K = B.alloca_(I64, "k");
    AllocaInst *S = B.alloca_(I64, "s");
    Value *X = Array->getArg(0);
    B.store(B.and_(X, B.constI64(7)), K);
    Value *Kv = B.load(I64, K);
    B.store(X, B.gep(Arr, Kv, 8));
    B.store(B.add(X, B.constI64(1)), B.gep(Arr, Kv, 8, 64));
    B.store(B.add(B.load(I64, B.gep(Arr, Kv, 8)),
                  B.load(I64, B.gep(Arr, Kv, 8, 64))),
            S);
    B.ret(B.load(I64, S));
  }

  // rec(d, x): a chain of depth d with two scalar locals per frame.
  Function *Rec = M.createFunction("rec", I64, {I64, I64});
  {
    BasicBlock *Entry = Rec->createBlock("entry");
    BasicBlock *Base = Rec->createBlock("base");
    BasicBlock *Step = Rec->createBlock("step");
    B.setInsertPoint(Entry);
    AllocaInst *T = B.alloca_(I64, "t");
    AllocaInst *U = B.alloca_(I64, "u");
    Value *D = Rec->getArg(0);
    B.store(B.add(Rec->getArg(1), D), T);
    B.condBr(B.icmp(Pred::EQ, D, B.constI64(0)), Base, Step);
    B.setInsertPoint(Base);
    B.ret(B.load(I64, T));
    B.setInsertPoint(Step);
    B.store(B.call(Rec, {B.sub(D, B.constI64(1)),
                         B.mul(B.load(I64, T), B.constI64(5))}),
            U);
    B.ret(B.xor_(B.load(I64, U), B.load(I64, T)));
  }

  // driver(x, n).
  Function *Driver = M.createFunction("driver", I64, {I64, I64});
  BasicBlock *Entry = Driver->createBlock("entry");
  BasicBlock *Loop = Driver->createBlock("loop");
  BasicBlock *Body = Driver->createBlock("body");
  BasicBlock *Deep = Driver->createBlock("deep");
  BasicBlock *Latch = Driver->createBlock("latch");
  BasicBlock *Exit = Driver->createBlock("exit");
  B.setInsertPoint(Entry);
  AllocaInst *I = B.alloca_(I64, "i");
  AllocaInst *Acc = B.alloca_(I64, "acc");
  B.store(B.constI64(0), I);
  B.store(Driver->getArg(0), Acc);
  B.br(Loop);
  B.setInsertPoint(Loop);
  B.condBr(B.icmp(Pred::SLT, B.load(I64, I), Driver->getArg(1)), Body, Exit);
  B.setInsertPoint(Body);
  {
    Value *Iv = B.load(I64, I);
    B.store(B.add(B.load(I64, Acc),
                  B.call(Scalar, {B.add(B.load(I64, Acc), Iv)})),
            Acc);
    B.store(B.add(B.load(I64, Acc),
                  B.call(Array, {B.xor_(B.load(I64, Acc), Iv)})),
            Acc);
    B.condBr(B.icmp(Pred::EQ, B.and_(Iv, B.constI64(15)), B.constI64(0)),
             Deep, Latch);
  }
  B.setInsertPoint(Deep);
  B.store(B.add(B.load(I64, Acc),
                B.call(Rec, {B.constI64(RecursionDepth), B.load(I64, Acc)})),
          Acc);
  B.br(Latch);
  B.setInsertPoint(Latch);
  B.store(B.add(B.load(I64, I), B.constI64(1)), I);
  B.br(Loop);
  B.setInsertPoint(Exit);
  B.ret(B.load(I64, Acc));
}

/// The request's input: its starting accumulator, from the seed.
uint64_t requestArg(uint64_t Seed, uint64_t Index) {
  return deriveSeed(Seed, Index, SeedLane::FaultPlan) & 0xffffffffffffULL;
}

/// A per-request AES-1 source: keyed from (seed, index), so any request
/// can be replayed alone on another engine with the identical draws.
class RequestAes1 {
public:
  RequestAes1(uint64_t Seed, uint64_t Index)
      : Entropy(deriveSeed(Seed, Index, SeedLane::AesEntropy)),
        Source(Entropy, /*NumRounds=*/1) {}
  AesCtrRandomSource &source() { return Source; }

private:
  DeterministicEntropySource Entropy;
  AesCtrRandomSource Source;
};

/// One kernel module under one defense, with its Interpreter.
struct Engine {
  Engine(uint64_t Seed, DefenseKind Kind, bool Jit)
      : M(std::make_unique<Module>("perfbench-vm-calls")) {
    buildKernel(*M);
    DeployedDefense D = deployDefense(*M, Kind, Seed);
    D.InterpOpts.UseJit = Jit;
    VM = std::make_unique<Interpreter>(*M, nullptr, D.InterpOpts);
  }

  ExecResult run(uint64_t Seed, uint64_t Index) {
    RequestAes1 Rng(Seed, Index);
    VM->setRandomSource(&Rng.source());
    ExecResult E = VM->runRequest("driver", {requestArg(Seed, Index),
                                             Iterations});
    Draws = Rng.source().callCounter();
    VM->setRandomSource(nullptr);
    return E;
  }

  std::unique_ptr<Module> M;
  std::unique_ptr<Interpreter> VM;
  uint64_t Draws = 0;
};

/// Set-up ends when the JIT has compiled the kernel: one warm-up request
/// (index ~0, never an op) tiers every function up.
constexpr uint64_t WarmupIndex = ~uint64_t(0);

std::unique_ptr<Engine> setupJit(uint64_t Seed, double *FirstRunMs) {
  auto E = std::make_unique<Engine>(Seed, DefenseKind::Smokestack, true);
  uint64_t Start = nowNs();
  E->run(Seed, WarmupIndex);
  if (FirstRunMs)
    *FirstRunMs = static_cast<double>(nowNs() - Start) * 1e-6;
  return E;
}

/// The stale-layout attacker against leaf_array: it discloses the distance
/// from arr to s in one invocation and overflows arr by that distance in
/// the next AttacksPerDisclosure ones, then discloses afresh. A write lands
/// only when the invocation repeats the disclosed distance. Fresh
/// disclosures keep the rate from hinging on one lucky layout.
class StaleLayoutProbe : public LayoutObserver {
public:
  void onAlloca(const Function &, const AllocaInst &, uint64_t,
                uint64_t) override {}
  void onFunctionEnter(const Function &F) override {
    Inside = F.getName() == "leaf_array";
    HaveArr = HaveS = false;
  }
  void onVariableAddress(const Function &F, const std::string &Name,
                         uint64_t Addr) override {
    if (!Inside || F.getName() != "leaf_array")
      return;
    if (Name == "arr") {
      Arr = Addr;
      HaveArr = true;
    } else if (Name == "s") {
      S = Addr;
      HaveS = true;
    }
    if (!HaveArr || !HaveS)
      return;
    Inside = false;
    int64_t Delta = static_cast<int64_t>(S) - static_cast<int64_t>(Arr);
    if (Left == 0) {
      if (Delta > 0) {
        Left = AttacksPerDisclosure;
        Stale = Delta;
      }
      return;
    }
    --Left;
    ++Attempts;
    if (Delta == Stale)
      ++Landed;
  }

  uint64_t Attempts = 0;
  uint64_t Landed = 0;

private:
  bool Inside = false, HaveArr = false, HaveS = false;
  unsigned Left = 0;
  uint64_t Arr = 0, S = 0;
  int64_t Stale = 0;
};

bool sameOutcome(const ExecResult &A, const ExecResult &B) {
  return A.Trap == B.Trap && A.ReturnValue == B.ReturnValue &&
         A.Steps == B.Steps;
}

bool requireJit(RunResult &R) {
  if (jitAvailable())
    return true;
  R.unavailable("vm_calls needs the JIT and jitAvailable() is false on this "
                "host; it is not run on the decoded engine instead");
  return false;
}

} // namespace

void runVmCalls(const Options &O, RunResult &R) {
  if (!requireJit(R))
    return;
  SetupSampler Setups([&] { return setupJit(O.Seed, nullptr); });
  std::unique_ptr<Engine> Jit = Setups.upFront();
  const double SetupS = Setups.fastestSeconds();
  if (Jit->VM->jitCompiledFunctions() == 0) {
    R.fail("vm_calls: the JIT compiled nothing during warm-up");
    return;
  }
  R.fact("engine", "\"jit\"");

  std::vector<double> LatencyUs;
  std::vector<uint64_t> StartNs;
  std::vector<std::pair<uint64_t, ExecResult>> Sampled;
  uint64_t Failed = 0;
  const uint64_t Start = nowNs();
  const uint64_t End = Start + static_cast<uint64_t>(O.Seconds * 1e9);
  uint64_t N = 0;
  for (; nowNs() < End; ++N) {
    RequestAes1 Rng(O.Seed, N);
    Jit->VM->setRandomSource(&Rng.source());
    std::vector<uint64_t> Args = {requestArg(O.Seed, N), Iterations};
    uint64_t A = nowNs();
    ExecResult E = Jit->VM->runRequest("driver", Args);
    StartNs.push_back(A);
    LatencyUs.push_back(static_cast<double>(nowNs() - A) * 1e-3);
    if (!E.ok())
      ++Failed;
    if (N % CheckStride == 0)
      Sampled.emplace_back(N, E);
  }
  Jit->VM->setRandomSource(nullptr);
  // Throughput per time window.
  std::vector<double> Rates;
  const uint64_t WindowNs = (End - Start) / MetricWindows;
  size_t Op = 0;
  for (unsigned W = 0; W != MetricWindows; ++W) {
    size_t First = Op;
    while (Op != StartNs.size() && StartNs[Op] < Start + (W + 1) * WindowNs)
      ++Op;
    Rates.push_back(static_cast<double>(Op - First) * 1e9 /
                    static_cast<double>(WindowNs));
  }
  const double RssMb = peakRssMb();

  // References: the unhardened module on the decoded engine (independent
  // of the RNG and of the pass), and the hardened module on the decoded
  // engine with the identical per-request draws (same digest as the JIT).
  Engine Plain(O.Seed, DefenseKind::None, false);
  Engine Decoded(O.Seed, DefenseKind::Smokestack, false);
  StaleLayoutProbe Probe;
  Decoded.VM->setLayoutObserver(&Probe);
  uint64_t Mismatch = 0;
  for (const auto &[Index, E] : Sampled) {
    ExecResult Ref = Plain.run(O.Seed, Index);
    ExecResult Dec = Decoded.run(O.Seed, Index);
    bool Bad = !Ref.ok() || Ref.ReturnValue != E.ReturnValue ||
               !sameOutcome(Dec, E);
    Mismatch += Bad;
    Failed += Bad && E.ok();
  }
  if (Mismatch)
    R.fail("vm_calls: " + std::to_string(Mismatch) +
           " requests differ from the unhardened or decoded reference");
  if (Failed)
    R.fail("vm_calls: " + std::to_string(Failed) + " requests failed");
  R.ops(N, Failed);

  R.add("ops_per_s", median(Rates), "1/s");
  R.add("latency_p90_us",
        median(perWindow(LatencyUs, MetricWindows, TailQuantile)), "us");
  R.add("defeat_rate",
        Probe.Attempts ? 1.0 - static_cast<double>(Probe.Landed) /
                                   static_cast<double>(Probe.Attempts)
                       : 0,
        "ratio");
  R.add("setup_s", SetupS, "s");
  R.add("peak_rss_mb", RssMb, "MB");
  R.samples("ops_per_s", N);
  R.samples("latency_p90_us", N);
  R.samples("defeat_rate", Probe.Attempts);
  R.samples("setup_s", SetupReps);
}

void traceVmCalls(const Options &O, double Budget, bool Home, RunResult &R,
                  SpanLog &Spans) {
  if (!requireJit(R))
    return;
  double FirstMs = 0;
  std::unique_ptr<Engine> Jit = setupJit(O.Seed, &FirstMs);
  Engine JitPlain(O.Seed, DefenseKind::None, true);
  JitPlain.run(O.Seed, WarmupIndex);
  Engine Decoded(O.Seed, DefenseKind::Smokestack, false);

  // Interleaved rounds: the same request on the hardened JIT, the
  // unhardened JIT and the hardened decoded engine.
  std::vector<double> HardUs, PrologueNs, Speedup, DrawsPerCall;
  uint64_t Steps = 0, Calls = 0, Failed = 0, N = 0;
  double HardSeconds = 0;
  const double Share = Home ? 0.6 : 1.0;
  const uint64_t End = nowNs() + static_cast<uint64_t>(Budget * Share * 1e9);
  for (; nowNs() < End; ++N) {
    uint64_t A = nowNs();
    ExecResult H = Jit->run(O.Seed, N);
    uint64_t B = nowNs();
    uint64_t HardCalls = Jit->VM->callsExecuted();
    ExecResult P = JitPlain.run(O.Seed, N);
    uint64_t C = nowNs();
    ExecResult D = Decoded.run(O.Seed, N);
    uint64_t E = nowNs();
    bool Bad = !H.ok() || !sameOutcome(H, D) || P.ReturnValue != H.ReturnValue;
    Failed += Bad;
    HardUs.push_back(static_cast<double>(B - A) * 1e-3);
    HardSeconds += static_cast<double>(B - A) * 1e-9;
    Steps += H.Steps;
    Calls += HardCalls;
    PrologueNs.push_back((static_cast<double>(B - A) -
                          static_cast<double>(C - B)) /
                         static_cast<double>(HardCalls));
    Speedup.push_back(static_cast<double>(E - C) / static_cast<double>(B - A));
    DrawsPerCall.push_back(static_cast<double>(Jit->Draws) /
                           static_cast<double>(HardCalls));
    uint32_t Op = Spans.record("vm_calls.round", N, 0, A, E);
    Spans.record("vm.runRequest.jit.hardened", N, Op, A, B);
    Spans.record("vm.runRequest.jit.plain", N, Op, B, C);
    Spans.record("vm.runRequest.decoded.hardened", N, Op, C, E);
  }
  if (Failed)
    R.fail("vm_calls: " + std::to_string(Failed) +
           " traced requests differ across engines or modules");
  R.ops(N, Failed);

  // P-BOX of the same kernel, straight from the pass.
  Module PBoxModule("perfbench-vm-calls-pbox");
  buildKernel(PBoxModule);
  SmokestackPass Pass;
  Pass.runOnModule(PBoxModule);

  const double Steady = median(HardUs) * 1e-3;
  R.add("vm.steps_per_s", static_cast<double>(Steps) / HardSeconds, "1/s");
  R.add("vm.prologue_ns_per_call", median(PrologueNs), "ns");
  R.add("vm.steps_per_request",
        static_cast<double>(Steps) / static_cast<double>(N), "count");
  R.add("vm.calls_per_request",
        static_cast<double>(Calls) / static_cast<double>(N), "count");
  R.add("jit.compiled_functions",
        static_cast<double>(Jit->VM->jitCompiledFunctions()), "count");
  R.add("jit.speedup_vs_decoded", median(Speedup), "x");
  R.add("jit.warmup_ms", FirstMs - Steady, "ms");
  R.add("rng.draws_per_call", median(DrawsPerCall), "count");
  R.add("core.pbox_tables", static_cast<double>(Pass.pbox().numTables()),
        "count");
  R.add("core.pbox_bytes", static_cast<double>(Pass.pbox().totalBytes()),
        "bytes");
  R.add("core.pbox_share_hits", static_cast<double>(Pass.pbox().shareHits()),
        "count");

  if (!Home)
    return;
  // Trace cost: the measured op loop untraced, then with a span per
  // request, alternating.
  const double Slice = Budget * 0.1;
  double Rate[2] = {0, 0};
  uint64_t Index = N;
  for (unsigned Rep = 0; Rep != 4; ++Rep) {
    bool Traced = Rep % 2;
    uint64_t Ops = 0;
    const uint64_t T0 = nowNs();
    const uint64_t Stop = T0 + static_cast<uint64_t>(Slice * 1e9);
    for (; nowNs() < Stop; ++Ops, ++Index) {
      uint64_t A = nowNs();
      ExecResult E = Jit->run(O.Seed, Index);
      if (Traced)
        Spans.record("vm_calls.request", Index, 0, A, nowNs());
      if (!E.ok())
        R.fail("vm_calls: request trapped during the trace-cost loop");
    }
    R.ops(Ops, 0);
    Rate[Traced] += static_cast<double>(Ops) / secondsSince(T0) / 2;
  }
  R.add("bench.trace_overhead_pct", overheadPct(Rate[0], Rate[1]), "%");
  R.add("bench.latency_p50_us", median(HardUs), "us");
  R.add("bench.latency_p99_us", quantile(HardUs, 0.99), "us");
}

} // namespace perfbench
