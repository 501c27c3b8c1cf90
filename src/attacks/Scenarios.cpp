//===- attacks/Scenarios.cpp - Synthetic DOP attack scenarios --------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "attacks/Scenarios.h"

#include "ir/IRBuilder.h"
#include "rng/Pseudo.h"
#include "support/ErrorHandling.h"
#include "support/Format.h"

#include <cstring>

using namespace smokestack;

namespace {

/// Magic the indirect attack must plant in the second stack word.
constexpr uint64_t IndirectMagic = 0x5EC2E7;

//===----------------------------------------------------------------------===//
// Vulnerable program builders
//===----------------------------------------------------------------------===//

/// Paper-Listing-1 shape, split across a caller/callee pair:
///   driver() holds the DOP dispatcher (ctr) and gadget operands
///   (op/step/acc); vuln() holds the overflowable buffer. A linear overflow
///   of buff sweeps upward through vuln's frame into driver's.
void buildDirectScenario(Module &M) {
  IRBuilder B(M);
  Function *GetInput = M.getOrInsertDeclaration("get_input", B.i64(), {B.ptr()});

  Function *Vuln = M.createFunction("vuln", B.voidTy(), {});
  {
    IRBuilder VB(M);
    VB.setInsertPoint(Vuln->createBlock("entry"));
    AllocaInst *Local = VB.alloca_(VB.i64(), "vlocal");
    AllocaInst *Buff =
        VB.alloca_(VB.getContext().getArrayTy(VB.i8(), 64), "buff");
    VB.store(VB.constI64(0), Local);
    VB.call(GetInput, {Buff});
    VB.ret();
  }

  Function *Driver = M.createFunction("driver", B.i64(), {});
  BasicBlock *Entry = Driver->createBlock("entry");
  BasicBlock *Loop = Driver->createBlock("loop");
  BasicBlock *Body = Driver->createBlock("body");
  BasicBlock *Chk1 = Driver->createBlock("chk1");
  BasicBlock *GAdd = Driver->createBlock("g_add");
  BasicBlock *GSub = Driver->createBlock("g_sub");
  BasicBlock *GSet = Driver->createBlock("g_set");
  BasicBlock *Latch = Driver->createBlock("latch");
  BasicBlock *Exit = Driver->createBlock("exit");

  B.setInsertPoint(Entry);
  AllocaInst *Ctr = B.alloca_(B.i64(), "ctr");
  AllocaInst *Op = B.alloca_(B.i64(), "op");
  AllocaInst *Step = B.alloca_(B.i64(), "step");
  AllocaInst *Acc = B.alloca_(B.i64(), "acc");
  B.store(B.constI64(0), Ctr);
  B.store(B.constI64(0), Op);
  B.store(B.constI64(1), Step);
  B.store(B.constI64(5), Acc);
  B.br(Loop);

  B.setInsertPoint(Loop);
  B.condBr(B.icmp(ICmpInst::Predicate::SLT, B.load(B.i64(), Ctr),
                  B.constI64(8)),
           Body, Exit);

  B.setInsertPoint(Body);
  B.call(Vuln, {});
  Value *OpV = B.load(B.i64(), Op);
  B.condBr(B.icmp(ICmpInst::Predicate::EQ, OpV, B.constI64(0)), GAdd, Chk1);
  B.setInsertPoint(Chk1);
  B.condBr(B.icmp(ICmpInst::Predicate::EQ, OpV, B.constI64(1)), GSub, GSet);

  B.setInsertPoint(GAdd); // *size += *step
  B.store(B.add(B.load(B.i64(), Acc), B.load(B.i64(), Step)), Acc);
  B.br(Latch);
  B.setInsertPoint(GSub); // *size -= *step
  B.store(B.sub(B.load(B.i64(), Acc), B.load(B.i64(), Step)), Acc);
  B.br(Latch);
  B.setInsertPoint(GSet); // *step = *req
  B.store(OpV, Step);
  B.br(Latch);

  B.setInsertPoint(Latch);
  B.store(B.add(B.load(B.i64(), Ctr), B.constI64(1)), Ctr);
  B.br(Loop);

  B.setInsertPoint(Exit);
  B.ret(B.load(B.i64(), Acc));
}

/// driver()'s locals in the indirect scenarios: the two words the attack
/// must overwrite, among filler locals so a per-invocation permutation has
/// real entropy.
struct EscalationTargets {
  AllocaInst *Secret;
  AllocaInst *Check;
  /// Extra i64 local declared after the filler (null unless requested).
  AllocaInst *Scratch;
};

/// Declares and zeroes the targets and filler at B's insertion point.
EscalationTargets declareTargets(IRBuilder &B,
                                 const char *ScratchName = nullptr) {
  AllocaInst *Secret = B.alloca_(B.i64(), "secret");
  AllocaInst *Check = B.alloca_(B.i64(), "check");
  AllocaInst *F1 = B.alloca_(B.getContext().getArrayTy(B.i8(), 24), "f1");
  AllocaInst *F2 = B.alloca_(B.i32(), "f2");
  AllocaInst *F3 = B.alloca_(B.i64(), "f3");
  AllocaInst *F4 = B.alloca_(B.getContext().getArrayTy(B.i8(), 16), "f4");
  AllocaInst *F5 = B.alloca_(B.i16(), "f5");
  AllocaInst *Scratch =
      ScratchName ? B.alloca_(B.i64(), ScratchName) : nullptr;
  B.store(B.constI64(0), Secret);
  B.store(B.constI64(0), Check);
  B.store(B.constI8(0), F1);
  B.store(B.constI32(0), F2);
  B.store(B.constI64(0), F3);
  B.store(B.constI8(0), F4);
  B.store(B.constInt(B.i16(), 0), F5);
  return {Secret, Check, Scratch};
}

/// Returns 1 from driver() iff the program's write-throughs planted both
/// secret=1 and check=IndirectMagic (the privilege escalation).
void returnEscalated(IRBuilder &B, const EscalationTargets &Targets) {
  Value *GotSecret = B.icmp(ICmpInst::Predicate::EQ,
                            B.load(B.i64(), Targets.Secret), B.constI64(1));
  Value *GotCheck =
      B.icmp(ICmpInst::Predicate::EQ, B.load(B.i64(), Targets.Check),
             B.constI64(IndirectMagic));
  B.ret(B.zext(B.i64(), B.and_(GotSecret, GotCheck)));
}

/// Stack-region indirect scenario: the overflow corrupts two pointer cells
/// adjacent to the buffer in vuln_ind's frame; the program then stores
/// through them, letting a precise attacker write (1, MAGIC) into driver's
/// (secret, check).
void buildIndirectStackScenario(Module &M) {
  IRBuilder B(M);
  Function *GetInput =
      M.getOrInsertDeclaration("get_input", B.i64(), {B.ptr()});

  Function *Vuln = M.createFunction("vuln_ind", B.voidTy(), {});
  {
    IRBuilder VB(M);
    VB.setInsertPoint(Vuln->createBlock("entry"));
    AllocaInst *Scratch = VB.alloca_(VB.i64(), "scratch");
    AllocaInst *PCell = VB.alloca_(VB.i64(), "pcell");
    AllocaInst *QCell = VB.alloca_(VB.i64(), "qcell");
    AllocaInst *SBuf =
        VB.alloca_(VB.getContext().getArrayTy(VB.i8(), 64), "sbuf");
    Value *ScratchAddr =
        VB.cast_(CastInst::CastOp::PtrToInt, VB.i64(), Scratch);
    VB.store(ScratchAddr, PCell);
    VB.store(ScratchAddr, QCell);
    VB.call(GetInput, {SBuf});
    Value *P = VB.cast_(CastInst::CastOp::IntToPtr, VB.ptr(),
                        VB.load(VB.i64(), PCell));
    VB.store(VB.constI64(1), P);
    Value *Q = VB.cast_(CastInst::CastOp::IntToPtr, VB.ptr(),
                        VB.load(VB.i64(), QCell));
    VB.store(VB.constI64(IndirectMagic), Q);
    VB.ret();
  }

  Function *Driver = M.createFunction("driver", B.i64(), {});
  B.setInsertPoint(Driver->createBlock("entry"));
  EscalationTargets Targets = declareTargets(B);
  B.call(Vuln, {});
  returnEscalated(B, Targets);
}

/// Global-region variant: buffer and pointer cells are module globals; the
/// overflow stays inside the data segment and the write-through reaches
/// into the stack.
void buildIndirectGlobalScenario(Module &M) {
  IRBuilder B(M);
  Function *GetInput =
      M.getOrInsertDeclaration("get_input", B.i64(), {B.ptr()});
  GlobalVariable *GBuf =
      M.createGlobal("g_buf", B.getContext().getArrayTy(B.i8(), 64));
  GlobalVariable *GPCell = M.createGlobal("g_pcell", B.i64());
  GlobalVariable *GQCell = M.createGlobal("g_qcell", B.i64());
  GlobalVariable *GScratch = M.createGlobal("g_scratch", B.i64());

  Function *Driver = M.createFunction("driver", B.i64(), {});
  B.setInsertPoint(Driver->createBlock("entry"));
  EscalationTargets Targets = declareTargets(B);

  Value *ScratchAddr =
      B.cast_(CastInst::CastOp::PtrToInt, B.i64(), GScratch);
  B.store(ScratchAddr, GPCell);
  B.store(ScratchAddr, GQCell);
  B.call(GetInput, {GBuf});
  Value *P = B.cast_(CastInst::CastOp::IntToPtr, B.ptr(),
                     B.load(B.i64(), GPCell));
  B.store(B.constI64(1), P);
  Value *Q = B.cast_(CastInst::CastOp::IntToPtr, B.ptr(),
                     B.load(B.i64(), GQCell));
  B.store(B.constI64(IndirectMagic), Q);

  returnEscalated(B, Targets);
}

/// Heap-region variant: bump-adjacent malloc'd buffer and pointer cells.
void buildIndirectHeapScenario(Module &M) {
  IRBuilder B(M);
  Function *GetInput =
      M.getOrInsertDeclaration("get_input", B.i64(), {B.ptr()});
  Function *Malloc = M.getOrInsertDeclaration("malloc", B.ptr(), {B.i64()});

  Function *Driver = M.createFunction("driver", B.i64(), {});
  B.setInsertPoint(Driver->createBlock("entry"));
  EscalationTargets Targets = declareTargets(B, /*ScratchName=*/"hscratch");

  Value *HBuf = B.call(Malloc, {B.constI64(64)}, "hbuf");
  Value *HCells = B.call(Malloc, {B.constI64(16)}, "hcells");
  Value *ScratchAddr =
      B.cast_(CastInst::CastOp::PtrToInt, B.i64(), Targets.Scratch);
  B.store(ScratchAddr, HCells);
  B.store(ScratchAddr, B.gepConst(HCells, 8));
  B.call(GetInput, {HBuf});
  Value *P = B.cast_(CastInst::CastOp::IntToPtr, B.ptr(),
                     B.load(B.i64(), HCells));
  B.store(B.constI64(1), P);
  Value *Q = B.cast_(CastInst::CastOp::IntToPtr, B.ptr(),
                     B.load(B.i64(), B.gepConst(HCells, 8)));
  B.store(B.constI64(IndirectMagic), Q);

  returnEscalated(B, Targets);
}

//===----------------------------------------------------------------------===//
// Exploit lowerings
//===----------------------------------------------------------------------===//

/// Indirect payloads: 64 filler bytes then the two pointer-cell values.
std::optional<Payload> buildIndirectStackPayload(const LayoutOracle &Oracle) {
  if (!Oracle.knows("driver", "secret") || !Oracle.knows("driver", "check") ||
      !Oracle.knows("vuln_ind", "sbuf") ||
      !Oracle.knows("vuln_ind", "pcell") ||
      !Oracle.knows("vuln_ind", "qcell"))
    return std::nullopt;
  auto CellDelta = [&](const char *Var) {
    return static_cast<int64_t>(Oracle.addressOf("vuln_ind", Var)) -
           static_cast<int64_t>(Oracle.addressOf("vuln_ind", "sbuf"));
  };
  int64_t DP = CellDelta("pcell");
  int64_t DQ = CellDelta("qcell");
  if (DP <= 0 || DQ <= 0)
    return std::nullopt;
  Payload P(0);
  P.pokeInt(static_cast<size_t>(DP), Oracle.addressOf("driver", "secret"));
  P.pokeInt(static_cast<size_t>(DQ), Oracle.addressOf("driver", "check"));
  return P;
}

std::optional<Payload> buildIndirectDataPayload(const LayoutOracle &Oracle) {
  if (!Oracle.knows("driver", "secret") || !Oracle.knows("driver", "check"))
    return std::nullopt;
  // Cell offsets are fixed by the binary's data/heap layout: buffer is 64
  // bytes, cells right after it.
  Payload P(0);
  P.pokeInt(64, Oracle.addressOf("driver", "secret"));
  P.pokeInt(72, Oracle.addressOf("driver", "check"));
  return P;
}

/// Builds the one overflow record a scenario exploit feeds its victim.
using PayloadBuilder = std::optional<Payload> (*)(const LayoutOracle &);

/// Builds \p Region's indirect scenario into \p M and returns the payload
/// builder that targets it.
PayloadBuilder buildIndirectScenario(Module &M, BufferRegion Region) {
  switch (Region) {
  case BufferRegion::Stack:
    buildIndirectStackScenario(M);
    return buildIndirectStackPayload;
  case BufferRegion::Global:
    buildIndirectGlobalScenario(M);
    return buildIndirectDataPayload;
  case BufferRegion::Heap:
    buildIndirectHeapScenario(M);
    return buildIndirectDataPayload;
  }
  smokestack_unreachable("unknown buffer region");
}

/// The single-record exploit \p Build lowers, landing when driver returns
/// \p SuccessValue.
ExploitLowering singleRecord(PayloadBuilder Build, uint64_t SuccessValue) {
  return [Build, SuccessValue](
             const LayoutOracle &Oracle) -> std::optional<Exploit> {
    std::optional<Payload> P = Build(Oracle);
    if (!P)
      return std::nullopt;
    return Exploit{{P->bytes()}, returns(SuccessValue)};
  };
}

/// Residual success rate under Smokestack: one probe, then \p Trials fresh
/// runs of the payload built from it, counting every landing (a rate, not
/// a campaign, so it does not stop at the first success).
unsigned countSuccesses(Module &M, uint64_t Seed, unsigned Trials,
                        PayloadBuilder Build, uint64_t SuccessValue) {
  DeployedDefense Deployed = deployDefense(M, DefenseKind::Smokestack, Seed);
  DeterministicEntropySource Entropy(Seed);
  PseudoRandomSource Rng(Entropy); // speed; security is irrelevant here
  std::optional<Payload> P = Build(probeLayout(M, Deployed, &Rng, "driver"));
  if (!P)
    return 0;
  unsigned Successes = 0;
  for (unsigned Trial = 0; Trial != Trials; ++Trial) {
    Interpreter VM(M, &Rng, Deployed.InterpOpts);
    VM.pushInput(P->bytes());
    ExecResult R = VM.run("driver");
    if (R.ok() && R.ReturnValue == SuccessValue)
      ++Successes;
  }
  return Successes;
}

} // namespace

const char *smokestack::bufferRegionName(BufferRegion Region) {
  switch (Region) {
  case BufferRegion::Stack:
    return "stack";
  case BufferRegion::Global:
    return "data-segment";
  case BufferRegion::Heap:
    return "heap";
  }
  smokestack_unreachable("unknown buffer region");
}

std::optional<Payload>
smokestack::buildDirectPayload(const LayoutOracle &Oracle) {
  for (const char *Var : {"ctr", "op", "step", "acc"})
    if (!Oracle.knows("driver", Var))
      return std::nullopt;
  if (!Oracle.knows("vuln", "buff"))
    return std::nullopt;
  // Cross-frame distances from the overflowed buffer to the caller's
  // locals, exactly what the disclosure gave the attacker.
  auto Delta = [&](const char *Var) {
    return static_cast<int64_t>(Oracle.addressOf("driver", Var)) -
           static_cast<int64_t>(Oracle.addressOf("vuln", "buff"));
  };
  int64_t DCtr = Delta("ctr");
  int64_t DOp = Delta("op");
  int64_t DStep = Delta("step");
  int64_t DAcc = Delta("acc");
  if (DCtr <= 0 || DOp <= 0 || DStep <= 0 || DAcc <= 0)
    return std::nullopt; // a target below the buffer is unreachable

  Payload P(0);
  P.pokeInt(static_cast<size_t>(DAcc), DirectDopTarget);
  P.pokeInt(static_cast<size_t>(DStep), 1);
  P.pokeInt(static_cast<size_t>(DOp), 5); // 'set step' gadget: no acc effect
  P.pokeInt(static_cast<size_t>(DCtr), 7); // ++ -> 8 ends the dispatcher
  return P;
}

AttackReport smokestack::runDirectDopAttack(const ScenarioConfig &Config) {
  Module M("direct-dop");
  buildDirectScenario(M);
  DeployedDefense Deployed = deployDefense(M, Config.Defense, Config.BuildSeed);
  return runCampaign(M, Deployed, Config.Rng, "driver", Config.Budget,
                     singleRecord(buildDirectPayload, DirectDopTarget));
}

AttackReport
smokestack::runIndirectPointerAttack(BufferRegion Region,
                                     const ScenarioConfig &Config) {
  Module M("indirect-dop");
  PayloadBuilder Build = buildIndirectScenario(M, Region);
  DeployedDefense Deployed = deployDefense(M, Config.Defense, Config.BuildSeed);
  return runCampaign(M, Deployed, Config.Rng, "driver", Config.Budget,
                     singleRecord(Build, /*SuccessValue=*/1));
}

AttackReport smokestack::runPseudoPredictionAttack(uint64_t Seed,
                                                   unsigned Budget) {
  Module M("pseudo-predict");
  buildDirectScenario(M);
  DeployedDefense Deployed = deployDefense(M, DefenseKind::Smokestack, Seed);

  // Victim runtime: Smokestack drawing from the memory-resident pseudo
  // generator — exactly the configuration Table I rates security "None".
  DeterministicEntropySource VictimEntropy(Seed ^ 0x1234);
  PseudoRandomSource Victim(VictimEntropy);

  AttackReport Report;
  for (unsigned Attempt = 0; Attempt != Budget; ++Attempt) {
    Report.AttemptsUsed = Attempt + 1;

    // Step 1: disclose the 16 bytes of generator state from data memory.
    uint8_t Stolen[16];
    std::memcpy(Stolen, Victim.disclosableState().data(), 16);

    // Step 2: clone the generator and *simulate the next execution* on the
    // attacker's copy of the binary, recording where every local will land.
    DeterministicEntropySource SimEntropy(0xdead);
    PseudoRandomSource Clone(SimEntropy);
    std::memcpy(Clone.mutableDisclosableState().data(), Stolen, 16);
    LayoutOracle Oracle = probeLayout(M, Deployed, &Clone, "driver");

    // Step 3: the victim's next run uses exactly the predicted layouts for
    // the frames the payload targets (they are drawn before any input is
    // consumed), so the stale-layout defense is void.
    std::optional<Payload> P = buildDirectPayload(Oracle);
    if (!P)
      continue; // predicted layout has a target below the buffer: skip run

    // Step 4: forge the function-identifier tags the sweep crosses. With
    // the generator compromised the attacker knows each frame's random
    // value, reads the identifiers from the binary, and writes valid tags
    // (fid XOR predicted draw) over the slots — the epilogue checks pass.
    // Draw 1 keys driver's prologue; draw 2 keys the first vuln call.
    auto ForgeTag = [&](const char *FuncName, unsigned DrawIndex) {
      if (!Oracle.knows(FuncName, "__ss_fnid"))
        return;
      int64_t Delta =
          static_cast<int64_t>(Oracle.addressOf(FuncName, "__ss_fnid")) -
          static_cast<int64_t>(Oracle.addressOf("vuln", "buff"));
      if (Delta <= 0)
        return; // below the buffer: the sweep cannot touch it anyway
      uint64_t Fid = *M.getFunction(FuncName)->getAttribute("smokestack.fid");
      P->pokeInt(static_cast<size_t>(Delta),
                 Fid ^ predictPseudoDraw(Stolen, DrawIndex));
    };
    ForgeTag("driver", 1);
    ForgeTag("vuln", 2);
    Interpreter VM(M, &Victim, Deployed.InterpOpts);
    VM.pushInput(P->bytes());
    ExecResult R = VM.run("driver");
    if (R.ok() && R.ReturnValue == DirectDopTarget) {
      Report.Outcome = AttackOutcome::Succeeded;
      Report.Detail = formatString(
          "state-compromised pseudo RNG predicted the layout (attempt %u)",
          Attempt + 1);
      return Report;
    }
    if (!R.ok()) {
      Report.Outcome = AttackOutcome::StoppedByTrap;
      Report.Trap = R.Trap;
    }
    // The victim consumed draws this attempt; the next disclosure re-syncs.
  }
  if (Report.Outcome != AttackOutcome::StoppedByTrap)
    Report.Outcome = AttackOutcome::MissedTarget;
  Report.Detail = "prediction failed within budget";
  return Report;
}

unsigned smokestack::countIndirectAttackSuccesses(BufferRegion Region,
                                                  unsigned Trials,
                                                  uint64_t Seed) {
  Module M("indirect-dop");
  PayloadBuilder Build = buildIndirectScenario(M, Region);
  return countSuccesses(M, Seed, Trials, Build, /*SuccessValue=*/1);
}

unsigned smokestack::countDirectAttackSuccesses(unsigned Trials,
                                                uint64_t Seed) {
  Module M("direct-dop");
  buildDirectScenario(M);
  return countSuccesses(M, Seed, Trials, buildDirectPayload, DirectDopTarget);
}
