//===- tests/attacks/AttackCompilerTest.cpp - Attack compiler tests ------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The attack compiler's contract: the seeded spec generator is pure,
/// stratified, and collision-free at corpus scale; the shared campaign
/// runner applies the probe-then-exploit rules every driver relies on;
/// compiled attacks land against the undefended build on the first attempt
/// and die under Smokestack; and every corpus cell replays bit-identically
/// from its (RootSeed, SpecIndex, Defense) coordinates.
///
//===----------------------------------------------------------------------===//

#include "attacks/compiler/Corpus.h"
#include "attacks/compiler/SpecGen.h"
#include "ir/IRBuilder.h"
#include "rng/AesCtr.h"
#include "rng/Entropy.h"
#include "rng/RandomSource.h"

#include <gtest/gtest.h>
#include <set>

using namespace smokestack;

namespace {

const DefenseTally &tallyFor(const AttackCorpusResult &Result,
                             DefenseKind Kind) {
  for (const DefenseTally &T : Result.Tallies)
    if (T.Defense == Kind)
      return T;
  ADD_FAILURE() << "no tally for " << defenseKindName(Kind);
  static DefenseTally Empty;
  return Empty;
}

/// Counts draws, so a test can tell how many executions drew layouts.
class CountingSource : public RandomSource {
public:
  uint64_t next() override { return 0x9E3779B97F4A7C15ULL * ++Draws; }
  const char *name() const override { return "counting"; }
  SecurityLevel securityLevel() const override { return SecurityLevel::None; }
  uint64_t Draws = 0;
};

/// Forwards to \p Inner and counts draws, so a test can tell which
/// execution of a campaign a callback came from.
class CountingForwarder : public RandomSource {
public:
  explicit CountingForwarder(RandomSource &Inner) : Inner(Inner) {}
  uint64_t next() override {
    ++Draws;
    return Inner.next();
  }
  const char *name() const override { return "counting-forwarder"; }
  SecurityLevel securityLevel() const override {
    return Inner.securityLevel();
  }
  RandomSource &Inner;
  uint64_t Draws = 0;
};

/// driver(): reads one record into `divisor` (initially 1) and returns
/// 100 / divisor, so a zero record traps with DivisionByZero.
void buildDivideVictim(Module &M) {
  IRBuilder B(M);
  Function *GetInput =
      M.getOrInsertDeclaration("get_input", B.i64(), {B.ptr()});
  Function *Driver = M.createFunction("driver", B.i64(), {});
  B.setInsertPoint(Driver->createBlock("entry"));
  AllocaInst *Divisor = B.alloca_(B.i64(), "divisor");
  AllocaInst *Pad = B.alloca_(B.i64(), "pad");
  B.store(B.constI64(1), Divisor);
  B.store(B.constI64(0), Pad);
  B.call(GetInput, {Divisor});
  B.ret(B.sdiv(B.constI64(100), B.load(B.i64(), Divisor)));
}

/// Runs a campaign against the divide victim under Smokestack with a test
/// lowering: no exploit when \p Record is nullopt, else one record holding
/// *Record and a success test that holds on its \p LandsOn-th call (never
/// when 0). Returns the report and, through \p Executions, the victim runs
/// the campaign made, probe included, counted by their layout draws.
AttackReport runTestCampaign(unsigned Budget, std::optional<uint64_t> Record,
                             unsigned LandsOn, uint64_t &Executions) {
  Module M("campaign-victim");
  buildDivideVictim(M);
  DeployedDefense Deployed = deployDefense(M, DefenseKind::Smokestack, 1);
  CountingSource OneRun;
  probeLayout(M, Deployed, &OneRun, "driver");
  EXPECT_GT(OneRun.Draws, 0u) << "every execution must draw a layout";

  unsigned Tests = 0;
  auto Lower = [&](const LayoutOracle &Oracle) -> std::optional<Exploit> {
    EXPECT_TRUE(Oracle.knows("driver", "divisor"))
        << "lowering must see the probe's disclosure";
    if (!Record)
      return std::nullopt;
    Payload P(0);
    P.pokeInt(0, *Record);
    return Exploit{{P.bytes()}, [&](uint64_t, const std::string &) {
                     EXPECT_NE(*Record, 0u) << "a trapped run was tested";
                     return ++Tests == LandsOn;
                   }};
  };
  CountingSource Rng;
  AttackReport Report = runCampaign(M, Deployed, &Rng, "driver", Budget, Lower);
  EXPECT_EQ(Rng.Draws % OneRun.Draws, 0u);
  Executions = Rng.Draws / OneRun.Draws;
  return Report;
}

} // namespace

TEST(AttackCompilerTest, SpecGenerationIsPurePerIndex) {
  // Re-generating any index must not depend on which indices were
  // generated before it — that is what makes cells replayable standalone.
  std::vector<AttackSpec> Batch = generateSpecs(7, 32);
  for (uint32_t I = 0; I != 32; ++I) {
    AttackSpec Alone = generateSpec(7, I);
    EXPECT_EQ(Alone.fingerprint(), Batch[I].fingerprint())
        << "index " << I << " depends on enumeration order";
  }
  // And regeneration is bit-stable.
  EXPECT_EQ(generateSpec(7, 11).fingerprint(),
            generateSpec(7, 11).fingerprint());
}

TEST(AttackCompilerTest, SpecsDistinctAtCorpusScale) {
  // The committed corpus enumerates 512 specs; all of them must be
  // distinct, with an exact even split of corruption families (the
  // stratification is index arithmetic, not coin flips).
  constexpr unsigned N = 512;
  std::set<uint64_t> Fingerprints;
  unsigned Direct = 0, Indirect = 0;
  for (uint32_t I = 0; I != N; ++I) {
    AttackSpec Spec = generateSpec(7, I);
    Fingerprints.insert(Spec.fingerprint());
    (Spec.Mode == CorruptionMode::Direct ? Direct : Indirect)++;
  }
  EXPECT_EQ(Fingerprints.size(), N);
  EXPECT_EQ(Direct, N / 2);
  EXPECT_EQ(Indirect, N / 2);
  EXPECT_GE(Direct, 200u) << "ISSUE floor: >=200 specs per family";
}

TEST(AttackCompilerTest, StratificationCoversShapesAndRegions) {
  bool Counted = false, Sentinel = false;
  bool Stack = false, Global = false, Heap = false;
  for (uint32_t I = 0; I != 12; ++I) {
    AttackSpec Spec = generateSpec(7, I);
    if (Spec.Mode == CorruptionMode::Direct) {
      EXPECT_EQ(Spec.Region, BufferRegion::Stack)
          << "direct sweeps must cross stack frames";
      Counted |= Spec.Shape == DispatcherShape::CountedLoop;
      Sentinel |= Spec.Shape == DispatcherShape::SentinelLoop;
    } else {
      Stack |= Spec.Region == BufferRegion::Stack;
      Global |= Spec.Region == BufferRegion::Global;
      Heap |= Spec.Region == BufferRegion::Heap;
    }
  }
  EXPECT_TRUE(Counted && Sentinel) << "both dispatcher shapes in 12 specs";
  EXPECT_TRUE(Stack && Global && Heap) << "all three regions in 12 specs";
}

TEST(AttackCompilerTest, RootSeedChangesTheCorpus) {
  EXPECT_NE(generateSpec(7, 0).fingerprint(),
            generateSpec(8, 0).fingerprint());
}

TEST(AttackCompilerTest, DopChainSemantics) {
  AttackSpec Spec;
  Spec.InitialAcc = 100;
  Spec.Chain = {{GadgetOp::Add, 7}, {GadgetOp::Sub, 3}, {GadgetOp::Xor, 9}};
  EXPECT_EQ(Spec.dopIntermediate(0), 100u);
  EXPECT_EQ(Spec.dopIntermediate(1), 107u);
  EXPECT_EQ(Spec.dopIntermediate(2), 104u);
  EXPECT_EQ(Spec.dopResult(), 104u ^ 9u);
  EXPECT_EQ(Spec.dopIntermediate(99), Spec.dopResult())
      << "past-the-end intermediates saturate at the final result";
}

TEST(AttackCompilerTest, UndisclosedLayoutDoesNotLower) {
  // No probe, no gadgets: the compiler must refuse, not guess addresses.
  LayoutOracle Blind;
  EXPECT_FALSE(lowerAttack(generateSpec(7, 0), Blind).has_value());
  EXPECT_FALSE(lowerAttack(generateSpec(7, 1), Blind).has_value());
}

TEST(AttackCompilerTest, CampaignRulesOnTestLowerings) {
  // The shared runner's policy, independent of any real exploit. A zero
  // record makes every attempt trap; AttemptsUsed counts exploit runs, and
  // the probe is always the one extra execution.
  struct Case {
    const char *Name;
    unsigned Budget;
    std::optional<uint64_t> Record;
    unsigned LandsOn;
    AttackOutcome Outcome;
    TrapKind Trap;
    unsigned AttemptsUsed;
  };
  const Case Cases[] = {
      {"unlowerable layout", 4, std::nullopt, 0, AttackOutcome::MissedTarget,
       TrapKind::None, 0},
      {"lands on attempt 3", 5, 4, 3, AttackOutcome::Succeeded, TrapKind::None,
       3},
      {"every attempt traps", 3, 0, 0, AttackOutcome::StoppedByTrap,
       TrapKind::DivisionByZero, 3},
      {"clean misses", 2, 4, 0, AttackOutcome::MissedTarget, TrapKind::None,
       2},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    uint64_t Executions = 0;
    AttackReport R = runTestCampaign(C.Budget, C.Record, C.LandsOn, Executions);
    EXPECT_EQ(R.Outcome, C.Outcome) << R.Detail;
    EXPECT_EQ(R.Trap, C.Trap);
    EXPECT_EQ(R.AttemptsUsed, C.AttemptsUsed);
    EXPECT_EQ(Executions, C.AttemptsUsed + 1u);
  }
}

TEST(AttackCompilerTest, CampaignAttemptsMatchFreshInterpreters) {
  // Every attempt of a Smokestack campaign must behave exactly as a freshly
  // built Interpreter would over the same random stream. The record sets
  // the divisor and overflows 8 bytes past it, so whether an attempt traps
  // depends on the layout that attempt drew.
  Module M("campaign-differential");
  buildDivideVictim(M);
  DeployedDefense Deployed = deployDefense(M, DefenseKind::Smokestack, 1);
  Payload P(16, 0x41);
  P.pokeInt(0, 4);
  constexpr unsigned Budget = 16;
  constexpr uint64_t Seed = 0x5eed'0015;

  // Reference: the campaign replayed by hand on fresh VMs. A clean attempt
  // is keyed by the draws made when it ended, which identifies it.
  struct Clean {
    uint64_t Draws;
    uint64_t ReturnValue;
    std::string Output;
    bool operator==(const Clean &) const = default;
  };
  DeterministicEntropySource RefEntropy(Seed);
  AesCtrRandomSource RefAes(RefEntropy, /*NumRounds=*/10);
  CountingForwarder RefRng(RefAes);
  LayoutOracle RefOracle = probeLayout(M, Deployed, &RefRng, "driver");
  ASSERT_TRUE(RefOracle.knows("driver", "divisor"));
  std::vector<Clean> WantClean;
  TrapKind WantLastTrap = TrapKind::None;
  unsigned Trapped = 0;
  for (unsigned Attempt = 0; Attempt != Budget; ++Attempt) {
    Interpreter VM(M, &RefRng, Deployed.InterpOpts);
    VM.pushInput(P.bytes());
    ExecResult R = VM.run("driver");
    if (R.ok()) {
      WantClean.push_back({RefRng.Draws, R.ReturnValue, VM.output()});
    } else {
      WantLastTrap = R.Trap;
      ++Trapped;
    }
  }
  ASSERT_GT(Trapped, 0u) << "the seed must make some attempts trap";
  ASSERT_FALSE(WantClean.empty()) << "and some attempts run clean";

  DeterministicEntropySource Entropy(Seed);
  AesCtrRandomSource Aes(Entropy, /*NumRounds=*/10);
  CountingForwarder Rng(Aes);
  std::vector<Clean> GotClean;
  AttackReport Report = runCampaign(
      M, Deployed, &Rng, "driver", Budget,
      [&](const LayoutOracle &Oracle) -> std::optional<Exploit> {
        EXPECT_EQ(Oracle.addressOf("driver", "divisor"),
                  RefOracle.addressOf("driver", "divisor"));
        return Exploit{{P.bytes()},
                       [&](uint64_t ReturnValue, const std::string &Output) {
                         GotClean.push_back({Rng.Draws, ReturnValue, Output});
                         return false;
                       }};
      });
  EXPECT_TRUE(GotClean == WantClean)
      << GotClean.size() << " vs " << WantClean.size() << " clean attempts";
  EXPECT_EQ(Report.AttemptsUsed, Budget);
  EXPECT_EQ(Report.Outcome, AttackOutcome::StoppedByTrap);
  EXPECT_EQ(Report.Trap, WantLastTrap);
  EXPECT_EQ(Rng.Draws, RefRng.Draws);
  EXPECT_EQ(Aes.next(), RefAes.next()) << "both streams end at one point";
}

TEST(AttackCompilerTest, DirectAttackLandsUndefendedFirstTry) {
  AttackSpec Spec = generateSpec(7, 0); // even index: Direct
  ASSERT_EQ(Spec.Mode, CorruptionMode::Direct);
  AttackReport R = runCompiledAttack(Spec, DefenseKind::None, /*Budget=*/2);
  EXPECT_EQ(R.Outcome, AttackOutcome::Succeeded) << R.Detail;
  EXPECT_EQ(R.AttemptsUsed, 1u)
      << "against a fixed layout the probe fully de-randomizes";
}

TEST(AttackCompilerTest, IndirectAttackLandsUndefendedFirstTry) {
  AttackSpec Spec = generateSpec(7, 1); // odd index: PointerIndirect
  ASSERT_EQ(Spec.Mode, CorruptionMode::PointerIndirect);
  AttackReport R = runCompiledAttack(Spec, DefenseKind::None, /*Budget=*/2);
  EXPECT_EQ(R.Outcome, AttackOutcome::Succeeded) << R.Detail;
  EXPECT_EQ(R.AttemptsUsed, 1u);
}

TEST(AttackCompilerTest, SmokestackDefeatsBothFamilies) {
  for (uint32_t Index : {0u, 1u}) {
    AttackReport R = runCompiledAttack(generateSpec(7, Index),
                                       DefenseKind::Smokestack, /*Budget=*/2);
    EXPECT_NE(R.Outcome, AttackOutcome::Succeeded)
        << "spec " << Index << ": " << R.Detail;
  }
}

TEST(AttackCompilerTest, CorpusCellsReplayStandalone) {
  AttackCorpusOptions Options;
  Options.RootSeed = 7;
  Options.SpecCount = 6;
  Options.Budget = 1;
  AttackCorpusResult Result = runAttackCorpus(Options);
  ASSERT_EQ(Result.Cells.size(), 6 * allDefenseKinds().size());
  for (const CorpusCell &Cell : Result.Cells) {
    CorpusCell Replayed = runCorpusCell(Options.RootSeed, Cell.SpecIndex,
                                        Cell.Defense, Options.Budget);
    EXPECT_EQ(Replayed.Outcome, Cell.Outcome)
        << "spec " << Cell.SpecIndex << " vs "
        << defenseKindName(Cell.Defense);
    EXPECT_EQ(Replayed.Trap, Cell.Trap);
    EXPECT_EQ(Replayed.AttemptsUsed, Cell.AttemptsUsed);
  }
}

TEST(AttackCompilerTest, CorpusDigestIsDeterministicAndSeedSensitive) {
  AttackCorpusOptions Options;
  Options.RootSeed = 7;
  Options.SpecCount = 4;
  Options.Budget = 1;
  AttackCorpusResult A = runAttackCorpus(Options);
  AttackCorpusResult B = runAttackCorpus(Options);
  EXPECT_EQ(A.Digest, B.Digest) << "rerun must be bit-identical";
  EXPECT_EQ(A.DistinctSpecs, 4u);
  Options.RootSeed = 8;
  EXPECT_NE(runAttackCorpus(Options).Digest, A.Digest);
}

TEST(AttackCompilerTest, SmallCorpusDefeatDifferential) {
  // The headline differential at toy scale: the undefended build loses
  // every attack, Smokestack survives every one. The full defeat-rate
  // policy (>=0.99, strictly above every baseline) is gated on the
  // committed 512-spec corpus by tools/check_bench_regression.py.
  AttackCorpusOptions Options;
  Options.RootSeed = 7;
  Options.SpecCount = 8;
  Options.Budget = 1;
  AttackCorpusResult Result = runAttackCorpus(Options);
  const DefenseTally &Undefended = tallyFor(Result, DefenseKind::None);
  EXPECT_EQ(Undefended.Attacks, 8u);
  EXPECT_EQ(Undefended.Succeeded, 8u) << "compiled attacks must land";
  EXPECT_EQ(Undefended.defeatRate(), 0.0);
  const DefenseTally &Smokestack = tallyFor(Result, DefenseKind::Smokestack);
  EXPECT_EQ(Smokestack.Succeeded, 0u);
  EXPECT_EQ(Smokestack.defeatRate(), 1.0);
}
