//===- perfbench/src/AttackCorpus.cpp - The attack-corpus workload --------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// A fixed slice of the seeded DOP attack corpus: specs 0..SliceSpecs-1 of
// the root seed, each against all six defenses, through runCorpusCell,
// passed over repeatedly for the run's time. Every cell
// synthesizes a victim, deploys a defense, and builds an Interpreter per
// probe and per exploit attempt, so the compile-time layers and VM
// construction dominate. The Smokestack column is the defense's defeat
// rate; the undefended column proves the mechanized attacker still works.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "attacks/compiler/Corpus.h"
#include "attacks/compiler/SpecGen.h"
#include "attacks/compiler/Synthesis.h"
#include "rng/AesCtr.h"
#include "rng/Entropy.h"

#include <map>
#include <memory>

using namespace smokestack;

namespace perfbench {
namespace {

/// Exploit attempts per cell (the corpus default).
constexpr unsigned CellBudget = 4;
/// The measured slice: specs 0..SliceSpecs-1 of the seed, each against
/// all six defenses. Every run covers the same cells whatever the
/// machine's speed; a pass over them takes a few seconds at the 14-30
/// cells/s a 4-vCPU x86-64 host runs, and ops_per_s and latency_p90_us
/// are the median pass's.
constexpr uint32_t SliceSpecs = 16;
/// Every ReplayStride-th cell is replayed standalone after the run.
constexpr uint64_t ReplayStride = 7;

bool sameCell(const CorpusCell &A, const CorpusCell &B) {
  return A.Outcome == B.Outcome && A.Trap == B.Trap &&
         A.AttemptsUsed == B.AttemptsUsed;
}

/// Set-up: one spec's victim built and deployed under every defense, and
/// one Interpreter over the hardened build. Victims differ in size from
/// spec to spec, so each of setup_s's builds takes the next spec of the
/// slice and the result does not hang on the seed's first spec.
struct CorpusSetup {
  CorpusSetup(uint64_t Seed, uint32_t Index) {
    AttackSpec Spec = generateSpec(Seed, Index);
    for (DefenseKind Kind : allDefenseKinds()) {
      auto M = std::make_unique<Module>("perfbench-corpus-setup");
      synthesizeVictim(*M, Spec);
      Deployed = deployDefense(*M, Kind, Spec.BuildSeed);
      Victims.push_back(std::move(M));
    }
    VM = std::make_unique<Interpreter>(*Victims.back(), nullptr,
                                       Deployed.InterpOpts);
  }
  std::vector<std::unique_ptr<Module>> Victims;
  DeployedDefense Deployed;
  std::unique_ptr<Interpreter> VM;
};

/// One cell's phases, each around its public call, in the order
/// runCompiledAttack performs them.
struct PhaseTimes {
  double SynthesizeUs = 0, DeployMs = 0, ConstructMs = 0, LowerUs = 0;
};

PhaseTimes timePhases(const AttackSpec &Spec, DefenseKind Kind,
                      SpanLog &Spans, uint32_t Parent, uint64_t Op) {
  PhaseTimes T;
  Module M("perfbench-corpus-phases");
  uint64_t A = nowNs();
  synthesizeVictim(M, Spec);
  uint64_t B = nowNs();
  DeployedDefense D = deployDefense(M, Kind, Spec.BuildSeed);
  uint64_t C = nowNs();
  DeterministicEntropySource Entropy(Spec.BuildSeed);
  AesCtrRandomSource Rng(Entropy, /*NumRounds=*/10);
  LayoutOracle Oracle(/*KeepFirst=*/true);
  uint64_t E, F;
  {
    Interpreter VM(M, Kind == DefenseKind::Smokestack ? &Rng : nullptr,
                   D.InterpOpts);
    E = nowNs();
    VM.setLayoutObserver(&Oracle);
    VM.run("driver");
    F = nowNs();
  }
  std::optional<LoweredAttack> L = lowerAttack(Spec, Oracle);
  uint64_t G = nowNs();
  (void)L;
  T.SynthesizeUs = static_cast<double>(B - A) * 1e-3;
  T.DeployMs = static_cast<double>(C - B) * 1e-6;
  T.ConstructMs = static_cast<double>(E - C) * 1e-6;
  T.LowerUs = static_cast<double>(G - F) * 1e-3;
  Spans.record("attacks.synthesize", Op, Parent, A, B);
  Spans.record("defenses.deploy", Op, Parent, B, C);
  Spans.record("vm.construct", Op, Parent, C, E);
  Spans.record("attacks.probe", Op, Parent, E, F);
  Spans.record("attacks.lower", Op, Parent, F, G);
  return T;
}

/// Cell verdict: an undefended cell must succeed (the attacker works);
/// defended cells are defense results, not failures.
bool cellFailed(const CorpusCell &C) {
  return C.Defense == DefenseKind::None &&
         C.Outcome != AttackOutcome::Succeeded;
}

} // namespace

void runAttackCorpus(const Options &O, RunResult &R) {
  SetupSampler Setups([&, Spec = uint32_t(0)]() mutable {
    return std::make_unique<CorpusSetup>(O.Seed, Spec++ % SliceSpecs);
  });
  // The cells build their own state, so set-up builds are dropped.
  Setups.build();
  R.fact("engine", "\"decoded\"");

  // Whole passes over the slice while the last pass's length still fits
  // in the run, and at least one.
  std::span<const DefenseKind> Kinds = allDefenseKinds();
  std::vector<CorpusCell> Slice;
  std::vector<double> LatencyUs, PassRates, PassTails;
  uint64_t Diverged = 0;
  const uint64_t Start = nowNs();
  uint64_t End = Start + static_cast<uint64_t>(O.Seconds * 1e9);
  for (uint64_t PassNs = 0; Slice.empty() || nowNs() + PassNs <= End;) {
    const uint64_t PassStart = nowNs();
    uint64_t SetupNs = 0;
    size_t Cell = 0;
    for (uint32_t Spec = 0; Spec != SliceSpecs; ++Spec)
      for (DefenseKind Kind : Kinds) {
        if (Setups.due(Start, O.Seconds)) {
          const uint64_t A = nowNs();
          Setups.build();
          SetupNs += nowNs() - A;
        }
        uint64_t A = nowNs();
        CorpusCell C = runCorpusCell(O.Seed, Spec, Kind, CellBudget);
        LatencyUs.push_back(static_cast<double>(nowNs() - A) * 1e-3);
        if (Slice.size() == Cell)
          Slice.push_back(C);
        else
          Diverged += !sameCell(C, Slice[Cell]);
        ++Cell;
      }
    PassNs = nowNs() - PassStart - SetupNs;
    End += SetupNs;
    PassRates.push_back(static_cast<double>(Cell) * 1e9 /
                        static_cast<double>(PassNs));
    PassTails.push_back(quantile(
        std::vector<double>(LatencyUs.end() - Cell, LatencyUs.end()),
        TailQuantile));
  }
  const double RssMb = peakRssMb();

  uint64_t Failed = Diverged, Attacks = 0, Defeated = 0, Mismatch = 0;
  for (size_t I = 0; I != Slice.size(); ++I) {
    const CorpusCell &C = Slice[I];
    bool Bad = cellFailed(C);
    if (I % ReplayStride == 0 &&
        !sameCell(C, runCorpusCell(O.Seed, C.SpecIndex, C.Defense, CellBudget))) {
      ++Mismatch;
      Bad = true;
    }
    Failed += Bad;
    if (C.Defense == DefenseKind::Smokestack) {
      ++Attacks;
      Defeated += C.Outcome != AttackOutcome::Succeeded;
    }
  }
  if (Diverged)
    R.fail("attack_corpus: " + std::to_string(Diverged) +
           " cells differ between passes over the slice");
  if (Mismatch)
    R.fail("attack_corpus: " + std::to_string(Mismatch) +
           " cells replayed standalone differ from the run");
  if (Failed > Mismatch + Diverged)
    R.fail("attack_corpus: the attack failed against the undefended build");
  R.ops(LatencyUs.size(), Failed);

  R.add("ops_per_s", median(PassRates), "1/s");
  R.add("latency_p90_us", median(PassTails), "us");
  R.add("defeat_rate",
        static_cast<double>(Defeated) / static_cast<double>(Attacks),
        "ratio");
  R.add("setup_s", Setups.fastestSeconds(), "s");
  R.add("peak_rss_mb", RssMb, "MB");
  R.samples("ops_per_s", PassRates.size());
  R.samples("latency_p90_us", LatencyUs.size());
  R.samples("defeat_rate", Attacks);
  R.samples("setup_s", SetupReps);
}

void traceAttackCorpus(const Options &O, double Budget, bool Home,
                       RunResult &R, SpanLog &Spans) {
  std::span<const DefenseKind> Kinds = allDefenseKinds();
  std::map<DefenseKind, std::vector<double>> DeployMs;
  std::vector<double> SynthUs, ConstructMs, LowerUs, RunMs, Attempts;
  uint64_t Failed = 0, Cells = 0;
  const double Share = Home ? 0.6 : 1.0;
  const uint64_t End = nowNs() + static_cast<uint64_t>(Budget * Share * 1e9);
  for (uint32_t Index = 0; nowNs() < End || Index == 0; ++Index) {
    AttackSpec Spec = generateSpec(O.Seed, Index);
    for (DefenseKind Kind : Kinds) {
      uint64_t Op = uint64_t(Index) * Kinds.size() + uint64_t(Kind);
      uint32_t CellSpan = Spans.begin("attack_corpus.cell", Op);
      PhaseTimes T = timePhases(Spec, Kind, Spans, CellSpan, Op);
      uint64_t A = nowNs();
      CorpusCell C = runCorpusCell(O.Seed, Index, Kind, CellBudget);
      uint64_t B = nowNs();
      Spans.record("attacks.runCorpusCell", Op, CellSpan, A, B);
      Spans.end(CellSpan);
      SynthUs.push_back(T.SynthesizeUs);
      DeployMs[Kind].push_back(T.DeployMs);
      ConstructMs.push_back(T.ConstructMs);
      LowerUs.push_back(T.LowerUs);
      RunMs.push_back(static_cast<double>(B - A) * 1e-6);
      Attempts.push_back(C.AttemptsUsed);
      Failed += cellFailed(C);
      ++Cells;
    }
  }
  if (Failed)
    R.fail("attack_corpus: the attack failed against the undefended build");
  R.ops(Cells, Failed);
  for (DefenseKind Kind : Kinds)
    R.add(std::string("defenses.deploy_ms.") + defenseKindName(Kind),
          median(DeployMs[Kind]), "ms");
  R.add("attacks.synthesize_us", median(SynthUs), "us");
  R.add("attacks.lower_us", median(LowerUs), "us");
  R.add("attacks.run_ms", median(RunMs), "ms");
  double AttemptSum = 0;
  for (double A : Attempts)
    AttemptSum += A;
  R.add("attacks.attempts_per_cell",
        AttemptSum / static_cast<double>(Attempts.size()), "count");
  R.add("vm.construct_ms", median(ConstructMs), "ms");

  if (!Home)
    return;
  // Trace cost: cells untraced, then the same specs with a span per cell,
  // twice. Specs differ widely in cost, so both legs run the same ones.
  const double Slice = Budget * 0.1;
  double Rate[2] = {0, 0};
  uint32_t Base = 1u << 20, Specs = 0;
  for (unsigned Rep = 0; Rep != 4; ++Rep) {
    bool Traced = Rep % 2;
    uint64_t Done = 0, LoopFailed = 0;
    const uint64_t T0 = nowNs();
    const uint64_t Stop = T0 + static_cast<uint64_t>(Slice * 1e9);
    if (!Traced)
      Specs = 0;
    for (uint32_t Index = Base; Traced ? Index != Base + Specs : nowNs() < Stop;
         ++Index) {
      Specs += !Traced;
      for (DefenseKind Kind : Kinds) {
        uint64_t A = nowNs();
        CorpusCell C = runCorpusCell(O.Seed, Index, Kind, CellBudget);
        if (Traced)
          Spans.record("attack_corpus.cell", Index, 0, A, nowNs());
        LoopFailed += cellFailed(C);
        ++Done;
      }
    }
    if (Traced)
      Base += Specs;
    R.ops(Done, LoopFailed);
    Failed += LoopFailed;
    Rate[Traced] += static_cast<double>(Done) / secondsSince(T0) / 2;
  }
  if (Failed)
    R.fail("attack_corpus: the attack failed against the undefended build");
  R.add("bench.trace_overhead_pct", overheadPct(Rate[0], Rate[1]), "%");
  R.add("bench.latency_p50_us", median(RunMs) * 1e3, "us");
  R.add("bench.latency_p99_us", quantile(RunMs, 0.99) * 1e3, "us");
}

} // namespace perfbench
