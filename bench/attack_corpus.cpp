//===- bench/attack_corpus.cpp - DOP attack-compiler corpus driver --------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the attack compiler's defeat-rate corpus: every generated
/// AttackSpec (see src/attacks/compiler/SpecGen.h) compiled and launched
/// against every DefenseKind, with probe-then-exploit campaigns. Prints the
/// per-defense defeat-rate table, emits BENCH_attacks.json (for the CI
/// regression gate in tools/check_bench_regression.py), and verifies the
/// corpus's determinism contract in-process:
///
///  - a full rerun reproduces the corpus digest bit for bit (-no-rerun
///    skips this, halving runtime);
///  - a spread of cells replayed standalone from their (RootSeed,
///    SpecIndex, Defense) coordinates reproduces the in-corpus cells;
///  - every enumerated spec is distinct (fingerprint-level).
///
/// Exit status is the checked contract: prints "CORPUS PASS" and exits 0
/// only if all determinism checks hold. Defeat-rate *policy* (Smokestack
/// must beat every baseline, etc.) is enforced by the regression gate, not
/// here, so the JSON stays honest even when rates drift.
///
/// Flags: -seed=N -specs=N -budget=N -json=PATH -no-rerun -spec=K
/// (-spec=K replays one spec against every defense and prints the detail).
/// Numbers are decimal or 0x-hex and must be whole (support/CommandLine.h):
/// a malformed value prints a diagnostic and the usage line, exit code 2.
///
//===----------------------------------------------------------------------===//

#include "attacks/compiler/Corpus.h"
#include "attacks/compiler/SpecGen.h"
#include "obs/JsonWriter.h"
#include "support/CommandLine.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

using namespace smokestack;

namespace {

void printSpec(const AttackSpec &Spec) {
  std::printf("spec %u: %s region=%s", Spec.Index,
              corruptionModeName(Spec.Mode), bufferRegionName(Spec.Region));
  if (Spec.Mode == CorruptionMode::Direct)
    std::printf(" shape=%s chain=%zu rounds=%u",
                dispatcherShapeName(Spec.Shape), Spec.Chain.size(),
                Spec.Rounds);
  else
    std::printf(" cells=%u", Spec.TargetCells);
  std::printf(" buf=%uB fillers=%u/%u fingerprint=0x%016" PRIx64 "\n",
              Spec.BufferBytes, Spec.VictimFillers, Spec.DriverFillers,
              Spec.fingerprint());
}

int replayOneSpec(uint64_t RootSeed, uint32_t Index, unsigned Budget) {
  AttackSpec Spec = generateSpec(RootSeed, Index);
  printSpec(Spec);
  for (DefenseKind Defense : allDefenseKinds()) {
    AttackReport R = runCompiledAttack(Spec, Defense, Budget);
    std::printf("  %-16s %-14s attempts=%u  %s\n", defenseKindName(Defense),
                attackOutcomeName(R.Outcome), R.AttemptsUsed,
                R.Detail.c_str());
  }
  return 0;
}

bool writeJson(const std::string &Path, const AttackCorpusResult &Result,
               bool RerunChecked, bool RerunIdentical, unsigned SpotChecks,
               double Seconds) {
  JsonWriter W;
  W.beginObject();
  W.key("bench").str("attack_corpus");
  W.key("root_seed").integer(Result.Options.RootSeed);
  W.key("specs").integer(Result.Options.SpecCount);
  W.key("budget").integer(Result.Options.Budget);
  W.key("distinct_specs").integer(Result.DistinctSpecs);
  W.key("digest").hex(Result.Digest);
  W.key("rerun_checked").boolean(RerunChecked);
  W.key("rerun_bit_identical").boolean(RerunIdentical);
  W.key("replay_spot_checks").integer(SpotChecks);
  W.key("defenses").beginArray();
  for (const DefenseTally &T : Result.Tallies) {
    W.beginObject(JsonWriter::Layout::Inline);
    W.key("defense").str(defenseKindName(T.Defense));
    W.key("attacks").integer(T.Attacks);
    W.key("succeeded").integer(T.Succeeded);
    W.key("stopped_by_trap").integer(T.StoppedByTrap);
    W.key("missed").integer(T.Missed);
    W.key("unlowerable").integer(T.Unlowerable);
    W.key("defeat_rate").fixed(T.defeatRate(), 6);
    W.endObject();
  }
  W.endArray();
  W.key("seconds").fixed(Seconds, 4);
  W.endObject();
  if (W.writeFile(Path))
    return true;
  std::fprintf(stderr, "attack_corpus: cannot write %s\n", Path.c_str());
  return false;
}

int usage() {
  std::fprintf(stderr, "usage: attack_corpus [-seed=N] [-specs=N] [-budget=N] "
                       "[-json=PATH] [-no-rerun] [-spec=K]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  AttackCorpusOptions Options;
  std::string JsonPath;
  bool Rerun = true;
  std::optional<unsigned> SpecToReplay;

  for (int I = 1; I != Argc; ++I) {
    const char *Arg = Argv[I];
    const char *V;
    bool Ok = true;
    if ((V = flagValue(Arg, "-seed=")))
      Ok = parseU64(V, Options.RootSeed);
    else if ((V = flagValue(Arg, "-specs=")))
      Ok = parseUnsigned(V, Options.SpecCount);
    else if ((V = flagValue(Arg, "-budget=")))
      Ok = parseUnsigned(V, Options.Budget);
    else if ((V = flagValue(Arg, "-spec=")))
      Ok = parseUnsigned(V, SpecToReplay.emplace());
    else if ((V = flagValue(Arg, "-json=")))
      JsonPath = V;
    else if (std::strcmp(Arg, "-no-rerun") == 0)
      Rerun = false;
    else
      return usage();
    if (!Ok) {
      std::fprintf(stderr, "error: malformed value in '%s'\n", Arg);
      return usage();
    }
  }

  if (SpecToReplay)
    return replayOneSpec(Options.RootSeed, *SpecToReplay, Options.Budget);

  std::printf("attack corpus: seed=%" PRIu64 " specs=%u budget=%u\n",
              Options.RootSeed, Options.SpecCount, Options.Budget);

  auto Start = std::chrono::steady_clock::now();
  AttackCorpusResult Result = runAttackCorpus(Options);
  double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  std::printf("%-16s %8s %9s %8s %7s %11s %11s\n", "defense", "attacks",
              "succeeded", "trapped", "missed", "unlowerable", "defeat-rate");
  for (const DefenseTally &T : Result.Tallies)
    std::printf("%-16s %8u %9u %8u %7u %11u %10.4f%%\n",
                defenseKindName(T.Defense), T.Attacks, T.Succeeded,
                T.StoppedByTrap, T.Missed, T.Unlowerable,
                100.0 * T.defeatRate());
  std::printf("distinct specs: %u / %u\n", Result.DistinctSpecs,
              Options.SpecCount);
  std::printf("digest: 0x%016" PRIx64 "  (%.2fs)\n", Result.Digest, Seconds);

  bool Pass = true;
  if (Result.DistinctSpecs != Options.SpecCount) {
    std::printf("FAIL: spec enumeration collided (%u distinct of %u)\n",
                Result.DistinctSpecs, Options.SpecCount);
    Pass = false;
  }

  // Standalone-replay spot checks: cells re-run from bare coordinates must
  // equal the in-corpus cells. A fixed stride covers every defense column
  // and both corruption modes.
  unsigned SpotChecks = 0;
  size_t DefenseCount = allDefenseKinds().size();
  size_t Stride = Result.Cells.size() > 48 ? Result.Cells.size() / 48 : 1;
  for (size_t CellIdx = 0; CellIdx < Result.Cells.size();
       CellIdx += Stride) {
    const CorpusCell &InCorpus = Result.Cells[CellIdx];
    CorpusCell Replayed =
        runCorpusCell(Options.RootSeed, InCorpus.SpecIndex, InCorpus.Defense,
                      Options.Budget);
    ++SpotChecks;
    if (Replayed.Outcome != InCorpus.Outcome ||
        Replayed.Trap != InCorpus.Trap ||
        Replayed.AttemptsUsed != InCorpus.AttemptsUsed) {
      std::printf("FAIL: standalone replay of spec %u vs %s diverged\n",
                  InCorpus.SpecIndex, defenseKindName(InCorpus.Defense));
      Pass = false;
    }
  }
  (void)DefenseCount;
  std::printf("standalone replays: %u cells bit-identical\n", SpotChecks);

  bool RerunIdentical = true;
  if (Rerun) {
    AttackCorpusResult Second = runAttackCorpus(Options);
    RerunIdentical = Second.Digest == Result.Digest;
    if (!RerunIdentical) {
      std::printf("FAIL: rerun digest 0x%016" PRIx64 " != 0x%016" PRIx64 "\n",
                  Second.Digest, Result.Digest);
      Pass = false;
    } else {
      std::printf("rerun: digest bit-identical\n");
    }
  }

  if (!JsonPath.empty() &&
      !writeJson(JsonPath, Result, Rerun, RerunIdentical, SpotChecks,
                 Seconds))
    Pass = false;

  std::printf(Pass ? "CORPUS PASS\n" : "CORPUS FAIL\n");
  return Pass ? 0 : 1;
}
