//===- perfbench/src/main.cpp - The repo benchmark driver -----------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The one benchmark every performance or simplicity change is judged by.
// It drives the library's public functions from these files only.
//
// Running it (from the repository root; perfbench/run.py builds this
// binary with CMake first, into $CARGO_TARGET_DIR or .bench_build):
//
//   one workload:
//     python3 perfbench/run.py --workload wire --seed 1 --seconds 10 --trace 0
//   traced run (per-layer metrics, spans):
//     python3 perfbench/run.py --workload wire --seed 1 --seconds 10 --trace 1
//   all four, one table of every end-to-end metric:
//     python3 perfbench/run.py --all --seed 1 --seconds 10
//   run-to-run spread over seeds (the workloads BENCHMARK.json gates):
//     python3 perfbench/spread.py --runs 10 --seconds 45
//
// The last line of standard output is the result:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// and the line before it holds the host facts (nproc, AES-NI, RDRAND,
// jitAvailable(), the engine used), the sample count behind each metric
// and failed_frac = failed / attempted.
//
// Workloads (each in its own process, so peak_rss_mb is its own).
// BENCHMARK.json gates fig3_native and attack_corpus; wire and vm_calls
// run the same way but their spread on a shared 4-vCPU host exceeds the
// largest bound the gate allows (see CHANGES.md), so they are not gated.
// Every traced run still covers all four (see below).
//   wire           Wire.cpp         SocketServer, 2 shards x 1 worker
//   vm_calls       VmCalls.cpp      hardened call-dense kernel, JIT, AES-1
//   fig3_native    Fig3Native.cpp   the 14 PermutedFrame kernels, AES-1
//   attack_corpus  AttackCorpus.cpp runCorpusCell over a fixed slice of
//                                   specs x 6 defenses, in whole passes
//
// End-to-end metrics (--trace 0): ops_per_s, latency_p90_us, defeat_rate,
// setup_s (fastest of 15 set-up builds, see SetupSampler),
// peak_rss_mb. failed_frac is the attempted/failed pair of the result.
// On wire and vm_calls they are medians over time windows of the run, on
// attack_corpus medians over passes; fig3_native's ops_per_s spans the
// whole run and its latency_p90_us is a median over time windows.
//
// Per-layer metrics (--trace 1) and the public call each is taken around.
// A traced run spends most of its budget on its own workload and a short
// pass on the others, so every per-layer metric is reported each time. The
// exception is a host without the JIT: there the vm_calls pass is skipped
// and named in the side_passes_skipped host fact (a vm_calls run of its
// own is reported unavailable, exit 3). perfbench/layers.json names the
// end-to-end metric and workload each one should move. Spans go to
// --trace-out as JSON lines.
//   net.encode_ns                 encodeRequestFrame + encodeResponseFrame
//   net.decode_ns                 FrameDecoder::feed/next + parse*Payload
//   net.self_us                   socket round trip p50 minus the pool's
//                                 submit->outcome p50 at the same pacing
//   net.bytes_per_req             NetBooks BytesIn + BytesOut per request
//   runtime.submit_ns             WorkerPool::submit
//   runtime.submit_to_outcome_us  submit -> PoolOptions::OnOutcome (p50/p99)
//   runtime.rng_reseed_us         RequestRng::reseed
//   runtime.shed/poisoned         PoolBooks::Shed / Poisoned
//   vm.run_request_us.*           Interpreter::runRequest, benign / attack
//   vm.steps_per_s                ExecResult::Steps over runRequest time
//   vm.prologue_ns_per_call       (hardened - plain runRequest) /
//                                 Interpreter::callsExecuted()
//   vm.steps_per_request          ExecResult::Steps
//   vm.calls_per_request          Interpreter::callsExecuted()
//   vm.construct_ms               Interpreter constructor (corpus victim)
//   jit.compiled_functions        Interpreter::jitCompiledFunctions()
//   jit.speedup_vs_decoded        decoded / JIT runRequest, same module
//   jit.warmup_ms                 first runRequest minus the steady median
//   rng.ns_per_draw.*             RandomSource::next per scheme (Table I)
//   rng.draws_per_call            AesCtrRandomSource::callCounter() /
//                                 callsExecuted()
//   core.permuted_frame_ns        PermutedFrame + checkIdentifier
//   core.pbox_*                   SmokestackPass::pbox() tables, bytes,
//                                 share hits
//   defenses.deploy_ms.<kind>     deployDefense
//   attacks.synthesize_us         synthesizeVictim
//   attacks.lower_us              lowerAttack
//   attacks.run_ms                runCorpusCell
//   attacks.attempts_per_cell     CorpusCell::AttemptsUsed
//   workloads.baseline_runs_per_s Workload::Run without an RNG
//   workloads.overhead_pct.aes1   Fig. 3: hardened/baseline per round of
//                                 interleaved pairs, median (q1, q3 too)
//   bench.trace_overhead_pct      this workload's op rate, spans on vs off
//   bench.generator_lag_p99_us    open-loop send time minus due time
//   bench.latency_p50_us/p99_us   this workload's op latency, 50th/99th pct
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "jit/JitAbi.h"
#include "rng/Aes128.h"
#include "rng/RdRand.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

struct WorkloadEntry {
  const char *Name;
  void (*Run)(const Options &, RunResult &);
  void (*Trace)(const Options &, double, bool, RunResult &, SpanLog &);
  bool NeedsJit;
};

const WorkloadEntry Workloads[] = {
    {"wire", runWire, traceWire, false},
    {"vm_calls", runVmCalls, traceVmCalls, true},
    {"fig3_native", runFig3Native, traceFig3Native, false},
    {"attack_corpus", runAttackCorpus, traceAttackCorpus, false},
};

/// Seconds a traced run gives each workload that is not its own.
constexpr double SideBudget = 1.5;

int usage() {
  std::fprintf(stderr, "usage: perfbench --workload "
                       "wire|vm_calls|fig3_native|attack_corpus --seed N "
                       "--seconds S --trace 0|1 [--trace-out PATH]\n");
  return 2;
}

const char *boolJson(bool B) { return B ? "true" : "false"; }

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveSeed = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload")
      O.Workload = Val;
    else if (Key == "--seed") {
      O.Seed = std::strtoull(Val.c_str(), nullptr, 10);
      HaveSeed = true;
    } else if (Key == "--seconds")
      O.Seconds = std::strtod(Val.c_str(), nullptr);
    else if (Key == "--trace")
      O.Trace = Val == "1";
    else if (Key == "--trace-out")
      O.TraceOut = Val;
    else
      return usage();
  }
  const WorkloadEntry *Entry = nullptr;
  for (const WorkloadEntry &W : Workloads)
    if (O.Workload == W.Name)
      Entry = &W;
  if (!Entry || !HaveSeed || !(O.Seconds > 0) || O.Seconds > 120)
    return usage();

  RunResult R;
  R.fact("workload", "\"" + O.Workload + "\"");
  R.fact("seed", std::to_string(O.Seed));
  R.fact("traced", boolJson(O.Trace));
  R.fact("nproc", std::to_string(std::thread::hardware_concurrency()));
  R.fact("aes_ni", boolJson(smokestack::aes128HardwareAvailable()));
  R.fact("rdrand", boolJson(smokestack::rdRandAvailable()));
  R.fact("jit_available", boolJson(smokestack::jitAvailable()));

  if (!O.Trace) {
    Entry->Run(O, R);
  } else {
    // The run's own workload goes first, in a process as fresh as an
    // untraced run's: the allocator state the others leave behind makes
    // attack_corpus cells twice as fast.
    SpanLog Spans;
    Entry->Trace(O, O.Seconds, /*Home=*/true, R, Spans);
    std::string Skipped;
    for (const WorkloadEntry &W : Workloads) {
      if (&W == Entry || !R.unavailableReason().empty())
        continue;
      // Only a run of its own makes a JIT workload unavailable; as a
      // side pass it is skipped and the skip is a host fact.
      if (W.NeedsJit && !smokestack::jitAvailable()) {
        Skipped += Skipped.empty() ? W.Name : std::string(" ") + W.Name;
        continue;
      }
      W.Trace(O, SideBudget, /*Home=*/false, R, Spans);
    }
    R.fact("side_passes_skipped", "\"" + Skipped + "\"");
    if (!O.TraceOut.empty() && !Spans.write(O.TraceOut))
      R.fail("cannot write spans to " + O.TraceOut);
    R.fact("spans", std::to_string(Spans.size()));
  }
  if (!R.unavailableReason().empty()) {
    std::fprintf(stderr, "perfbench: %s: unavailable: %s\n",
                 O.Workload.c_str(), R.unavailableReason().c_str());
    return 3;
  }
  if (R.attempted() == 0)
    R.fail("no operation was attempted");
  // A printed result carries its own verdict in "correct".
  R.print();
  return 0;
}
