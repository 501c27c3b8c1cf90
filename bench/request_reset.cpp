//===- bench/request_reset.cpp - Request-boundary reset cost --------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prices the four ways a worker's VM returns to a clean state, across a
/// sweep of touched-bytes sizes:
///
///   scrub             SimMemory::scrubStack over N dirtied stack bytes
///                     (the post-trap recovery path inside runRequest)
///   heap_reset        SimMemory::resetHeap after an N-byte allocation
///                     (the per-request arena reset)
///   snapshot_restore  Interpreter::restoreFromSnapshot with N bytes
///                     dirtied since capture (the crash-rebuild fast-path)
///   full_rebuild      the path the fast-path replaces: destroy the VM,
///                     construct a fresh one, and bring it to where a
///                     restored VM already is — globals loaded (its first
///                     run of main) and the N dirtied bytes' pages resident
///                     again. Construction costs no system call: the
///                     segments are lazily zeroed mappings, and a new VM
///                     takes over the ones the last VM on the thread
///                     parked (support/Arena.h). Tearing the old VM down
///                     zeroes a dirty range of up to 64 KiB in place and
///                     hands a larger one back to the kernel with madvise,
///                     so at large N a rebuild pays that release plus a
///                     page fault per touched page, which a restored VM,
///                     whose pages stay resident, does not
///
/// The headline metric, restore_speedup_vs_rebuild, is the full-rebuild /
/// snapshot-restore ratio at the largest touched size: machine-relative,
/// so it transfers across runner generations better than raw ns/op (the
/// same idea as interp_throughput's max_speedup). That ratio is measured
/// in SpreadRounds more rounds, and the quartiles of all of them are
/// reported as restore_speedup_q1/_q3, so a reader can tell a real move
/// from the run-to-run swing of the page-fault-bound rebuild. Results land in
/// BENCH_reset.json (path overridable as argv[1]) and are gated by
/// tools/check_bench_regression.py in the CI bench-smoke job.
///
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "obs/JsonWriter.h"
#include "vm/Interpreter.h"
#include "vm/Snapshot.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <vector>

using namespace smokestack;

namespace {

/// A module with a few globals so the captured snapshot is non-trivial —
/// the restore has a real image to copy back, like a deployed module.
void buildModule(Module &M) {
  IRBuilder B(M);
  M.createGlobal("counter", B.i64(), {1});
  M.createGlobal("table", B.getContext().getArrayTy(B.i8(), 4096),
                 {0xAB, 0xCD, 0xEF}, /*ReadOnly=*/true);
  Function *F = M.createFunction("main", B.i64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  B.ret(B.constI64(13));
}

uint64_t nowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of per-op wall times: \p Setup re-dirties state (untimed), then
/// \p Op is timed with two clock reads. Per-op timing keeps the re-dirty
/// cost out of the figure at the price of ~clock-read noise, which the
/// median and the µs-scale ops absorb.
template <typename SetupFn, typename OpFn>
double medianOpNanos(int Reps, SetupFn Setup, OpFn Op) {
  std::vector<uint64_t> Times;
  Times.reserve(Reps);
  for (int R = 0; R != Reps; ++R) {
    Setup();
    uint64_t T0 = nowNanos();
    Op();
    uint64_t T1 = nowNanos();
    Times.push_back(T1 - T0);
  }
  std::sort(Times.begin(), Times.end());
  return static_cast<double>(Times[Times.size() / 2]);
}

} // namespace

int main(int argc, char **argv) {
  const char *JsonPath = argc > 1 ? argv[1] : "BENCH_reset.json";
  const int Reps = 25;
  const int SpreadRounds = 7;
  const uint64_t TouchedSizes[] = {4u << 10, 64u << 10, 256u << 10, 1u << 20};

  Module M("reset");
  buildModule(M);
  Interpreter VM(M);
  VmSnapshot Snap = VM.captureSnapshot();
  SimMemory &Mem = VM.memory();

  std::vector<uint8_t> Pattern(1u << 20, 0xA5);

  std::printf("request-boundary reset cost (ns/op, median of %d)\n", Reps);
  std::printf("%12s %12s %12s %18s %14s\n", "touched", "scrub", "heap_reset",
              "snapshot_restore", "full_rebuild");

  // Crash-rebuild fast-path: N bytes dirtied across stack and heap.
  auto MeasureRestore = [&](uint64_t N) {
    return medianOpNanos(
        Reps,
        [&] {
          Mem.write(MemoryMap::StackTop - N / 2, Pattern.data(), N / 2);
          uint64_t P = Mem.heapAlloc(N / 2);
          Mem.write(P, Pattern.data(), N / 2);
        },
        [&] { VM.restoreFromSnapshot(Snap); });
  };

  // Legacy crash-rebuild: a fresh VM, its globals loaded, and one byte
  // written per 4 KiB of the same N bytes, which faults each of their
  // pages back in (every host page size is a multiple of 4 KiB).
  auto MeasureRebuild = [&](uint64_t N) {
    std::unique_ptr<Interpreter> Rebuilt;
    return medianOpNanos(Reps, [] {}, [&] {
      Rebuilt = std::make_unique<Interpreter>(M);
      Rebuilt->run("main");
      SimMemory &Fresh = Rebuilt->memory();
      const uint8_t One = 1;
      uint64_t Heap = Fresh.heapAlloc(N / 2);
      for (uint64_t Off = 0; Off < N / 2; Off += 4096) {
        Fresh.write(MemoryMap::StackTop - N / 2 + Off, &One, 1);
        Fresh.write(Heap + Off, &One, 1);
      }
    });
  };

  JsonWriter Json;
  Json.beginObject();
  Json.key("bench").str("request_reset");
  Json.key("reps").integer(Reps);
  Json.key("points").beginArray();
  double LastRestore = 0.0, LastRebuild = 0.0;
  for (uint64_t N : TouchedSizes) {

    // Post-trap stack scrub: N dirty bytes at the top of the stack.
    uint64_t StackFrom = MemoryMap::StackTop - N;
    double ScrubNs = medianOpNanos(
        Reps, [&] { Mem.write(StackFrom, Pattern.data(), N); },
        [&] { Mem.scrubStack(StackFrom); });

    // Per-request arena reset: one N-byte allocation, fully written.
    double HeapNs = medianOpNanos(
        Reps,
        [&] {
          uint64_t P = Mem.heapAlloc(N);
          Mem.write(P, Pattern.data(), N);
        },
        [&] { Mem.resetHeap(); });

    double RestoreNs = MeasureRestore(N);
    double RebuildNs = MeasureRebuild(N);

    LastRestore = RestoreNs;
    LastRebuild = RebuildNs;
    std::printf("%9llu K %12.0f %12.0f %18.0f %14.0f\n",
                static_cast<unsigned long long>(N >> 10), ScrubNs, HeapNs,
                RestoreNs, RebuildNs);

    Json.beginObject(JsonWriter::Layout::Inline);
    Json.key("touched_bytes").integer(N);
    Json.key("scrub_nanos").fixed(ScrubNs, 0);
    Json.key("heap_reset_nanos").fixed(HeapNs, 0);
    Json.key("snapshot_restore_nanos").fixed(RestoreNs, 0);
    Json.key("full_rebuild_nanos").fixed(RebuildNs, 0);
    Json.endObject();
  }

  // Headline ratio at the LARGEST touched size: the most conservative
  // point, since the rebuild's fixed construction cost counts least there.
  double Speedup = LastRestore > 0.0 ? LastRebuild / LastRestore : 0.0;
  uint64_t Largest = TouchedSizes[std::size(TouchedSizes) - 1];
  std::vector<double> Ratios = {Speedup};
  for (int R = 0; R != SpreadRounds; ++R) {
    double RestoreNs = MeasureRestore(Largest);
    Ratios.push_back(RestoreNs > 0.0 ? MeasureRebuild(Largest) / RestoreNs
                                     : 0.0);
  }
  std::sort(Ratios.begin(), Ratios.end());
  double Q1 = Ratios[Ratios.size() / 4], Q3 = Ratios[Ratios.size() * 3 / 4];
  std::printf("\nsnapshot restore vs full rebuild at 1 MiB touched: %.1fx "
              "(q1 %.1f, q3 %.1f over %zu rounds)\n",
              Speedup, Q1, Q3, Ratios.size());

  Json.endArray();
  Json.key("restore_speedup_vs_rebuild").fixed(Speedup, 3);
  Json.key("restore_speedup_q1").fixed(Q1, 3);
  Json.key("restore_speedup_q3").fixed(Q3, 3);
  Json.endObject();

  if (Json.writeFile(JsonPath)) {
    std::printf("wrote %s\n", JsonPath);
  } else {
    std::fprintf(stderr, "cannot write %s\n", JsonPath);
    return 1;
  }
  // The fast-path exists to beat reconstruction; fail loudly if it ever
  // does not (2x is far below the measured margin, catching only real
  // breakage rather than runner noise).
  return Speedup >= 2.0 ? 0 : 2;
}
