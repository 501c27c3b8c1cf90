//===- perfbench/src/Fig3Native.cpp - The paper's Fig. 3 kernels ----------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The fourteen src/workloads kernels, hardened through PermutedFrame with
// an AES-1 source, at a fixed amount of work per kernel. No VM, no net:
// only core and rng run, so a VM or net change must leave this workload
// unmoved. Kernels run round-robin so machine noise spreads evenly.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/FrameRuntime.h"
#include "rng/AesCtr.h"
#include "rng/Entropy.h"
#include "rng/Pseudo.h"
#include "rng/RdRand.h"
#include "workloads/Workloads.h"

#include <cstring>
#include <memory>

using namespace smokestack;

namespace perfbench {
namespace {

/// Work units per kernel run, in allWorkloads() order: each run takes
/// roughly 0.3-0.6 ms on a 2020s x86-64 core, so a run of a few seconds
/// holds over a thousand runs of every kernel.
constexpr uint64_t KernelWork[] = {
    800,  // 400.perlbench-like
    100,  // 401.bzip2-like
    600,  // 403.gcc-like
    400,  // 429.mcf-like
    500,  // 433.milc-like
    90,   // 445.gobmk-like
    450,  // 456.hmmer-like
    12,   // 458.sjeng-like
    600,  // 462.libquantum-like
    750,  // 464.h264ref-like
    400,  // 470.lbm-like
    1100, // 482.sphinx3-like
    450,  // proftpd-like
    600,  // wireshark-like
};

constexpr uint64_t DopMagic = 0xC0FFEE;

/// The frame the native stale-layout attacker targets: the Listing-1
/// dispatcher state next to an overflowable 64-byte buffer. Native frames
/// enumerate every permutation, so seven slots plus the identifier (8!
/// rows) is the most a FrameDescriptor takes.
FrameDescriptor attackFrame() {
  return FrameDescriptor({{64, 1, "buf"},
                          {8, 8, "ctr"},
                          {8, 8, "op"},
                          {8, 8, "step"},
                          {8, 8, "acc"},
                          {24, 1, "f1"},
                          {4, 4, "f2"}});
}
constexpr unsigned BufSlot = 0;
constexpr unsigned AccSlot = 4;

/// An attacker that discloses one invocation's distance from buf to acc
/// and, in the next AttacksPerDisclosure invocations, overflows buf
/// contiguously up to that distance and plants DopMagic there; then it
/// discloses afresh. An attack lands when acc holds the magic and the
/// epilogue identifier check still passes.
class NativeAttacker {
public:
  NativeAttacker() : D(attackFrame()) {}

  /// One invocation: a disclosure or an attack. True when an attack
  /// landed; \p Attacked tells which it was.
  bool invoke(RandomSource &Rng, bool &Attacked) {
    alignas(16) char Slab[1024];
    std::memset(Slab, 0, sizeof Slab);
    PermutedFrame F(D, Rng, Slab);
    char *Buf = F.slotAs<char>(BufSlot);
    Attacked = Left != 0;
    if (!Attacked) {
      int64_t Delta = F.slotAs<char>(AccSlot) - Buf;
      if (Delta > 0) {
        Stale = Delta;
        Left = AttacksPerDisclosure;
      }
      return false;
    }
    --Left;
    *F.slotAs<uint64_t>(AccSlot) = 5;
    size_t Reach = static_cast<size_t>(Stale) + 8;
    size_t Room = static_cast<size_t>(Slab + D.frameSize() - Buf);
    if (Reach > Room)
      return false; // the overflow would leave the frame: a crash, not DOP
    std::memset(Buf, 'A', Reach - 8);
    std::memcpy(Buf + Stale, &DopMagic, 8);
    return *F.slotAs<uint64_t>(AccSlot) == DopMagic && F.checkIdentifier();
  }

  const FrameDescriptor &frame() const { return D; }

private:
  FrameDescriptor D;
  int64_t Stale = 0;
  unsigned Left = 0;
};

/// Seeded AES-1 source plus the baseline result of every kernel.
struct Fig3Setup {
  explicit Fig3Setup(uint64_t Seed)
      : Entropy(Seed ^ 0x4649473341455331ULL), Aes1(Entropy, 1) {
    for (const Workload &K : allWorkloads())
      Baseline.push_back(K.Run(nullptr, KernelWork[Baseline.size()]));
  }
  DeterministicEntropySource Entropy;
  AesCtrRandomSource Aes1;
  NativeAttacker Attacker;
  std::vector<uint64_t> Baseline;
};

/// Keeps the timed draws observable.
volatile uint64_t DrawSink = 0;

double nsOf(uint64_t A, uint64_t B) { return static_cast<double>(B - A); }

/// Table I: ns per next() of every scheme, rounds interleaved.
void measureRng(uint64_t Seed, unsigned Rounds, uint64_t Draws,
                RunResult &R, SpanLog &Spans) {
  DeterministicEntropySource E(Seed ^ 0x524e47ULL);
  PseudoRandomSource Pseudo(E);
  AesCtrRandomSource Aes1(E, 1), Aes10(E, 10);
  RdRandSource RdRand(E);
  struct Scheme {
    const char *Metric;
    RandomSource *Source;
    std::vector<double> Ns;
  } Schemes[] = {{"rng.ns_per_draw.pseudo", &Pseudo, {}},
                 {"rng.ns_per_draw.aes1", &Aes1, {}},
                 {"rng.ns_per_draw.aes10", &Aes10, {}},
                 {"rng.ns_per_draw.rdrand", &RdRand, {}}};
  uint64_t Sink = 0;
  for (unsigned Round = 0; Round != Rounds; ++Round)
    for (Scheme &S : Schemes) {
      uint64_t A = nowNs();
      for (uint64_t I = 0; I != Draws; ++I)
        Sink += S.Source->next();
      uint64_t B = nowNs();
      S.Ns.push_back(nsOf(A, B) / static_cast<double>(Draws));
      Spans.record(S.Metric, Round, 0, A, B);
    }
  for (Scheme &S : Schemes)
    R.add(S.Metric, median(S.Ns), "ns");
  DrawSink = Sink;
}

/// PermutedFrame prologue + epilogue check, per invocation.
double permutedFrameNs(const FrameDescriptor &D, RandomSource &Rng,
                       uint64_t Frames) {
  alignas(16) char Slab[1024];
  uint64_t Intact = 0;
  uint64_t A = nowNs();
  for (uint64_t I = 0; I != Frames; ++I) {
    PermutedFrame F(D, Rng, Slab);
    Intact += F.checkIdentifier();
  }
  double Ns = nsOf(A, nowNs()) / static_cast<double>(Frames);
  return Intact == Frames ? Ns : -1;
}

} // namespace

void runFig3Native(const Options &O, RunResult &R) {
  SetupSampler Setups([&] { return std::make_unique<Fig3Setup>(O.Seed); });
  std::unique_ptr<Fig3Setup> S = Setups.build();
  R.fact("engine", "\"native\"");

  std::span<const Workload> Kernels = allWorkloads();
  std::vector<std::vector<double>> TimesUs(Kernels.size());
  uint64_t Ops = 0, Failed = 0, Attacks = 0, Landed = 0;
  const uint64_t Start = nowNs();
  uint64_t End = Start + static_cast<uint64_t>(O.Seconds * 1e9);
  while (nowNs() < End) {
    if (Setups.due(Start, O.Seconds)) {
      const uint64_t A = nowNs();
      S.reset();
      S = Setups.build();
      End += nowNs() - A;
    }
    for (size_t K = 0; K != Kernels.size(); ++K) {
      uint64_t A = nowNs();
      uint64_t V = Kernels[K].Run(&S->Aes1, KernelWork[K]);
      TimesUs[K].push_back(nsOf(A, nowNs()) * 1e-3);
      ++Ops;
      Failed += V != S->Baseline[K];
      bool Attacked = false;
      Landed += S->Attacker.invoke(S->Aes1, Attacked);
      Attacks += Attacked;
    }
  }
  const double RssMb = peakRssMb();
  if (Failed)
    R.fail("fig3_native: " + std::to_string(Failed) +
           " hardened kernel runs differ from their baseline result");
  R.ops(Ops, Failed);

  // Per kernel: hardened runs per second of run time (the inverse of the
  // mean run time) and the tail run time, the median over time windows of
  // each window's tail; each metric is the geometric mean over kernels.
  std::vector<double> Rates, Tail;
  for (const std::vector<double> &T : TimesUs) {
    Rates.push_back(1e6 / mean(T));
    Tail.push_back(median(perWindow(T, MetricWindows, TailQuantile)));
  }
  R.add("ops_per_s", geomean(Rates), "1/s");
  R.add("latency_p90_us", geomean(Tail), "us");
  R.add("defeat_rate",
        1.0 - static_cast<double>(Landed) / static_cast<double>(Attacks),
        "ratio");
  R.add("setup_s", Setups.fastestSeconds(), "s");
  R.add("peak_rss_mb", RssMb, "MB");
  R.samples("ops_per_s", Ops);
  R.samples("latency_p90_us", TimesUs.front().size());
  R.samples("defeat_rate", Attacks);
  R.samples("setup_s", SetupReps);
}

void traceFig3Native(const Options &O, double Budget, bool Home, RunResult &R,
                     SpanLog &Spans) {
  Fig3Setup S(O.Seed);
  std::span<const Workload> Kernels = allWorkloads();

  // Fig. 3 from interleaved pairs: each round runs every kernel baseline
  // and hardened back to back, alternating which goes first, and yields
  // one geometric-mean overhead.
  std::vector<std::vector<double>> BaseUs(Kernels.size()),
      HardUs(Kernels.size());
  std::vector<double> RoundOverheadPct;
  uint64_t Ops = 0, Failed = 0;
  const double Share = Home ? 0.6 : 0.8;
  const uint64_t End = nowNs() + static_cast<uint64_t>(Budget * Share * 1e9);
  for (unsigned Round = 0; nowNs() < End || Round < 2; ++Round) {
    std::vector<double> Ratios;
    uint32_t RoundSpan = Spans.begin("fig3.round", Round);
    for (size_t K = 0; K != Kernels.size(); ++K) {
      double Ns[2];
      for (unsigned Leg = 0; Leg != 2; ++Leg) {
        bool Hardened = (Leg + Round) % 2;
        uint64_t A = nowNs();
        uint64_t V =
            Kernels[K].Run(Hardened ? &S.Aes1 : nullptr, KernelWork[K]);
        uint64_t B = nowNs();
        Ns[Hardened] = nsOf(A, B);
        Failed += V != S.Baseline[K];
        Spans.record(Hardened ? "workloads.run.hardened"
                              : "workloads.run.baseline",
                     K, RoundSpan, A, B);
      }
      Ops += 2;
      BaseUs[K].push_back(Ns[0] * 1e-3);
      HardUs[K].push_back(Ns[1] * 1e-3);
      Ratios.push_back(Ns[1] / Ns[0]);
    }
    Spans.end(RoundSpan);
    RoundOverheadPct.push_back((geomean(Ratios) - 1) * 100);
  }
  if (Failed)
    R.fail("fig3_native: traced kernel runs differ from their baseline");
  R.ops(Ops, Failed);
  std::vector<double> BaseRates;
  for (const std::vector<double> &T : BaseUs)
    BaseRates.push_back(1e6 / median(T));
  R.add("workloads.baseline_runs_per_s", geomean(BaseRates), "1/s");
  R.add("workloads.overhead_pct.aes1", median(RoundOverheadPct), "%");
  R.add("workloads.overhead_pct.aes1.q1", quantile(RoundOverheadPct, 0.25),
        "%");
  R.add("workloads.overhead_pct.aes1.q3", quantile(RoundOverheadPct, 0.75),
        "%");

  const uint64_t Draws = Home ? 200'000 : 20'000;
  measureRng(O.Seed, 7, Draws, R, Spans);
  std::vector<double> FrameNs;
  for (unsigned Rep = 0; Rep != 7; ++Rep)
    FrameNs.push_back(permutedFrameNs(S.Attacker.frame(), S.Aes1, Draws));
  if (quantile(FrameNs, 0) < 0)
    R.fail("fig3_native: identifier check failed on an intact frame");
  R.add("core.permuted_frame_ns", median(FrameNs), "ns");

  if (!Home)
    return;
  // Trace cost: hardened rounds untraced, then with a span per kernel run.
  const double Slice = Budget * 0.08;
  double Rate[2] = {0, 0};
  for (unsigned Rep = 0; Rep != 4; ++Rep) {
    bool Traced = Rep % 2;
    uint64_t Runs = 0;
    const uint64_t T0 = nowNs();
    const uint64_t Stop = T0 + static_cast<uint64_t>(Slice * 1e9);
    while (nowNs() < Stop)
      for (size_t K = 0; K != Kernels.size(); ++K, ++Runs) {
        uint64_t A = nowNs();
        uint64_t V = Kernels[K].Run(&S.Aes1, KernelWork[K]);
        if (Traced)
          Spans.record("workloads.run.hardened", K, 0, A, nowNs());
        if (V != S.Baseline[K])
          R.fail("fig3_native: kernel differs during the trace-cost loop");
      }
    R.ops(Runs, 0);
    Rate[Traced] += static_cast<double>(Runs) / secondsSince(T0) / 2;
  }
  R.add("bench.trace_overhead_pct", overheadPct(Rate[0], Rate[1]), "%");
  std::vector<double> P50, P99;
  for (const std::vector<double> &T : HardUs) {
    P50.push_back(quantile(T, 0.5));
    P99.push_back(quantile(T, 0.99));
  }
  R.add("bench.latency_p50_us", geomean(P50), "us");
  R.add("bench.latency_p99_us", geomean(P99), "us");
}

} // namespace perfbench
