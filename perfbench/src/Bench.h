//===- perfbench/src/Bench.h - Repo benchmark support -----------*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the four workloads share: the run options, the result a run
/// prints, sample statistics, and the in-memory span log of the traced
/// run. Nothing here reaches into the library; the workloads drive its
/// public functions themselves.
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_PERFBENCH_BENCH_H
#define SMOKESTACK_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Where the traced run writes its spans (empty = keep them in memory).
  std::string TraceOut;
};

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double secondsSince(uint64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) * 1e-9;
}

/// Sleeps until \p DeadlineNs, spinning through the last stretch so the
/// wake-up lands within a few microseconds of it.
void sleepUntil(uint64_t DeadlineNs);

/// Linear-interpolated quantile (the numpy/statistics "inclusive" rule).
/// Returns 0 for an empty sample.
double quantile(std::vector<double> Sample, double Q);
inline double median(std::vector<double> Sample) {
  return quantile(std::move(Sample), 0.5);
}
/// Splits a time-ordered sample into \p Windows consecutive equal parts
/// and returns each part's \p Q quantile.
std::vector<double> perWindow(const std::vector<double> &Sample,
                              unsigned Windows, double Q);

/// Windows per run behind the windowed metrics (wire and vm_calls, and
/// fig3_native's tail), which report the median over windows so a burst of
/// host contention moves a few windows rather than the result.
inline constexpr unsigned MetricWindows = 10;
/// The end-to-end latency is the 90th percentile. The mean is left out: on
/// fig3_native and attack_corpus it is the inverse of ops_per_s. On a shared
/// host whose speed flips between two modes a run's median lands in
/// either mode (fig3_native's read 248-344 us across ten seeds) and the
/// 99th percentile follows millisecond stalls of the machine (the wire's
/// read 0.18-1.5 ms), so both are reported per layer from traced runs, as
/// bench.latency_p50_us and bench.latency_p99_us.
inline constexpr double TailQuantile = 0.9;
/// Arithmetic mean (0 for an empty sample).
double mean(const std::vector<double> &Sample);
/// Geometric mean of positive values.
double geomean(const std::vector<double> &Values);

/// One named measurement with its unit.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What one run reports. Attempted/Failed count operations; a failed
/// correctness check marks the run incorrect and counts against Failed
/// only through the operations it names.
class RunResult {
public:
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// Records a failed check (reason goes to stderr at exit).
  void fail(const std::string &Why);
  /// Records \p Ops operations, \p Bad of which failed.
  void ops(uint64_t Ops, uint64_t Bad) {
    Attempted += Ops;
    Failed += Bad;
  }
  /// Host fact printed on the line before the result.
  void fact(const std::string &Key, const std::string &JsonValue) {
    Facts.push_back({Key, JsonValue});
  }
  /// Sample count behind metric \p Name.
  void samples(const std::string &Name, uint64_t N) {
    Samples.push_back({Name, N});
  }
  /// Marks the workload as impossible on this host; no result is printed.
  void unavailable(const std::string &Why) { Unavailable = Why; }
  const std::string &unavailableReason() const { return Unavailable; }

  bool correct() const { return Problems.empty() && Failed == 0; }
  uint64_t attempted() const { return Attempted; }

  /// Prints the host line and, last, the one-line JSON result.
  void print() const;

private:
  std::vector<Metric> Metrics;
  std::vector<std::string> Problems;
  std::vector<std::pair<std::string, std::string>> Facts;
  std::vector<std::pair<std::string, uint64_t>> Samples;
  std::string Unavailable;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// The traced run's span log. Spans are kept in memory (bounded; spans
/// past the cap are counted, not stored) and written out at exit as one
/// JSON object per line: name, start/end ns, parent span id, op id.
class SpanLog {
public:
  explicit SpanLog(size_t Cap = 1u << 20) : Cap(Cap) { Spans.reserve(1024); }

  /// Opens a span; returns its id (0 when the log is full).
  uint32_t begin(const char *Name, uint64_t Op, uint32_t Parent = 0) {
    return record(Name, Op, Parent, nowNs(), 0);
  }
  void end(uint32_t Id) {
    if (Id)
      Spans[Id - 1].End = nowNs();
  }
  /// Records a span whose interval was measured by the caller.
  uint32_t record(const char *Name, uint64_t Op, uint32_t Parent,
                  uint64_t StartNs, uint64_t EndNs) {
    if (Spans.size() == Cap) {
      ++Dropped;
      return 0;
    }
    Spans.push_back({Name, Op, Parent, StartNs, EndNs});
    return static_cast<uint32_t>(Spans.size());
  }

  size_t size() const { return Spans.size(); }
  bool write(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    uint64_t Op;
    uint32_t Parent;
    uint64_t Start;
    uint64_t End;
  };
  std::vector<Span> Spans;
  size_t Cap;
  uint64_t Dropped = 0;
};

/// Attacks a stale-layout attacker makes on one disclosure before it
/// discloses again (vm_calls, fig3_native).
inline constexpr unsigned AttacksPerDisclosure = 63;

/// Set-up builds behind setup_s.
inline constexpr unsigned SetupReps = 15;

/// setup_s: the fastest of SetupReps builds of a workload's state by
/// \p Make. fig3_native and attack_corpus make the first before their
/// first op and the others at even points of the measured run, between ops
/// and outside their timing. wire and vm_calls time the run in wall-clock
/// windows, so they make them all before the first op (after the run they
/// would find the allocator warm and read several times faster than a
/// first build). No two builds are alive at once, so peak_rss_mb stays the
/// workload's own.
///
/// The fastest build rather than the median, because contention on a
/// shared host only ever slows a build and comes in stretches of tens of
/// seconds: on a 4-vCPU x86-64 VM one fig3_native run's builds read
/// 11.6-24 ms, and the median of nine moved between 13 and 19 ms from run
/// to run while the fastest stayed within 11.6-13.8 ms.
template <typename Fn> class SetupSampler {
public:
  using State = decltype(std::declval<Fn &>()());

  explicit SetupSampler(Fn Make) : Make(std::move(Make)) {}

  /// One timed build. The caller drops the one it replaces first.
  State build() {
    const uint64_t Start = nowNs();
    State Built = Make();
    Times.push_back(secondsSince(Start));
    return Built;
  }

  /// True when the next build of a run that started at \p StartNs and
  /// measures \p Seconds is due.
  bool due(uint64_t StartNs, double Seconds) const {
    return Times.size() < SetupReps &&
           nowNs() >= StartNs + static_cast<uint64_t>(
                                    Seconds * 1e9 *
                                    static_cast<double>(Times.size()) /
                                    SetupReps);
  }

  /// All builds up front: each but the last is dropped, the last returned.
  State upFront() {
    while (Times.size() + 1 < SetupReps)
      build();
    return build();
  }

  /// Makes the builds still missing; returns the fastest in seconds.
  double fastestSeconds() {
    while (Times.size() < SetupReps)
      build();
    return quantile(Times, 0);
  }

private:
  Fn Make;
  std::vector<double> Times;
};

/// Peak resident set of this process in MiB (getrusage).
double peakRssMb();

// The four workloads. run* fills the end-to-end metrics of an untraced
// run; trace* fills the per-layer metrics its workload owns. \p Home is
// true when the traced run was asked for this workload: it then gets the
// time budget and reports bench.trace_overhead_pct as well.
void runWire(const Options &O, RunResult &R);
void traceWire(const Options &O, double Budget, bool Home, RunResult &R,
               SpanLog &S);
void runVmCalls(const Options &O, RunResult &R);
void traceVmCalls(const Options &O, double Budget, bool Home, RunResult &R,
                  SpanLog &S);
void runFig3Native(const Options &O, RunResult &R);
void traceFig3Native(const Options &O, double Budget, bool Home, RunResult &R,
                     SpanLog &S);
void runAttackCorpus(const Options &O, RunResult &R);
void traceAttackCorpus(const Options &O, double Budget, bool Home,
                       RunResult &R, SpanLog &S);

/// Shared by the trace functions: percentage by which tracing slowed a
/// workload's op rate.
inline double overheadPct(double UntracedRate, double TracedRate) {
  return UntracedRate > 0 ? (UntracedRate - TracedRate) / UntracedRate * 100
                          : 0;
}

} // namespace perfbench

#endif // SMOKESTACK_PERFBENCH_BENCH_H
