//===- perfbench/src/Bench.cpp - Repo benchmark support -------------------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <sys/resource.h>

namespace perfbench {

void sleepUntil(uint64_t DeadlineNs) {
  constexpr uint64_t SpinNs = 60'000;
  uint64_t Now = nowNs();
  if (DeadlineNs > Now + SpinNs) {
    uint64_t Wait = DeadlineNs - Now - SpinNs;
    timespec Ts = {static_cast<time_t>(Wait / 1'000'000'000),
                   static_cast<long>(Wait % 1'000'000'000)};
    nanosleep(&Ts, nullptr);
  }
  while (nowNs() < DeadlineNs) {
  }
}

double quantile(std::vector<double> Sample, double Q) {
  if (Sample.empty())
    return 0;
  std::sort(Sample.begin(), Sample.end());
  double Pos = Q * static_cast<double>(Sample.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Sample.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Sample[Lo] + (Sample[Hi] - Sample[Lo]) * Frac;
}

std::vector<double> perWindow(const std::vector<double> &Sample,
                              unsigned Windows, double Q) {
  std::vector<double> PerWindow;
  for (unsigned W = 0; W != Windows; ++W) {
    size_t Lo = Sample.size() * W / Windows;
    size_t Hi = Sample.size() * (W + 1) / Windows;
    if (Hi > Lo)
      PerWindow.push_back(quantile(
          std::vector<double>(Sample.begin() + Lo, Sample.begin() + Hi), Q));
  }
  return PerWindow;
}

double mean(const std::vector<double> &Sample) {
  double Sum = 0;
  for (double V : Sample)
    Sum += V;
  return Sample.empty() ? 0 : Sum / static_cast<double>(Sample.size());
}

double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

void RunResult::fail(const std::string &Why) {
  if (Problems.size() < 64)
    Problems.push_back(Why);
}

void RunResult::print() const {
  for (const std::string &P : Problems)
    std::fprintf(stderr, "perfbench: check failed: %s\n", P.c_str());
  std::printf("{\"host\": {");
  for (size_t I = 0; I != Facts.size(); ++I)
    std::printf("%s\"%s\": %s", I ? ", " : "", Facts[I].first.c_str(),
                Facts[I].second.c_str());
  std::printf("}, \"samples\": {");
  for (size_t I = 0; I != Samples.size(); ++I)
    std::printf("%s\"%s\": %" PRIu64, I ? ", " : "", Samples[I].first.c_str(),
                Samples[I].second);
  std::printf("}, \"failed_frac\": %.17g}\n",
              Attempted ? static_cast<double>(Failed) /
                              static_cast<double>(Attempted)
                        : 0.0);

  bool Finite = true;
  std::string Body;
  char Buf[512];
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    double V = M.Value;
    if (!std::isfinite(V)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   M.Name.c_str());
      Finite = false;
      V = 0;
    }
    std::snprintf(Buf, sizeof Buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", M.Name.c_str(), V, M.Unit.c_str());
    Body += Buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              correct() && Finite ? "true" : "false", Attempted, Failed,
              Body.c_str());
  std::fflush(stdout);
}

bool SpanLog::write(const std::string &Path) const {
  FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(Out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %" PRIu64
                 ", \"end_ns\": %" PRIu64 ", \"parent\": %u, \"op\": %" PRIu64
                 "}\n",
                 I + 1, S.Name, S.Start, S.End, S.Parent, S.Op);
  }
  if (Dropped)
    std::fprintf(Out, "{\"dropped\": %" PRIu64 "}\n", Dropped);
  return std::fclose(Out) == 0;
}

double peakRssMb() {
  rusage U = {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

} // namespace perfbench
