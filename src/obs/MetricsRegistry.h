//===- obs/MetricsRegistry.h - Prometheus/JSON metrics export --*- C++ -*-===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One registry that walks every process-wide Statistic and Histogram —
/// plus whatever point-in-time gauges the caller adds (PoolBooks fields,
/// trace summaries) — into two stable formats:
///
///   exportText(): Prometheus text exposition. Dotted smokestack names
///   map to `smokestack_<name with [.-] -> _>`; counters become `counter`
///   samples, gauges become `gauge` samples, histograms become the
///   canonical `_bucket{le="..."}` / `_sum` / `_count` triple with
///   cumulative buckets (empty buckets are elided; `+Inf` is always
///   present).
///
///   exportJson(): the `smokestack-metrics-v1` schema — `counters`,
///   `gauges`, and `histograms` arrays, each sorted by name, histogram
///   buckets listed non-cumulatively with their inclusive upper bound.
///   Field order is fixed, so snapshots diff cleanly and the golden test
///   can pin the bytes.
///
/// Both exporters sort by metric name, so output is independent of static
/// registration order (which is link-order dependent).
///
//===----------------------------------------------------------------------===//

#ifndef SMOKESTACK_OBS_METRICSREGISTRY_H
#define SMOKESTACK_OBS_METRICSREGISTRY_H

#include <cstdint>
#include <string>
#include <vector>

namespace smokestack {

class Histogram;
class JsonWriter;

class MetricsRegistry {
public:
  /// \p IncludeGlobals: walk the process-wide Statistic and Histogram
  /// registries (tools and soaks want this; golden tests pass false and
  /// add everything explicitly).
  explicit MetricsRegistry(bool IncludeGlobals = true)
      : IncludeGlobals(IncludeGlobals) {}

  /// Adds a point-in-time gauge sample.
  void addGauge(std::string Name, std::string Help, uint64_t Value);

  /// Adds a histogram beyond the global registry (golden tests).
  void addHistogram(const Histogram *H);

  /// Prometheus text exposition format.
  std::string exportText() const;

  /// The smokestack-metrics-v1 JSON schema, as a standalone document.
  std::string exportJson() const;
  /// The same object written as the next value of \p W, so a bench file
  /// can nest it under a key of its own.
  void exportJson(JsonWriter &W) const;

private:
  /// One counter or gauge value.
  struct Sample {
    std::string Name;
    std::string Help;
    uint64_t Value;
  };

  /// Everything this registry exports, each kind sorted by name; counters
  /// are sampled at the call.
  struct Sorted {
    std::vector<Sample> Counters;
    std::vector<Sample> Gauges;
    std::vector<const Histogram *> Histograms;
  };
  Sorted sorted() const;

  bool IncludeGlobals;
  std::vector<Sample> Gauges;
  std::vector<const Histogram *> Extra;
};

} // namespace smokestack

#endif // SMOKESTACK_OBS_METRICSREGISTRY_H
