//===- obs/MetricsRegistry.cpp - Prometheus/JSON metrics export -----------===//
//
// Part of the Smokestack reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/MetricsRegistry.h"

#include "obs/Histogram.h"
#include "obs/JsonWriter.h"
#include "support/Format.h"
#include "support/Statistics.h"

#include <algorithm>
#include <utility>

using namespace smokestack;

namespace {

/// Dotted smokestack name -> Prometheus metric name.
std::string promName(const std::string &Name) {
  std::string Out = "smokestack_";
  for (char C : Name)
    Out += (C == '.' || C == '-') ? '_' : C;
  return Out;
}

} // namespace

void MetricsRegistry::addGauge(std::string Name, std::string Help,
                               uint64_t Value) {
  Gauges.push_back({std::move(Name), std::move(Help), Value});
}

void MetricsRegistry::addHistogram(const Histogram *H) { Extra.push_back(H); }

MetricsRegistry::Sorted MetricsRegistry::sorted() const {
  Sorted S;
  S.Gauges = Gauges;
  S.Histograms = Extra;
  if (IncludeGlobals) {
    for (const Statistic *C : allStatistics())
      S.Counters.push_back({C->name(), C->description(), C->value()});
    S.Histograms.insert(S.Histograms.end(), allHistograms().begin(),
                        allHistograms().end());
  }
  auto ByName = [](const Sample &A, const Sample &B) {
    return A.Name < B.Name;
  };
  std::sort(S.Counters.begin(), S.Counters.end(), ByName);
  std::sort(S.Gauges.begin(), S.Gauges.end(), ByName);
  std::sort(S.Histograms.begin(), S.Histograms.end(),
            [](const Histogram *A, const Histogram *B) {
              return std::string(A->name()) < B->name();
            });
  return S;
}

std::string MetricsRegistry::exportText() const {
  std::string Out;
  Sorted All = sorted();

  for (const auto &[Type, Samples] :
       {std::pair{"counter", &All.Counters}, {"gauge", &All.Gauges}})
    for (const Sample &Item : *Samples) {
      std::string N = promName(Item.Name);
      Out += formatString("# HELP %s %s\n", N.c_str(), Item.Help.c_str());
      Out += formatString("# TYPE %s %s\n", N.c_str(), Type);
      Out += formatString("%s %llu\n", N.c_str(),
                          (unsigned long long)Item.Value);
    }

  for (const Histogram *H : All.Histograms) {
    Histogram::Snapshot S = H->snapshot();
    std::string N = promName(H->name());
    Out += formatString("# HELP %s %s\n", N.c_str(), H->description());
    Out += formatString("# TYPE %s histogram\n", N.c_str());
    uint64_t Cumulative = 0;
    for (unsigned I = 0; I != Histogram::NumBuckets; ++I) {
      if (S.Buckets[I] == 0)
        continue; // elide empty buckets; cumulative counts stay valid
      Cumulative += S.Buckets[I];
      Out += formatString(
          "%s_bucket{le=\"%llu\"} %llu\n", N.c_str(),
          (unsigned long long)Histogram::bucketUpperBound(I),
          (unsigned long long)Cumulative);
    }
    Out += formatString("%s_bucket{le=\"+Inf\"} %llu\n", N.c_str(),
                        (unsigned long long)S.Count);
    Out += formatString("%s_sum %llu\n", N.c_str(),
                        (unsigned long long)S.Sum);
    Out += formatString("%s_count %llu\n", N.c_str(),
                        (unsigned long long)S.Count);
  }

  return Out;
}

void MetricsRegistry::exportJson(JsonWriter &W) const {
  using Layout = JsonWriter::Layout;
  W.beginObject();
  W.key("schema").str("smokestack-metrics-v1");
  Sorted All = sorted();

  for (const auto &[Key, Samples] :
       {std::pair{"counters", &All.Counters}, {"gauges", &All.Gauges}}) {
    W.key(Key).beginArray();
    for (const Sample &Item : *Samples)
      W.beginObject(Layout::Inline)
          .key("name").str(Item.Name)
          .key("value").integer(Item.Value)
          .endObject();
    W.endArray();
  }

  W.key("histograms").beginArray();
  for (const Histogram *H : All.Histograms) {
    Histogram::Snapshot S = H->snapshot();
    W.beginObject(Layout::Inline)
        .key("name").str(H->name())
        .key("count").integer(S.Count)
        .key("sum").integer(S.Sum)
        .key("p50").integer(S.p50())
        .key("p95").integer(S.p95())
        .key("p99").integer(S.p99());
    W.key("buckets").beginArray();
    for (unsigned B = 0; B != Histogram::NumBuckets; ++B)
      if (S.Buckets[B] != 0)
        W.beginObject()
            .key("le").integer(Histogram::bucketUpperBound(B))
            .key("count").integer(S.Buckets[B])
            .endObject();
    W.endArray().endObject();
  }
  W.endArray();

  W.endObject();
}

std::string MetricsRegistry::exportJson() const {
  JsonWriter W;
  exportJson(W);
  return W.take();
}
