// One registration API for every gauge in the system.
//
// Each gauge is a read function over a counter a component already keeps
// (Reconciler counters, HealthMonitor gauges, engine cache stats, ...),
// evaluated at snapshot time.  The registration is the gauge's only
// declaration: it names the metric and says whether it reads simulated
// state or host state, and MegaDc copies every simulated-state gauge into
// each EpochReport (DESIGN.md §10).
//
// Naming convention (DESIGN.md §10): `mdc.<subsystem>.<metric>` in
// snake_case; enumerable breakdowns use labels, not name suffixes
// (e.g. mdc.reconciler.drift{kind=stray_vip}).
//
// Snapshots evaluate every callback at call time and return samples in
// deterministic (sorted-key) order, so two snapshots of identical worlds
// compare equal sample-for-sample.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mdc/util/flat_map.hpp"

namespace mdc {

using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// What a gauge reads.  Simulated state is a function of the seeded run
/// alone: it goes into every EpochReport and its hash.  Host state (wall
/// time, worker count, the trace ring) changes when a run is profiled,
/// traced or given more workers, so it stays in the registry only —
/// observing a run must never change its report.
enum class GaugeScope : std::uint8_t { Simulated, Host };

class MetricsRegistry {
 public:
  struct Sample {
    std::string key;   // name{label=value,...}
    std::string name;  // bare metric name
    MetricLabels labels;
    double value = 0.0;
  };

  /// `read` is evaluated at snapshot time.  Re-registering the same key
  /// (with the same scope) replaces the callback: components get rebuilt,
  /// e.g. the engine when the demand model is swapped.
  void registerGauge(const std::string& name, GaugeScope scope,
                     std::function<double()> read,
                     const MetricLabels& labels = {});

  /// Current value of one metric.  Precondition: the metric exists.
  [[nodiscard]] double value(const std::string& name,
                             const MetricLabels& labels = {}) const;
  [[nodiscard]] bool has(const std::string& name,
                         const MetricLabels& labels = {}) const;

  /// All metrics, callbacks evaluated, sorted by key.
  [[nodiscard]] std::vector<Sample> snapshot() const;

  /// Key -> value of every metric of `scope`, callbacks evaluated, in key
  /// order.
  [[nodiscard]] FlatMap<std::string, double> values(GaugeScope scope) const;

  [[nodiscard]] std::size_t metricCount() const noexcept {
    return metrics_.size();
  }

  /// Canonical key: name + labels sorted by label key.
  [[nodiscard]] static std::string keyOf(const std::string& name,
                                         const MetricLabels& labels);

 private:
  struct Metric {
    std::string name;
    MetricLabels labels;
    GaugeScope scope;
    std::function<double()> read;
  };

  // std::map: snapshot order == sorted key order, deterministically.
  std::map<std::string, Metric> metrics_;
};

}  // namespace mdc
