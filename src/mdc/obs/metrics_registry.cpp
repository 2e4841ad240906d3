#include "mdc/obs/metrics_registry.hpp"

#include <algorithm>

#include "mdc/util/expect.hpp"

namespace mdc {

std::string MetricsRegistry::keyOf(const std::string& name,
                                   const MetricLabels& labels) {
  if (labels.empty()) return name;
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  key += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key += ',';
    key += sorted[i].first;
    key += '=';
    key += sorted[i].second;
  }
  key += '}';
  return key;
}

void MetricsRegistry::registerGauge(const std::string& name, GaugeScope scope,
                                    std::function<double()> read,
                                    const MetricLabels& labels) {
  MDC_EXPECT(static_cast<bool>(read), "null callback gauge: " + name);
  const std::string key = keyOf(name, labels);
  auto it = metrics_.find(key);
  if (it != metrics_.end()) {
    MDC_EXPECT(it->second.scope == scope,
               "metric registered with a different scope: " + key);
    it->second.read = std::move(read);  // component rebuilt; re-bind
    return;
  }
  metrics_.emplace(key, Metric{name, labels, scope, std::move(read)});
}

double MetricsRegistry::value(const std::string& name,
                              const MetricLabels& labels) const {
  const auto it = metrics_.find(keyOf(name, labels));
  MDC_EXPECT(it != metrics_.end(), "unknown metric: " + keyOf(name, labels));
  return it->second.read();
}

bool MetricsRegistry::has(const std::string& name,
                          const MetricLabels& labels) const {
  return metrics_.contains(keyOf(name, labels));
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot() const {
  std::vector<Sample> out;
  out.reserve(metrics_.size());
  for (const auto& [key, m] : metrics_) {
    out.push_back(Sample{key, m.name, m.labels, m.read()});
  }
  return out;
}

FlatMap<std::string, double> MetricsRegistry::values(GaugeScope scope) const {
  FlatMap<std::string, double> out;
  for (const auto& [key, m] : metrics_) {
    if (m.scope == scope) out[key] = m.read();  // key order: appends
  }
  return out;
}

}  // namespace mdc
