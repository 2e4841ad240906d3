#include "mdc/obs/phase_profiler.hpp"

namespace mdc {

const char* PhaseProfiler::name(Phase p) noexcept {
  switch (p) {
    case Phase::Validate:
      return "a0_validate";
    case Phase::Descent:
      return "a1_descent";
    case Phase::Emit:
      return "b_emit";
    case Phase::EmitShard:
      return "b1_emit_buckets";
    case Phase::Merge:
      return "b2_merge";
    case Phase::Serve:
      return "c_serve";
    case Phase::Prepare:
      return "prepare";
    case Phase::Sink:
      return "sink";
  }
  return "?";
}

void PhaseProfiler::registerWith(MetricsRegistry& registry) const {
  for (std::size_t i = 0; i < kPhases; ++i) {
    const auto p = static_cast<Phase>(i);
    const MetricLabels labels{{"phase", name(p)}};
    registry.registerGauge(
        "mdc.engine.phase_ns", GaugeScope::Host,
        [this, p] { return static_cast<double>(ns(p)); }, labels);
    registry.registerGauge(
        "mdc.engine.phase_calls", GaugeScope::Host,
        [this, p] { return static_cast<double>(calls(p)); }, labels);
  }
}

}  // namespace mdc
