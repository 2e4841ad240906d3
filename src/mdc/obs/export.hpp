// Exporters: JSONL span/metric dumps and a CSV timeseries writer.
//
// Benches and examples run, exit, and take their gauges with them; these
// writers externalize what a run saw so it can be inspected (jq over the
// JSONL, any plotting tool over the CSV) after the process is gone.
// Formats are deliberately line-oriented — one self-contained record per
// line — so partial files from an aborted run stay parseable.
//
// Span JSONL, one event per line:
//   {"trace":3,"span":7,"parent":5,"hop":"cmd_send","t":12.5,
//    "a":4,"b":2,"code":"AddRip"}
// Metric JSONL, one sample per line:
//   {"name":"mdc.ctrl.retransmits","labels":{},"value":17}
// Timeseries CSV, long format: series,time,value
#pragma once

#include <ostream>
#include <span>
#include <string>

#include "mdc/metrics/timeseries.hpp"
#include "mdc/obs/metrics_registry.hpp"
#include "mdc/obs/trace.hpp"

namespace mdc {

/// JSON string escaping (quotes, backslashes, control characters).
[[nodiscard]] std::string jsonEscape(const std::string& s);

/// Writes the ring's retained events, oldest first.  Returns the number
/// of lines written.
std::size_t exportSpansJsonl(const TraceRing& ring, std::ostream& out);

/// Writes one line per registry sample (callbacks evaluated now).
std::size_t exportMetricsJsonl(const MetricsRegistry& registry,
                               std::ostream& out);

/// Long-format CSV (header + one row per sample) over several series.
std::size_t exportTimeSeriesCsv(std::span<const TimeSeries* const> series,
                                std::ostream& out);

}  // namespace mdc
