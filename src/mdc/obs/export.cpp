#include "mdc/obs/export.hpp"

#include <cstdio>

namespace mdc {

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void writeLabels(const MetricLabels& labels, std::ostream& out) {
  out << '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out << ',';
    out << '"' << jsonEscape(labels[i].first) << "\":\""
        << jsonEscape(labels[i].second) << '"';
  }
  out << '}';
}

}  // namespace

std::size_t exportSpansJsonl(const TraceRing& ring, std::ostream& out) {
  std::size_t lines = 0;
  for (const TraceEvent& e : ring.snapshot()) {
    out << "{\"trace\":" << e.trace << ",\"span\":" << e.span
        << ",\"parent\":" << e.parent << ",\"hop\":\"" << toString(e.hop)
        << "\",\"t\":" << e.at << ",\"a\":" << e.a << ",\"b\":" << e.b;
    if (e.code[0] != '\0') {
      out << ",\"code\":\"" << jsonEscape(e.code) << '"';
    }
    out << "}\n";
    ++lines;
  }
  return lines;
}

std::size_t exportMetricsJsonl(const MetricsRegistry& registry,
                               std::ostream& out) {
  std::size_t lines = 0;
  for (const MetricsRegistry::Sample& s : registry.snapshot()) {
    out << "{\"name\":\"" << jsonEscape(s.name) << "\",\"labels\":";
    writeLabels(s.labels, out);
    out << ",\"value\":" << s.value << "}\n";
    ++lines;
  }
  return lines;
}

std::size_t exportTimeSeriesCsv(std::span<const TimeSeries* const> series,
                                std::ostream& out) {
  out << "series,time,value\n";
  std::size_t rows = 0;
  for (const TimeSeries* ts : series) {
    if (ts == nullptr) continue;
    for (const auto& sample : ts->samples()) {
      out << ts->name() << ',' << sample.time << ',' << sample.value << '\n';
      ++rows;
    }
  }
  return rows;
}

}  // namespace mdc
