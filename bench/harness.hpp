// Plumbing the E15–E19 benches share: the command line, timed windows, the
// JSON result file and the compare against a committed baseline.
//
// Every bench takes
//   --smoke           its small fixed cells only (CI); seconds, not minutes
//   --out FILE        where to write the JSON result (each bench names its
//                     default, BENCH_E<n>.json)
//   --baseline FILE   compare the run's checks against a previous result;
//                     exit 1 when one falls below 70% of its baseline value
// plus the flags it declares itself; anything else prints the usage line
// and exits 2.
//
// A result file is one JSON object: "bench", "smoke", a "fingerprint" of
// the host and build it was measured on, then the bench's own members.
// A baseline key the compare cannot find is a failure, never a skipped
// gate: a renamed or dropped key would otherwise switch its gate off.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "mdc/util/stats.hpp"

// The build half of the fingerprint; bench/CMakeLists.txt defines both.
#ifndef MDC_BENCH_COMPILER
#define MDC_BENCH_COMPILER "unknown"
#endif
#ifndef MDC_BENCH_BUILD_TYPE
#define MDC_BENCH_BUILD_TYPE "unknown"
#endif

namespace mdc::bench {

// --- command line ----------------------------------------------------------

/// The shared flags, plus the bench's own ones declared with flag() and
/// file(); parse() writes those through the given references.
struct Cli {
  bool smoke = false;
  std::string out;       // the bench's default until --out replaces it
  std::string baseline;  // empty: no compare

  explicit Cli(std::string defaultOut) : out(std::move(defaultOut)) {}

  /// Declares a bare switch such as --mega.
  Cli& flag(std::string name, bool& on) {
    switches_.emplace_back(std::move(name), &on);
    return *this;
  }
  /// Declares a flag that takes a file name, such as --trace FILE.
  Cli& file(std::string name, std::string& path) {
    files_.emplace_back(std::move(name), &path);
    return *this;
  }

  /// Parses argv[1..]: returns what is wrong with it, or "" if nothing is.
  [[nodiscard]] std::string parse(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      bool* on = arg == "--smoke" ? &smoke : find(switches_, arg);
      if (on != nullptr) {
        *on = true;
        continue;
      }
      std::string* path = arg == "--out"        ? &out
                          : arg == "--baseline" ? &baseline
                                                : find(files_, arg);
      if (path == nullptr) return "unknown flag " + std::string(arg);
      if (++i == argc) return std::string(arg) + " needs a value";
      *path = argv[i];
    }
    return "";
  }

  /// parse() for main(): on an error prints it and the usage line, exits 2.
  void parseOrExit(int argc, char** argv, std::string_view usage) {
    const std::string error = parse(argc, argv);
    if (error.empty()) return;
    std::cerr << error << "\nusage: " << argv[0] << " " << usage << "\n";
    std::exit(2);
  }

 private:
  std::vector<std::pair<std::string, bool*>> switches_;
  std::vector<std::pair<std::string, std::string*>> files_;

  template <class T>
  static T* find(const std::vector<std::pair<std::string, T*>>& flags,
                 std::string_view name) {
    for (const auto& [flag, target] : flags) {
      if (flag == name) return target;
    }
    return nullptr;
  }
};

// --- timing ----------------------------------------------------------------

/// One timed window: the wall-clock latency of each step, and optionally
/// how many operations the window completed.
struct Window {
  std::vector<double> stepMs;
  double ops = 0.0;

  /// Runs fn() and records its wall-clock latency.
  template <class Fn>
  void time(Fn&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    std::forward<Fn>(fn)();
    const auto t1 = std::chrono::steady_clock::now();
    stepMs.push_back(1000.0 * std::chrono::duration<double>(t1 - t0).count());
  }

  [[nodiscard]] double p50() const { return percentile(stepMs, 50.0); }
  [[nodiscard]] double p99() const { return percentile(stepMs, 99.0); }
  [[nodiscard]] double minMs() const {
    return *std::min_element(stepMs.begin(), stepMs.end());
  }
  /// Steps per second at the median step: robust against scheduler
  /// hiccups on shared machines, which skew a mean badly.
  [[nodiscard]] double stepsPerSecond() const {
    const double ms = p50();
    return ms > 0.0 ? 1000.0 / ms : 0.0;
  }
  /// ops over the window's summed step time.
  [[nodiscard]] double opsPerSecond() const {
    const double ms = std::accumulate(stepMs.begin(), stepMs.end(), 0.0);
    return ms > 0.0 ? 1000.0 * ops / ms : 0.0;
  }
};

/// Runs `windows` independent windows through run(Window&) and keeps the
/// one with the lowest p50.  A virtualized core throttles in multi-second
/// bursts; with cells run back to back, one burst can land on a single
/// window and fake a 25%+ spread between identical configurations, but it
/// has to cover every window to bias the kept median.
template <class Run>
[[nodiscard]] Window bestOf(int windows, Run&& run) {
  std::optional<Window> best;
  for (int i = 0; i < windows; ++i) {
    Window w;
    run(w);
    if (!best || w.p50() < best->p50()) best = std::move(w);
  }
  return *best;
}

// --- result file -----------------------------------------------------------

inline std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// The host and build a result was measured on.
inline std::string fingerprint() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const auto colon = line.find(": ");
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      cpu = line.substr(colon + 2);
      break;
    }
  }
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": " << quote(cpu)
      << ", \"compiler\": " << quote(MDC_BENCH_COMPILER)
      << ", \"build_type\": " << quote(MDC_BENCH_BUILD_TYPE) << "}";
  return out.str();
}

/// Writes `  "name": [`, one `    {...}` object per item whose members
/// row(out, item) writes, comma-separated one per line, then `  ]`.
template <class Items, class Row>
void jsonRows(std::ostream& out, std::string_view name, const Items& items,
              Row&& row) {
  out << "  \"" << name << "\": [\n";
  const char* sep = "";
  for (const auto& item : items) {
    out << sep << "    {";
    row(out, item);
    out << "}";
    sep = ",\n";
  }
  out << "\n  ]";
}

/// Writes the result file: the envelope, then `members` — the bench's own
/// `  "key": value` lines, comma-separated, ending in a newline.  A file
/// that cannot be written prints FAIL and exits 1.
inline void writeResult(const std::string& path, std::string_view bench,
                        bool smoke, const std::string& members) {
  std::ofstream out(path);
  out << "{\n  \"bench\": " << quote(bench)
      << ",\n  \"smoke\": " << (smoke ? "true" : "false")
      << ",\n  \"fingerprint\": " << fingerprint() << ",\n"
      << members << "}\n";
  if (!out.flush()) {
    std::cerr << "FAIL: cannot write " << path << "\n";
    std::exit(1);
  }
  std::cout << "\nwrote " << path << "\n";
}

// --- baseline compare ------------------------------------------------------

/// The number after `"key":` in a JSON text, if the key is there.
inline std::optional<double> extractNumber(std::string_view json,
                                           std::string_view key) {
  std::string needle = "\"";
  needle.append(key).append("\":");
  const auto pos = json.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  const std::string rest{json.substr(pos + needle.size())};
  char* end = nullptr;
  const double v = std::strtod(rest.c_str(), &end);
  if (end == rest.c_str()) return std::nullopt;
  return v;
}

/// A previous result that a run's checks are compared against.
class Baseline {
 public:
  explicit Baseline(std::string json) : json_(std::move(json)) {}

  /// Reads the result file at `path`; prints FAIL and exits 1 if it cannot.
  static Baseline load(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "FAIL: cannot read baseline " << path << "\n";
      std::exit(1);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return Baseline{buf.str()};
  }

  /// Whether the baseline is a --smoke run.
  [[nodiscard]] bool smoke() const {
    return json_.find("\"smoke\": true") != std::string::npos;
  }

  /// The baseline's number under `key`; prints FAIL and exits 1 if it has
  /// none.
  [[nodiscard]] double number(std::string_view key) const {
    const std::optional<double> v = extractNumber(json_, key);
    if (!v.has_value()) {
      std::cerr << "FAIL: baseline has no number under \"" << key << "\"\n";
      std::exit(1);
    }
    return *v;
  }

 private:
  std::string json_;
};

/// The baseline rule: prints the compare of `label` and, when `now` falls
/// below 70% of `base`, `failure` as a FAIL line.  Returns whether the run
/// holds its baseline.
inline bool holdsBaseline(std::string_view label, double now, double base,
                          std::string_view failure) {
  std::cout << "baseline compare: " << label << " " << now << " vs " << base
            << " (fail below 70% of baseline)\n";
  if (!(now < 0.7 * base)) return true;
  std::cerr << "FAIL: " << failure << "\n";
  return false;
}

/// The compare a bench ends with: with --baseline, holdsBaseline() of `now`
/// against the baseline's `key`.  Returns the exit status, 1 on a
/// regression.
inline int compareBaseline(const Cli& cli, std::string_view key, double now,
                           std::string_view failure) {
  if (cli.baseline.empty()) return 0;
  const Baseline base = Baseline::load(cli.baseline);
  return holdsBaseline(key, now, base.number(key), failure) ? 0 : 1;
}

}  // namespace mdc::bench
