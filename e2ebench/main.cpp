// mdc_e2e — the end-to-end MegaDc benchmark binary (run it through run.py,
// which builds it and checks its record against BENCHMARK.json).
//
//   mdc_e2e --workload paper|dataplane --seed N --seconds S --trace 0|1
//
// failover and storm run the same way; they reproduce open defects and
// are not benchmark workloads (see README.md).
//
// --trace 0 times repetitionsFor(S) fresh worlds and prints the
// end-to-end metrics; --trace 1 runs one untraced and one traced world of
// the same seed and prints the per-layer metrics (see harness.hpp).
//
// Prints one JSON record on its last stdout line: the metrics with their
// units, correctness, operation counts, the host/build fingerprint and
// run details.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

using namespace e2e;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 27.0;
  int trace = 0;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "mdc_e2e: " << why
            << "\nusage: mdc_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value);
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite value");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string envOr(const char* name, const char* missing) {
  const char* v = std::getenv(name);
  return v == nullptr ? missing : v;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Workload w;
  try {
    w = makeWorkload(args.workload, args.seed);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  const unsigned k = repetitionsFor(args.seconds);
  const RunResult run = args.trace == 0 ? timedRun(w, k) : tracedRun(w);
  if (run.attempted == 0) {
    std::cerr << "mdc_e2e: the window attempted no operation\n";
    return 1;
  }

  std::ostringstream out;
  out << "{\"workload\": " << quote(w.name) << ", \"seed\": " << args.seed
      << ", \"trace\": " << args.trace
      << ", \"correct\": " << (run.violations.empty() ? "true" : "false")
      << ", \"attempted\": " << run.attempted
      << ", \"failed\": " << run.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, m] : run.metrics) {
    out << sep << quote(name) << ": {\"value\": " << number(m.value)
        << ", \"unit\": " << quote(m.unit) << "}";
    sep = ", ";
  }
  out << "}, \"fingerprint\": {\"cpu_model\": " << quote(cpuModel())
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << quote(E2E_COMPILER)
      << ", \"cxx_flags\": " << quote(E2E_CXX_FLAGS)
      << ", \"build_type\": " << quote(E2E_BUILD_TYPE)
      << ", \"seed\": " << args.seed
      << ", \"repetitions\": " << (args.trace == 0 ? k : 2u)
      << ", \"engine_workers_requested\": " << w.config.engine.workers
      << ", \"engine_workers\": " << run.engineWorkers
      << ", \"session_workers_requested\": "
      << (w.config.enableSessionEngine ? w.config.session.workers : 0u)
      << ", \"session_workers\": " << run.sessionWorkers
      << ", \"MDC_THREADS\": " << quote(envOr("MDC_THREADS", "unset"))
      << ", \"MDC_ALLOW_OVERSUBSCRIBE\": "
      << quote(envOr("MDC_ALLOW_OVERSUBSCRIBE", "unset"))
      << "}, \"details\": {";
  sep = "";
  for (const auto& [name, v] : run.details) {
    out << sep << quote(name) << ": " << number(v);
    sep = ", ";
  }
  out << "}, \"violations\": [";
  sep = "";
  for (std::size_t i = 0; i < run.violations.size() && i < 50; ++i) {
    out << sep << quote(run.violations[i]);
    sep = ", ";
  }
  out << "]}";
  std::cout << out.str() << std::endl;
  return 0;
}
