// E19 — session data plane at millions of live connections.
//
// The seed SessionEngine scheduled one simulation event per session and
// fell over around 1M.  The sharded engine keeps per-connection state in
// slot-record shards (one per switch) with timing-wheel expiry, so a
// tick costs O(arrivals + expirations due), not O(live sessions).  This
// bench proves the two acceptance claims:
//
//   * capacity — a paper-shaped world (256 apps x 16 switches, ~77k
//     session arrivals/sec, 30 s mean lifetime) sustains >= 2M live
//     connections while ticking in real time, sweeping workers 1/2/4/8
//     with a >= 0.7 per-effective-core scaling gate (post-clamp workers,
//     same honest accounting as E15);
//   * equivalence — the tick on the sweep's widest granted worker count
//     is bit-identical to the 1-worker tick (counters and full state
//     hash), re-checked here on every run, not just in ctest;
//
// plus the paper's TTL argument in numbers: quiescent VIP drains at DNS
// TTL 1 s / 30 s / 300 s, reporting sim-time drain-latency p50/p99 from
// the engine's histogram (the transfer-drain gate).
//
// Flags: those of bench/harness.hpp (--smoke: a small world, seconds not
// minutes).
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "mdc/metrics/table.hpp"
#include "mdc/scenario/session_engine.hpp"

namespace {
using namespace mdc;

struct WorldSpec {
  std::uint32_t numApps = 256;
  std::uint32_t numSwitches = 16;
  double rpsPerApp = 150'000.0;      // x2 sessions/krps = 300 arrivals/s/app
  double meanSessionSeconds = 30.0;
  double ttlSeconds = 60.0;
  double lingerFraction = 0.0;
  std::uint64_t maxActiveSessions = 4'000'000;
  std::uint64_t seed = 0xE19;
};

/// A self-contained session world: apps, two VIPs per app striped over
/// the switches, two RIPs per VIP, every VIP exposed at weight 1.
struct SessionWorld {
  Simulation sim;
  AppRegistry apps;
  AuthoritativeDns dns;
  ResolverPopulation resolvers;
  SwitchFleet fleet;
  std::unique_ptr<StaticDemand> demand;
  std::unique_ptr<SessionEngine> engine;
  std::uint64_t epoch = 0;

  SessionWorld(const WorldSpec& spec, unsigned workers)
      : resolvers{dns,
                  ResolverConfig{spec.ttlSeconds, spec.lingerFraction,
                                 1800.0}} {
    std::vector<double> rates(spec.numApps, spec.rpsPerApp);
    std::vector<AppId> ids;
    for (std::uint32_t a = 0; a < spec.numApps; ++a) {
      ids.push_back(apps.create("app-" + std::to_string(a), AppSla{},
                                spec.rpsPerApp));
      dns.registerApp(ids.back());
    }
    demand = std::make_unique<StaticDemand>(rates);
    for (std::uint32_t s = 0; s < spec.numSwitches; ++s) {
      SwitchLimits limits;
      limits.maxConnections = spec.maxActiveSessions;  // bench caps globally
      fleet.addSwitch(limits);
    }
    std::uint32_t nextRip = 0;
    for (std::uint32_t a = 0; a < spec.numApps; ++a) {
      for (std::uint32_t k = 0; k < 2; ++k) {
        const VipId vip{a * 2 + k};
        const SwitchId sw{(a + k) % spec.numSwitches};
        if (!fleet.configureVip(sw, vip, ids[a]).ok()) {
          std::cerr << "bench world wiring failed at app " << a << "\n";
          std::exit(1);
        }
        for (std::uint32_t j = 0; j < 2; ++j) {
          RipEntry rip;
          rip.rip = RipId{nextRip};
          rip.vm = VmId{nextRip};
          ++nextRip;
          if (!fleet.addRip(vip, rip).ok()) {
            std::cerr << "bench world wiring failed at vip " << vip.value()
                      << "\n";
            std::exit(1);
          }
        }
        dns.addVip(ids[a], vip, 1.0);
      }
    }
    SessionEngine::Options o;
    o.sessionsPerSecondPerKrps = 2.0;
    o.meanSessionSeconds = spec.meanSessionSeconds;
    o.seed = spec.seed;
    o.tick = 1.0;
    o.maxActiveSessions = spec.maxActiveSessions;
    o.workers = workers;
    engine = std::make_unique<SessionEngine>(sim, apps, *demand, dns,
                                             resolvers, fleet, o);
  }

  void step() {
    ++epoch;
    sim.runUntil(static_cast<SimTime>(epoch));
    engine->tick();
  }

  /// Admitted session opens so far.
  [[nodiscard]] std::uint64_t opens() const {
    return engine->totalArrivals() - engine->rejectedSessions();
  }
};

struct CellResult {
  std::string mode;
  unsigned requestedWorkers = 0;
  unsigned workers = 0;
  std::uint64_t activeSessions = 0;
  double connsPerSec = 0.0;  // admitted session opens per wall-second
  double ticksPerSec = 0.0;
  double p50Ms = 0.0;
  double p99Ms = 0.0;
  std::uint64_t stateHash = 0;
};

/// Warm a fresh world to steady state, then time `epochs` ticks in each of
/// three windows (best of 3 by p50) and report wall-clock connections/sec
/// of admitted opens.
CellResult runCell(const WorldSpec& spec, unsigned workers, int warmup,
                   int epochs) {
  SessionWorld w{spec, workers};
  for (int i = 0; i < warmup; ++i) w.step();

  const bench::Window best = bench::bestOf(3, [&](bench::Window& window) {
    const std::uint64_t opens0 = w.opens();
    for (int e = 0; e < epochs; ++e) window.time([&] { w.step(); });
    window.ops = static_cast<double>(w.opens() - opens0);
  });

  CellResult r;
  r.mode = "sharded";
  r.requestedWorkers = workers;
  r.workers = w.engine->workerCount();
  r.activeSessions = w.engine->activeSessions();
  r.connsPerSec = best.opsPerSecond();
  r.ticksPerSec = best.stepsPerSecond();
  r.p50Ms = best.p50();
  r.p99Ms = best.p99();
  r.stateHash = w.engine->stateHash();
  return r;
}

/// Worker-count bit-identity, re-proven on every bench run: a 1-worker
/// world and a `workers`-worker twin, same seed, N epochs, equal counters
/// and state hash.
bool checkEquivalence(const WorldSpec& spec, int epochs, unsigned workers,
                      std::string& detail) {
  SessionWorld one{spec, 1};
  SessionWorld many{spec, workers};
  for (int e = 0; e < epochs; ++e) {
    one.step();
    many.step();
    if (one.engine->stateHash() != many.engine->stateHash() ||
        one.engine->totalArrivals() != many.engine->totalArrivals() ||
        one.engine->activeSessions() != many.engine->activeSessions() ||
        one.engine->completedSessions() !=
            many.engine->completedSessions() ||
        one.engine->rejectedSessions() != many.engine->rejectedSessions()) {
      std::ostringstream msg;
      msg << "divergence at epoch " << (e + 1) << ": 1-worker hash "
          << one.engine->stateHash() << " vs " << workers << "-worker "
          << many.engine->stateHash();
      detail = msg.str();
      return false;
    }
  }
  std::ostringstream msg;
  msg << "identical over " << epochs << " epochs (hash "
      << one.engine->stateHash() << ", " << one.engine->totalArrivals()
      << " arrivals)";
  detail = msg.str();
  return true;
}

struct DrainResult {
  double ttlSeconds = 0.0;
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t broken = 0;
  double p50Seconds = 0.0;
  double p99Seconds = 0.0;
};

/// Quiescent-drain latency cell: steady state, then drain one VIP per
/// app (up to 6) toward rotated destinations and run sim time forward
/// until every drain lands.  Latency is sim time — the paper's TTL
/// argument — so wall-clock noise cannot touch it.
DrainResult runDrainCell(double ttlSeconds, bool smoke) {
  WorldSpec spec;
  spec.numApps = smoke ? 4 : 8;
  spec.numSwitches = 4;
  spec.rpsPerApp = 10'000.0;  // 20 arrivals/s/app
  spec.meanSessionSeconds = 15.0;
  spec.ttlSeconds = ttlSeconds;
  spec.maxActiveSessions = 100'000;
  SessionWorld w{spec, 0};
  for (int i = 0; i < 60; ++i) w.step();

  DrainResult d;
  d.ttlSeconds = ttlSeconds;
  for (std::uint32_t a = 0; a < spec.numApps && d.started < 6; ++a) {
    const VipId vip{a * 2};
    const auto owner = w.fleet.ownerOf(vip);
    if (!owner.has_value()) continue;
    // Rotate destinations away from the owner.
    std::uint32_t toIdx = (owner->value() + 1 + a) % spec.numSwitches;
    if (toIdx == owner->value()) toIdx = (toIdx + 1) % spec.numSwitches;
    if (w.engine->beginDrain(vip, SwitchId{toIdx}).ok()) ++d.started;
  }

  const double deadline =
      static_cast<double>(w.epoch) + ttlSeconds * 40.0 + 600.0;
  while (w.engine->drainsInProgress() > 0 &&
         static_cast<double>(w.epoch) < deadline) {
    w.step();
  }
  d.completed = w.engine->drainsCompleted();
  d.aborted = w.engine->drainsAborted();
  d.broken = w.engine->brokenSessions();
  d.p50Seconds = w.engine->drainLatency().quantile(0.5);
  d.p99Seconds = w.engine->drainLatency().quantile(0.99);
  return d;
}

void appendCellJson(std::ostream& out, const CellResult& r) {
  out << "\"mode\": \"" << r.mode
      << "\", \"workers_requested\": " << r.requestedWorkers
      << ", \"workers\": " << r.workers
      << ", \"active_sessions\": " << r.activeSessions
      << ", \"conns_per_sec\": " << r.connsPerSec
      << ", \"ticks_per_sec\": " << r.ticksPerSec << ", \"p50_ms\": " << r.p50Ms
      << ", \"p99_ms\": " << r.p99Ms << ", \"state_hash\": " << r.stateHash;
}

void appendDrainJson(std::ostream& out, const DrainResult& d) {
  out << "\"ttl_seconds\": " << d.ttlSeconds << ", \"started\": " << d.started
      << ", \"completed\": " << d.completed << ", \"aborted\": " << d.aborted
      << ", \"broken\": " << d.broken
      << ", \"drain_p50_seconds\": " << d.p50Seconds
      << ", \"drain_p99_seconds\": " << d.p99Seconds;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli{"BENCH_E19.json"};
  cli.parseOrExit(argc, argv, "[--smoke] [--out FILE] [--baseline FILE]");
  const bool smoke = cli.smoke;

  WorldSpec spec;
  if (smoke) {
    spec.numApps = 32;
    spec.numSwitches = 4;
    spec.rpsPerApp = 4000.0;  // 8 arrivals/s/app, ~5k steady sessions
    spec.meanSessionSeconds = 20.0;
    spec.maxActiveSessions = 100'000;
  }
  const int warmup = smoke ? 40 : 120;  // ~4 mean lifetimes to steady state
  const int epochs = smoke ? 10 : 25;

  // --- capacity sweep -------------------------------------------------------
  constexpr std::array<unsigned, 4> kSweep{1u, 2u, 4u, 8u};
  std::vector<CellResult> results;
  Table table{"E19: session plane (mode x workers)",
              {"mode", "req w", "eff w", "active", "conns/s", "ticks/s",
               "p50 ms", "p99 ms"}};
  const auto record = [&](const CellResult& r) {
    results.push_back(r);
    table.addRow({r.mode, static_cast<long long>(r.requestedWorkers),
                  static_cast<long long>(r.workers),
                  static_cast<long long>(r.activeSessions), r.connsPerSec,
                  r.ticksPerSec, r.p50Ms, r.p99Ms});
  };

  if (!smoke) {
    std::cout << "building " << spec.numApps << "-app world, ~"
              << spec.numApps * spec.rpsPerApp / 1000.0 * 2.0
              << " session arrivals/sec, target steady state ~"
              << spec.numApps * spec.rpsPerApp / 1000.0 * 2.0 *
                     spec.meanSessionSeconds
              << " live sessions...\n";
  }
  for (const unsigned workers : kSweep) {
    record(runCell(spec, workers, warmup, epochs));
  }

  // Hash identity across the whole sweep: every cell ran the same virtual
  // world, so every cell must end in the same state.
  bool sweepHashOk = true;
  unsigned widest = 1;
  for (const CellResult& r : results) {
    if (r.stateHash != results[0].stateHash) sweepHashOk = false;
    widest = std::max(widest, r.workers);
  }

  const double conns1w = results[0].connsPerSec;
  const std::uint64_t peakActive = results[0].activeSessions;
  double minRatio = 1e18;
  double scalingEff = -1.0;
  bool ratioOk = true;
  for (std::size_t i = 1; i < results.size(); ++i) {
    const double ratio = results[i].connsPerSec / conns1w;
    minRatio = std::min(minRatio, ratio);
    // When the pool clamps a cell down to the same effective core count
    // as the 1-worker baseline (single-core box), both cells run the
    // exact same work and the ratio only measures scheduler noise on a
    // virtualized core — gate that at 0.75.  Cells with genuinely more
    // effective cores must not run slower than 1 worker: floor 0.9.
    const double floor = results[i].workers > results[0].workers ? 0.9 : 0.75;
    if (ratio < floor) ratioOk = false;
    if (i + 1 == results.size()) {
      scalingEff = ratio / static_cast<double>(results[i].workers);
    }
  }

  // --- equivalence ----------------------------------------------------------
  WorldSpec eqSpec = spec;
  eqSpec.numApps = smoke ? 16 : 48;
  eqSpec.numSwitches = 4;
  eqSpec.rpsPerApp = 8000.0;
  eqSpec.maxActiveSessions = 20'000;  // tight: the Cap path equivalence too
  std::string eqDetail;
  const bool eqOk =
      checkEquivalence(eqSpec, smoke ? 30 : 80, widest, eqDetail);
  std::cout << "1-worker vs " << widest << "-worker equivalence: "
            << (eqOk ? "OK — " : "FAIL — ") << eqDetail << "\n";

  // --- drain latency vs TTL -------------------------------------------------
  std::vector<DrainResult> drains;
  Table drainTable{"E19: quiescent drain latency vs DNS TTL (sim seconds)",
                   {"ttl s", "started", "completed", "aborted", "broken",
                    "p50 s", "p99 s"}};
  const std::vector<double> ttls =
      smoke ? std::vector<double>{1.0, 30.0}
            : std::vector<double>{1.0, 30.0, 300.0};
  for (const double ttl : ttls) {
    drains.push_back(runDrainCell(ttl, smoke));
    const DrainResult& d = drains.back();
    drainTable.addRow({d.ttlSeconds, static_cast<long long>(d.started),
                       static_cast<long long>(d.completed),
                       static_cast<long long>(d.aborted),
                       static_cast<long long>(d.broken), d.p50Seconds,
                       d.p99Seconds});
  }
  bool drainsOk = true;
  double drainP99Widest = 0.0;
  for (const DrainResult& d : drains) {
    if (d.started == 0 || d.completed + d.aborted < d.started ||
        d.broken != 0) {
      drainsOk = false;
    }
    drainP99Widest = d.p99Seconds;
  }
  // Longer TTLs must cost drain latency (the paper's argument, measured).
  for (std::size_t i = 1; i < drains.size(); ++i) {
    if (drains[i].p99Seconds <= drains[i - 1].p99Seconds) drainsOk = false;
  }

  table.print(std::cout);
  drainTable.print(std::cout);
  std::cout << "expected shape: the sharded tick holds ~steady-state"
               " sessions = arrivals/s x mean lifetime with tick cost"
               " O(arrivals + expiries); worker cells scale by *effective*"
               " (post-clamp) cores; drain p99 grows with DNS TTL and no"
               " quiescent drain ever breaks a session\n";

  std::ostringstream json;
  bench::jsonRows(json, "runs", results, appendCellJson);
  json << ",\n";
  bench::jsonRows(json, "drains", drains, appendDrainJson);
  const bool capacityOk = smoke || peakActive >= 2'000'000;
  const bool scalingOk = scalingEff >= 0.7 && ratioOk;
  const bool meets =
      capacityOk && scalingOk && eqOk && sweepHashOk && drainsOk;
  json << ",\n  \"checks\": {\n"
       << "    \"peak_active_sessions\": " << peakActive << ",\n"
       << "    \"target_active_sessions\": "
       << (smoke ? 0 : 2'000'000) << ",\n"
       << "    \"conns_per_sec_1w\": " << conns1w << ",\n"
       << "    \"scaling_efficiency\": " << scalingEff << ",\n"
       << "    \"workers_min_ratio\": " << minRatio << ",\n"
       << "    \"target_scaling_efficiency\": 0.7,\n"
       << "    \"equivalence_ok\": " << (eqOk ? "true" : "false") << ",\n"
       << "    \"sweep_hash_ok\": " << (sweepHashOk ? "true" : "false")
       << ",\n"
       << "    \"drains_ok\": " << (drainsOk ? "true" : "false") << ",\n"
       << "    \"drain_p99_widest_ttl_seconds\": " << drainP99Widest << ",\n"
       << "    \"meets_target\": " << (meets ? "true" : "false") << "\n"
       << "  }\n";
  bench::writeResult(cli.out, "e19_session_plane", smoke, json.str());

  if (!eqOk) {
    std::cerr << "FAIL: the " << widest
              << "-worker tick diverged from the 1-worker tick — " << eqDetail
              << "\n";
    return 1;
  }
  if (!sweepHashOk) {
    std::cerr << "FAIL: sweep cells disagree on final state hash — the"
                 " worker count leaked into simulation state\n";
    return 1;
  }
  if (!drainsOk) {
    std::cerr << "FAIL: drain cells misbehaved (a drain wedged, broke a"
                 " session, or p99 failed to grow with TTL)\n";
    return 1;
  }
  if (!capacityOk) {
    std::cerr << "FAIL: peak active sessions " << peakActive
              << " < 2M target\n";
    return 1;
  }
  if (!scalingOk) {
    std::cerr << "FAIL: scaling efficiency " << scalingEff
              << " (< 0.7 per effective core) or a worker cell ran below"
                 " its floor (min ratio "
              << minRatio << ", floor 0.9 scaled / 0.75 clamped)\n";
    return 1;
  }

  if (!cli.baseline.empty()) {
    // Absolute conns/sec does not transfer between the smoke world and a
    // full-scale baseline (the smoke world amortizes per-tick overhead
    // over far fewer arrivals), so the gate applies only when this run's
    // mode matches the baseline's.
    const bench::Baseline base = bench::Baseline::load(cli.baseline);
    const double baseConns = base.number("conns_per_sec_1w");
    if (base.smoke() != smoke) {
      std::cout << "baseline compare: conns/sec skipped, no gate applied:"
                   " the baseline is "
                << (base.smoke() ? "--smoke" : "full scale")
                << " and this run is " << (smoke ? "--smoke" : "full scale")
                << "\n";
    } else if (!bench::holdsBaseline(
                   "conns/sec", conns1w, baseConns,
                   "connections/sec regressed >30% vs baseline")) {
      return 1;
    }
  }
  return 0;
}
