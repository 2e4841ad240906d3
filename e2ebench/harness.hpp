// Helpers of the end-to-end MegaDc benchmark: workload worlds, the
// firing schedule of the periodic control loops, the slicing runner that
// charges host time to layers from outside the simulator, and the
// statistics the result records use.
//
// Measuring changes nothing the simulator computes: beyond building the
// workload's world (and injecting its faults), a repetition only decides
// where runUntil() stops and reads public counters between stops; traced
// repetitions also enable the tracer and the engine's phase profiler and
// schedule marker events that only read the clock.  Every repetition of
// one (workload, seed) therefore produces the same simulated outputs,
// which timedRun() and tracedRun() check.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mdc/fault/chaos.hpp"
#include "mdc/scenario/megadc.hpp"

namespace e2e {

using mdc::SimTime;

/// Faulted workloads: longest bootstrap drain before the window starts.
inline constexpr SimTime kDrainCapSeconds = 600.0;

// --- statistics -------------------------------------------------------------

/// Nearest-rank percentile, p in [0, 100]; 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// A tail latency: the highest percentile on the ladder 50, 90, 99, 99.9,
/// 99.99 that still has at least ten samples beyond it.  With fewer than
/// 20 samples no rung qualifies and the tail is the maximum (pct 100).
struct Tail {
  double value = 0.0;
  double pct = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tailOf(const std::vector<double>& samples);

// --- workloads --------------------------------------------------------------

/// What a workload's window does besides advancing sim time.
enum class Faults : std::uint8_t {
  None,      // a fixed number of engine epochs
  Failover,  // leader crashes at quiet epoch boundaries, then a quiesce
  Storm,     // a seeded storm of every fault kind, then a quiesce
};

/// One benchmark workload: a seeded world and the simulated window the
/// timed repetitions advance it through.
struct Workload {
  std::string name;
  std::uint64_t seed = 1;
  mdc::MegaDcConfig config;
  /// Demand: static Zipf with seeded jitter, or diurnal swings over it
  /// (per-app phases fixed by the workload, not the seed).
  bool diurnal = false;
  /// Faults::None: the window is this many engine epochs after start().
  std::uint32_t windowEpochs = 0;
  /// Otherwise the faults start `calmBefore` seconds into the window and
  /// last `faultSeconds`; then the control channel heals.  The timed part
  /// ends `timedAfter` seconds later, and the window once checkQuiesced()
  /// is clean, at most `recoveryCap` seconds after the faults.
  Faults faults = Faults::None;
  SimTime calmBefore = 0.0;
  SimTime faultSeconds = 0.0;
  SimTime timedAfter = 0.0;
  SimTime recoveryCap = 0.0;
  /// Faults::Failover: leader crashes, one due every faultSeconds /
  /// leaderCrashes seconds (see Window::crashWhenQuiet).
  std::uint32_t leaderCrashes = 0;

  /// Latest sim time, counted from start(), the window can reach.
  [[nodiscard]] SimTime horizon() const;
};

/// The benchmark's workloads, paper and dataplane, and failover and
/// storm, which reproduce open defects and are not benchmark workloads
/// (see README.md); throws std::invalid_argument for any other name.
[[nodiscard]] Workload makeWorkload(const std::string& name,
                                    std::uint64_t seed);
/// Timed repetitions for a host-time budget: round(budget / 5.5 s),
/// clamped to [2, 6]; 5 at the declared 27 s.
[[nodiscard]] unsigned repetitionsFor(double budgetSeconds);

// --- periodic loops ---------------------------------------------------------

enum class Loop : std::uint8_t {
  Engine,
  Session,
  Pod,
  InterPod,
  LinkBalancer,
  SwitchBalancer,
  Reconciler,
  Lease,
  Snapshot,
  Health,
};
inline constexpr std::size_t kLoops = 10;
[[nodiscard]] constexpr std::uint32_t bit(Loop loop) noexcept {
  return 1u << static_cast<unsigned>(loop);
}

/// One instant at which at least one periodic loop fires.
struct Firing {
  SimTime at = 0.0;
  std::uint32_t loops = 0;          // bit(Loop) mask
  std::vector<std::uint32_t> pods;  // pod indices firing here
};

/// Every firing instant in (after, until] of the periodic loops that
/// MegaDc::start() registers when called at sim time `started`, loops
/// that fire at the same instant merged into one Firing.  Instants are
/// accumulated exactly as Simulation re-arms periodic events (first at
/// started + phase, then previous + period), so they compare equal to
/// the simulator's own event times.
[[nodiscard]] std::vector<Firing> firingSchedule(
    const mdc::MegaDcConfig& cfg, std::size_t pods, SimTime started,
    SimTime after, SimTime until);

// --- worlds -----------------------------------------------------------------

struct SetupTimes {
  double construct = 0.0;
  double deploy = 0.0;
  double warmup = 0.0;  // warm-up run + start()
  double drain = 0.0;   // faulted workloads: bootstrap queue drain
  [[nodiscard]] double total() const {
    return construct + deploy + warmup + drain;
  }
};

/// The host clock and event count when a marker event last ran.
struct Mark {
  SimTime at = -1.0;
  std::chrono::steady_clock::time_point host;
  std::uint64_t events = 0;
  std::uint64_t runs = 0;  // marker events run so far
};

/// A built, deployed and started world, with its invariant checker.
class World {
 public:
  /// With `firingMark`, one marker event per loop firing instant of the
  /// window is scheduled right after start(), in one batch: its sequence
  /// number sits just above the loops', so at that instant it runs after
  /// every loop firing and before any other event, and records into
  /// `firingMark`.  A batch keeps the simulator's own events in the same
  /// relative order, so the simulated outputs do not change.
  explicit World(const Workload& w, Mark* firingMark = nullptr);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  mdc::MegaDc& dc() { return *dc_; }
  mdc::WorldInvariants& invariants() { return *inv_; }
  [[nodiscard]] const SetupTimes& setup() const { return setup_; }
  /// Sim time at which start() registered the periodic loops.
  [[nodiscard]] SimTime started() const { return started_; }
  /// Whether the loops' first firings (at started()) are still pending.
  [[nodiscard]] bool startPending() const { return startPending_; }

 private:
  std::unique_ptr<mdc::MegaDc> dc_;
  std::unique_ptr<mdc::WorldInvariants> inv_;
  SetupTimes setup_;
  SimTime started_ = 0.0;
  bool startPending_ = true;
};

// --- repetitions ------------------------------------------------------------

/// A named value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one repetition measured.
struct RepResult {
  SetupTimes setup;
  /// The timed part of the window: sim seconds, simulator events, and
  /// host seconds with the benchmark's own checks excluded.
  SimTime windowSimSeconds = 0.0;
  std::uint64_t timedEvents = 0;
  double windowHost = 0.0;
  /// Untraced: host seconds of each timed epoch; sum = windowHost.
  std::vector<double> epochHost;
  /// Epochs of the whole window, the quiesce after faults included.
  std::size_t epochs = 0;
  /// Simulated outputs: exact for a (workload, seed), so every
  /// repetition must reproduce them bit for bit.
  Metrics model;
  /// Hash of every epoch report of the window and the final durable and
  /// session state: the simulated outputs beyond the printed counters.
  std::uint64_t outputHash = 0;
  /// Traced repetitions only: host-time layers and trace-derived waits.
  Metrics traced;
  std::vector<std::string> violations;
  /// Operations: VIP/RIP requests that reached a terminal state, plus
  /// session arrivals; traced repetitions also count requests refused
  /// at submit while the manager was down.  Failed: requests that ended
  /// other than ok (rejected, expired, shed, cancelled, refused) and
  /// sessions rejected or broken.
  std::uint64_t operations = 0;
  std::uint64_t failedOperations = 0;
  /// The requests among them, and those that ended ok.
  std::uint64_t requests = 0;
  std::uint64_t requestsOk = 0;
  /// Worker threads the engines actually run (0: no session engine).
  unsigned engineWorkers = 0;
  unsigned sessionWorkers = 0;
};

/// Builds a fresh world and advances it through the workload's window.
/// Untraced: runUntil stops at every engine epoch, each stop timed.
/// Traced: the tracer and phase profiler are on, and runUntil stops just
/// before and exactly at every loop firing, so host time is charged per
/// slice to the loops that fired in it (see harness.cpp).
[[nodiscard]] RepResult runRepetition(const Workload& w, bool traced);

/// What differs between the simulated outputs of two repetitions (empty
/// when they match exactly).
[[nodiscard]] std::vector<std::string> modelDiff(const RepResult& a,
                                                 const RepResult& b);

// --- runs -------------------------------------------------------------------

/// One benchmark run: the metrics it prints and the checks behind them.
struct RunResult {
  Metrics metrics;
  /// Failed checks; a run is correct when there are none.
  std::vector<std::string> violations;
  /// Operations of all repetitions and the failed ones among them; every
  /// operation of a repetition whose checks failed counts as failed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> details;
  unsigned engineWorkers = 0;
  unsigned sessionWorkers = 0;
};

/// --trace 0: `k` untraced repetitions; the end-to-end metrics.  sim_rate
/// is the window's sim seconds over the sum, across epochs, of each
/// epoch's fastest host time among the repetitions; setup_s is the median
/// set-up time.
[[nodiscard]] RunResult timedRun(const Workload& w, unsigned k);

/// --trace 1: one untraced and one traced repetition of the same seed;
/// the per-layer metrics.
[[nodiscard]] RunResult tracedRun(const Workload& w);

}  // namespace e2e
