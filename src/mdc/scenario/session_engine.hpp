// Session-level data plane: individual client TCP sessions at
// millions-of-connections scale.
//
// The fluid engine moves demand; this engine models the thing fluid flows
// cannot: *connection affinity*.  Packets of one TCP session must keep
// arriving at the RIP chosen at connection setup, and only the owning
// switch knows that mapping (§IV-B).  Dynamic VIP transfer is therefore
// gated on quiescence, and a forced transfer visibly breaks sessions.
//
// Architecture (the seed engine scheduled one simulation event per
// session and fell over around 1M):
//
//  * storage is one ConnectionShard per switch — one 32-byte record per
//    session slot plus a timing wheel, so expiry is O(sessions due this
//    tick) and an open or a close touches one cache line;
//  * a per-VIP route table, dense by VIP id, holds each VIP's owning
//    shard, its count cell in that shard, and a range of one flat table
//    of the owner's RIPs with running weight sums.  It is refreshed
//    serially at the start of a tick for the VIPs the fleet logged since
//    the last one (the engine holds the fleet's VIP change log open for
//    its lifetime, SwitchFleet::openVipLog), so an arrival resolves
//    VIP -> shard -> RIP with two reads of flat tables and no fleet,
//    switch or heap-allocated route lookup, and its open counts the
//    session into its VIP's cell by index.  A refreshed route rewrites
//    its range in place when the new RIPs fit and appends otherwise; the
//    pick table is compacted in VIP order once its dead ranges outgrow
//    its live ones, so it stays O(live RIPs);
//  * the tick is a deterministic pipeline: (P) serial resolver advance
//    and route refresh (generation then reads shares in place), (S)
//    per-shard expiry, (G) per-app arrival generation into
//    per-(worker, shard) buckets, (A) serial global-cap admission in
//    ascending app order, (I) per-shard inserts draining buckets in
//    worker-slot order.  Phases S and I fan out over the ThreadPool's
//    parallelRanges; phase G cuts the app list into one contiguous range
//    per worker at about equal work (a fixed cost per app plus the app's
//    arrivals of the previous tick), because Zipf demand puts most
//    arrivals on the first apps.  Because each app's randomness comes
//    from its own mix(seed, app, epoch) stream, each shard is mutated by
//    exactly one worker, and bucket concatenation in slot order equals
//    ascending app order for any contiguous cut, the tick is
//    bit-identical for ANY worker count.  A 1-worker pool runs every
//    phase inline over one range — the serial tick — and the randomized
//    equivalence suite holds the other worker counts to it;
//  * quiescent VIP transfer is a first-class drain: beginDrain() steers
//    DNS away (weight 0), the tick watches the owning switch's resident
//    count, and on quiescence transfers the VIP and restores the weight,
//    recording the drain latency histogram the paper's TTL argument
//    predicts.  forceTransfer() is the impatient variant: it breaks
//    exactly the resident sessions and emits a trace span per broken
//    connection.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mdc/app/app_registry.hpp"
#include "mdc/dns/dns.hpp"
#include "mdc/lb/conn_shard.hpp"
#include "mdc/lb/switch_fleet.hpp"
#include "mdc/metrics/histogram.hpp"
#include "mdc/obs/trace.hpp"
#include "mdc/sim/simulation.hpp"
#include "mdc/util/thread_pool.hpp"
#include "mdc/workload/demand.hpp"

namespace mdc {

/// Why a session arrival was turned away.  Every arrival ends in exactly
/// one of {active, completed, broken, rejected(reason)} — the chaos
/// suite's conservation invariant.
enum class SessionReject : std::uint8_t {
  NoVip,       // app has no exposed VIP (empty resolver shares)
  NoOwner,     // picked VIP is hosted nowhere (crash window)
  NoRips,      // owning switch has no usable RIP for the VIP
  Cap,         // global maxActiveSessions budget exhausted
  SwitchFull,  // owning switch's connection table is full
};
inline constexpr std::size_t kSessionRejectCount = 5;
[[nodiscard]] const char* toString(SessionReject reason) noexcept;

class SessionEngine {
 public:
  struct Options {
    /// New sessions per second per 1000 req/s of demand.
    double sessionsPerSecondPerKrps = 2.0;
    double meanSessionSeconds = 30.0;
    std::uint64_t seed = 42;
    SimTime tick = 1.0;
    /// Global live-session budget.  No longer a silent clamp: arrivals
    /// beyond it are counted as Cap rejections, per app and per reason,
    /// and surfaced through the mdc.session.rejected labeled metric.
    std::uint64_t maxActiveSessions = 1'000'000;
    /// Worker knob for the sharded tick: 0 = MDC_THREADS else 1 (see
    /// ThreadPool::resolveWorkers).
    unsigned workers = 0;
    /// Timing-wheel slots per shard (rounded up to a power of two).
    std::uint32_t wheelSlots = 1024;
  };

  SessionEngine(Simulation& sim, const AppRegistry& apps,
                const DemandModel& demand, AuthoritativeDns& dns,
                ResolverPopulation& resolvers, SwitchFleet& fleet,
                Options options);
  ~SessionEngine();

  SessionEngine(const SessionEngine&) = delete;
  SessionEngine& operator=(const SessionEngine&) = delete;

  /// Optional: spans on drain lifecycles and per-connection breaks.
  void attachTracer(Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Registers the periodic arrival/expiry tick.
  void start();

  /// One tick (exposed for tests and benches).
  void tick();

  // --- quiescent VIP transfer (§IV-B) ----------------------------------

  /// Starts draining `vip` toward switch `to`: DNS weight goes to 0 so
  /// new sessions steer away, and once the owning switch tracks zero
  /// sessions the tick transfers the VIP and restores the weight.  The
  /// drain aborts (weight left to the health plane) if the owner crashes
  /// or the VIP moves underneath it.  Errors: "vip_unowned",
  /// "same_switch", "switch_down" (destination), "already_draining",
  /// "vip_not_in_dns".
  Status beginDrain(VipId vip, SwitchId to);

  /// Forced transfer now: breaks exactly the sessions still resident on
  /// the owner (one SessionConnBroken span each) and moves the VIP.
  /// Errors: those of SwitchFleet::transferVip.
  Status forceTransfer(VipId vip, SwitchId to);

  [[nodiscard]] bool draining(VipId vip) const;
  [[nodiscard]] std::size_t drainsInProgress() const noexcept {
    return drains_.size();
  }
  [[nodiscard]] std::uint64_t drainsCompleted() const noexcept {
    return drainsCompleted_;
  }
  [[nodiscard]] std::uint64_t drainsAborted() const noexcept {
    return drainsAborted_;
  }
  /// Drain latencies (seconds from beginDrain to transfer) of completed
  /// quiescent transfers.
  [[nodiscard]] const Histogram& drainLatency() const noexcept {
    return drainLatency_;
  }
  [[nodiscard]] double drainP99Seconds() const;

  // --- counters ---------------------------------------------------------

  [[nodiscard]] std::uint64_t totalArrivals() const noexcept {
    return arrivals_;
  }
  [[nodiscard]] std::uint64_t activeSessions() const noexcept;
  [[nodiscard]] std::uint64_t completedSessions() const noexcept;
  /// Sessions whose connection vanished under them (forced VIP transfer
  /// or switch crash).
  [[nodiscard]] std::uint64_t brokenSessions() const noexcept;
  [[nodiscard]] std::uint64_t rejectedSessions() const noexcept {
    return rejected_;
  }
  [[nodiscard]] std::uint64_t rejectedFor(SessionReject reason) const noexcept {
    return rejectedByReason_[static_cast<std::size_t>(reason)];
  }
  [[nodiscard]] std::uint64_t rejectedForApp(AppId app) const noexcept {
    const std::size_t i = app.index();
    return i < rejectedPerApp_.size() ? rejectedPerApp_[i] : 0;
  }

  /// Deterministic fingerprint: per-shard state hashes (switch order)
  /// folded with the engine counters.  Equal across worker counts.
  [[nodiscard]] std::uint64_t stateHash() const noexcept;

  [[nodiscard]] unsigned workerCount() const noexcept {
    return pool_.workers();
  }
  [[nodiscard]] std::uint64_t epochsTicked() const noexcept { return epoch_; }

  /// The shard attached to one switch (tests assert RIP stickiness).
  [[nodiscard]] const ConnectionShard& shardOf(SwitchId sw) const;

  /// Compactions of the route table's flat RIP-pick table so far.
  [[nodiscard]] std::uint64_t routeCompactions() const noexcept {
    return routeCompactions_;
  }

 private:
  /// One RIP of a route: its id and the running weight sum up to and
  /// including it, in the owner's table order.
  struct RipPick {
    double sum;
    RipId rip;
  };
  /// How an arrival on one VIP resolves: the owning shard (kUnowned when
  /// no switch owns the VIP), the VIP's count cell there, and the owner
  /// entry's RIPs as picks_[first, first + count).  The sums are the same
  /// additions, in the same order, as the owner entry's totalWeight(), so
  /// the last one is the VIP's total weight.
  struct VipRoute {
    static constexpr std::uint32_t kUnowned = 0xffffffffu;
    std::uint32_t shard = kUnowned;
    std::uint32_t cell = 0;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };
  struct PendingOpen {
    std::uint64_t id;
    std::uint32_t app;
    std::uint32_t ordinal;  // viable-arrival index within the app's tick
    std::uint32_t cell;     // the VIP's count cell in the target shard
    RipId rip;
    std::uint64_t expiry;
  };
  struct DrainState {
    VipId vip;
    AppId app;
    SwitchId from;
    SwitchId to;
    SimTime started;
    double prevWeight;
    TraceId trace;
    SpanId span;
  };

  void refreshRoutes();
  void compactPicks();
  void cutApps(std::size_t numApps);
  void generateApps(unsigned slot, std::size_t lo, std::size_t hi,
                    SimTime now);
  void admitSerial();
  void insertShards(std::size_t lo, std::size_t hi);
  void sweepDrains();
  std::vector<DrainState>::iterator finishDrain(
      std::vector<DrainState>::iterator it, bool completed, const char* code);

  Simulation& sim_;
  const AppRegistry& apps_;
  const DemandModel& demand_;
  AuthoritativeDns& dns_;
  ResolverPopulation& resolvers_;
  SwitchFleet& fleet_;
  Options options_;
  Tracer* tracer_ = nullptr;

  std::vector<std::unique_ptr<ConnectionShard>> shards_;  // by switch index
  ThreadPool pool_;

  std::uint64_t epoch_ = 0;  // tick index; expiry wheel key

  // Per-VIP routes, by VIP index, their RIP picks, the picks that live
  // routes cover, and the VIPs taken from the fleet's change log for the
  // current refresh.
  std::vector<VipRoute> routes_;
  std::vector<RipPick> picks_;
  std::size_t livePicks_ = 0;
  std::uint64_t routeCompactions_ = 0;
  std::vector<VipId> mutatedVips_;

  // Per-app persistent state.
  std::vector<std::uint32_t> perAppSeq_;  // session-id sequence numbers

  // Per-tick scratch, cleared each tick.
  std::vector<std::size_t> cuts_;  // phase G range bounds, slots + 1
  std::vector<std::uint32_t> candidates_;  // arrivals drawn per app (the
                                           // next tick's cut reads them)
  std::vector<std::uint32_t> viable_;      // arrivals that picked a rip
  std::vector<std::uint32_t> rejNoVip_;
  std::vector<std::uint32_t> rejNoOwner_;
  std::vector<std::uint32_t> rejNoRips_;
  std::vector<std::uint32_t> admit_;  // phase A verdict per app
  std::vector<std::vector<PendingOpen>> buckets_;  // [slot * shards + shard]
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      shardRejects_;  // per-shard (app, switch_full count)

  std::vector<DrainState> drains_;
  Histogram drainLatency_{0.1, 36'000.0};

  std::uint64_t arrivals_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t rejectedByReason_[kSessionRejectCount] = {};
  std::vector<std::uint64_t> rejectedPerApp_;
  std::uint64_t drainsCompleted_ = 0;
  std::uint64_t drainsAborted_ = 0;
};

}  // namespace mdc
