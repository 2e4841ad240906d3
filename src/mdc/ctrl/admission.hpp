// Command-plane admission for VIP/RIP reconfiguration.
//
// The paper's global manager serializes *every* VIP/RIP change through one
// queue (§III-C) — at storm-level churn that single line is the control
// plane's throughput wall.  This layer keeps the manager's decisions
// deterministic while letting independent work proceed concurrently:
//
//  * each scheduling round forms a *batch* from the queue in (priority
//    desc, submit order) — a request joins the batch iff its read/write
//    footprint (app, VM, VIP, switch keys) is disjoint from everything
//    already claimed this round; conflicting requests stay queued and
//    their footprints block later requests on the same keys, so per-key
//    ordering is exactly the serialized order;
//  * the batch commits through the existing exactly-once CommandSender
//    machinery; conflicting requests serialize across rounds.
//
// Overload robustness (the reason this is its own module):
//  * the queue is bounded with per-priority-class occupancy: repair
//    traffic (RestoreVip, high-priority cleanup) is never shed, bulk
//    resize (SetWeight) sheds first and has the smallest share;
//  * a critical arrival into a full queue evicts the newest bulk entry
//    instead of being refused;
//  * per-class deadline budgets reject stale requests with
//    "deadline_expired" instead of applying them after their world moved
//    on;
//  * shed requests surface explicit backpressure: SubmitResult::overloaded
//    plus a retry-after hint sized to the current drain rate;
//  * a brownout mode halves the batch size and widens deadlines while the
//    sender's ack-timeout rate is spiking (the switches are struggling —
//    pushing a wider batch at them only grows the retry storm).
//
// Everything here runs on the single-threaded simulation loop and is a
// pure function of the submission sequence: batch formation walks the
// queue in a deterministic (priority desc, submit order) and the
// per-round admission counts are journaled by the owning VipRipManager,
// so recovery replays to a bit-identical state hash.
//
// The queue is one FIFO lane per priority plus an ordered index of the
// queued SetWeights, so a submission costs O(log n) however deep the
// backlog grows (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "mdc/lb/lb_switch.hpp"
#include "mdc/obs/trace.hpp"
#include "mdc/sim/simulation.hpp"
#include "mdc/util/ids.hpp"
#include "mdc/util/result.hpp"

namespace mdc {

enum class VipRipOp : std::uint8_t {
  NewVip,      // allocate + place a new VIP for app
  DeleteVip,   // remove a VIP everywhere
  NewRip,      // bind vm to one of app's VIPs
  DeleteRip,   // remove all RIPs of vm
  SetWeight,   // change the weight of vm's RIPs
  RestoreVip   // re-host an orphaned VIP (switch crash) with its RIP set
};

struct VipRipRequest {
  VipRipOp op = VipRipOp::NewVip;
  int priority = 0;  // higher first
  AppId app;
  VmId vm;
  VipId vip;
  double weight = 1.0;
  /// RestoreVip payload: the orphan's last-known RIP set.  Entries are
  /// re-added under their original ids (so RIP bookkeeping stays
  /// coherent); RIPs of VMs that died with the switch are dropped.
  std::vector<RipEntry> rips;
  /// Optional completion callback with the outcome.  Fires exactly once
  /// per request, on every path — including drops, shedding, deadline
  /// expiry, and channel timeouts.
  std::function<void(Status)> done;
  /// Causal trace context.  Left at 0 with tracing enabled, submit()
  /// mints a fresh trace whose root span is the request; every switch
  /// command the request fans out into becomes a child span.
  TraceId trace = 0;
  SpanId traceSpan = 0;
};

/// Shedding order under queue pressure: Bulk first, Critical never.
enum class AdmissionClass : std::uint8_t { Bulk = 0, Capacity = 1, Critical = 2 };
inline constexpr std::size_t kAdmissionClassCount = 3;

/// A request of at least this priority is Critical whatever its op: the
/// health monitor submits its RestoreVip and dead-VM cleanup requests at
/// it, above all routine balancer traffic (which uses 0..1).
inline constexpr int kCriticalPriority = 10;

/// Delay before retry `attempt` (0 for the first) of a request that failed
/// transiently (manager crash, shed, channel timeout): 5 s, doubling per
/// attempt, capped at 60 s.  The global manager's and the health
/// monitor's retries both use it.
[[nodiscard]] SimTime retryBackoff(std::uint32_t attempt);

[[nodiscard]] const char* toString(AdmissionClass cls) noexcept;

/// Outcome of offering a request to the admission queue.  A refused
/// request was settled already (its done callback fired); `overloaded`
/// plus the retry-after hint tell periodic callers (balancers,
/// reconciler) to back off instead of hammering a full queue.
struct SubmitResult {
  bool accepted = true;
  bool overloaded = false;
  SimTime retryAfterSeconds = 0.0;
  const char* code = "ok";
};

/// A request's read/write key set over the entities it will touch.  Two
/// requests conflict iff they share a key and at least one side writes
/// it; conflict-free requests commute and may commit in the same round.
class FootprintSet {
 public:
  enum class Kind : std::uint8_t { App = 0, Vm, Vip, Switch, Pod };

  void read(Kind kind, std::size_t id) { mark(kind, id, kRead); }
  void write(Kind kind, std::size_t id) { mark(kind, id, kWrite); }

  [[nodiscard]] bool conflictsWith(const FootprintSet& other) const;
  /// Claims every key of `other` (reads stay reads, writes stay writes).
  void merge(const FootprintSet& other);
  void clear() { marks_.clear(); }
  [[nodiscard]] std::size_t size() const noexcept { return marks_.size(); }

 private:
  static constexpr std::uint8_t kRead = 1;
  static constexpr std::uint8_t kWrite = 2;

  static std::uint64_t key(Kind kind, std::size_t id) noexcept {
    return (static_cast<std::uint64_t>(kind) << 56) |
           (static_cast<std::uint64_t>(id) & 0x00ff'ffff'ffff'ffffull);
  }
  void mark(Kind kind, std::size_t id, std::uint8_t bit) {
    marks_[key(kind, id)] |= bit;
  }

  std::unordered_map<std::uint64_t, std::uint8_t> marks_;
};

class AdmissionController {
 public:
  struct Options {
    /// Batch formation: false degrades to the seed's strictly serialized
    /// queue (batches of one) — the measured baseline in bench_e18.
    bool pipelined = true;
    /// Requests admitted per scheduling round (upper bound; conflicts
    /// shrink the realized batch).
    std::size_t batchSize = 16;
    /// Bound on queued requests; 0 keeps the seed's unbounded queue.
    std::size_t maxQueueDepth = 0;
    /// Bulk's share of a bounded queue (sheds first, smallest slice).
    double bulkShare = 0.5;
    /// Per-class deadline budgets (seconds in queue before the request is
    /// rejected with "deadline_expired"); 0 = no deadline.  Critical
    /// never expires: repair work stays valid until it lands.
    SimTime bulkDeadlineSeconds = 0.0;
    SimTime capacityDeadlineSeconds = 0.0;
    /// Brownout: when the sender's ack-timeout rate over a window crosses
    /// the enter threshold, halve the batch and widen deadlines until the
    /// rate drops below the exit threshold (hysteresis).
    SimTime brownoutWindowSeconds = 10.0;
    double brownoutEnterTimeoutRate = 0.25;
    double brownoutExitTimeoutRate = 0.05;
  };

  /// Deadline budgets stretch by this factor while in brownout.
  static constexpr double kBrownoutDeadlineFactor = 2.0;
  /// Clamp on the retry-after hint handed to shed callers.
  static constexpr SimTime kMinRetryAfterSeconds = 1.0;
  static constexpr SimTime kMaxRetryAfterSeconds = 60.0;

  struct Entry {
    VipRipRequest req;
    AdmissionClass cls = AdmissionClass::Capacity;
    std::uint64_t seq = 0;
    SimTime submitted = 0.0;
    /// Relative deadline budget (seconds); 0 = none.  Scaled by the
    /// brownout factor at expiry-check time so already-queued requests
    /// get relief too.
    SimTime budget = 0.0;
  };

  /// One scheduling round's outcome: the footprint-disjoint batch (in
  /// priority/FIFO order), the requests whose deadline budget ran out,
  /// and how many stayed queued because they conflicted.
  struct Round {
    std::vector<Entry> batch;
    std::vector<Entry> expired;
    std::uint32_t deferred = 0;
  };

  using FootprintFn =
      std::function<void(const VipRipRequest&, FootprintSet&)>;
  /// Receives a request the controller refused (submit-time shed) or
  /// evicted (bulk displaced by a critical arrival), with the retry-after
  /// hint; must settle it exactly once.
  using ShedFn = std::function<void(Entry&&, SimTime retryAfter)>;

  /// `roundSeconds` is what one scheduling round costs the owner (its
  /// decision time); it sizes the retry-after hint.
  AdmissionController(Options options, SimTime roundSeconds);

  [[nodiscard]] AdmissionClass classify(const VipRipRequest& req) const;

  /// Admits or sheds one request.  On shed (and for any bulk entry
  /// evicted to make room for a critical arrival) `onShed` runs before
  /// this returns.  `now` is simulation time and must not decrease from
  /// one call to the next.
  SubmitResult offer(VipRipRequest&& req, SimTime now, const ShedFn& onShed);

  /// Coalesces a newer SetWeight for the same VM onto the first queued
  /// one in queue order; returns true if absorbed (the new request should
  /// be settled "ok").
  bool coalesceSetWeight(VmId vm, double weight);

  /// Forms the next batch: drops expired entries, admits footprint-
  /// disjoint requests up to the effective batch size, leaves (and
  /// counts) conflicting ones.  A conflicting request's footprint blocks
  /// later requests on the same keys, preserving per-key FIFO order.
  Round formRound(SimTime now, const FootprintFn& footprintOf);

  /// Feeds the brownout detector with the sender's cumulative counters.
  void observeSender(std::uint64_t commandsSent, std::uint64_t timeouts,
                     SimTime now);

  /// Removes and returns every queued entry (crash path: the owner
  /// settles each with "cancelled").
  [[nodiscard]] std::vector<Entry> drain();
  /// Drops queued entries without settling them (recovery of an already
  /// quiesced manager, mirroring the seed's silent queue clear).
  void clearSilently();

  /// Sheds recorded since the last takeShedDelta() — flushed into the
  /// per-round admission journal record by the owner.
  [[nodiscard]] std::uint32_t takeShedDelta() noexcept;

  // --- gauges -------------------------------------------------------------

  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::size_t depthOf(AdmissionClass cls) const noexcept {
    return classDepth_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] SimTime oldestAgeSeconds(SimTime now) const noexcept;
  [[nodiscard]] std::size_t effectiveBatchSize() const noexcept;
  [[nodiscard]] bool brownoutActive() const noexcept { return brownout_; }
  /// Whether periodic callers should back off before submitting more
  /// (bounded queue at >= 80% occupancy).
  [[nodiscard]] bool overloaded() const noexcept;
  [[nodiscard]] SimTime retryAfterHint() const noexcept;

  // --- counters -----------------------------------------------------------

  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] std::uint64_t admitted() const noexcept { return admitted_; }
  [[nodiscard]] std::uint64_t shed() const noexcept;
  [[nodiscard]] std::uint64_t shedOf(AdmissionClass cls) const noexcept {
    return shedByClass_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }
  [[nodiscard]] std::uint64_t deadlineExpired() const noexcept {
    return deadlineExpired_;
  }
  [[nodiscard]] std::uint64_t conflictDeferred() const noexcept {
    return conflictDeferred_;
  }
  [[nodiscard]] std::uint64_t coalesced() const noexcept { return coalesced_; }
  [[nodiscard]] std::uint64_t brownoutEntries() const noexcept {
    return brownoutEntries_;
  }

  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  /// One FIFO lane per priority; seq and submit time ascend within it.
  using Lane = std::deque<Entry>;
  /// (vm, -priority, seq) of one queued SetWeight: a VM's smallest key is
  /// its first SetWeight in queue order.
  using WeightKey = std::tuple<VmId, std::int64_t, std::uint64_t>;

  [[nodiscard]] static WeightKey weightKey(const Entry& e) noexcept {
    return {e.req.vm, -static_cast<std::int64_t>(e.req.priority), e.seq};
  }
  void enqueue(Entry entry);
  /// Unaccounts an entry leaving the queue (the caller erases it).
  void noteRemoved(const Entry& e);
  [[nodiscard]] SimTime budgetFor(AdmissionClass cls) const noexcept;

  Options options_;
  SimTime roundSeconds_;
  /// Walked in (priority desc, seq asc) order: a stable priority queue
  /// that processes equal priorities FIFO.  Empty lanes are erased.
  std::map<int, Lane, std::greater<>> lanes_;
  std::set<WeightKey> setWeights_;
  std::size_t depth_ = 0;
  std::size_t classDepth_[kAdmissionClassCount] = {0, 0, 0};
  std::uint64_t nextSeq_ = 0;

  bool brownout_ = false;
  SimTime windowStart_ = -1.0;
  std::uint64_t windowSent_ = 0;
  std::uint64_t windowTimeouts_ = 0;

  std::uint64_t rounds_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t shedByClass_[kAdmissionClassCount] = {0, 0, 0};
  std::uint64_t evictions_ = 0;
  std::uint64_t deadlineExpired_ = 0;
  std::uint64_t conflictDeferred_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t brownoutEntries_ = 0;
  std::uint32_t pendingShed_ = 0;
};

}  // namespace mdc
