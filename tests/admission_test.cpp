// Unit tests for the command-plane admission layer (E18): footprint
// conflict detection, batched rounds, priority-class shedding, deadline
// budgets, brownout hysteresis, and the durability of the journaled
// admission aggregates.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <tuple>
#include <vector>

#include "mdc/core/viprip_manager.hpp"
#include "mdc/ctrl/admission.hpp"
#include "mdc/sim/rng.hpp"

namespace mdc {
namespace {

using Kind = FootprintSet::Kind;

// --- FootprintSet ---------------------------------------------------------

TEST(FootprintSet, ReadsCommute) {
  FootprintSet a, b;
  a.read(Kind::App, 1);
  b.read(Kind::App, 1);
  EXPECT_FALSE(a.conflictsWith(b));
}

TEST(FootprintSet, WriteConflictsWithRead) {
  FootprintSet a, b;
  a.write(Kind::Vm, 7);
  b.read(Kind::Vm, 7);
  EXPECT_TRUE(a.conflictsWith(b));
  EXPECT_TRUE(b.conflictsWith(a));
}

TEST(FootprintSet, WritesOnDistinctKeysCommute) {
  FootprintSet a, b;
  a.write(Kind::Vm, 1);
  b.write(Kind::Vm, 2);
  b.write(Kind::Vip, 1);  // same id, different kind
  EXPECT_FALSE(a.conflictsWith(b));
}

TEST(FootprintSet, MergeClaimsKeys) {
  FootprintSet claimed, late;
  FootprintSet fp;
  fp.write(Kind::App, 3);
  claimed.merge(fp);
  late.read(Kind::App, 3);
  EXPECT_TRUE(claimed.conflictsWith(late));
}

// --- AdmissionController ---------------------------------------------------

VipRipRequest makeReq(VipRipOp op, int priority = 0, std::uint32_t vm = 0) {
  VipRipRequest r;
  r.op = op;
  r.priority = priority;
  r.vm = VmId{vm};
  return r;
}

/// The owner's per-round decision cost handed to every controller here
/// (VipRipManager's default processSeconds).
constexpr SimTime kRoundSeconds = 0.05;

AdmissionController::ShedFn nopShed() {
  return [](AdmissionController::Entry&&, SimTime) {};
}

TEST(AdmissionController, ClassifiesByOpAndPriority) {
  AdmissionController adm{AdmissionController::Options{}, kRoundSeconds};
  EXPECT_EQ(adm.classify(makeReq(VipRipOp::SetWeight)), AdmissionClass::Bulk);
  EXPECT_EQ(adm.classify(makeReq(VipRipOp::NewVip)), AdmissionClass::Capacity);
  EXPECT_EQ(adm.classify(makeReq(VipRipOp::RestoreVip)),
            AdmissionClass::Critical);
  // The health monitor's cleanup DeleteRips ride at critical priority.
  EXPECT_EQ(adm.classify(makeReq(VipRipOp::DeleteRip, kCriticalPriority)),
            AdmissionClass::Critical);
}

TEST(AdmissionController, UnboundedQueueNeverSheds) {
  AdmissionController adm{AdmissionController::Options{}, kRoundSeconds};
  for (int i = 0; i < 100; ++i) {
    const auto res = adm.offer(makeReq(VipRipOp::SetWeight), 0.0, nopShed());
    EXPECT_TRUE(res.accepted);
  }
  EXPECT_EQ(adm.depth(), 100u);
  EXPECT_EQ(adm.shed(), 0u);
}

TEST(AdmissionController, BulkShedsBeforeCapacity) {
  AdmissionController::Options opt;
  opt.maxQueueDepth = 4;
  opt.bulkShare = 0.5;  // at most 2 bulk entries queued
  AdmissionController adm{opt, kRoundSeconds};

  EXPECT_TRUE(adm.offer(makeReq(VipRipOp::SetWeight), 0.0, nopShed()).accepted);
  EXPECT_TRUE(adm.offer(makeReq(VipRipOp::SetWeight, 0, 1), 0.0, nopShed())
                  .accepted);
  // Third bulk entry exceeds bulk's share while capacity work still fits.
  const auto bulk3 = adm.offer(makeReq(VipRipOp::SetWeight, 0, 2), 0.0,
                               nopShed());
  EXPECT_FALSE(bulk3.accepted);
  EXPECT_TRUE(bulk3.overloaded);
  EXPECT_STREQ(bulk3.code, "overloaded");
  EXPECT_GT(bulk3.retryAfterSeconds, 0.0);
  EXPECT_TRUE(adm.offer(makeReq(VipRipOp::NewVip), 0.0, nopShed()).accepted);
  EXPECT_TRUE(adm.offer(makeReq(VipRipOp::NewRip), 0.0, nopShed()).accepted);
  // Queue full: capacity sheds too now.
  EXPECT_FALSE(adm.offer(makeReq(VipRipOp::NewVip), 0.0, nopShed()).accepted);
  EXPECT_EQ(adm.shedOf(AdmissionClass::Bulk), 1u);
  EXPECT_EQ(adm.shedOf(AdmissionClass::Capacity), 1u);
  EXPECT_EQ(adm.shedOf(AdmissionClass::Critical), 0u);
}

TEST(AdmissionController, CriticalEvictsNewestBulkWhenFull) {
  AdmissionController::Options opt;
  opt.maxQueueDepth = 2;
  opt.bulkShare = 1.0;
  AdmissionController adm{opt, kRoundSeconds};

  std::vector<std::uint64_t> evicted;
  auto onShed = [&](AdmissionController::Entry&& e, SimTime) {
    evicted.push_back(e.req.vm.value());
  };
  EXPECT_TRUE(adm.offer(makeReq(VipRipOp::SetWeight, 0, 1), 0.0, onShed)
                  .accepted);
  EXPECT_TRUE(adm.offer(makeReq(VipRipOp::SetWeight, 0, 2), 0.0, onShed)
                  .accepted);
  // A restore arrives into the full queue: admitted, newest bulk evicted.
  const auto res = adm.offer(makeReq(VipRipOp::RestoreVip), 0.0, onShed);
  EXPECT_TRUE(res.accepted);
  EXPECT_EQ(adm.depth(), 2u);
  EXPECT_EQ(adm.evictions(), 1u);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted.front(), 2u);  // newest bulk went, oldest stayed
  EXPECT_EQ(adm.shedOf(AdmissionClass::Critical), 0u);
}

TEST(AdmissionController, FormRoundAdmitsDisjointDefersConflicting) {
  AdmissionController::Options opt;
  opt.batchSize = 8;
  AdmissionController adm{opt, kRoundSeconds};
  // Three requests: two touch distinct VMs, the third collides with the
  // first.
  (void)adm.offer(makeReq(VipRipOp::SetWeight, 0, 1), 0.0, nopShed());
  (void)adm.offer(makeReq(VipRipOp::SetWeight, 0, 2), 0.0, nopShed());
  (void)adm.offer(makeReq(VipRipOp::DeleteRip, 0, 1), 0.0, nopShed());

  auto footprint = [](const VipRipRequest& r, FootprintSet& fp) {
    fp.write(Kind::Vm, r.vm.value());
  };
  const auto round = adm.formRound(0.0, footprint);
  ASSERT_EQ(round.batch.size(), 2u);
  EXPECT_EQ(round.batch[0].req.vm.value(), 1u);
  EXPECT_EQ(round.batch[1].req.vm.value(), 2u);
  EXPECT_EQ(round.deferred, 1u);
  EXPECT_EQ(adm.depth(), 1u);  // the conflicting one stays queued

  const auto next = adm.formRound(0.0, footprint);
  ASSERT_EQ(next.batch.size(), 1u);
  EXPECT_EQ(next.batch[0].req.op, VipRipOp::DeleteRip);
}

TEST(AdmissionController, DeferredFootprintBlocksLaterRequests) {
  // Per-key FIFO: once a request is deferred, later requests touching its
  // keys must not overtake it — even if they would fit the batch.
  AdmissionController adm{AdmissionController::Options{}, kRoundSeconds};
  (void)adm.offer(makeReq(VipRipOp::SetWeight, 0, 1), 0.0, nopShed());
  (void)adm.offer(makeReq(VipRipOp::DeleteRip, 0, 1), 0.0, nopShed());
  (void)adm.offer(makeReq(VipRipOp::NewRip, 0, 1), 0.0, nopShed());

  auto footprint = [](const VipRipRequest& r, FootprintSet& fp) {
    fp.write(Kind::Vm, r.vm.value());
  };
  auto r1 = adm.formRound(0.0, footprint);
  ASSERT_EQ(r1.batch.size(), 1u);
  EXPECT_EQ(r1.batch[0].req.op, VipRipOp::SetWeight);
  EXPECT_EQ(r1.deferred, 2u);
  auto r2 = adm.formRound(0.0, footprint);
  ASSERT_EQ(r2.batch.size(), 1u);
  EXPECT_EQ(r2.batch[0].req.op, VipRipOp::DeleteRip);
  auto r3 = adm.formRound(0.0, footprint);
  ASSERT_EQ(r3.batch.size(), 1u);
  EXPECT_EQ(r3.batch[0].req.op, VipRipOp::NewRip);
}

TEST(AdmissionController, SerializedModeBatchesOfOne) {
  AdmissionController::Options opt;
  opt.pipelined = false;
  AdmissionController adm{opt, kRoundSeconds};
  (void)adm.offer(makeReq(VipRipOp::SetWeight, 0, 1), 0.0, nopShed());
  (void)adm.offer(makeReq(VipRipOp::SetWeight, 0, 2), 0.0, nopShed());
  auto footprint = [](const VipRipRequest& r, FootprintSet& fp) {
    fp.write(Kind::Vm, r.vm.value());
  };
  EXPECT_EQ(adm.effectiveBatchSize(), 1u);
  EXPECT_EQ(adm.formRound(0.0, footprint).batch.size(), 1u);
  EXPECT_EQ(adm.formRound(0.0, footprint).batch.size(), 1u);
}

TEST(AdmissionController, DeadlineExpiryRespectsClassBudgets) {
  AdmissionController::Options opt;
  opt.capacityDeadlineSeconds = 0.5;
  AdmissionController adm{opt, kRoundSeconds};
  (void)adm.offer(makeReq(VipRipOp::NewVip), 0.0, nopShed());
  (void)adm.offer(makeReq(VipRipOp::RestoreVip), 0.0, nopShed());

  auto footprint = [](const VipRipRequest&, FootprintSet& fp) {
    fp.write(Kind::App, 1);  // everything conflicts: nothing admitted twice
  };
  // Well past the capacity budget: the NewVip expires, the critical
  // restore never does (it is still valid until it lands).
  const auto round = adm.formRound(1.0, footprint);
  ASSERT_EQ(round.expired.size(), 1u);
  EXPECT_EQ(round.expired[0].req.op, VipRipOp::NewVip);
  ASSERT_EQ(round.batch.size(), 1u);
  EXPECT_EQ(round.batch[0].req.op, VipRipOp::RestoreVip);
  EXPECT_EQ(adm.deadlineExpired(), 1u);
}

TEST(AdmissionController, BrownoutHalvesBatchWithHysteresis) {
  AdmissionController::Options opt;
  opt.batchSize = 8;
  opt.brownoutWindowSeconds = 10.0;
  opt.brownoutEnterTimeoutRate = 0.25;
  opt.brownoutExitTimeoutRate = 0.05;
  AdmissionController adm{opt, kRoundSeconds};

  adm.observeSender(100, 0, 0.0);  // anchors the window
  EXPECT_FALSE(adm.brownoutActive());
  EXPECT_EQ(adm.effectiveBatchSize(), 8u);

  adm.observeSender(200, 40, 11.0);  // 40% of the window's sends timed out
  EXPECT_TRUE(adm.brownoutActive());
  EXPECT_EQ(adm.effectiveBatchSize(), 4u);
  EXPECT_EQ(adm.brownoutEntries(), 1u);

  // A mid-band rate (10%) holds the current state (hysteresis)...
  adm.observeSender(300, 50, 22.0);
  EXPECT_TRUE(adm.brownoutActive());
  // ...and a calm window exits.
  adm.observeSender(400, 51, 33.0);
  EXPECT_FALSE(adm.brownoutActive());
  EXPECT_EQ(adm.effectiveBatchSize(), 8u);
}

TEST(AdmissionController, CoalescesQueuedSetWeight) {
  AdmissionController adm{AdmissionController::Options{}, kRoundSeconds};
  (void)adm.offer(makeReq(VipRipOp::SetWeight, 0, 5), 0.0, nopShed());
  EXPECT_TRUE(adm.coalesceSetWeight(VmId{5}, 9.0));
  EXPECT_FALSE(adm.coalesceSetWeight(VmId{6}, 9.0));
  EXPECT_EQ(adm.depth(), 1u);
  auto footprint = [](const VipRipRequest&, FootprintSet&) {};
  const auto round = adm.formRound(0.0, footprint);
  ASSERT_EQ(round.batch.size(), 1u);
  EXPECT_DOUBLE_EQ(round.batch[0].req.weight, 9.0);
  EXPECT_EQ(adm.coalesced(), 1u);
}

// --- lanes vs. the sorted-deque reference ---------------------------------

/// Test-local reference: the admission queue as one deque sorted by
/// (priority desc, submit order).  An offer inserts before the first lower
/// priority, a coalesce scans front to back, a critical eviction scans
/// back to front, and oldestAgeSeconds visits every entry.  Brownout is
/// not modelled: offer (for the retry-after hint) and formRound take the
/// controller's effective batch size, formRound its deadline scale.
class SortedDequeModel {
 public:
  using Entry = AdmissionController::Entry;
  using Shed = std::vector<std::pair<Entry, SimTime>>;

  explicit SortedDequeModel(AdmissionController::Options o) : opt_(o) {}

  SubmitResult offer(VipRipRequest req, SimTime now, std::size_t batch,
                     Shed& shed) {
    Entry entry;
    entry.cls = classify(req);
    entry.req = std::move(req);
    entry.seq = nextSeq_++;
    entry.submitted = now;
    entry.budget = entry.cls == AdmissionClass::Bulk
                       ? opt_.bulkDeadlineSeconds
                       : entry.cls == AdmissionClass::Capacity
                             ? opt_.capacityDeadlineSeconds
                             : 0.0;
    const std::size_t bound = opt_.maxQueueDepth;
    if (bound != 0) {
      const SimTime retryAfter = std::clamp(
          (static_cast<double>(queue_.size()) / static_cast<double>(batch) +
           1.0) * kRoundSeconds,
          AdmissionController::kMinRetryAfterSeconds,
          AdmissionController::kMaxRetryAfterSeconds);
      const std::size_t bulkCap = std::max<std::size_t>(
          1, static_cast<std::size_t>(opt_.bulkShare *
                                      static_cast<double>(bound)));
      const bool full = queue_.size() >= bound;
      if ((entry.cls == AdmissionClass::Capacity && full) ||
          (entry.cls == AdmissionClass::Bulk &&
           (full || depthOf(AdmissionClass::Bulk) >= bulkCap))) {
        shed.emplace_back(std::move(entry), retryAfter);
        return SubmitResult{false, true, retryAfter, "overloaded"};
      }
      if (entry.cls == AdmissionClass::Critical && full) {
        for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
          if (it->cls != AdmissionClass::Bulk) continue;
          shed.emplace_back(std::move(*it), retryAfter);
          queue_.erase(std::next(it).base());
          break;
        }
      }
    }
    const auto pos = std::find_if(
        queue_.begin(), queue_.end(), [&](const Entry& other) {
          return other.req.priority < entry.req.priority;
        });
    queue_.insert(pos, std::move(entry));
    return SubmitResult{};
  }

  bool coalesceSetWeight(VmId vm, double weight) {
    for (Entry& e : queue_) {
      if (e.req.op == VipRipOp::SetWeight && e.req.vm == vm) {
        e.req.weight = weight;
        return true;
      }
    }
    return false;
  }

  AdmissionController::Round formRound(
      SimTime now, const AdmissionController::FootprintFn& footprintOf,
      std::size_t cap, double scale) {
    AdmissionController::Round round;
    FootprintSet claimed;
    FootprintSet fp;
    for (auto it = queue_.begin();
         it != queue_.end() && round.batch.size() < cap;) {
      if (it->budget > 0.0 && now - it->submitted > it->budget * scale) {
        round.expired.push_back(std::move(*it));
        it = queue_.erase(it);
        continue;
      }
      fp.clear();
      footprintOf(it->req, fp);
      if (opt_.pipelined && fp.conflictsWith(claimed)) {
        claimed.merge(fp);
        ++round.deferred;
        ++it;
        continue;
      }
      claimed.merge(fp);
      round.batch.push_back(std::move(*it));
      it = queue_.erase(it);
    }
    return round;
  }

  std::vector<Entry> drain() {
    std::vector<Entry> out(std::make_move_iterator(queue_.begin()),
                           std::make_move_iterator(queue_.end()));
    queue_.clear();
    return out;
  }
  void clearSilently() { queue_.clear(); }

  [[nodiscard]] std::size_t depth() const { return queue_.size(); }
  [[nodiscard]] std::size_t depthOf(AdmissionClass cls) const {
    return static_cast<std::size_t>(
        std::count_if(queue_.begin(), queue_.end(),
                      [cls](const Entry& e) { return e.cls == cls; }));
  }
  [[nodiscard]] SimTime oldestAgeSeconds(SimTime now) const {
    SimTime oldest = 0.0;
    for (const Entry& e : queue_) oldest = std::max(oldest, now - e.submitted);
    return oldest;
  }

 private:
  [[nodiscard]] AdmissionClass classify(const VipRipRequest& r) const {
    if (r.op == VipRipOp::RestoreVip || r.priority >= kCriticalPriority) {
      return AdmissionClass::Critical;
    }
    return r.op == VipRipOp::SetWeight ? AdmissionClass::Bulk
                                       : AdmissionClass::Capacity;
  }

  AdmissionController::Options opt_;
  std::deque<Entry> queue_;
  std::uint64_t nextSeq_ = 0;
};

/// Everything of an entry the two queues must agree on.
auto entryKey(const AdmissionController::Entry& e) {
  return std::make_tuple(e.seq, static_cast<int>(e.req.op), e.req.priority,
                         e.req.app.value(), e.req.vm.value(), e.req.weight,
                         static_cast<int>(e.cls), e.submitted, e.budget);
}
using EntryKey = decltype(entryKey(AdmissionController::Entry{}));

std::vector<EntryKey> keysOf(
    const std::vector<AdmissionController::Entry>& entries) {
  std::vector<EntryKey> out;
  for (const auto& e : entries) out.push_back(entryKey(e));
  return out;
}

std::vector<std::pair<EntryKey, SimTime>> keysOf(
    const SortedDequeModel::Shed& shed) {
  std::vector<std::pair<EntryKey, SimTime>> out;
  for (const auto& [e, retryAfter] : shed) {
    out.emplace_back(entryKey(e), retryAfter);
  }
  return out;
}

/// Drives the controller and the reference with one seeded random
/// operation sequence and compares every observable after every step.
void expectMatchesSortedDeque(AdmissionController::Options opt,
                              std::uint64_t seed, int ops) {
  AdmissionController adm{opt, kRoundSeconds};
  SortedDequeModel model{opt};
  Rng rng{seed};
  constexpr int kPriorities[] = {0, 1, 5, 10, 12};
  constexpr VipRipOp kOps[] = {VipRipOp::NewVip,    VipRipOp::DeleteVip,
                               VipRipOp::NewRip,    VipRipOp::DeleteRip,
                               VipRipOp::SetWeight, VipRipOp::SetWeight,
                               VipRipOp::SetWeight, VipRipOp::RestoreVip};
  // Small id ranges so requests collide on VMs and apps.
  const auto footprint = [](const VipRipRequest& r, FootprintSet& fp) {
    fp.write(Kind::Vm, r.vm.value());
    if (r.op == VipRipOp::NewVip || r.op == VipRipOp::DeleteVip) {
      fp.write(Kind::App, r.app.value());
    } else {
      fp.read(Kind::App, r.app.value());
    }
  };
  SimTime now = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t timeouts = 0;
  for (int step = 0; step < ops; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                 std::to_string(step));
    const std::uint64_t pick = rng.uniformInt(1000);
    if (pick < 550) {
      VipRipRequest req;
      req.op = kOps[rng.uniformInt(std::size(kOps))];
      req.priority = kPriorities[rng.uniformInt(std::size(kPriorities))];
      req.app = AppId{static_cast<std::uint32_t>(rng.uniformInt(6))};
      req.vm = VmId{static_cast<std::uint32_t>(rng.uniformInt(12))};
      req.weight = rng.uniform(0.0, 100.0);
      // Half the SetWeights take the manager's path (coalesce first); the
      // rest queue directly, leaving duplicates for one VM.
      bool coalesced = false;
      if (req.op == VipRipOp::SetWeight && rng.bernoulli(0.5)) {
        coalesced = adm.coalesceSetWeight(req.vm, req.weight);
        ASSERT_EQ(coalesced, model.coalesceSetWeight(req.vm, req.weight));
      }
      if (!coalesced) {
        SortedDequeModel::Shed shed;
        SortedDequeModel::Shed want;
        const SubmitResult ref =
            model.offer(req, now, adm.effectiveBatchSize(), want);
        const SubmitResult got = adm.offer(
            std::move(req), now,
            [&shed](AdmissionController::Entry&& e, SimTime retryAfter) {
              shed.emplace_back(std::move(e), retryAfter);
            });
        ASSERT_EQ(got.accepted, ref.accepted);
        ASSERT_EQ(got.overloaded, ref.overloaded);
        ASSERT_EQ(got.retryAfterSeconds, ref.retryAfterSeconds);
        ASSERT_STREQ(got.code, ref.code);
        ASSERT_EQ(keysOf(shed), keysOf(want));
      }
    } else if (pick < 650) {
      const VmId vm{static_cast<std::uint32_t>(rng.uniformInt(12))};
      const double w = rng.uniform(0.0, 100.0);
      ASSERT_EQ(adm.coalesceSetWeight(vm, w), model.coalesceSetWeight(vm, w));
    } else if (pick < 800) {
      if (rng.bernoulli(0.2)) {
        // Swing the sender's timeout rate so brownout toggles.
        sent += 20;
        timeouts += rng.bernoulli(0.5) ? 10u : 0u;
        adm.observeSender(sent, timeouts, now);
      }
      const double scale =
          adm.brownoutActive() ? AdmissionController::kBrownoutDeadlineFactor
                               : 1.0;
      const std::size_t cap = adm.effectiveBatchSize();
      const auto got = adm.formRound(now, footprint);
      const auto ref = model.formRound(now, footprint, cap, scale);
      ASSERT_EQ(keysOf(got.batch), keysOf(ref.batch));
      ASSERT_EQ(keysOf(got.expired), keysOf(ref.expired));
      ASSERT_EQ(got.deferred, ref.deferred);
    } else if (pick < 990) {
      now += rng.uniform(0.0, 0.3);
    } else if (pick < 995) {
      ASSERT_EQ(keysOf(adm.drain()), keysOf(model.drain()));
    } else {
      adm.clearSilently();
      model.clearSilently();
    }
    ASSERT_EQ(adm.depth(), model.depth());
    for (const AdmissionClass cls :
         {AdmissionClass::Bulk, AdmissionClass::Capacity,
          AdmissionClass::Critical}) {
      ASSERT_EQ(adm.depthOf(cls), model.depthOf(cls));
    }
    ASSERT_EQ(adm.oldestAgeSeconds(now), model.oldestAgeSeconds(now));
  }
  ASSERT_EQ(keysOf(adm.drain()), keysOf(model.drain()));
  // Every path the lanes replace was taken.  (Serialized rounds rarely
  // get past the critical backlog to a stale entry.)
  EXPECT_GT(adm.coalesced(), 0u);
  if (opt.pipelined) {
    EXPECT_GT(adm.deadlineExpired(), 0u);
    EXPECT_GT(adm.conflictDeferred(), 0u);
  }
  if (opt.maxQueueDepth != 0) {
    EXPECT_GT(adm.shed(), adm.evictions());
    EXPECT_GT(adm.evictions(), 0u);
  }
}

AdmissionController::Options randomizedOptions() {
  AdmissionController::Options opt;
  opt.batchSize = 3;
  opt.bulkDeadlineSeconds = 3.0;
  opt.capacityDeadlineSeconds = 6.0;
  opt.brownoutWindowSeconds = 2.0;
  return opt;
}

TEST(AdmissionController, LanesMatchSortedDequeUnbounded) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    expectMatchesSortedDeque(randomizedOptions(), seed, 12'000);
  }
}

TEST(AdmissionController, LanesMatchSortedDequeBounded) {
  auto opt = randomizedOptions();
  opt.maxQueueDepth = 24;
  for (const std::uint64_t seed : {4u, 5u, 6u}) {
    expectMatchesSortedDeque(opt, seed, 12'000);
  }
}

TEST(AdmissionController, LanesMatchSortedDequeSerialized) {
  auto opt = randomizedOptions();
  opt.pipelined = false;
  opt.maxQueueDepth = 16;
  opt.bulkShare = 0.25;
  for (const std::uint64_t seed : {7u, 8u}) {
    expectMatchesSortedDeque(opt, seed, 12'000);
  }
}

// --- VipRipManager integration ---------------------------------------------

struct Fixture {
  Simulation sim;
  Topology topo;
  SwitchFleet fleet;
  AuthoritativeDns dns;
  RouteRegistry routes{2.0};
  AppRegistry apps;
  VipRipManager viprip;

  static TopologyConfig topoConfig() {
    TopologyConfig cfg;
    cfg.numServers = 8;
    cfg.numIsps = 2;
    cfg.accessLinksPerIsp = 1;
    cfg.numSwitches = 3;
    return cfg;
  }

  static SwitchLimits bigSwitch() {
    SwitchLimits lim;
    lim.maxVips = 32;
    lim.maxRips = 64;
    return lim;
  }

  explicit Fixture(VipRipManager::Options o = options())
      : topo(topoConfig()),
        viprip(sim, fleet, dns, routes, apps, topo, o) {
    for (int i = 0; i < 3; ++i) fleet.addSwitch(bigSwitch());
  }

  static VipRipManager::Options options() {
    VipRipManager::Options o;
    o.processSeconds = 0.1;
    o.reconfigSeconds = 1.0;
    return o;
  }
};

TEST(AdmissionIntegration, DisjointRequestsCommitInOneRound) {
  Fixture f;
  std::vector<double> doneAt;
  for (int i = 0; i < 3; ++i) {
    const AppId app = f.apps.create("a" + std::to_string(i), AppSla{}, 100.0);
    VipRipRequest req;
    req.op = VipRipOp::NewVip;
    req.app = app;
    req.done = [&f, &doneAt](Status s) {
      ASSERT_TRUE(s.ok());
      doneAt.push_back(f.sim.now());
    };
    EXPECT_TRUE(f.viprip.submit(std::move(req)).accepted);
  }
  f.sim.runUntil(1e6);
  // Different apps have disjoint footprints: one round, one decision
  // cost, all three land together at process + reconfig.
  ASSERT_EQ(doneAt.size(), 3u);
  for (const double t : doneAt) EXPECT_NEAR(t, 1.1, 1e-9);
  EXPECT_EQ(f.viprip.admissionTotals().rounds, 1u);
  EXPECT_EQ(f.viprip.admissionTotals().admitted, 3u);
}

TEST(AdmissionIntegration, ConflictingRequestsKeepSerializedTimeline) {
  Fixture f;
  const AppId app = f.apps.create("a", AppSla{}, 100.0);
  std::vector<double> doneAt;
  for (int i = 0; i < 3; ++i) {
    VipRipRequest req;
    req.op = VipRipOp::NewVip;
    req.app = app;
    req.done = [&f, &doneAt](Status s) {
      ASSERT_TRUE(s.ok());
      doneAt.push_back(f.sim.now());
    };
    EXPECT_TRUE(f.viprip.submit(std::move(req)).accepted);
  }
  f.sim.runUntil(1e6);
  // Same app: every footprint collides, so rounds degenerate to batches
  // of one — the exact timeline of the fully serialized seed queue.
  ASSERT_EQ(doneAt.size(), 3u);
  EXPECT_NEAR(doneAt[0], 1.1, 1e-9);
  EXPECT_NEAR(doneAt[1], 1.2, 1e-9);
  EXPECT_NEAR(doneAt[2], 1.3, 1e-9);
  EXPECT_GE(f.viprip.admissionTotals().deferred, 2u);
}

TEST(AdmissionIntegration, ShedRequestSettlesWithOverloaded) {
  auto o = Fixture::options();
  o.admission.maxQueueDepth = 2;
  o.admission.bulkShare = 1.0;
  Fixture f(o);
  const AppId app = f.apps.create("a", AppSla{}, 100.0);

  int ok = 0, overloaded = 0;
  auto submitOne = [&] {
    VipRipRequest req;
    req.op = VipRipOp::NewVip;
    req.app = app;
    req.done = [&](Status s) {
      if (s.ok()) {
        ++ok;
      } else if (s.error().code == "overloaded") {
        ++overloaded;
      }
    };
    return f.viprip.submit(std::move(req));
  };
  EXPECT_TRUE(submitOne().accepted);
  EXPECT_TRUE(submitOne().accepted);
  const auto third = submitOne();
  EXPECT_FALSE(third.accepted);
  EXPECT_TRUE(third.overloaded);
  EXPECT_GT(third.retryAfterSeconds, 0.0);
  EXPECT_EQ(overloaded, 1);  // settled synchronously at submit

  f.sim.runUntil(1e6);
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(f.viprip.admissionTotals().shed, 1u);
}

TEST(AdmissionIntegration, DeadlineExpiredSettlesAsRejection) {
  auto o = Fixture::options();
  o.admission.capacityDeadlineSeconds = 0.45;
  Fixture f(o);
  const AppId app = f.apps.create("a", AppSla{}, 100.0);

  int ok = 0, expired = 0;
  for (int i = 0; i < 8; ++i) {
    VipRipRequest req;
    req.op = VipRipOp::NewVip;
    req.app = app;
    req.done = [&](Status s) {
      if (s.ok()) {
        ++ok;
      } else if (s.error().code == "deadline_expired") {
        ++expired;
      }
    };
    EXPECT_TRUE(f.viprip.submit(std::move(req)).accepted);
  }
  f.sim.runUntil(1e6);
  // Conflicting NewVips drain one per 0.1s round; entries older than the
  // 0.45s budget at round formation are rejected instead of applied.
  EXPECT_GT(expired, 0);
  EXPECT_EQ(ok + expired, 8);
  EXPECT_EQ(f.viprip.admissionTotals().expired,
            static_cast<std::uint64_t>(expired));
  const auto& byCode = f.viprip.rejectionsByCode();
  ASSERT_TRUE(byCode.contains("deadline_expired"));
  EXPECT_EQ(byCode.at("deadline_expired"),
            static_cast<std::uint64_t>(expired));
}

TEST(AdmissionIntegration, AdmissionTotalsReplayBitIdentical) {
  Fixture f;
  for (int i = 0; i < 4; ++i) {
    const AppId app = f.apps.create("a" + std::to_string(i), AppSla{}, 100.0);
    VipRipRequest req;
    req.op = VipRipOp::NewVip;
    req.app = app;
    EXPECT_TRUE(f.viprip.submit(std::move(req)).accepted);
  }
  f.sim.runUntil(1e6);

  const auto before = f.viprip.admissionTotals();
  EXPECT_GT(before.rounds, 0u);
  EXPECT_EQ(before.admitted, 4u);
  const std::uint64_t hashBefore = f.viprip.stateMachine().stateHash();

  // Replay the write-ahead journal from scratch: the durable admission
  // aggregates — part of the hashed state — must come back bit-identical.
  f.viprip.rebuildIntentFromJournal();
  const auto after = f.viprip.admissionTotals();
  EXPECT_EQ(after.rounds, before.rounds);
  EXPECT_EQ(after.admitted, before.admitted);
  EXPECT_EQ(after.shed, before.shed);
  EXPECT_EQ(after.expired, before.expired);
  EXPECT_EQ(after.deferred, before.deferred);
  EXPECT_EQ(f.viprip.stateMachine().stateHash(), hashBefore);
}

TEST(AdmissionIntegration, CrashCancelsQueuedAndTotalsSurvive) {
  Fixture f;
  const AppId app = f.apps.create("a", AppSla{}, 100.0);
  int cancelled = 0;
  for (int i = 0; i < 3; ++i) {
    VipRipRequest req;
    req.op = VipRipOp::NewVip;
    req.app = app;
    req.done = [&](Status s) {
      if (!s.ok() && s.error().code == "cancelled") ++cancelled;
    };
    EXPECT_TRUE(f.viprip.submit(std::move(req)).accepted);
  }
  f.viprip.crash();
  EXPECT_EQ(cancelled, 3);
  EXPECT_EQ(f.viprip.queueLength(), 0u);
  // A submission into the dead manager is refused, not queued.
  VipRipRequest req;
  req.op = VipRipOp::NewVip;
  req.app = app;
  bool refused = false;
  req.done = [&](Status s) {
    refused = !s.ok() && s.error().code == "manager_down";
  };
  const auto res = f.viprip.submit(std::move(req));
  EXPECT_FALSE(res.accepted);
  EXPECT_TRUE(refused);

  f.viprip.recoverAsLeader(2);
  EXPECT_TRUE(f.viprip.online());
  f.sim.runUntil(1e6);
}

}  // namespace
}  // namespace mdc
