#include "mdc/ctrl/admission.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

#include "mdc/util/expect.hpp"

namespace mdc {

const char* toString(AdmissionClass cls) noexcept {
  switch (cls) {
    case AdmissionClass::Bulk:
      return "bulk";
    case AdmissionClass::Capacity:
      return "capacity";
    case AdmissionClass::Critical:
      return "critical";
  }
  return "?";
}

SimTime retryBackoff(std::uint32_t attempt) {
  return std::min(60.0, 5.0 * std::pow(2.0, static_cast<double>(attempt)));
}

bool FootprintSet::conflictsWith(const FootprintSet& other) const {
  // Iterate the smaller side; a shared key conflicts iff either side
  // writes it (read/read sharing commutes).
  const FootprintSet& small = size() <= other.size() ? *this : other;
  const FootprintSet& big = size() <= other.size() ? other : *this;
  for (const auto& [k, bits] : small.marks_) {
    const auto it = big.marks_.find(k);
    if (it == big.marks_.end()) continue;
    if (((bits | it->second) & kWrite) != 0) return true;
  }
  return false;
}

void FootprintSet::merge(const FootprintSet& other) {
  for (const auto& [k, bits] : other.marks_) marks_[k] |= bits;
}

AdmissionController::AdmissionController(Options options,
                                         SimTime roundSeconds)
    : options_(options), roundSeconds_(roundSeconds) {
  MDC_EXPECT(options_.batchSize >= 1, "batch size must be at least 1");
  MDC_EXPECT(options_.bulkShare >= 0.0 && options_.bulkShare <= 1.0,
             "bulk share must be a fraction");
}

AdmissionClass AdmissionController::classify(const VipRipRequest& req) const {
  if (req.op == VipRipOp::RestoreVip ||
      req.priority >= kCriticalPriority) {
    return AdmissionClass::Critical;
  }
  if (req.op == VipRipOp::SetWeight) return AdmissionClass::Bulk;
  return AdmissionClass::Capacity;
}

SimTime AdmissionController::budgetFor(AdmissionClass cls) const noexcept {
  switch (cls) {
    case AdmissionClass::Bulk:
      return options_.bulkDeadlineSeconds;
    case AdmissionClass::Capacity:
      return options_.capacityDeadlineSeconds;
    case AdmissionClass::Critical:
      return 0.0;  // repair work stays valid until it lands
  }
  return 0.0;
}

void AdmissionController::enqueue(Entry entry) {
  Lane& lane = lanes_[entry.req.priority];
  MDC_EXPECT(lane.empty() || lane.back().submitted <= entry.submitted,
             "admission offers must not go back in time");
  ++classDepth_[static_cast<std::size_t>(entry.cls)];
  ++depth_;
  if (entry.req.op == VipRipOp::SetWeight) {
    setWeights_.insert(weightKey(entry));
  }
  lane.push_back(std::move(entry));
}

void AdmissionController::noteRemoved(const Entry& e) {
  --classDepth_[static_cast<std::size_t>(e.cls)];
  --depth_;
  if (e.req.op == VipRipOp::SetWeight) setWeights_.erase(weightKey(e));
}

SubmitResult AdmissionController::offer(VipRipRequest&& req, SimTime now,
                                        const ShedFn& onShed) {
  Entry entry;
  entry.cls = classify(req);
  entry.req = std::move(req);
  entry.seq = nextSeq_++;
  entry.submitted = now;
  entry.budget = budgetFor(entry.cls);

  const std::size_t bound = options_.maxQueueDepth;
  if (bound == 0) {
    enqueue(std::move(entry));
    ++admitted_;
    return SubmitResult{};
  }

  const SimTime retryAfter = retryAfterHint();
  const auto shedThis = [&]() -> SubmitResult {
    ++shedByClass_[static_cast<std::size_t>(entry.cls)];
    ++pendingShed_;
    if (onShed) onShed(std::move(entry), retryAfter);
    return SubmitResult{false, true, retryAfter, "overloaded"};
  };

  switch (entry.cls) {
    case AdmissionClass::Critical: {
      // Never shed.  A full queue evicts its newest bulk entry — the
      // last one in queue order, found walking the lanes from the back;
      // the displaced resize retries after the storm, the repair cannot.
      if (depth_ >= bound &&
          classDepth_[static_cast<std::size_t>(AdmissionClass::Bulk)] > 0) {
        for (auto lane = lanes_.rbegin(); lane != lanes_.rend(); ++lane) {
          Lane& q = lane->second;
          const auto it =
              std::find_if(q.rbegin(), q.rend(), [](const Entry& e) {
                return e.cls == AdmissionClass::Bulk;
              });
          if (it == q.rend()) continue;
          Entry evicted = std::move(*it);
          noteRemoved(evicted);
          q.erase(std::next(it).base());
          if (q.empty()) lanes_.erase(std::next(lane).base());
          ++evictions_;
          ++shedByClass_[static_cast<std::size_t>(AdmissionClass::Bulk)];
          ++pendingShed_;
          if (onShed) onShed(std::move(evicted), retryAfter);
          break;
        }
      }
      break;
    }
    case AdmissionClass::Capacity: {
      if (depth_ >= bound) return shedThis();
      break;
    }
    case AdmissionClass::Bulk: {
      const auto bulkCap = static_cast<std::size_t>(
          options_.bulkShare * static_cast<double>(bound));
      if (depth_ >= bound ||
          classDepth_[static_cast<std::size_t>(AdmissionClass::Bulk)] >=
              std::max<std::size_t>(1, bulkCap)) {
        return shedThis();
      }
      break;
    }
  }
  enqueue(std::move(entry));
  ++admitted_;
  return SubmitResult{};
}

bool AdmissionController::coalesceSetWeight(VmId vm, double weight) {
  const auto key = setWeights_.lower_bound(
      WeightKey{vm, std::numeric_limits<std::int64_t>::min(), 0});
  if (key == setWeights_.end() || std::get<0>(*key) != vm) return false;
  Lane& lane = lanes_.at(static_cast<int>(-std::get<1>(*key)));
  const std::uint64_t seq = std::get<2>(*key);
  const auto it = std::lower_bound(
      lane.begin(), lane.end(), seq,
      [](const Entry& e, std::uint64_t s) { return e.seq < s; });
  MDC_ENSURE(it != lane.end() && it->seq == seq,
             "SetWeight index out of sync with its lane");
  it->req.weight = weight;
  ++coalesced_;
  return true;
}

AdmissionController::Round AdmissionController::formRound(
    SimTime now, const FootprintFn& footprintOf) {
  Round round;
  if (depth_ == 0) return round;
  const std::size_t cap = effectiveBatchSize();
  const double scale = brownout_ ? kBrownoutDeadlineFactor : 1.0;
  // One claimed set covers both batched and deferred footprints: a
  // request conflicting with a *deferred* one must wait too, or it would
  // overtake an earlier request on a shared key.
  FootprintSet claimed;
  FootprintSet fp;
  for (auto lane = lanes_.begin();
       lane != lanes_.end() && round.batch.size() < cap;) {
    Lane& q = lane->second;
    for (auto it = q.begin(); it != q.end() && round.batch.size() < cap;) {
      if (it->budget > 0.0 && now - it->submitted > it->budget * scale) {
        noteRemoved(*it);
        ++deadlineExpired_;
        round.expired.push_back(std::move(*it));
        it = q.erase(it);
        continue;
      }
      fp.clear();
      if (footprintOf) footprintOf(it->req, fp);
      if (options_.pipelined && fp.conflictsWith(claimed)) {
        claimed.merge(fp);
        ++round.deferred;
        ++conflictDeferred_;
        ++it;
        continue;
      }
      claimed.merge(fp);
      noteRemoved(*it);
      round.batch.push_back(std::move(*it));
      it = q.erase(it);
    }
    lane = q.empty() ? lanes_.erase(lane) : std::next(lane);
  }
  if (!round.batch.empty() || !round.expired.empty()) ++rounds_;
  return round;
}

void AdmissionController::observeSender(std::uint64_t commandsSent,
                                        std::uint64_t timeouts, SimTime now) {
  if (windowStart_ < 0.0) {
    windowStart_ = now;
    windowSent_ = commandsSent;
    windowTimeouts_ = timeouts;
    return;
  }
  if (now - windowStart_ < options_.brownoutWindowSeconds) return;
  const std::uint64_t dSent = commandsSent - windowSent_;
  const std::uint64_t dTimeout = timeouts - windowTimeouts_;
  const double rate =
      dSent == 0 ? 0.0
                 : static_cast<double>(dTimeout) / static_cast<double>(dSent);
  if (!brownout_ && dSent > 0 &&
      rate >= options_.brownoutEnterTimeoutRate) {
    brownout_ = true;
    ++brownoutEntries_;
  } else if (brownout_ && rate <= options_.brownoutExitTimeoutRate) {
    brownout_ = false;
  }
  windowStart_ = now;
  windowSent_ = commandsSent;
  windowTimeouts_ = timeouts;
}

std::vector<AdmissionController::Entry> AdmissionController::drain() {
  std::vector<Entry> out;
  out.reserve(depth_);
  for (auto& [priority, lane] : lanes_) {
    std::move(lane.begin(), lane.end(), std::back_inserter(out));
  }
  clearSilently();
  return out;
}

void AdmissionController::clearSilently() {
  lanes_.clear();
  setWeights_.clear();
  depth_ = 0;
  for (std::size_t& d : classDepth_) d = 0;
}

std::uint32_t AdmissionController::takeShedDelta() noexcept {
  return std::exchange(pendingShed_, 0u);
}

SimTime AdmissionController::oldestAgeSeconds(SimTime now) const noexcept {
  // Each lane's front is its oldest entry (offers never go back in time).
  SimTime oldest = 0.0;
  for (const auto& [priority, lane] : lanes_) {
    oldest = std::max(oldest, now - lane.front().submitted);
  }
  return oldest;
}

std::size_t AdmissionController::effectiveBatchSize() const noexcept {
  if (!options_.pipelined) return 1;
  const std::size_t batch = options_.batchSize;
  return brownout_ ? std::max<std::size_t>(1, batch / 2) : batch;
}

bool AdmissionController::overloaded() const noexcept {
  if (options_.maxQueueDepth == 0) return false;
  return depth_ * 5 >= options_.maxQueueDepth * 4;
}

SimTime AdmissionController::retryAfterHint() const noexcept {
  const auto eff = static_cast<double>(effectiveBatchSize());
  const double roundsToDrain =
      static_cast<double>(depth_) / std::max(1.0, eff) + 1.0;
  return std::clamp(roundsToDrain * roundSeconds_, kMinRetryAfterSeconds,
                    kMaxRetryAfterSeconds);
}

std::uint64_t AdmissionController::shed() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t s : shedByClass_) total += s;
  return total;
}

}  // namespace mdc
