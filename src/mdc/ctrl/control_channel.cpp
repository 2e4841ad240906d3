#include "mdc/ctrl/control_channel.hpp"

#include <utility>

namespace mdc {

namespace {
/// A reordered message is held back an extra uniform [0, this) seconds.
constexpr SimTime kReorderDelaySeconds = 2.0;
}  // namespace

void ControlChannel::setPartitioned(SwitchId sw, bool partitioned) {
  if (partitioned) {
    partitioned_.insert(sw);
  } else {
    partitioned_.erase(sw);
  }
}

void ControlChannel::send(SwitchId sw, std::function<void()> deliver,
                          TraceId trace, SpanId span) {
  ++sent_;
  if (partitioned_.contains(sw)) {
    ++dropped_;
    if (tracer_ != nullptr) {
      tracer_->record(trace, span, 0, HopKind::ChanDrop, "partition",
                      sw.index());
    }
    return;
  }
  if (faults_.reliable()) {
    deliver();
    return;
  }
  if (rng_.bernoulli(faults_.dropRate)) {
    ++dropped_;
    if (tracer_ != nullptr) {
      tracer_->record(trace, span, 0, HopKind::ChanDrop, "drop", sw.index());
    }
    return;
  }
  const bool duplicate = rng_.bernoulli(faults_.duplicateRate);
  const bool reorder = rng_.bernoulli(faults_.reorderRate);
  if (duplicate) {
    ++duplicated_;
    if (tracer_ != nullptr) {
      tracer_->record(trace, span, 0, HopKind::ChanDuplicate, nullptr,
                      sw.index());
    }
    dispatch(deliver, reorder);
  }
  if (reorder) {
    ++reordered_;
    if (tracer_ != nullptr) {
      tracer_->record(trace, span, 0, HopKind::ChanReorder, nullptr,
                      sw.index());
    }
  }
  dispatch(std::move(deliver), reorder);
}

void ControlChannel::dispatch(std::function<void()> deliver, bool reordered) {
  SimTime delay = faults_.delaySeconds;
  if (faults_.delayJitterSeconds > 0.0) {
    delay += rng_.uniform(0.0, faults_.delayJitterSeconds);
  }
  if (reordered) {
    // Held back long enough that messages sent later overtake it.
    delay += rng_.uniform(0.0, kReorderDelaySeconds);
  }
  sim_.after(delay, std::move(deliver));
}

}  // namespace mdc
