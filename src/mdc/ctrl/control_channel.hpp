// The (unreliable) control channel between the global manager and the LB
// switches.
//
// The seed model assumed config commands reach switches losslessly, in
// order, exactly once — an assumption no 300k-server control plane can
// make.  This channel models one logical link per switch that can drop,
// delay, duplicate, and reorder messages, with all randomness drawn from
// one seeded Rng so every faulty run replays bit-identically.  A link can
// also be *partitioned* (everything dropped) by the FaultInjector.
//
// With every fault rate at zero and no partition (the default), messages
// are delivered synchronously inline — byte-for-byte the seed's lossless
// behavior, including event ordering and completion times.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "mdc/obs/trace.hpp"
#include "mdc/sim/rng.hpp"
#include "mdc/sim/simulation.hpp"
#include "mdc/util/ids.hpp"

namespace mdc {

/// Fault model of one direction of a control link.  Rates are per
/// message; delays only apply on a non-reliable channel.
struct ChannelFaults {
  double dropRate = 0.0;       // P(message lost entirely)
  double duplicateRate = 0.0;  // P(a second copy is also delivered)
  double reorderRate = 0.0;    // P(held back [0, 2) s past later sends)
  SimTime delaySeconds = 0.0;  // base one-way latency of each copy
  SimTime delayJitterSeconds = 0.0;  // extra uniform [0, jitter)

  /// True when the channel behaves exactly like the seed's in-process
  /// calls: no loss, no duplication, no delay.
  [[nodiscard]] bool reliable() const noexcept {
    return dropRate == 0.0 && duplicateRate == 0.0 && reorderRate == 0.0 &&
           delaySeconds == 0.0 && delayJitterSeconds == 0.0;
  }
};

class ControlChannel {
 public:
  ControlChannel(Simulation& sim, std::uint64_t seed)
      : sim_(sim), rng_(seed) {}

  /// Fault rates applied to every link (both directions).
  void setFaults(const ChannelFaults& faults) { faults_ = faults; }
  [[nodiscard]] const ChannelFaults& faults() const noexcept {
    return faults_;
  }

  /// Full partition of one switch's control link: every message in either
  /// direction is dropped until the partition heals.
  void setPartitioned(SwitchId sw, bool partitioned);
  [[nodiscard]] bool isPartitioned(SwitchId sw) const {
    return partitioned_.contains(sw);
  }
  [[nodiscard]] std::size_t partitionedLinks() const noexcept {
    return partitioned_.size();
  }

  /// Sends a message over `sw`'s link; `deliver` runs when (each copy of)
  /// the message arrives.  On a reliable, unpartitioned link this calls
  /// `deliver` inline.  The optional trace context lets the channel record
  /// its verdict (drop / duplicate / reorder) on the message's span; it
  /// never changes delivery behavior or randomness.
  void send(SwitchId sw, std::function<void()> deliver, TraceId trace = 0,
            SpanId span = 0);

  /// Attach (or detach with nullptr) the tracer channel verdicts go to.
  void setTracer(Tracer* tracer) noexcept { tracer_ = tracer; }

  // --- introspection ------------------------------------------------------

  [[nodiscard]] std::uint64_t messagesSent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t messagesDropped() const noexcept {
    return dropped_;
  }
  [[nodiscard]] std::uint64_t messagesDuplicated() const noexcept {
    return duplicated_;
  }
  [[nodiscard]] std::uint64_t messagesReordered() const noexcept {
    return reordered_;
  }

 private:
  void dispatch(std::function<void()> deliver, bool reordered);

  Simulation& sim_;
  Rng rng_;
  ChannelFaults faults_;
  Tracer* tracer_ = nullptr;
  std::unordered_set<SwitchId> partitioned_;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t reordered_ = 0;
};

}  // namespace mdc
