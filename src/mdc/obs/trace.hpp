// Causal command tracing for the control plane.
//
// A trace follows one VIP/RIP request from its submission at the global
// manager through every hop of every switch command it fans out into:
// sender attempts, channel verdicts (drop / duplicate / reorder), agent
// application or refusal, the ack's way back, and the final completion.
// Retries, duplicate deliveries, stale-term refusals, and cancellations
// all appear as events on the same span, so any VIP transfer or failover
// can be replayed as a span tree after the fact.
//
// Event model:
//  * a TraceId groups everything caused by one request (or one
//    reconciler repair);
//  * a span is one unit of async work within the trace — span 0 never
//    exists, the request itself is the root span, and each switch
//    command gets a child span whose parent is the request's span;
//  * every event carries the hop kind, sim-time timestamp, two
//    uint64 attributes (hop-specific: seq/term, switch/attempt), and a
//    short status code.
//
// Events land in a fixed-capacity lock-free ring buffer: recording is a
// relaxed fetch_add plus a slot write, so tracing can stay compiled in
// at near-zero cost and simply be disabled (Tracer::setEnabled) when not
// wanted.  When the ring wraps, the oldest events are overwritten and
// counted — exporters can tell a complete trace from a truncated one.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "mdc/sim/simulation.hpp"

namespace mdc {

/// Groups all events caused by one request; 0 = not traced.
using TraceId = std::uint64_t;
/// One unit of async work within a trace; 0 = no span / root parent.
using SpanId = std::uint32_t;

enum class HopKind : std::uint8_t {
  // Request-level hops (root span).
  RequestSubmitted,  // accepted into the serialized queue; code = op
  RequestRefused,    // refused at submit; code = error ("manager_down")
  RequestApplied,    // dequeued, decision applied; code = op
  RequestDone,       // request completion; code = status ("ok"/error)
  RequestShed,       // load-shed at admission (terminal for the request
                     // span; no command spans follow); a=class, b=retry-after

  // Command-level hops (child span per switch command).
  CmdSend,      // handed to the sender; a=seq, b=term, code = kind
  CmdTransmit,  // one attempt on the wire; a=seq, b=attempt
  ChanDrop,     // the channel lost this copy
  ChanDuplicate,  // the channel added a second copy
  ChanReorder,    // this copy was held back past later sends
  AgentApplied,   // first delivery: tables mutated; code = outcome
  AgentDuplicate,  // retransmit re-acked (or silently dropped) by dedupe
  AgentStaleTerm,  // fencing refusal: command from a deposed term
  AckReceived,     // the sender matched the ack; code = outcome

  // Command-terminal hops: exactly one per command span.
  CmdAcked,      // completion by ack; code = outcome ("acked" if ok)
  CmdCancelled,  // completion by cancelInflight()/beginTerm()
  CmdStaleTerm,  // completion by a stale_term refusal ack
  CmdTimeout,    // sender gave up; the reconciler owns what's left

  // Anti-entropy hops.
  ReconcileAdopt,   // reconciler adopted actual state; code = what
  ReconcileRepair,  // reconciler issued a repair command; code = kind

  // Durable-state hops (E17).
  SnapshotTaken,     // whole-DC snapshot landed; a=index, b=compacted
  SnapshotRejected,  // invalid snapshot(s) skipped on recovery; a=count
  StateRecovered,    // snapshot+tail recovery done; a=replayed, b=cut bytes

  // Session data plane hops (E19): VIP drains and connection migrations.
  SessionDrainStart,  // quiescent drain began; a=vip, b=from-switch
  SessionDrainDone,   // drain settled; code=outcome, a=vip, b=to-switch
  SessionConnBroken,  // one connection severed mid-flight; a=session, b=rip
};

[[nodiscard]] const char* toString(HopKind hop) noexcept;

/// Whether the hop settles a command span (exactly one per span).
[[nodiscard]] constexpr bool isCommandTerminal(HopKind hop) noexcept {
  return hop == HopKind::CmdAcked || hop == HopKind::CmdCancelled ||
         hop == HopKind::CmdStaleTerm || hop == HopKind::CmdTimeout;
}

struct TraceEvent {
  TraceId trace = 0;
  SpanId span = 0;
  SpanId parent = 0;
  HopKind hop = HopKind::RequestSubmitted;
  SimTime at = 0.0;
  std::uint64_t a = 0;  // hop-specific: seq, switch id, ...
  std::uint64_t b = 0;  // hop-specific: term, attempt, ...
  char code[24] = {};   // status / op; the longest code is 21 chars

  /// Copies `s`, cut to the first sizeof(code) - 1 characters.
  void setCode(const char* s) noexcept {
    const std::string_view text =
        std::string_view(s == nullptr ? "" : s).substr(0, sizeof(code) - 1);
    text.copy(code, text.size());
    code[text.size()] = '\0';
  }
};

/// Fixed-capacity lock-free event ring.  Writers claim slots with a
/// relaxed fetch_add (safe from any thread); reading a consistent
/// snapshot is only meaningful while no writer is active — in this
/// codebase all control-plane recording happens on the (single-threaded)
/// simulation loop, so snapshot() between events is always consistent.
class TraceRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit TraceRing(std::size_t capacity);

  void push(const TraceEvent& e) noexcept {
    const std::uint64_t i = head_.fetch_add(1, std::memory_order_relaxed);
    slots_[i & mask_] = e;
  }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.size();
  }
  /// Events ever pushed.
  [[nodiscard]] std::uint64_t total() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }
  /// Events still held (min(total, capacity)).
  [[nodiscard]] std::size_t size() const noexcept;
  /// Events lost to wrap-around (total - size).
  [[nodiscard]] std::uint64_t overwritten() const noexcept;

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  void clear() noexcept { head_.store(0, std::memory_order_relaxed); }

 private:
  std::vector<TraceEvent> slots_;
  std::uint64_t mask_;
  std::atomic<std::uint64_t> head_{0};
};

/// Mints trace/span ids and records hops into the ring.  Disabled (the
/// default) it mints no ids and records nothing, so a world built with a
/// tracer attached but not enabled behaves — and allocates — exactly
/// like one without.
class Tracer {
 public:
  struct Options {
    std::size_t ringCapacity = 1u << 16;
    bool enabled = false;
  };

  Tracer(Simulation& sim, Options options)
      : sim_(sim), ring_(options.ringCapacity), enabled_(options.enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void setEnabled(bool on) noexcept { enabled_ = on; }

  /// Mints a fresh trace id (0 when disabled — callers propagate the 0
  /// and every record() on it is a no-op).
  [[nodiscard]] TraceId begin() noexcept {
    return enabled_ ? ++lastTrace_ : 0;
  }
  /// Mints a span id, unique across the tracer's lifetime.
  [[nodiscard]] SpanId newSpan() noexcept {
    return enabled_ ? ++lastSpan_ : 0;
  }

  void record(TraceId trace, SpanId span, SpanId parent, HopKind hop,
              const char* code = nullptr, std::uint64_t a = 0,
              std::uint64_t b = 0) noexcept {
    if (!enabled_ || trace == 0) return;
    TraceEvent e;
    e.trace = trace;
    e.span = span;
    e.parent = parent;
    e.hop = hop;
    e.at = sim_.now();
    e.a = a;
    e.b = b;
    e.setCode(code);
    ring_.push(e);
  }

  [[nodiscard]] const TraceRing& ring() const noexcept { return ring_; }
  [[nodiscard]] TraceRing& ring() noexcept { return ring_; }

 private:
  Simulation& sim_;
  TraceRing ring_;
  bool enabled_;
  TraceId lastTrace_ = 0;
  std::atomic<SpanId> lastSpan_{0};
};

}  // namespace mdc
