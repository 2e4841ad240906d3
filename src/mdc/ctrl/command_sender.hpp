// Manager-side endpoint of the control channel: at-least-once delivery
// with acks, timeouts, and exponential-backoff retransmits.
//
// Together with the SwitchAgent's sequence-number dedupe this makes every
// command's *application* exactly-once: the sender retransmits until it
// sees an ack (at-least-once delivery), the agent applies each seq at
// most once.  Each send's completion callback fires exactly once, with
// the switch's outcome — or with "ctrl_timeout" if `maxAttempts` is set
// and exhausted (the command may still land later; the anti-entropy
// reconciler owns whatever state that leaves behind).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "mdc/ctrl/command.hpp"
#include "mdc/ctrl/control_channel.hpp"
#include "mdc/ctrl/switch_agent.hpp"
#include "mdc/sim/rng.hpp"
#include "mdc/sim/simulation.hpp"

namespace mdc {

class CommandSender {
 public:
  struct Options {
    /// Retransmit timer of the first attempt; doubles per attempt.
    SimTime ackTimeoutSeconds = 2.0;
    SimTime maxBackoffSeconds = 30.0;
    /// Attempts before giving up with "ctrl_timeout"; 0 = never give up.
    std::uint32_t maxAttempts = 8;
    /// Multiplicative retransmit jitter: each armed retry timer is
    /// scaled by a uniform factor in [1-j, 1+j].  Applied *outside* the
    /// max-backoff clamp, so links stay decorrelated even once their
    /// deterministic backoff saturates — a mass timeout (partition heal,
    /// switch reboot) must not resynchronize every link into one retry
    /// storm.  0 disables jitter.  Must be < 1.
    double backoffJitter = 0.1;
    /// Base seed of the per-link jitter streams.  Each link derives an
    /// independent stream from (seed, switch id), so one link's retry
    /// count never perturbs another's schedule.
    std::uint64_t jitterSeed = 0x6a177e50c3b1u;
  };

  using Completion = std::function<void(Status)>;

  CommandSender(Simulation& sim, ControlChannel& channel, SwitchFleet& fleet,
                Options options);

  /// Sends `cmd` to `sw`; `done` fires exactly once with the outcome.
  /// On a reliable channel the whole round trip completes inline.
  /// The command is stamped with the current leadership term.  If
  /// `cmd.trace` is set, the command gets its own span (child of
  /// `cmd.parentSpan`) and every attempt, ack, and its terminal
  /// completion are recorded on it.
  void send(SwitchId sw, SwitchCommand cmd, Completion done);

  /// Attach (or detach with nullptr) the tracer; forwarded to every
  /// switch agent, including ones created after this call.
  void setTracer(Tracer* tracer);

  /// Cancels every in-flight command: retry timers are disarmed and each
  /// completion fires exactly once with "cancelled", in (switch id, seq)
  /// order.  Used when the issuing manager dies — nothing may keep
  /// retrying into a dead term.
  void cancelInflight();

  /// Starts a new leadership term (must be strictly greater than the
  /// current one): cancels any leftover in-flight commands and restarts
  /// every link's sequence space from zero.  Agents adopt the new term on
  /// first contact and fence out anything older.
  void beginTerm(std::uint64_t term);

  [[nodiscard]] std::uint64_t currentTerm() const noexcept { return term_; }

  /// Whether any command touching `vip` is still awaiting its ack.  The
  /// reconciler skips busy VIPs: their state is mid-flight, not drifted.
  [[nodiscard]] bool vipBusy(VipId vip) const noexcept {
    const std::size_t i = vip.index();
    return i < busyVips_.size() && busyVips_[i] > 0;
  }

  // --- introspection ------------------------------------------------------

  [[nodiscard]] std::uint32_t inflight() const noexcept { return inflight_; }
  [[nodiscard]] std::uint64_t commandsSent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t acksReceived() const noexcept { return acks_; }
  [[nodiscard]] std::uint64_t retransmits() const noexcept {
    return retransmits_;
  }
  [[nodiscard]] std::uint64_t timeouts() const noexcept { return timeouts_; }
  /// Commands cancelled by `cancelInflight()`/`beginTerm()`.
  [[nodiscard]] std::uint64_t cancelledCommands() const noexcept {
    return cancelled_;
  }
  /// Sum of stale-term rejections across all switch agents.
  [[nodiscard]] std::uint64_t staleTermRejections() const noexcept;
  /// Highest term any attached agent has adopted (≤ currentTerm()).
  [[nodiscard]] std::uint64_t maxAgentTerm() const noexcept;

  /// The switch-side endpoint of `sw`'s link (tests, drift probes).
  [[nodiscard]] SwitchAgent& agentOf(SwitchId sw);

 private:
  struct Outstanding {
    SwitchCommand cmd;
    Completion done;
    VipId vip;
    std::uint32_t attempt = 0;
    EventHandle retryTimer;
  };
  struct Link {
    std::unique_ptr<SwitchAgent> agent;
    /// Per-link jitter stream (seeded from options + switch id).
    std::optional<Rng> jitter;
    std::uint64_t nextSeq = 0;
    /// Every seq below this has been completed (acked or timed out);
    /// piggybacked on sends so the agent can prune its outcome cache.
    std::uint64_t ackedBelow = 0;
    /// Ordered so ackedBelow is the smallest outstanding seq.
    std::map<std::uint64_t, Outstanding> outstanding;
  };

  Link& link(SwitchId sw);
  void transmit(SwitchId sw, std::uint64_t seq);
  void armRetry(SwitchId sw, std::uint64_t seq);
  void onAck(SwitchId sw, const CommandAck& ack);
  void complete(SwitchId sw, std::uint64_t seq, Status outcome);

  Simulation& sim_;
  ControlChannel& channel_;
  SwitchFleet& fleet_;
  Options options_;
  Tracer* tracer_ = nullptr;
  std::map<SwitchId, Link> links_;
  /// Commands awaiting their ack, per VIP index (VIP ids are dense).
  std::vector<std::uint32_t> busyVips_;
  std::uint32_t inflight_ = 0;
  std::uint64_t term_ = 1;
  std::uint64_t sent_ = 0;
  std::uint64_t acks_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t cancelled_ = 0;
};

}  // namespace mdc
