#include "mdc/ctrl/command_sender.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "mdc/util/expect.hpp"

namespace mdc {

CommandSender::CommandSender(Simulation& sim, ControlChannel& channel,
                             SwitchFleet& fleet, Options options)
    : sim_(sim), channel_(channel), fleet_(fleet), options_(options) {
  MDC_EXPECT(options.ackTimeoutSeconds > 0.0, "ack timeout must be positive");
  MDC_EXPECT(options.maxBackoffSeconds >= options.ackTimeoutSeconds,
             "max backoff below first timeout");
  MDC_EXPECT(options.backoffJitter >= 0.0 && options.backoffJitter < 1.0,
             "backoff jitter must be in [0, 1)");
}

CommandSender::Link& CommandSender::link(SwitchId sw) {
  auto it = links_.find(sw);
  if (it == links_.end()) {
    it = links_.emplace(sw, Link{}).first;
    it->second.agent = std::make_unique<SwitchAgent>(fleet_, sw);
    it->second.agent->setTracer(tracer_);
    it->second.jitter.emplace(
        options_.jitterSeed ^
        (0x9e3779b97f4a7c15ull * (std::uint64_t{sw.value()} + 1)));
  }
  return it->second;
}

void CommandSender::setTracer(Tracer* tracer) {
  tracer_ = tracer;
  for (auto& [sw, l] : links_) l.agent->setTracer(tracer);
}

SwitchAgent& CommandSender::agentOf(SwitchId sw) { return *link(sw).agent; }

std::uint64_t CommandSender::staleTermRejections() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [sw, l] : links_) total += l.agent->staleTermRejections();
  return total;
}

std::uint64_t CommandSender::maxAgentTerm() const noexcept {
  std::uint64_t best = 0;
  for (const auto& [sw, l] : links_) best = std::max(best, l.agent->term());
  return best;
}

void CommandSender::cancelInflight() {
  // Collect keys first: complete() mutates the maps, and a completion
  // callback may reentrantly submit (and immediately settle) commands.
  std::vector<std::pair<SwitchId, std::uint64_t>> pending;
  for (const auto& [sw, l] : links_) {
    for (const auto& [seq, out] : l.outstanding) pending.emplace_back(sw, seq);
  }
  for (const auto& [sw, seq] : pending) {
    Link& l = link(sw);
    if (!l.outstanding.contains(seq)) continue;  // settled reentrantly
    ++cancelled_;
    complete(sw, seq, Status::fail("cancelled"));
  }
}

void CommandSender::beginTerm(std::uint64_t term) {
  MDC_EXPECT(term > term_, "fencing terms must be monotonically increasing");
  cancelInflight();
  term_ = term;
  // Fresh sequence space per term; agents reset their dedupe cache when
  // they first see the new term.
  for (auto& [sw, l] : links_) {
    l.nextSeq = 0;
    l.ackedBelow = 0;
  }
}

void CommandSender::send(SwitchId sw, SwitchCommand cmd, Completion done) {
  Link& l = link(sw);
  const std::uint64_t seq = l.nextSeq++;
  cmd.seq = seq;
  cmd.term = term_;
  if (tracer_ != nullptr && cmd.trace != 0) {
    cmd.span = tracer_->newSpan();
    tracer_->record(cmd.trace, cmd.span, cmd.parentSpan, HopKind::CmdSend,
                    toString(cmd.kind), seq, term_);
  }
  Outstanding out;
  out.cmd = cmd;
  out.done = std::move(done);
  out.vip = cmd.vip;
  l.outstanding.emplace(seq, std::move(out));
  if (cmd.vip.valid()) {
    if (cmd.vip.index() >= busyVips_.size()) {
      busyVips_.resize(cmd.vip.index() + 1, 0);
    }
    ++busyVips_[cmd.vip.index()];
  }
  ++inflight_;
  ++sent_;
  transmit(sw, seq);
}

void CommandSender::transmit(SwitchId sw, std::uint64_t seq) {
  Link& l = link(sw);
  const auto it = l.outstanding.find(seq);
  if (it == l.outstanding.end()) return;  // settled while queued
  SwitchCommand cmd = it->second.cmd;
  cmd.ackedBelow = l.ackedBelow;
  if (tracer_ != nullptr) {
    tracer_->record(cmd.trace, cmd.span, cmd.parentSpan, HopKind::CmdTransmit,
                    nullptr, seq, it->second.attempt);
  }
  channel_.send(
      sw,
      [this, sw, cmd] {
        link(sw).agent->deliver(
            cmd, [this, sw, trace = cmd.trace,
                  span = cmd.span](const CommandAck& ack) {
              channel_.send(
                  sw, [this, sw, ack] { onAck(sw, ack); }, trace, span);
            });
      },
      cmd.trace, cmd.span);
  // On a reliable channel the ack already came back inside send(); only
  // arm the retransmit timer if the command is still unsettled.
  if (l.outstanding.contains(seq)) armRetry(sw, seq);
}

void CommandSender::armRetry(SwitchId sw, std::uint64_t seq) {
  Link& l = link(sw);
  const auto it = l.outstanding.find(seq);
  MDC_ENSURE(it != l.outstanding.end(), "arming retry for settled command");
  Outstanding& out = it->second;
  SimTime backoff =
      std::min(options_.maxBackoffSeconds,
               options_.ackTimeoutSeconds *
                   std::pow(2.0, static_cast<double>(out.attempt)));
  if (options_.backoffJitter > 0.0) {
    // Outside the clamp on purpose: see Options::backoffJitter.
    const double j = options_.backoffJitter;
    backoff *= (1.0 - j) + 2.0 * j * l.jitter->uniform();
  }
  out.retryTimer = sim_.after(backoff, [this, sw, seq] {
    Link& lk = link(sw);
    const auto o = lk.outstanding.find(seq);
    if (o == lk.outstanding.end()) return;  // ack won the race
    ++o->second.attempt;
    if (options_.maxAttempts > 0 && o->second.attempt >= options_.maxAttempts) {
      ++timeouts_;
      // The command may still be in flight and land later; whatever state
      // that leaves is the reconciler's to repair.
      complete(sw, seq, Status::fail("ctrl_timeout"));
      return;
    }
    ++retransmits_;
    transmit(sw, seq);
  });
}

void CommandSender::onAck(SwitchId sw, const CommandAck& ack) {
  if (ack.term != term_) return;  // ack addressed to a previous term
  Link& l = link(sw);
  const auto it = l.outstanding.find(ack.seq);
  if (it == l.outstanding.end()) return;  // stale duplicate ack
  ++acks_;
  if (tracer_ != nullptr) {
    const SwitchCommand& cmd = it->second.cmd;
    tracer_->record(cmd.trace, cmd.span, cmd.parentSpan, HopKind::AckReceived,
                    ack.status.ok() ? "ok" : ack.status.error().code.c_str(),
                    ack.seq, ack.term);
  }
  complete(sw, ack.seq, ack.status);
}

void CommandSender::complete(SwitchId sw, std::uint64_t seq, Status outcome) {
  Link& l = link(sw);
  const auto it = l.outstanding.find(seq);
  MDC_ENSURE(it != l.outstanding.end(), "completing settled command");
  sim_.cancel(it->second.retryTimer);
  if (tracer_ != nullptr) {
    // Exactly one terminal hop per command span, classified by outcome.
    const SwitchCommand& cmd = it->second.cmd;
    HopKind terminal = HopKind::CmdAcked;
    const char* code = "acked";
    if (!outcome.ok()) {
      code = outcome.error().code.c_str();
      if (outcome.error().code == "cancelled") {
        terminal = HopKind::CmdCancelled;
      } else if (outcome.error().code == "ctrl_timeout") {
        terminal = HopKind::CmdTimeout;
      } else if (outcome.error().code == "stale_term") {
        terminal = HopKind::CmdStaleTerm;
      }
    }
    tracer_->record(cmd.trace, cmd.span, cmd.parentSpan, terminal, code, seq,
                    cmd.term);
  }
  Completion done = std::move(it->second.done);
  const VipId vip = it->second.vip;
  l.outstanding.erase(it);
  l.ackedBelow =
      l.outstanding.empty() ? l.nextSeq : l.outstanding.begin()->first;
  if (vip.valid()) {
    MDC_ENSURE(vipBusy(vip), "busy-vip refcount out of sync");
    --busyVips_[vip.index()];
  }
  --inflight_;
  // Bookkeeping is settled before the callback runs: a completion that
  // reentrantly sends more commands sees a consistent sender.
  if (done) done(std::move(outcome));
}

}  // namespace mdc
