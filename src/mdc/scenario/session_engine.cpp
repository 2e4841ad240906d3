#include "mdc/scenario/session_engine.hpp"

#include <algorithm>
#include <cmath>

#include "mdc/util/expect.hpp"

namespace mdc {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnvMix(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

/// Per-(app, epoch) stream seed: every app draws from its own RNG every
/// tick, so arrival randomness is independent of which worker runs the
/// app — the root of the sharded tick's bit-identity.
std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t app,
                         std::uint64_t epoch) noexcept {
  std::uint64_t h = seed + 0x9e3779b97f4a7c15ull * (app + 1);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h += epoch;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

/// Poisson arrivals: inversion for small lambda, normal approximation
/// above (same scheme the seed engine used, now per-app-stream).
std::uint64_t poissonDraw(Rng& rng, double lambda) {
  if (lambda < 30.0) {
    std::uint64_t count = 0;
    double p = std::exp(-lambda);
    double cdf = p;
    const double u = rng.uniform();
    while (u > cdf && count < 1000) {
      ++count;
      p *= lambda / static_cast<double>(count);
      cdf += p;
    }
    return count;
  }
  return static_cast<std::uint64_t>(
      std::max(0.0, std::round(rng.normal(lambda, std::sqrt(lambda)))));
}

/// Weighted VIP pick over an app's resolver shares.
VipId pickVip(std::span<const VipWeight> shares, double total, Rng& rng) {
  const double r = rng.uniform() * total;
  double acc = 0.0;
  for (const VipWeight& w : shares) {
    acc += w.weight;
    if (r < acc) return w.vip;
  }
  return shares.back().vip;
}

/// Phase G's work estimate for one app: a fixed per-app cost (demand
/// read, stream seeding, Poisson draw, share sum) plus a cost per arrival
/// the app drew last tick.  The ratio is measured on `dataplane` (about
/// 210–240 ns per app and 90–120 ns per arrival on a 4-vCPU x86 VM); it
/// only balances the workers and never changes output.
constexpr std::uint64_t kAppWork = 5;
constexpr std::uint64_t kArrivalWork = 2;

/// Dead picks the route table tolerates beyond its live ones before it
/// compacts: only keeps tiny tables from compacting at every refresh.
constexpr std::size_t kPickSlack = 16;

}  // namespace

const char* toString(SessionReject reason) noexcept {
  switch (reason) {
    case SessionReject::NoVip:
      return "no_vip";
    case SessionReject::NoOwner:
      return "no_owner";
    case SessionReject::NoRips:
      return "no_rips";
    case SessionReject::Cap:
      return "cap";
    case SessionReject::SwitchFull:
      return "switch_full";
  }
  return "?";
}

SessionEngine::SessionEngine(Simulation& sim, const AppRegistry& apps,
                             const DemandModel& demand, AuthoritativeDns& dns,
                             ResolverPopulation& resolvers, SwitchFleet& fleet,
                             Options options)
    : sim_(sim),
      apps_(apps),
      demand_(demand),
      dns_(dns),
      resolvers_(resolvers),
      fleet_(fleet),
      options_(options),
      pool_(ThreadPool::resolveWorkers(options.workers)) {
  MDC_EXPECT(options.sessionsPerSecondPerKrps >= 0.0, "negative arrival rate");
  MDC_EXPECT(options.meanSessionSeconds > 0.0, "session duration <= 0");
  MDC_EXPECT(options.tick > 0.0, "tick <= 0");
  MDC_EXPECT(options.wheelSlots > 0, "wheelSlots == 0");

  fleet_.openVipLog();
  shards_.reserve(fleet_.size());
  for (std::uint32_t s = 0; s < fleet_.size(); ++s) {
    shards_.push_back(std::make_unique<ConnectionShard>(options_.wheelSlots));
    fleet_.at(SwitchId{s}).attachShard(shards_.back().get());
  }
  buckets_.resize(static_cast<std::size_t>(pool_.workers()) * shards_.size());
  shardRejects_.resize(shards_.size());
}

SessionEngine::~SessionEngine() {
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    fleet_.at(SwitchId{s}).attachShard(nullptr);
  }
  fleet_.closeVipLog();
}

void SessionEngine::start() {
  sim_.every(options_.tick, [this] { tick(); });
}

void SessionEngine::refreshRoutes() {
  // Serial: one pass over the VIPs the fleet logged since the last tick.
  fleet_.takeVipMutations(mutatedVips_);
  for (const VipId vip : mutatedVips_) {
    if (vip.index() >= routes_.size()) routes_.resize(vip.index() + 1);
    VipRoute& route = routes_[vip.index()];
    const auto owner = fleet_.ownerOf(vip);
    const VipEntry* e = owner.has_value() ? fleet_.at(*owner).findVip(vip)
                                          : nullptr;
    route.shard = owner.has_value() ? owner->value() : VipRoute::kUnowned;
    if (owner.has_value()) route.cell = shards_[owner->index()]->cellOf(vip);
    const auto count =
        static_cast<std::uint32_t>(e != nullptr ? e->rips.size() : 0);
    livePicks_ = livePicks_ - route.count + count;
    if (count > route.count) {  // does not fit its range: append
      route.first = static_cast<std::uint32_t>(picks_.size());
      picks_.resize(picks_.size() + count);
    }
    route.count = count;
    double sum = 0.0;
    for (std::uint32_t k = 0; k < count; ++k) {
      sum += e->rips[k].weight;
      picks_[route.first + k] = {sum, e->rips[k].rip};
    }
  }
  // Dead ranges (left by appends and shrinks) past the live picks plus a
  // little slack: rewrite the table in VIP order.
  if (picks_.size() - livePicks_ > livePicks_ + kPickSlack) compactPicks();
}

void SessionEngine::compactPicks() {
  std::vector<RipPick> live;
  live.reserve(livePicks_);
  for (VipRoute& route : routes_) {
    const auto first = static_cast<std::uint32_t>(live.size());
    live.insert(live.end(), picks_.begin() + route.first,
                picks_.begin() + route.first + route.count);
    route.first = first;
  }
  picks_ = std::move(live);
  ++routeCompactions_;
}

void SessionEngine::cutApps(std::size_t numApps) {
  // Contiguous ranges at about equal work.  candidates_ still holds the
  // previous tick's arrivals (empty on the first tick: a split by count).
  // The cut only balances the workers: output is the same for any cut.
  const std::size_t slots = pool_.workers();
  const auto work = [this](std::size_t a) {
    return kAppWork +
           kArrivalWork * (a < candidates_.size() ? candidates_[a] : 0);
  };
  std::uint64_t total = 0;
  for (std::size_t a = 0; a < numApps; ++a) total += work(a);
  cuts_.assign(slots + 1, numApps);
  cuts_[0] = 0;
  std::size_t a = 0;
  std::uint64_t done = 0;
  for (std::size_t s = 1; s < slots; ++s) {
    const std::uint64_t target = total * s / slots;
    while (a < numApps && done < target) done += work(a++);
    cuts_[s] = a;
  }
}

void SessionEngine::generateApps(unsigned slot, std::size_t lo, std::size_t hi,
                                 SimTime now) {
  const auto& all = apps_.all();
  const std::size_t numShards = shards_.size();
  for (std::size_t a = lo; a < hi; ++a) {
    const AppId app = all[a].id;
    const double rps = demand_.rps(app, now);
    const double lambda =
        rps / 1000.0 * options_.sessionsPerSecondPerKrps * options_.tick;
    if (lambda <= 0.0) continue;
    Rng rng{streamSeed(options_.seed, app.value(), epoch_)};
    const std::uint64_t count = poissonDraw(rng, lambda);
    if (count == 0) continue;
    candidates_[a] = static_cast<std::uint32_t>(count);

    const std::span<const VipWeight> shares = resolvers_.view(app);
    double shareTotal = 0.0;
    for (const VipWeight& w : shares) shareTotal += w.weight;
    if (shares.empty() || shareTotal <= 0.0) {
      rejNoVip_[a] = static_cast<std::uint32_t>(count);
      continue;
    }

    for (std::uint64_t i = 0; i < count; ++i) {
      const VipId vip = pickVip(shares, shareTotal, rng);
      const VipRoute* route =
          vip.index() < routes_.size() ? &routes_[vip.index()] : nullptr;
      if (route == nullptr || route->shard == VipRoute::kUnowned) {
        ++rejNoOwner_[a];
        continue;
      }
      const std::span<const RipPick> rips(picks_.data() + route->first,
                                          route->count);
      if (rips.empty() || rips.back().sum <= 0.0) {
        ++rejNoRips_[a];
        continue;
      }
      // Weighted RIP pick: the draw and the comparisons of a running-sum
      // walk over the owner's table.
      const double r = rng.uniform() * rips.back().sum;
      RipId rip = rips.back().rip;
      for (const RipPick& p : rips) {
        if (r < p.sum) {
          rip = p.rip;
          break;
        }
      }
      const double duration = rng.exponential(options_.meanSessionSeconds);
      const std::uint64_t lifeTicks = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(std::ceil(duration / options_.tick)));
      PendingOpen rec;
      rec.id = (static_cast<std::uint64_t>(app.value()) << 32) |
               perAppSeq_[a]++;
      rec.app = app.value();
      rec.ordinal = viable_[a]++;
      rec.cell = route->cell;
      rec.rip = rip;
      rec.expiry = epoch_ + lifeTicks;
      buckets_[static_cast<std::size_t>(slot) * numShards + route->shard]
          .push_back(rec);
    }
  }
}

void SessionEngine::admitSerial() {
  const std::size_t numApps = candidates_.size();
  const std::uint64_t active = activeSessions();
  std::uint64_t budget = options_.maxActiveSessions > active
                             ? options_.maxActiveSessions - active
                             : 0;
  for (std::size_t a = 0; a < numApps; ++a) {
    arrivals_ += candidates_[a];
    const auto adm = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(viable_[a], budget));
    admit_[a] = adm;
    budget -= adm;
    const std::uint64_t capped = viable_[a] - adm;
    const std::uint64_t rej =
        rejNoVip_[a] + rejNoOwner_[a] + rejNoRips_[a] + capped;
    if (rej == 0) continue;
    rejected_ += rej;
    rejectedPerApp_[a] += rej;
    rejectedByReason_[static_cast<std::size_t>(SessionReject::NoVip)] +=
        rejNoVip_[a];
    rejectedByReason_[static_cast<std::size_t>(SessionReject::NoOwner)] +=
        rejNoOwner_[a];
    rejectedByReason_[static_cast<std::size_t>(SessionReject::NoRips)] +=
        rejNoRips_[a];
    rejectedByReason_[static_cast<std::size_t>(SessionReject::Cap)] += capped;
  }
}

void SessionEngine::insertShards(std::size_t lo, std::size_t hi) {
  const std::size_t numShards = shards_.size();
  const unsigned slots = pool_.workers();
  for (std::size_t s = lo; s < hi; ++s) {
    ConnectionShard& shard = *shards_[s];
    auto& rejects = shardRejects_[s];
    rejects.clear();
    // Table headroom after this tick's expiries.
    const std::uint64_t limit =
        fleet_.at(SwitchId{static_cast<std::uint32_t>(s)})
            .limits()
            .maxConnections;
    std::uint64_t room = limit > shard.size() ? limit - shard.size() : 0;
    // Draining worker-slot buckets in slot order replays ascending app
    // order — exactly the serialized insert sequence.
    for (unsigned w = 0; w < slots; ++w) {
      for (const PendingOpen& rec : buckets_[static_cast<std::size_t>(w) *
                                                 numShards +
                                             s]) {
        if (rec.ordinal >= admit_[rec.app]) continue;  // over the global cap
        if (room == 0) {
          if (!rejects.empty() && rejects.back().first == rec.app) {
            ++rejects.back().second;
          } else {
            rejects.emplace_back(rec.app, 1);
          }
          continue;
        }
        shard.openInCell(rec.id, AppId{rec.app}, rec.cell, rec.rip,
                         rec.expiry);
        --room;
      }
    }
  }
}

void SessionEngine::tick() {
  ++epoch_;
  const SimTime now = sim_.now();
  // Keep client DNS caches moving even when no fluid engine is running
  // alongside (advance is idempotent at equal timestamps).
  resolvers_.advance(now);

  const std::size_t numApps = apps_.all().size();
  const std::size_t numShards = shards_.size();
  if (perAppSeq_.size() < numApps) {
    perAppSeq_.resize(numApps, 0);
    rejectedPerApp_.resize(numApps, 0);
  }
  cutApps(numApps);  // reads last tick's candidates_ before the reset
  candidates_.assign(numApps, 0);
  viable_.assign(numApps, 0);
  rejNoVip_.assign(numApps, 0);
  rejNoOwner_.assign(numApps, 0);
  rejNoRips_.assign(numApps, 0);
  admit_.assign(numApps, 0);
  for (auto& b : buckets_) b.clear();

  refreshRoutes();

  // Phase S: O(due-this-tick) expiry, one worker per shard range.
  pool_.parallelRanges(numShards,
                       [this](unsigned, std::size_t lo, std::size_t hi) {
                         for (std::size_t s = lo; s < hi; ++s) {
                           shards_[s]->expireDue(epoch_);
                         }
                       });

  // Phase G: arrival generation over the work-balanced contiguous
  // ascending app ranges, one job per worker slot.
  pool_.parallelFor(cuts_.size() - 1, [this, now](std::size_t slot) {
    generateApps(static_cast<unsigned>(slot), cuts_[slot], cuts_[slot + 1],
                 now);
  });

  // Phase A: global-cap admission, serial, ascending app order.
  admitSerial();

  // Phase I: per-shard inserts.
  pool_.parallelRanges(numShards,
                       [this](unsigned, std::size_t lo, std::size_t hi) {
                         insertShards(lo, hi);
                       });
  for (std::size_t s = 0; s < numShards; ++s) {
    for (const auto& [app, count] : shardRejects_[s]) {
      rejected_ += count;
      rejectedPerApp_[app] += count;
      rejectedByReason_[static_cast<std::size_t>(SessionReject::SwitchFull)] +=
          count;
    }
  }

  sweepDrains();
}

Status SessionEngine::beginDrain(VipId vip, SwitchId to) {
  if (draining(vip)) return Status::fail("already_draining");
  const auto owner = fleet_.ownerOf(vip);
  if (!owner.has_value()) return Status::fail("vip_unowned");
  if (*owner == to) return Status::fail("same_switch");
  if (!fleet_.at(to).up()) return Status::fail("switch_down");
  const VipEntry* e = fleet_.at(*owner).findVip(vip);
  if (e == nullptr) return Status::fail("vip_unowned");
  const AppId app = e->app;

  double prevWeight = -1.0;
  for (const VipWeight& w : dns_.vips(app)) {
    if (w.vip == vip) {
      prevWeight = w.weight;
      break;
    }
  }
  if (prevWeight < 0.0) return Status::fail("vip_not_in_dns");

  DrainState d;
  d.vip = vip;
  d.app = app;
  d.from = *owner;
  d.to = to;
  d.started = sim_.now();
  d.prevWeight = prevWeight;
  d.trace = tracer_ != nullptr ? tracer_->begin() : 0;
  d.span = tracer_ != nullptr && d.trace != 0 ? tracer_->newSpan() : 0;
  if (tracer_ != nullptr) {
    tracer_->record(d.trace, d.span, 0, HopKind::SessionDrainStart, "drain",
                    vip.value(), owner->value());
  }
  dns_.setWeight(app, vip, 0.0);
  drains_.push_back(d);
  return Status::okStatus();
}

std::vector<SessionEngine::DrainState>::iterator SessionEngine::finishDrain(
    std::vector<DrainState>::iterator it, bool completed, const char* code) {
  if (completed) {
    // The VIP kept its DNS identity through the move; re-expose it.
    for (const VipWeight& w : dns_.vips(it->app)) {
      if (w.vip == it->vip) {
        dns_.setWeight(it->app, it->vip, it->prevWeight);
        break;
      }
    }
    drainLatency_.record(std::max(options_.tick, sim_.now() - it->started));
    ++drainsCompleted_;
  } else {
    // Aborted: the owner crashed or the VIP moved underneath us — the
    // health plane owns the DNS record now, so leave the weight alone.
    ++drainsAborted_;
  }
  if (tracer_ != nullptr) {
    tracer_->record(it->trace, it->span, 0, HopKind::SessionDrainDone, code,
                    it->vip.value(), it->to.value());
  }
  return drains_.erase(it);
}

void SessionEngine::sweepDrains() {
  for (auto it = drains_.begin(); it != drains_.end();) {
    const auto owner = fleet_.ownerOf(it->vip);
    if (!owner.has_value() || *owner != it->from || !fleet_.at(it->from).up()) {
      it = finishDrain(it, false, "lost_owner");
      continue;
    }
    if (fleet_.at(it->from).activeConnections(it->vip) > 0) {
      ++it;
      continue;
    }
    const Status s = fleet_.transferVip(it->vip, it->to);
    if (s.ok()) {
      it = finishDrain(it, true, "ok");
    } else {
      it = finishDrain(it, false, s.error().code.c_str());
    }
  }
}

Status SessionEngine::forceTransfer(VipId vip, SwitchId to) {
  const auto owner = fleet_.ownerOf(vip);
  if (!owner.has_value()) return Status::fail("vip_unowned");
  // Capture the resident sessions before the transfer severs them.
  std::vector<std::pair<std::uint64_t, RipId>> resident;
  if (tracer_ != nullptr && tracer_->enabled() &&
      owner->index() < shards_.size()) {
    shards_[owner->index()]->forEachOfVip(
        vip, [&resident](std::uint64_t id, RipId rip) {
          resident.emplace_back(id, rip);
        });
  }
  const Status s = fleet_.transferVip(vip, to, /*force=*/true);
  if (!s.ok()) return s;
  for (auto it = drains_.begin(); it != drains_.end(); ++it) {
    if (it->vip == vip) {
      finishDrain(it, false, "forced");
      break;
    }
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    const TraceId trace = tracer_->begin();
    for (const auto& [id, rip] : resident) {
      tracer_->record(trace, tracer_->newSpan(), 0, HopKind::SessionConnBroken,
                      "forced", id, rip.value());
    }
  }
  return s;
}

bool SessionEngine::draining(VipId vip) const {
  for (const DrainState& d : drains_) {
    if (d.vip == vip) return true;
  }
  return false;
}

double SessionEngine::drainP99Seconds() const {
  return drainLatency_.count() == 0 ? 0.0 : drainLatency_.quantile(0.99);
}

std::uint64_t SessionEngine::activeSessions() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->size();
  return n;
}

std::uint64_t SessionEngine::completedSessions() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->completed();
  return n;
}

std::uint64_t SessionEngine::brokenSessions() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->broken();
  return n;
}

std::uint64_t SessionEngine::stateHash() const noexcept {
  std::uint64_t h = kFnvOffset;
  for (const auto& s : shards_) fnvMix(h, s->stateHash());
  fnvMix(h, epoch_);
  fnvMix(h, arrivals_);
  fnvMix(h, rejected_);
  for (const std::uint64_t r : rejectedByReason_) fnvMix(h, r);
  fnvMix(h, drainsCompleted_);
  fnvMix(h, drainsAborted_);
  return h;
}

const ConnectionShard& SessionEngine::shardOf(SwitchId sw) const {
  MDC_EXPECT(sw.index() < shards_.size(), "shardOf: unknown switch");
  return *shards_[sw.index()];
}

}  // namespace mdc
