#include "mdc/dns/dns.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <new>
#include <type_traits>

namespace mdc {

// ---------------------------------------------------------------- DNS --

void AuthoritativeDns::registerApp(AppId app) {
  MDC_EXPECT(app.valid(), "registerApp: invalid app");
  MDC_EXPECT(!hasApp(app), "registerApp: app already registered");
  if (app.index() >= apps_.size()) apps_.resize(app.index() + 1);
  apps_[app.index()].registered = true;
  ++topologyVersion_;
}

void AuthoritativeDns::logMutation(AppId app) { mutationLog_.push_back(app); }

std::span<const AppId> AuthoritativeDns::mutationsSince(
    std::uint64_t cursor) const {
  MDC_EXPECT(cursor <= mutationLog_.size(), "mutation cursor out of range");
  return std::span<const AppId>(mutationLog_).subspan(cursor);
}

AuthoritativeDns::AppRecord& AuthoritativeDns::record(AppId app) {
  MDC_EXPECT(hasApp(app), "unknown app in DNS");
  return apps_[app.index()];
}

const AuthoritativeDns::AppRecord& AuthoritativeDns::record(AppId app) const {
  MDC_EXPECT(hasApp(app), "unknown app in DNS");
  return apps_[app.index()];
}

void AuthoritativeDns::addVip(AppId app, VipId vip, double weight) {
  MDC_EXPECT(vip.valid(), "addVip: invalid vip");
  MDC_EXPECT(weight >= 0.0, "addVip: negative weight");
  AppRecord& r = record(app);
  const bool present =
      std::any_of(r.vips.begin(), r.vips.end(),
                  [vip](const VipWeight& vw) { return vw.vip == vip; });
  MDC_EXPECT(!present, "addVip: vip already exposed for app");
  r.vips.push_back(VipWeight{vip, weight});
  ++r.generation;
  ++updates_;
  logMutation(app);
}

void AuthoritativeDns::removeVip(AppId app, VipId vip) {
  AppRecord& r = record(app);
  const auto it =
      std::find_if(r.vips.begin(), r.vips.end(),
                   [vip](const VipWeight& vw) { return vw.vip == vip; });
  MDC_EXPECT(it != r.vips.end(), "removeVip: vip not present");
  r.vips.erase(it);
  ++r.generation;
  ++updates_;
  logMutation(app);
}

void AuthoritativeDns::setWeight(AppId app, VipId vip, double weight) {
  MDC_EXPECT(weight >= 0.0, "setWeight: negative weight");
  AppRecord& r = record(app);
  const auto it =
      std::find_if(r.vips.begin(), r.vips.end(),
                   [vip](const VipWeight& vw) { return vw.vip == vip; });
  MDC_EXPECT(it != r.vips.end(), "setWeight: vip not present");
  if (it->weight != weight) {
    it->weight = weight;
    ++r.generation;
    ++updates_;
    logMutation(app);
  }
}

void AuthoritativeDns::setWeights(AppId app,
                                  std::span<const VipWeight> weights) {
  AppRecord& r = record(app);
  for (const VipWeight& vw : weights) {
    const auto it =
        std::find_if(r.vips.begin(), r.vips.end(), [&](const VipWeight& x) {
          return x.vip == vw.vip;
        });
    MDC_EXPECT(it != r.vips.end(), "setWeights: vip not present");
    MDC_EXPECT(vw.weight >= 0.0, "setWeights: negative weight");
    it->weight = vw.weight;
  }
  ++r.generation;
  ++updates_;
  logMutation(app);
}

std::span<const VipWeight> AuthoritativeDns::vips(AppId app) const {
  return record(app).vips;
}

std::uint64_t AuthoritativeDns::generation(AppId app) const {
  return record(app).generation;
}

// ------------------------------------------------- ResolverPopulation --

ResolverPopulation::ResolverPopulation(const AuthoritativeDns& dns,
                                       ResolverConfig config)
    : dns_(dns), config_(config) {
  MDC_EXPECT(config.ttlSeconds > 0.0, "ttl must be positive");
  MDC_EXPECT(config.lingerFraction >= 0.0 && config.lingerFraction <= 1.0,
             "lingerFraction out of [0,1]");
  MDC_EXPECT(config.lingerSeconds > 0.0, "lingerSeconds must be positive");
}

void ResolverPopulation::Pool::track(std::span<const VipId> vips) {
  // Both element types are trivially copyable and trivially destructible:
  // they are constructed into the new block, keeping every tracked VIP at
  // its position, and the old block is freed without destroying them.
  static_assert(std::is_trivially_copyable_v<VipWeight> &&
                std::is_trivially_copyable_v<Rates>);
  static_assert(alignof(VipWeight) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__ &&
                sizeof(VipWeight) % alignof(Rates) == 0);
  const std::size_t n = tracked + vips.size();
  auto next = std::make_unique_for_overwrite<std::byte[]>(
      n * (sizeof(VipWeight) + sizeof(Rates)));
  auto* nextShares = reinterpret_cast<VipWeight*>(next.get());
  auto* nextRates =
      reinterpret_cast<Rates*>(next.get() + sizeof(VipWeight) * n);
  std::uninitialized_copy(shares().begin(), shares().end(), nextShares);
  std::uninitialized_copy(rates().begin(), rates().end(), nextRates);
  for (std::size_t k = 0; k < vips.size(); ++k) {
    ::new (nextShares + tracked + k) VipWeight{vips[k], 0.0};
    ::new (nextRates + tracked + k) Rates{0.0, 0.0, 0.0};
  }
  block = std::move(next);
  tracked = static_cast<std::uint32_t>(n);
}

void ResolverPopulation::refreshTargets(AppId app, Pool& p) {
  const auto gen = dns_.generation(app);
  if (p.seenGeneration == gen && p.initialised) {
    return;
  }

  // Make sure every DNS-exposed VIP is tracked (appended: positions of
  // already tracked VIPs never move).
  const auto exposed = dns_.vips(app);
  const auto position = [&p](VipId vip) {
    const std::span<const VipWeight> tracked = p.shares();
    return static_cast<std::size_t>(
        std::find_if(tracked.begin(), tracked.end(),
                     [vip](const VipWeight& vw) { return vw.vip == vip; }) -
        tracked.begin());
  };
  std::vector<VipId> added;
  for (const VipWeight& vw : exposed) {
    if (position(vw.vip) == p.tracked) added.push_back(vw.vip);
  }
  if (!added.empty()) p.track(added);

  // Recompute normalized targets; VIPs no longer exposed get target 0.
  const std::span<Rates> rates = p.rates();
  for (Rates& r : rates) r.target = 0.0;
  double total = 0.0;
  for (const VipWeight& vw : exposed) total += vw.weight;
  if (total > 0.0) {
    for (const VipWeight& vw : exposed) {
      rates[position(vw.vip)].target = vw.weight / total;
    }
  }

  if (!p.initialised) {
    // A new population starts in steady state at the current targets.
    for (Rates& r : rates) r.fast = r.linger = r.target;
    p.initialised = true;
  } else if (!p.relaxing) {
    // Targets moved away from a settled pool: put it back on the
    // relaxation work list until it converges onto the new targets.
    p.relaxing = true;
    relaxing_.push_back(app);
  }
  p.seenGeneration = gen;
  updateShares(p);
}

void ResolverPopulation::updateShares(Pool& p) const {
  const double lf = config_.lingerFraction;
  const std::span<VipWeight> shares = p.shares();
  const std::span<const Rates> rates = p.rates();
  for (std::size_t i = 0; i < shares.size(); ++i) {
    shares[i].weight = (1.0 - lf) * rates[i].fast + lf * rates[i].linger;
  }
}

namespace {

// Below this distance the exponential tail is irrelevant to any consumer;
// the pool snaps exactly onto its targets and stops relaxing, so settled
// apps cost nothing per advance.
constexpr double kConvergenceEps = 1e-12;

}  // namespace

void ResolverPopulation::advance(SimTime now) {
  MDC_EXPECT(now >= lastAdvance_, "ResolverPopulation going back in time");
  const SimTime dt = now - lastAdvance_;
  lastAdvance_ = now;
  // Consume the DNS mutation log unconditionally — even a zero-dt advance
  // must fold new targets before callers read.  An app's first entry
  // creates its pool in steady state (so relaxing below leaves it alone);
  // refreshTargets dedupes repeated entries through seenGeneration.
  for (const AppId app : dns_.mutationsSince(dnsCursor_)) {
    if (app.index() >= pools_.size()) pools_.resize(app.index() + 1);
    refreshTargets(app, pools_[app.index()]);
  }
  dnsCursor_ = dns_.mutationCursor();
  if (dt <= 0.0 || relaxing_.empty()) return;
  const double alphaFast = 1.0 - std::exp(-dt / config_.ttlSeconds);
  const double alphaLinger = 1.0 - std::exp(-dt / config_.lingerSeconds);
  const double lf = config_.lingerFraction;
  for (std::size_t i = 0; i < relaxing_.size();) {
    Pool& p = pools_[relaxing_[i].index()];
    // One pass per pool: each tracked VIP relaxes both populations, tests
    // convergence and refreshes its share — per VIP the same operations,
    // in the same order, as relaxing every array before reading any.
    const std::span<VipWeight> shares = p.shares();
    const std::span<Rates> rates = p.rates();
    bool converged = true;
    for (std::size_t k = 0; k < rates.size(); ++k) {
      Rates& r = rates[k];
      r.fast += alphaFast * (r.target - r.fast);
      r.linger += alphaLinger * (r.target - r.linger);
      if (std::abs(r.fast - r.target) > kConvergenceEps ||
          std::abs(r.linger - r.target) > kConvergenceEps) {
        converged = false;
      }
      shares[k].weight = (1.0 - lf) * r.fast + lf * r.linger;
    }
    if (!converged) {
      ++i;
      continue;
    }
    for (Rates& r : rates) r.fast = r.linger = r.target;
    updateShares(p);
    p.relaxing = false;
    relaxing_[i] = relaxing_.back();
    relaxing_.pop_back();
  }
}

std::vector<VipWeight> ResolverPopulation::shares(AppId app) const {
  if (app.index() >= pools_.size()) return {};
  const Pool& p = pools_[app.index()];
  const std::span<const VipWeight> tracked = p.shares();
  const std::span<const Rates> rates = p.rates();
  std::vector<VipWeight> out;
  out.reserve(tracked.size());
  const double lf = config_.lingerFraction;
  for (std::size_t i = 0; i < tracked.size(); ++i) {
    const double combined = (1.0 - lf) * rates[i].fast + lf * rates[i].linger;
    out.push_back(VipWeight{tracked[i].vip, combined});
  }
  return out;
}

double ResolverPopulation::share(AppId app, VipId vip) const {
  for (const VipWeight& vw : shares(app)) {
    if (vw.vip == vip) return vw.weight;
  }
  return 0.0;
}

}  // namespace mdc
