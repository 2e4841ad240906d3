#include "mdc/dns/dns.hpp"

#include <algorithm>
#include <cmath>

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

void ResolverPopulation::refreshTargets(AppId app, Pool& p) {
  const auto gen = dns_.generation(app);
  if (p.seenGeneration == gen && p.initialised) {
    return;
  }

  // Make sure every DNS-exposed VIP is tracked (appended: positions of
  // already tracked VIPs never move).
  const auto exposed = dns_.vips(app);
  const auto position = [&p](VipId vip) {
    return static_cast<std::size_t>(
        std::find_if(p.shares.begin(), p.shares.end(),
                     [vip](const VipWeight& vw) { return vw.vip == vip; }) -
        p.shares.begin());
  };
  for (const VipWeight& vw : exposed) {
    if (position(vw.vip) == p.shares.size()) {
      p.shares.push_back(VipWeight{vw.vip, 0.0});
      p.fast.push_back(0.0);
      p.linger.push_back(0.0);
    }
  }

  // Recompute normalized targets; VIPs no longer exposed get target 0.
  p.target.assign(p.shares.size(), 0.0);
  double total = 0.0;
  for (const VipWeight& vw : exposed) total += vw.weight;
  if (total > 0.0) {
    for (const VipWeight& vw : exposed) {
      p.target[position(vw.vip)] = vw.weight / total;
    }
  }

  if (!p.initialised) {
    // A new population starts in steady state at the current targets.
    p.fast = p.target;
    p.linger = p.target;
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
  for (std::size_t i = 0; i < p.shares.size(); ++i) {
    p.shares[i].weight = (1.0 - lf) * p.fast[i] + lf * p.linger[i];
  }
}

void ResolverPopulation::relax(std::vector<double>& shares,
                               std::span<const double> target, double alpha) {
  for (std::size_t i = 0; i < shares.size(); ++i) {
    shares[i] += alpha * (target[i] - shares[i]);
  }
}

namespace {

// Below this distance the exponential tail is irrelevant to any consumer;
// the pool snaps exactly onto its targets and stops relaxing, so settled
// apps cost nothing per advance.
constexpr double kConvergenceEps = 1e-12;

[[nodiscard]] bool withinEps(std::span<const double> a,
                             std::span<const double> b) noexcept {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > kConvergenceEps) return false;
  }
  return true;
}

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
  for (std::size_t i = 0; i < relaxing_.size();) {
    Pool& p = pools_[relaxing_[i].index()];
    relax(p.fast, p.target, alphaFast);
    relax(p.linger, p.target, alphaLinger);
    const bool converged =
        withinEps(p.fast, p.target) && withinEps(p.linger, p.target);
    if (converged) {
      p.fast = p.target;
      p.linger = p.target;
      p.relaxing = false;
    }
    updateShares(p);
    if (converged) {
      relaxing_[i] = relaxing_.back();
      relaxing_.pop_back();
    } else {
      ++i;
    }
  }
}

std::vector<VipWeight> ResolverPopulation::shares(AppId app) const {
  if (app.index() >= pools_.size()) return {};
  const Pool& p = pools_[app.index()];
  std::vector<VipWeight> out;
  out.reserve(p.shares.size());
  const double lf = config_.lingerFraction;
  for (std::size_t i = 0; i < p.shares.size(); ++i) {
    const double combined = (1.0 - lf) * p.fast[i] + lf * p.linger[i];
    out.push_back(VipWeight{p.shares[i].vip, combined});
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
