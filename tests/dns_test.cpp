// Unit tests for the authoritative DNS and resolver-population model.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "mdc/dns/dns.hpp"

namespace mdc {
namespace {

constexpr AppId kApp{0};
constexpr VipId kV0{0};
constexpr VipId kV1{1};
constexpr VipId kV2{2};

AuthoritativeDns makeDns() {
  AuthoritativeDns dns;
  dns.registerApp(kApp);
  dns.addVip(kApp, kV0, 1.0);
  dns.addVip(kApp, kV1, 1.0);
  return dns;
}

TEST(AuthoritativeDns, RegisterAndQuery) {
  AuthoritativeDns dns = makeDns();
  EXPECT_TRUE(dns.hasApp(kApp));
  EXPECT_FALSE(dns.hasApp(AppId{9}));
  EXPECT_FALSE(dns.hasApp(AppId{}));
  EXPECT_EQ(dns.vips(kApp).size(), 2u);
  // Records are indexed by app id: registering a sparse id leaves the
  // ids below it unregistered, and unknown ids keep failing reads.
  dns.registerApp(AppId{7});
  EXPECT_TRUE(dns.hasApp(AppId{7}));
  for (std::uint32_t a = 1; a < 7; ++a) {
    EXPECT_FALSE(dns.hasApp(AppId{a})) << a;
    EXPECT_THROW((void)dns.vips(AppId{a}), PreconditionError) << a;
  }
  EXPECT_FALSE(dns.hasApp(AppId{8}));
  EXPECT_THROW((void)dns.generation(AppId{8}), PreconditionError);
  EXPECT_THROW((void)dns.vips(AppId{}), PreconditionError);
  EXPECT_THROW(dns.registerApp(AppId{}), PreconditionError);
}

TEST(AuthoritativeDns, DuplicateRegistrationThrows) {
  AuthoritativeDns dns = makeDns();
  EXPECT_THROW(dns.registerApp(kApp), PreconditionError);
  EXPECT_THROW(dns.addVip(kApp, kV0), PreconditionError);
}

TEST(AuthoritativeDns, WeightUpdatesBumpGeneration) {
  AuthoritativeDns dns = makeDns();
  const auto g0 = dns.generation(kApp);
  dns.setWeight(kApp, kV0, 5.0);
  EXPECT_GT(dns.generation(kApp), g0);
  // Setting the same weight again is a no-op.
  const auto g1 = dns.generation(kApp);
  dns.setWeight(kApp, kV0, 5.0);
  EXPECT_EQ(dns.generation(kApp), g1);
}

TEST(AuthoritativeDns, SetWeightsBulk) {
  AuthoritativeDns dns = makeDns();
  const std::vector<VipWeight> w{{kV0, 0.0}, {kV1, 3.0}};
  dns.setWeights(kApp, w);
  EXPECT_EQ(dns.vips(kApp)[0].weight, 0.0);
  EXPECT_EQ(dns.vips(kApp)[1].weight, 3.0);
}

TEST(AuthoritativeDns, RemoveVip) {
  AuthoritativeDns dns = makeDns();
  dns.removeVip(kApp, kV0);
  EXPECT_EQ(dns.vips(kApp).size(), 1u);
  EXPECT_THROW(dns.removeVip(kApp, kV0), PreconditionError);
}

TEST(AuthoritativeDns, RecordUpdateCounting) {
  AuthoritativeDns dns;
  dns.registerApp(kApp);
  EXPECT_EQ(dns.recordUpdates(), 0u);
  dns.addVip(kApp, kV0, 1.0);
  dns.setWeight(kApp, kV0, 2.0);
  dns.removeVip(kApp, kV0);
  EXPECT_EQ(dns.recordUpdates(), 3u);
}

ResolverConfig fastConfig() {
  ResolverConfig cfg;
  cfg.ttlSeconds = 60.0;
  cfg.lingerFraction = 0.0;
  cfg.lingerSeconds = 1800.0;
  return cfg;
}

TEST(ResolverPopulation, StartsAtAuthoritativeWeights) {
  AuthoritativeDns dns = makeDns();
  ResolverPopulation pop{dns, fastConfig()};
  pop.advance(0.0);
  EXPECT_NEAR(pop.share(kApp, kV0), 0.5, 1e-12);
  EXPECT_NEAR(pop.share(kApp, kV1), 0.5, 1e-12);
}

TEST(ResolverPopulation, SharesSumToOne) {
  AuthoritativeDns dns = makeDns();
  ResolverPopulation pop{dns, fastConfig()};
  dns.setWeights(kApp, std::vector<VipWeight>{{kV0, 1.0}, {kV1, 9.0}});
  pop.advance(30.0);
  double sum = 0.0;
  for (const auto& vw : pop.shares(kApp)) sum += vw.weight;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ResolverPopulation, RelaxesTowardTargetAtTtlRate) {
  AuthoritativeDns dns = makeDns();
  ResolverPopulation pop{dns, fastConfig()};
  pop.advance(0.0);  // creates the pool in steady state
  dns.setWeights(kApp, std::vector<VipWeight>{{kV0, 0.0}, {kV1, 1.0}});
  // After one TTL, the gap should have closed by 1 - e^-1 ~ 63%.
  pop.advance(60.0);
  EXPECT_NEAR(pop.share(kApp, kV1), 0.5 + 0.5 * (1.0 - std::exp(-1.0)),
              1e-6);
  // After many TTLs the share converges.
  pop.advance(600.0);
  EXPECT_NEAR(pop.share(kApp, kV1), 1.0, 1e-3);
}

TEST(ResolverPopulation, LingerersSlowConvergence) {
  AuthoritativeDns dnsA = makeDns();
  ResolverConfig lingering = fastConfig();
  lingering.lingerFraction = 0.2;
  ResolverPopulation pop{dnsA, lingering};
  pop.advance(0.0);
  dnsA.setWeights(kApp, std::vector<VipWeight>{{kV0, 0.0}, {kV1, 1.0}});
  pop.advance(300.0);  // 5 TTLs: compliant clients have moved
  const double v0 = pop.share(kApp, kV0);
  // Lingerers (20% of demand, tau 1800s) still hold a noticeable share.
  EXPECT_GT(v0, 0.05);
  EXPECT_LT(v0, 0.2);
}

TEST(ResolverPopulation, NewVipStartsAtZeroShare) {
  AuthoritativeDns dns = makeDns();
  ResolverPopulation pop{dns, fastConfig()};
  pop.advance(0.0);
  dns.addVip(kApp, kV2, 1.0);
  pop.advance(0.0);  // a zero-dt advance folds the new VIP without relaxing
  ASSERT_EQ(pop.view(kApp).size(), 3u);
  EXPECT_EQ(pop.view(kApp)[2].vip, kV2);
  EXPECT_NEAR(pop.share(kApp, kV2), 0.0, 1e-12);
  pop.advance(600.0);
  EXPECT_NEAR(pop.share(kApp, kV2), 1.0 / 3.0, 1e-3);
}

TEST(ResolverPopulation, RemovedVipShareDecaysNotVanishes) {
  // Models the §IV-B hazard: clients keep using a VIP after DNS stops
  // exposing it, so a transfer cannot be immediate.
  AuthoritativeDns dns = makeDns();
  ResolverPopulation pop{dns, fastConfig()};
  pop.advance(0.0);
  dns.removeVip(kApp, kV0);
  pop.advance(0.0);  // folds the removal without relaxing
  ASSERT_EQ(pop.view(kApp).size(), 2u);
  EXPECT_NEAR(pop.share(kApp, kV0), 0.5, 1e-12);  // still held by caches
  pop.advance(60.0);
  const double after1 = pop.share(kApp, kV0);
  EXPECT_GT(after1, 0.1);
  pop.advance(1200.0);
  EXPECT_LT(pop.share(kApp, kV0), 1e-6);
}

TEST(ResolverPopulation, PoolAppearsAtTheNextAdvanceInSteadyState) {
  // Reads are pure: an app's pool exists only once an advance has folded
  // a DNS mutation of the app, and it starts at the weights of that
  // advance, not at those of the VIP's first exposure.
  AuthoritativeDns dns = makeDns();
  constexpr AppId kLate{1};
  dns.registerApp(kLate);
  ResolverPopulation pop{dns, fastConfig()};
  pop.advance(10.0);
  EXPECT_TRUE(pop.view(kLate).empty());

  dns.addVip(kLate, kV2, 1.0);
  constexpr VipId kV3{3};
  dns.addVip(kLate, kV3, 1.0);
  dns.setWeight(kLate, kV3, 3.0);
  EXPECT_TRUE(pop.view(kLate).empty());  // not before the next advance
  EXPECT_TRUE(pop.shares(kLate).empty());
  EXPECT_EQ(pop.share(kLate, kV2), 0.0);

  pop.advance(20.0);
  ASSERT_EQ(pop.view(kLate).size(), 2u);
  EXPECT_EQ(pop.view(kLate)[0].vip, kV2);
  EXPECT_EQ(pop.view(kLate)[0].weight, 0.25);
  EXPECT_EQ(pop.view(kLate)[1].weight, 0.75);
  // Steady state: later advances leave it where it started.
  pop.advance(500.0);
  EXPECT_EQ(pop.share(kLate, kV2), 0.25);
  EXPECT_EQ(pop.share(kLate, kV3), 0.75);
}

TEST(ResolverPopulation, AdvanceBackwardsThrows) {
  AuthoritativeDns dns = makeDns();
  ResolverPopulation pop{dns, fastConfig()};
  pop.advance(10.0);
  EXPECT_THROW(pop.advance(5.0), PreconditionError);
}

TEST(ResolverPopulation, ConfigValidation) {
  AuthoritativeDns dns = makeDns();
  ResolverConfig bad = fastConfig();
  bad.ttlSeconds = 0.0;
  EXPECT_THROW((ResolverPopulation{dns, bad}), PreconditionError);
  bad = fastConfig();
  bad.lingerFraction = 1.5;
  EXPECT_THROW((ResolverPopulation{dns, bad}), PreconditionError);
}

TEST(ResolverPopulation, ViewMatchesSharesUnderRandomDnsChurn) {
  // view() keeps each pool's effective shares up to date in place;
  // shares() recombines the two client populations afresh.  After every
  // DNS add, remove, setWeight and setWeights (which neither read sees
  // before the next advance) and after every advance they must agree bit
  // for bit, and a tracked-VIP list may only grow by appending
  // (re-exposing a dropped VIP keeps its old position).
  constexpr std::uint32_t kApps = 4;
  AuthoritativeDns dns;
  ResolverPopulation pop{dns, ResolverConfig{}};  // 5% lingering clients
  std::mt19937 rng(0xD45);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto weight = [&] { return unit(rng) < 0.25 ? 0.0 : 3.0 * unit(rng); };
  std::vector<std::vector<VipId>> dropped(kApps);
  std::vector<std::vector<VipId>> tracked(kApps);
  std::uint32_t nextVip = 0;
  for (std::uint32_t a = 0; a < kApps; ++a) {
    dns.registerApp(AppId{a});
    if (a + 1 == kApps) continue;
    dns.addVip(AppId{a}, VipId{nextVip++}, 1.0);
    dns.addVip(AppId{a}, VipId{nextVip++}, 2.0);
  }
  // App 3's VIPs are added after the first advance, so its pool appears
  // at the second.
  pop.advance(0.0);
  dns.addVip(AppId{kApps - 1}, VipId{nextVip++}, 1.0);
  dns.addVip(AppId{kApps - 1}, VipId{nextVip++}, 2.0);

  const auto expectViewIsShares = [&](AppId app, bool viewFirst,
                                      const std::string& what) {
    SCOPED_TRACE(what);
    std::vector<VipWeight> seen;
    if (viewFirst) seen.assign(pop.view(app).begin(), pop.view(app).end());
    const std::vector<VipWeight> fresh = pop.shares(app);
    if (!viewFirst) seen.assign(pop.view(app).begin(), pop.view(app).end());
    ASSERT_EQ(seen.size(), fresh.size());
    std::vector<VipId>& list = tracked[app.index()];
    ASSERT_GE(seen.size(), list.size());
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i].vip, fresh[i].vip);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(seen[i].weight),
                std::bit_cast<std::uint64_t>(fresh[i].weight))
          << "position " << i;
      if (i < list.size()) {
        EXPECT_EQ(seen[i].vip, list[i]) << "tracked VIP moved";
      } else {
        list.push_back(seen[i].vip);
      }
    }
  };

  SimTime now = 0.0;
  for (int step = 0; step < 3000; ++step) {
    const AppId app{static_cast<std::uint32_t>(rng() % kApps)};
    const auto exposed = dns.vips(app);
    const std::string what = "step " + std::to_string(step);
    switch (rng() % 6) {
      case 0: {  // expose a fresh VIP, or re-expose a dropped one
        std::vector<VipId>& pool = dropped[app.index()];
        if (!pool.empty() && rng() % 2 == 0) {
          dns.addVip(app, pool.back(), weight());
          pool.pop_back();
        } else {
          dns.addVip(app, VipId{nextVip++}, weight());
        }
        break;
      }
      case 1:
        if (!exposed.empty()) {
          const VipId vip = exposed[rng() % exposed.size()].vip;
          dns.removeVip(app, vip);
          dropped[app.index()].push_back(vip);
        }
        break;
      case 2:
        if (!exposed.empty()) {
          dns.setWeight(app, exposed[rng() % exposed.size()].vip, weight());
        }
        break;
      case 3: {
        std::vector<VipWeight> all(exposed.begin(), exposed.end());
        for (VipWeight& vw : all) vw.weight = weight();
        dns.setWeights(app, all);
        break;
      }
      default: {  // advance: folds the DNS changes since the last one
        now += rng() % 4 == 0 ? 0.0 : 120.0 * unit(rng);
        pop.advance(now);
        for (std::uint32_t a = 0; a < kApps; ++a) {
          if (!tracked[a].empty()) {
            expectViewIsShares(AppId{a}, /*viewFirst=*/true, what);
          }
        }
        continue;
      }
    }
    // Half the DNS changes are read at once, before any advance folds
    // them; the rest are first read after the next advance.
    if (rng() % 2 == 0) expectViewIsShares(app, /*viewFirst=*/false, what);
    if (HasFatalFailure() || HasNonfatalFailure()) break;  // don't spam
  }
  for (std::uint32_t a = 0; a < kApps; ++a) EXPECT_FALSE(tracked[a].empty());
}

// A test-local copy of the advance ResolverPopulation ran before each
// pool relaxed in one pass: four parallel arrays per pool, relaxed array
// by array, tested for convergence array by array, then recombined.
class FivePassResolvers {
 public:
  FivePassResolvers(const AuthoritativeDns& dns, ResolverConfig config)
      : dns_(dns), config_(config) {}

  void advance(SimTime now) {
    const SimTime dt = now - lastAdvance_;
    lastAdvance_ = now;
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
        ++settled_;
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

  [[nodiscard]] std::span<const VipWeight> view(AppId app) const {
    return app.index() < pools_.size()
               ? std::span<const VipWeight>(pools_[app.index()].shares)
               : std::span<const VipWeight>{};
  }
  [[nodiscard]] std::size_t settled() const { return settled_; }

 private:
  struct Pool {
    std::vector<VipWeight> shares;
    std::vector<double> fast;
    std::vector<double> linger;
    std::vector<double> target;
    std::uint64_t seenGeneration = ~0ULL;
    bool initialised = false;
    bool relaxing = false;
  };

  void refreshTargets(AppId app, Pool& p) {
    const auto gen = dns_.generation(app);
    if (p.seenGeneration == gen && p.initialised) return;
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
    p.target.assign(p.shares.size(), 0.0);
    double total = 0.0;
    for (const VipWeight& vw : exposed) total += vw.weight;
    if (total > 0.0) {
      for (const VipWeight& vw : exposed) {
        p.target[position(vw.vip)] = vw.weight / total;
      }
    }
    if (!p.initialised) {
      p.fast = p.target;
      p.linger = p.target;
      p.initialised = true;
    } else if (!p.relaxing) {
      p.relaxing = true;
      relaxing_.push_back(app);
    }
    p.seenGeneration = gen;
    updateShares(p);
  }

  void updateShares(Pool& p) const {
    const double lf = config_.lingerFraction;
    for (std::size_t i = 0; i < p.shares.size(); ++i) {
      p.shares[i].weight = (1.0 - lf) * p.fast[i] + lf * p.linger[i];
    }
  }
  static void relax(std::vector<double>& shares, const std::vector<double>& t,
                    double alpha) {
    for (std::size_t i = 0; i < shares.size(); ++i) {
      shares[i] += alpha * (t[i] - shares[i]);
    }
  }
  static bool withinEps(const std::vector<double>& a,
                        const std::vector<double>& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::abs(a[i] - b[i]) > 1e-12) return false;
    }
    return true;
  }

  const AuthoritativeDns& dns_;
  ResolverConfig config_;
  SimTime lastAdvance_ = 0.0;
  std::uint64_t dnsCursor_ = 0;
  std::vector<Pool> pools_;
  std::vector<AppId> relaxing_;
  std::size_t settled_ = 0;
};

TEST(ResolverPopulation, FusedPassMatchesFivePassAdvanceBitwise) {
  // Under random DNS churn and advances of random length, every pool's
  // view matches the five-pass advance's bit for bit, for the default
  // population and for one fast enough that pools settle and are
  // re-dirtied many times.
  for (const ResolverConfig config :
       {ResolverConfig{}, ResolverConfig{4.0, 0.3, 20.0}}) {
    SCOPED_TRACE("linger " + std::to_string(config.lingerSeconds));
    constexpr std::uint32_t kApps = 6;
    AuthoritativeDns dns;
    ResolverPopulation fused{dns, config};
    FivePassResolvers fivePass{dns, config};
    std::mt19937 rng(0xF05ED);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const auto weight = [&] {
      return unit(rng) < 0.2 ? 0.0 : 4.0 * unit(rng);
    };
    std::vector<std::vector<VipId>> dropped(kApps);
    std::uint32_t nextVip = 0;
    for (std::uint32_t a = 0; a < kApps; ++a) {
      dns.registerApp(AppId{a});
      dns.addVip(AppId{a}, VipId{nextVip++}, 1.0);
    }
    SimTime now = 0.0;
    std::size_t advances = 0;
    for (int step = 0; step < 4000; ++step) {
      const AppId app{static_cast<std::uint32_t>(rng() % kApps)};
      const auto exposed = dns.vips(app);
      switch (rng() % 7) {
        case 0: {
          std::vector<VipId>& pool = dropped[app.index()];
          if (!pool.empty() && rng() % 2 == 0) {
            dns.addVip(app, pool.back(), weight());
            pool.pop_back();
          } else {
            dns.addVip(app, VipId{nextVip++}, weight());
          }
          break;
        }
        case 1:
          if (exposed.size() > 1) {
            const VipId vip = exposed[rng() % exposed.size()].vip;
            dns.removeVip(app, vip);
            dropped[app.index()].push_back(vip);
          }
          break;
        case 2:
          dns.setWeight(app, exposed[rng() % exposed.size()].vip, weight());
          break;
        case 3: {
          std::vector<VipWeight> all(exposed.begin(), exposed.end());
          for (VipWeight& vw : all) vw.weight = weight();
          dns.setWeights(app, all);
          break;
        }
        default: {
          // Mostly short steps; now and then a long quiet stretch.
          const double r = unit(rng);
          now += r < 0.15 ? 0.0 : r < 0.9 ? 5.0 * unit(rng) : 600.0 * unit(rng);
          fused.advance(now);
          fivePass.advance(now);
          ++advances;
          for (std::uint32_t a = 0; a < kApps; ++a) {
            const auto got = fused.view(AppId{a});
            const auto want = fivePass.view(AppId{a});
            ASSERT_EQ(got.size(), want.size()) << "app " << a;
            for (std::size_t k = 0; k < got.size(); ++k) {
              ASSERT_EQ(got[k].vip, want[k].vip);
              ASSERT_EQ(std::bit_cast<std::uint64_t>(got[k].weight),
                        std::bit_cast<std::uint64_t>(want[k].weight))
                  << "app " << a << " position " << k << " step " << step;
            }
          }
        }
      }
    }
    EXPECT_GT(advances, 1000u);
    if (config.lingerSeconds < 100.0) {
      EXPECT_GT(fivePass.settled(), 50u);
    }
  }
}

}  // namespace
}  // namespace mdc
