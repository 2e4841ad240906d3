// Unit and property tests for the placement algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "mdc/core/placement.hpp"
#include "mdc/sim/rng.hpp"
#include "mdc/util/stats.hpp"

namespace mdc {
namespace {

PlacementInput uniformInput(std::size_t servers, std::size_t apps,
                            double perAppRps) {
  PlacementInput in;
  in.servers.assign(servers, PlacementServer{CapacityVec{8.0, 32.0, 1.0}});
  in.apps.assign(apps, PlacementApp{AppSla{}, perAppRps});
  return in;
}

TEST(FirstFitPlacement, SatisfiesFeasibleDemand) {
  // 4 servers x 8 cores; 4 apps x 1000 rps x 1 core/krps = 4 cores total.
  PlacementInput in = uniformInput(4, 4, 1000.0);
  FirstFitPlacement ff;
  const auto r = ff.place(in);
  validatePlacement(in, r);
  EXPECT_NEAR(r.satisfactionRatio(), 1.0, 1e-9);
  EXPECT_EQ(r.instancesStopped, 0u);
}

TEST(FirstFitPlacement, PacksFirstServersFirst) {
  PlacementInput in = uniformInput(4, 2, 1000.0);
  FirstFitPlacement ff;
  const auto r = ff.place(in);
  // Everything fits on server 0 (8 cores, 2 krps needs 2 cores + mem).
  for (const Assignment& a : r.assignment) EXPECT_EQ(a.server, 0u);
}

TEST(FirstFitPlacement, OverloadLeavesUnsatisfiedDemand) {
  // 1 server x 8 cores; demand 20 krps needs 20 cores.
  PlacementInput in = uniformInput(1, 2, 10'000.0);
  FirstFitPlacement ff;
  const auto r = ff.place(in);
  validatePlacement(in, r);
  EXPECT_LT(r.satisfiedRps, r.demandRps);
  EXPECT_GT(r.satisfiedRps, 0.0);
}

TEST(PlacementController, SatisfiesFeasibleDemand) {
  PlacementInput in = uniformInput(6, 10, 800.0);
  PlacementController pc;
  const auto r = pc.place(in);
  validatePlacement(in, r);
  EXPECT_NEAR(r.satisfactionRatio(), 1.0, 1e-9);
}

TEST(PlacementController, BalancesBetterThanFirstFit) {
  PlacementInput in = uniformInput(8, 16, 700.0);
  const auto ffr = FirstFitPlacement{}.place(in);
  const auto pcr = PlacementController{}.place(in);
  validatePlacement(in, ffr);
  validatePlacement(in, pcr);

  auto serverLoads = [&](const PlacementResult& r) {
    std::vector<double> load(in.servers.size(), 0.0);
    for (const Assignment& a : r.assignment) {
      load[a.server] += a.rps;
    }
    return load;
  };
  const double ffImb = maxOverMean(serverLoads(ffr));
  const double pcImb = maxOverMean(serverLoads(pcr));
  EXPECT_LT(pcImb, ffImb);
  EXPECT_LT(pcImb, 1.3);
}

TEST(PlacementController, MinimizesChurnAgainstCurrentPlacement) {
  PlacementInput in = uniformInput(4, 4, 1000.0);
  // A feasible existing placement: app i on server i.
  for (std::uint32_t i = 0; i < 4; ++i) {
    in.current.push_back(Assignment{i, i, 1000.0});
  }
  PlacementController pc;
  const auto r = pc.place(in);
  validatePlacement(in, r);
  EXPECT_NEAR(r.satisfactionRatio(), 1.0, 1e-9);
  EXPECT_EQ(r.instancesStarted, 0u);
  EXPECT_EQ(r.instancesStopped, 0u);
}

TEST(PlacementController, DropsInstancesWhenDemandVanishes) {
  PlacementInput in = uniformInput(2, 1, 0.0);
  in.current.push_back(Assignment{0, 0, 500.0});
  in.current.push_back(Assignment{0, 1, 500.0});
  const auto r = PlacementController{}.place(in);
  validatePlacement(in, r);
  EXPECT_TRUE(r.assignment.empty());
  EXPECT_EQ(r.instancesStopped, 2u);
}

TEST(PlacementController, RespectsMaxInstancesPerApp) {
  PlacementController::Options opt;
  opt.maxInstancesPerApp = 2;
  PlacementController pc{opt};
  // One app whose demand needs more than 2 servers' worth of CPU.
  PlacementInput in = uniformInput(8, 1, 30'000.0);
  const auto r = pc.place(in);
  validatePlacement(in, r);
  std::size_t instances = 0;
  for (const Assignment& a : r.assignment) {
    if (a.rps > 0.0) ++instances;
  }
  EXPECT_LE(instances, 2u);
  EXPECT_LT(r.satisfiedRps, r.demandRps);  // capped by the limit
}

TEST(PlacementController, MemoryFootprintLimitsColocation) {
  // Server with 4 GB memory, app footprint 2 GB -> at most 2 apps.
  PlacementInput in;
  in.servers.assign(1, PlacementServer{CapacityVec{32.0, 4.0, 10.0}});
  in.apps.assign(3, PlacementApp{AppSla{}, 100.0});
  const auto r = PlacementController{}.place(in);
  validatePlacement(in, r);
  std::size_t placed = 0;
  for (const Assignment& a : r.assignment) {
    if (a.rps > 0.0) ++placed;
  }
  EXPECT_LE(placed, 2u);
}

TEST(PlacementController, InvalidCurrentAssignmentThrows) {
  PlacementInput in = uniformInput(2, 2, 100.0);
  in.current.push_back(Assignment{5, 0, 10.0});
  EXPECT_THROW((void)PlacementController{}.place(in), PreconditionError);
}

TEST(PlacementController, OptionValidation) {
  PlacementController::Options bad;
  bad.balanceTolerance = 0.5;
  EXPECT_THROW((PlacementController{bad}), PreconditionError);
  bad = PlacementController::Options{};
  bad.maxInstancesPerApp = 0;
  EXPECT_THROW((PlacementController{bad}), PreconditionError);
}

TEST(ValidatePlacement, CatchesOversubscription) {
  PlacementInput in = uniformInput(1, 1, 1000.0);
  PlacementResult r;
  r.assignment.push_back(Assignment{0, 0, 100'000.0});
  r.satisfiedRps = 100'000.0;
  r.demandRps = 1000.0;
  EXPECT_THROW(validatePlacement(in, r), InvariantError);
}

TEST(ValidatePlacement, CatchesDuplicatePairs) {
  PlacementInput in = uniformInput(1, 1, 1000.0);
  PlacementResult r;
  r.assignment.push_back(Assignment{0, 0, 100.0});
  r.assignment.push_back(Assignment{0, 0, 100.0});
  r.satisfiedRps = 200.0;
  r.demandRps = 1000.0;
  EXPECT_THROW(validatePlacement(in, r), InvariantError);
}

// --- Indexed rebalance vs the scan it replaced ---------------------------
//
// `scan` is the controller as it was before its rebalance read indexes:
// every pass recomputes each server's utilization and probes every app
// for the hot server, and each app's instances are a std::map.  It stays
// here as the reference model the indexed implementation must match bit
// for bit; its first-fit is FirstFitPlacement's loop over that state.
namespace scan {

class WorkingState {
 public:
  explicit WorkingState(const PlacementInput& input) : input_(input) {
    used_.resize(input.servers.size());
    perApp_.resize(input.apps.size());
  }

  [[nodiscard]] double rpsOf(std::uint32_t app, std::uint32_t server) const {
    const auto it = perApp_[app].find(server);
    return it == perApp_[app].end() ? 0.0 : it->second;
  }

  [[nodiscard]] double utilization(std::uint32_t server) const {
    return used_[server].maxRatio(input_.servers[server].capacity);
  }

  [[nodiscard]] const std::map<std::uint32_t, double>& instances(
      std::uint32_t app) const {
    return perApp_[app];
  }

  [[nodiscard]] double growableRps(std::uint32_t app,
                                   std::uint32_t server) const {
    const AppSla& sla = input_.apps[app].sla;
    CapacityVec free = input_.servers[server].capacity - used_[server];
    if (!perApp_[app].contains(server) &&
        free.memory() < sla.memPerInstanceGb) {
      return 0.0;
    }
    free[Resource::Memory] = sla.memPerInstanceGb;
    return sla.servableRps(free) * (1.0 - 1e-12);
  }

  void grow(std::uint32_t app, std::uint32_t server, double rps) {
    if (rps == 0.0) return;
    const AppSla& sla = input_.apps[app].sla;
    auto& inst = perApp_[app];
    const auto it = inst.find(server);
    if (it == inst.end()) {
      inst.emplace(server, rps);
      used_[server] += sla.demandFor(rps);
    } else {
      CapacityVec delta = sla.demandFor(rps);
      delta[Resource::Memory] = 0.0;
      used_[server] += delta;
      it->second += rps;
    }
  }

  void shrink(std::uint32_t app, std::uint32_t server, double rps) {
    auto& inst = perApp_[app];
    const auto it = inst.find(server);
    const AppSla& sla = input_.apps[app].sla;
    const double newRps = std::max(0.0, it->second - rps);
    if (newRps <= 1e-9) {
      used_[server] -= sla.demandFor(it->second);
      inst.erase(it);
    } else {
      CapacityVec delta = sla.demandFor(rps);
      delta[Resource::Memory] = 0.0;
      used_[server] -= delta;
      it->second = newRps;
    }
  }

  [[nodiscard]] PlacementResult finish(std::uint32_t iterations) const {
    PlacementResult out;
    out.iterations = iterations;
    for (std::uint32_t a = 0; a < perApp_.size(); ++a) {
      out.demandRps += input_.apps[a].demandRps;
      for (const auto& [server, rps] : perApp_[a]) {
        out.assignment.push_back(Assignment{a, server, rps});
        out.satisfiedRps += rps;
      }
    }
    std::set<std::pair<std::uint32_t, std::uint32_t>> before;
    for (const Assignment& a : input_.current) {
      if (a.rps > 0.0) before.emplace(a.app, a.server);
    }
    std::set<std::pair<std::uint32_t, std::uint32_t>> after;
    for (const Assignment& a : out.assignment) after.emplace(a.app, a.server);
    for (const auto& key : after) {
      if (!before.contains(key)) ++out.instancesStarted;
    }
    for (const auto& key : before) {
      if (!after.contains(key)) ++out.instancesStopped;
    }
    return out;
  }

 private:
  const PlacementInput& input_;
  std::vector<CapacityVec> used_;
  std::vector<std::map<std::uint32_t, double>> perApp_;
};

std::vector<std::uint32_t> byDescendingDemand(const PlacementInput& input) {
  std::vector<std::uint32_t> order(input.apps.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return input.apps[a].demandRps > input.apps[b].demandRps;
                   });
  return order;
}

PlacementResult firstFit(const PlacementInput& input) {
  WorkingState st{input};
  std::uint32_t iterations = 0;
  for (std::uint32_t app : byDescendingDemand(input)) {
    double residual = input.apps[app].demandRps;
    for (std::uint32_t s = 0; s < input.servers.size() && residual > 1e-9;
         ++s) {
      ++iterations;
      const double take = std::min(residual, st.growableRps(app, s));
      if (take > 1e-9) {
        st.grow(app, s, take);
        residual -= take;
      }
    }
  }
  return st.finish(iterations);
}

PlacementResult place(const PlacementInput& input,
                      const PlacementController::Options& options) {
  WorkingState st{input};
  std::uint32_t iterations = 0;

  std::vector<double> residual0(input.apps.size());
  for (std::uint32_t a = 0; a < input.apps.size(); ++a) {
    residual0[a] = input.apps[a].demandRps;
  }
  for (const Assignment& a : input.current) {
    ++iterations;
    const double can = std::min({a.rps, residual0[a.app],
                                 st.growableRps(a.app, a.server)});
    if (can > 1e-9) {
      st.grow(a.app, a.server, can);
      residual0[a.app] -= can;
    }
  }

  std::vector<std::uint32_t> byUtil(input.servers.size());
  std::iota(byUtil.begin(), byUtil.end(), 0u);
  for (std::uint32_t app : byDescendingDemand(input)) {
    double residual = input.apps[app].demandRps;
    for (const auto& [server, rps] : st.instances(app)) residual -= rps;
    if (residual <= 1e-9) continue;
    std::vector<std::uint32_t> resident;
    for (const auto& [server, rps] : st.instances(app)) {
      resident.push_back(server);
    }
    for (std::uint32_t s : resident) {
      if (residual <= 1e-9) break;
      ++iterations;
      const double take = std::min(residual, st.growableRps(app, s));
      if (take > 1e-9) {
        st.grow(app, s, take);
        residual -= take;
      }
    }
    if (residual <= 1e-9) continue;
    std::stable_sort(byUtil.begin(), byUtil.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                       return st.utilization(x) < st.utilization(y);
                     });
    for (std::uint32_t s : byUtil) {
      if (residual <= 1e-9) break;
      if (st.instances(app).size() >= options.maxInstancesPerApp) break;
      ++iterations;
      const double take = std::min(residual, st.growableRps(app, s));
      if (take > 1e-9) {
        st.grow(app, s, take);
        residual -= take;
      }
    }
  }

  const auto maxPasses = static_cast<std::uint32_t>(
      PlacementController::kMaxBalancePassesPerServer *
      static_cast<double>(input.servers.size()));
  std::uint32_t passes = 0;
  for (std::uint32_t pass = 0; pass < maxPasses; ++pass) {
    ++iterations;
    ++passes;
    double sum = 0.0;
    std::uint32_t hot = 0;
    double hotUtil = 0.0;
    for (std::uint32_t s = 0; s < input.servers.size(); ++s) {
      const double u = st.utilization(s);
      sum += u;
      if (u > hotUtil) {
        hotUtil = u;
        hot = s;
      }
    }
    const double meanUtil = sum / static_cast<double>(input.servers.size());
    if (meanUtil <= 0.0 || hotUtil <= options.balanceTolerance * meanUtil) {
      break;
    }
    std::uint32_t bestApp = 0;
    double bestRps = 0.0;
    for (std::uint32_t a = 0; a < input.apps.size(); ++a) {
      const double rps = st.rpsOf(a, hot);
      if (rps > bestRps) {
        bestRps = rps;
        bestApp = a;
      }
    }
    if (bestRps <= 1e-9) break;
    std::uint32_t cold = hot;
    double coldUtil = hotUtil;
    for (std::uint32_t s = 0; s < input.servers.size(); ++s) {
      if (s == hot) continue;
      const double u = st.utilization(s);
      if (u < coldUtil && st.growableRps(bestApp, s) > 1e-9) {
        if (st.rpsOf(bestApp, s) == 0.0 &&
            st.instances(bestApp).size() >= options.maxInstancesPerApp) {
          continue;
        }
        coldUtil = u;
        cold = s;
      }
    }
    if (cold == hot) break;
    const double targetShift = bestRps * (hotUtil - coldUtil) /
                               (2.0 * std::max(hotUtil, 1e-9));
    const double shift =
        std::min({bestRps, std::max(targetShift, bestRps * 0.1),
                  st.growableRps(bestApp, cold)});
    if (shift <= 1e-9) break;
    st.shrink(bestApp, hot, shift);
    st.grow(bestApp, cold, shift);
  }
  PlacementResult out = st.finish(iterations);
  out.rebalancePasses = passes;
  return out;
}

}  // namespace scan

/// A pod-shaped problem: 2-121 servers (some half-size), up to 300 apps
/// with Zipf demand at a random load, and a current placement that is
/// empty, random (infeasible and duplicate pairs included), or the
/// previous decision under other demands.  Some inputs use one SLA and
/// one demand for every app, so many servers tie on utilization.
PlacementInput randomPodProblem(Rng& rng) {
  PlacementInput in;
  const std::size_t servers = 2 + rng.uniformInt(120);
  const CapacityVec full{16.0, 64.0, 2.0};
  for (std::size_t s = 0; s < servers; ++s) {
    in.servers.push_back(
        PlacementServer{rng.bernoulli(0.25) ? full * 0.5 : full});
  }
  const std::size_t apps = 1 + rng.uniformInt(300);
  const double totalRps = rng.uniform(0.2, 1.3) *
                          static_cast<double>(servers) * 16.0 * 1000.0;
  const bool uniform = rng.bernoulli(0.25);
  const ZipfSampler zipf{apps, 0.9};
  for (std::size_t a = 0; a < apps; ++a) {
    AppSla sla;
    double demand = totalRps / static_cast<double>(apps);
    if (!uniform) {
      sla.cpuPerKrps = rng.uniform(0.5, 2.0);
      sla.memPerInstanceGb = rng.uniform(0.5, 4.0);
      sla.gbpsPerKrps = rng.uniform(0.01, 0.1);
      demand = rng.bernoulli(0.1) ? 0.0 : zipf.probability(a) * totalRps;
    }
    in.apps.push_back(PlacementApp{sla, demand});
  }
  const auto pick = [&](std::size_t n) {
    return static_cast<std::uint32_t>(rng.uniformInt(n));
  };
  const double mode = rng.uniform();
  if (mode < 0.35) {
    const std::size_t n = rng.uniformInt(2 * apps);
    for (std::size_t c = 0; c < n; ++c) {
      in.current.push_back(
          Assignment{pick(apps), pick(servers), rng.uniform(0.0, 4000.0)});
    }
  } else if (mode < 0.8) {
    PlacementInput previous = in;
    for (PlacementApp& app : previous.apps) {
      app.demandRps *= rng.uniform(0.5, 1.5);
    }
    in.current = scan::place(previous, PlacementController::Options{})
                     .assignment;
  }
  if (!in.current.empty()) {
    const std::size_t dups = rng.uniformInt(4);
    for (std::size_t d = 0; d < dups; ++d) {
      Assignment dup = in.current[pick(in.current.size())];
      dup.rps = rng.uniform(0.0, 2000.0);
      in.current.push_back(dup);
    }
  }
  return in;
}

/// Every field of `got` equals `want`'s, doubles bit for bit.
void expectBitIdentical(const PlacementResult& got,
                        const PlacementResult& want) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  ASSERT_EQ(got.assignment.size(), want.assignment.size());
  for (std::size_t i = 0; i < want.assignment.size(); ++i) {
    ASSERT_EQ(got.assignment[i].app, want.assignment[i].app);
    ASSERT_EQ(got.assignment[i].server, want.assignment[i].server);
    ASSERT_EQ(bits(got.assignment[i].rps), bits(want.assignment[i].rps));
  }
  ASSERT_EQ(bits(got.satisfiedRps), bits(want.satisfiedRps));
  ASSERT_EQ(bits(got.demandRps), bits(want.demandRps));
  ASSERT_EQ(got.instancesStarted, want.instancesStarted);
  ASSERT_EQ(got.instancesStopped, want.instancesStopped);
  ASSERT_EQ(got.iterations, want.iterations);
  ASSERT_EQ(got.rebalancePasses, want.rebalancePasses);
}

// Both algorithms share the working state, so first-fit is checked
// against a first-fit over the scan's state on the same problems.
TEST(PlacementController, IndexedRebalanceMatchesScan) {
  std::vector<PlacementController::Options> optionSets;
  for (const double tolerance : {1.05, 1.1, 1.5}) {
    for (const std::uint32_t cap : {2u, 8u, 256u}) {
      PlacementController::Options o;
      o.balanceTolerance = tolerance;
      o.maxInstancesPerApp = cap;
      optionSets.push_back(o);
    }
  }
  std::uint64_t passes = 0;
  std::uint64_t firstFitInstances = 0;
  for (std::uint64_t seed = 1; seed <= 450; ++seed) {
    Rng rng{seed};
    const PlacementInput in = randomPodProblem(rng);
    const PlacementController::Options& options =
        optionSets[seed % optionSets.size()];
    SCOPED_TRACE("seed " + std::to_string(seed));
    const PlacementResult got = PlacementController{options}.place(in);
    validatePlacement(in, got);
    ASSERT_NO_FATAL_FAILURE(expectBitIdentical(got, scan::place(in, options)));
    passes += got.rebalancePasses;

    const PlacementResult firstFit = FirstFitPlacement{}.place(in);
    validatePlacement(in, firstFit);
    ASSERT_NO_FATAL_FAILURE(expectBitIdentical(firstFit, scan::firstFit(in)));
    firstFitInstances += firstFit.assignment.size();
  }
  // The inputs must actually exercise the rebalance, and first-fit must
  // place instances.
  EXPECT_GT(passes, 450u * 10u);
  EXPECT_GT(firstFitInstances, 450u * 10u);
}

// Property suite over randomized instances: both algorithms must produce
// valid placements; the controller must satisfy at least as much demand
// as first-fit (it strictly dominates by construction) up to epsilon.
class PlacementPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PlacementPropertyTest, BothAlgorithmsProduceValidPlacements) {
  Rng rng{GetParam()};
  PlacementInput in;
  const std::size_t servers = 2 + rng.uniformInt(12);
  const std::size_t apps = 1 + rng.uniformInt(20);
  for (std::size_t s = 0; s < servers; ++s) {
    in.servers.push_back(PlacementServer{
        CapacityVec{rng.uniform(4.0, 16.0), rng.uniform(8.0, 64.0),
                    rng.uniform(0.5, 2.0)}});
  }
  for (std::size_t a = 0; a < apps; ++a) {
    AppSla sla;
    sla.cpuPerKrps = rng.uniform(0.5, 2.0);
    sla.memPerInstanceGb = rng.uniform(1.0, 4.0);
    sla.gbpsPerKrps = rng.uniform(0.01, 0.1);
    in.apps.push_back(PlacementApp{sla, rng.uniform(0.0, 3000.0)});
  }
  // Random (feasible-per-entry) current placement.
  const std::size_t currents = rng.uniformInt(5);
  for (std::size_t c = 0; c < currents; ++c) {
    in.current.push_back(
        Assignment{static_cast<std::uint32_t>(rng.uniformInt(apps)),
                   static_cast<std::uint32_t>(rng.uniformInt(servers)),
                   rng.uniform(0.0, 500.0)});
  }

  const auto ffr = FirstFitPlacement{}.place(in);
  const auto pcr = PlacementController{}.place(in);
  validatePlacement(in, ffr);
  validatePlacement(in, pcr);
  EXPECT_GE(pcr.satisfiedRps, ffr.satisfiedRps - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, PlacementPropertyTest,
                         ::testing::Range<std::uint64_t>(100, 140));

}  // namespace
}  // namespace mdc
