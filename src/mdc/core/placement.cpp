#include "mdc/core/placement.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "mdc/util/expect.hpp"
#include "mdc/util/flat_map.hpp"

namespace mdc {

namespace {

/// Mutable working state shared by both algorithms.
///
/// Each app's instances are a FlatMap of server -> rps (a sorted vector,
/// ascending server), and each server's usage and utilization are dense
/// arrays.  grow() and shrink() are the only writers of `used_`; the
/// cached utilization is recomputed from `used_` after every change, so
/// it is always the exact double a fresh maxRatio() would return.
///
/// The rebalance asks per pass for the hottest server, the coldest one
/// that can take an app, and the apps on a server.  indexForRebalance()
/// builds the two indexes that answer those without rescanning — the
/// servers ordered by (utilization, index) and the apps resident on each
/// server in ascending index — from the current state, and from then on
/// grow() and shrink() keep them current.  Nothing before the rebalance
/// reads them, and they hold only current values, so building them late
/// yields what maintaining them all along would have.
class WorkingState {
 public:
  explicit WorkingState(const PlacementInput& input) : input_(input) {
    used_.resize(input.servers.size());
    util_.resize(input.servers.size());
    perApp_.resize(input.apps.size());
    for (const Assignment& a : input.current) {
      MDC_EXPECT(a.app < input.apps.size() && a.server < input.servers.size(),
                 "current assignment references unknown app/server");
    }
    for (std::uint32_t s = 0; s < input.servers.size(); ++s) {
      util_[s] = used_[s].maxRatio(input.servers[s].capacity);
    }
  }

  [[nodiscard]] const PlacementInput& input() const { return input_; }

  [[nodiscard]] double rpsOf(std::uint32_t app, std::uint32_t server) const {
    const auto it = perApp_[app].find(server);
    return it == perApp_[app].end() ? 0.0 : it->second;
  }

  [[nodiscard]] CapacityVec freeOn(std::uint32_t server) const {
    return input_.servers[server].capacity - used_[server];
  }

  [[nodiscard]] double utilization(std::uint32_t server) const {
    return util_[server];
  }

  /// Every server's utilization, in server order.
  [[nodiscard]] const std::vector<double>& utilizations() const {
    return util_;
  }

  /// Builds the rebalance indexes; see the class comment.
  void indexForRebalance() {
    std::vector<std::pair<double, std::uint32_t>> keys;
    keys.reserve(util_.size());
    for (std::uint32_t s = 0; s < util_.size(); ++s) {
      keys.emplace_back(util_[s], s);
    }
    std::sort(keys.begin(), keys.end());
    byUtil_ = std::set<std::pair<double, std::uint32_t>>(keys.begin(),
                                                         keys.end());
    residents_.assign(input_.servers.size(), {});
    for (std::uint32_t a = 0; a < perApp_.size(); ++a) {
      for (const auto& [server, rps] : perApp_[a]) {
        residents_[server].push_back(a);
      }
    }
    indexed_ = true;
  }

  /// Apps with an instance on `server`, in ascending index.
  /// Precondition: indexForRebalance() ran.
  [[nodiscard]] const std::vector<std::uint32_t>& residents(
      std::uint32_t server) const {
    return residents_[server];
  }

  /// The lowest-index server with the largest utilization if that is
  /// positive, else (0, 0.0) — what a scan keeping the first strictly
  /// larger value above 0 finds.  Precondition: at least one server, and
  /// indexForRebalance() ran.
  [[nodiscard]] std::pair<std::uint32_t, double> hottest() const {
    const double max = byUtil_.rbegin()->first;
    if (!(max > 0.0)) return {0, 0.0};
    return {byUtil_.lower_bound({max, 0})->second, max};
  }

  /// The server a scan in index order would pick to take load of `app`
  /// off `hot`: the smallest utilization below `below`, ties to the
  /// lowest index, among servers other than `hot` that can grow `app` —
  /// and, once `app` is at `maxInstances`, that already host it.
  /// Returns `hot` when there is none.  Precondition: indexForRebalance()
  /// ran.
  [[nodiscard]] std::uint32_t coldest(std::uint32_t app, std::uint32_t hot,
                                      double below,
                                      std::uint32_t maxInstances) const {
    const auto canTake = [&](std::uint32_t s) {
      return s != hot && growableRps(app, s) > 1e-9;
    };
    if (instanceCount(app) < maxInstances) {
      for (const auto& [u, s] : byUtil_) {
        if (!(u < below)) break;
        if (canTake(s)) return s;
      }
      return hot;
    }
    std::pair<double, std::uint32_t> best{below, hot};
    for (const auto& [s, rps] : perApp_[app]) {
      const std::pair<double, std::uint32_t> key{util_[s], s};
      if (key.first < below && key < best && canTake(s)) best = key;
    }
    return best.second;
  }

  [[nodiscard]] std::size_t instanceCount(std::uint32_t app) const {
    return perApp_[app].size();
  }

  [[nodiscard]] const FlatMap<std::uint32_t, double>& instances(
      std::uint32_t app) const {
    return perApp_[app];
  }

  /// Additional rps of `app` the server could absorb.  If the app has no
  /// instance there, the memory footprint must also fit.  Forced inline:
  /// both algorithms probe it per (app, server), and GCC -O2 leaves it out
  /// of line, where first-fit took 0.117 s instead of 0.102 s on E7a's
  /// 4,000-server problem.
  [[nodiscard, gnu::always_inline]] double growableRps(
      std::uint32_t app, std::uint32_t server) const {
    const AppSla& sla = input_.apps[app].sla;
    CapacityVec free = freeOn(server);
    if (free.memory() < sla.memPerInstanceGb &&
        !perApp_[app].contains(server)) {
      return 0.0;
    }
    // Memory is a footprint, not rate-proportional: make it available for
    // the rate computation by pretending it is already paid.  Shave an
    // ulp-scale margin so boundary allocations stay within capacity under
    // floating-point round-off.
    free[Resource::Memory] = sla.memPerInstanceGb;
    return sla.servableRps(free) * (1.0 - 1e-12);
  }

  /// Adds `rps` of `app` on `server` (creating the instance if needed).
  void grow(std::uint32_t app, std::uint32_t server, double rps) {
    MDC_EXPECT(rps >= 0.0, "grow: negative rps");
    if (rps == 0.0) return;
    const AppSla& sla = input_.apps[app].sla;
    auto& inst = perApp_[app];
    const auto it = inst.find(server);
    if (it == inst.end()) {
      inst[server] = rps;
      if (indexed_) {
        auto& res = residents_[server];
        res.insert(std::lower_bound(res.begin(), res.end(), app), app);
      }
      used_[server] += sla.demandFor(rps);
    } else {
      // Only the rate-proportional part grows; memory is already paid.
      CapacityVec delta = sla.demandFor(rps);
      delta[Resource::Memory] = 0.0;
      used_[server] += delta;
      it->second += rps;
    }
    refreshUtilization(server);
    MDC_ENSURE(used_[server].fitsWithin(input_.servers[server].capacity *
                                        (1.0 + 1e-9)),
               "grow oversubscribed a server");
  }

  /// Removes `rps` of `app` from `server`; drops the instance at zero.
  void shrink(std::uint32_t app, std::uint32_t server, double rps) {
    auto& inst = perApp_[app];
    const auto it = inst.find(server);
    MDC_EXPECT(it != inst.end() && it->second >= rps - 1e-9,
               "shrink below zero");
    const AppSla& sla = input_.apps[app].sla;
    const double newRps = std::max(0.0, it->second - rps);
    if (newRps <= 1e-9) {
      used_[server] -= sla.demandFor(it->second);
      inst.erase(it);
      if (indexed_) {
        auto& res = residents_[server];
        res.erase(std::lower_bound(res.begin(), res.end(), app));
      }
    } else {
      CapacityVec delta = sla.demandFor(rps);
      delta[Resource::Memory] = 0.0;
      used_[server] -= delta;
      it->second = newRps;
    }
    refreshUtilization(server);
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
    // Churn vs input.current (an instance = an (app, server) pair): a
    // merge of the sorted, de-duplicated current pairs against the
    // assignment, which is unique and in (app, server) order already.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> before;
    for (const Assignment& a : input_.current) {
      if (a.rps > 0.0) before.emplace_back(a.app, a.server);
    }
    std::sort(before.begin(), before.end());
    before.erase(std::unique(before.begin(), before.end()), before.end());
    auto b = before.begin();
    for (const Assignment& a : out.assignment) {
      const std::pair key{a.app, a.server};
      for (; b != before.end() && *b < key; ++b) ++out.instancesStopped;
      if (b != before.end() && *b == key) {
        ++b;
      } else {
        ++out.instancesStarted;
      }
    }
    out.instancesStopped += static_cast<std::uint32_t>(before.end() - b);
    return out;
  }

 private:
  void refreshUtilization(std::uint32_t server) {
    const double util =
        used_[server].maxRatio(input_.servers[server].capacity);
    if (indexed_) {
      auto node = byUtil_.extract({util_[server], server});
      MDC_ENSURE(!node.empty(), "utilization index out of sync");
      node.value().first = util;
      byUtil_.insert(std::move(node));
    }
    util_[server] = util;
  }

  const PlacementInput& input_;
  std::vector<CapacityVec> used_;
  std::vector<double> util_;
  // app -> (server -> rps), in ascending server for deterministic walks.
  std::vector<FlatMap<std::uint32_t, double>> perApp_;
  // The rebalance indexes, empty until indexForRebalance().
  bool indexed_ = false;
  std::set<std::pair<double, std::uint32_t>> byUtil_;
  std::vector<std::vector<std::uint32_t>> residents_;
};

std::vector<std::uint32_t> appsByDescendingDemand(const PlacementInput& in) {
  std::vector<std::uint32_t> order(in.apps.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return in.apps[a].demandRps > in.apps[b].demandRps;
                   });
  return order;
}

}  // namespace

PlacementResult FirstFitPlacement::place(const PlacementInput& input) const {
  WorkingState st{input};
  std::uint32_t iterations = 0;
  for (std::uint32_t app : appsByDescendingDemand(input)) {
    double residual = input.apps[app].demandRps;
    for (std::uint32_t s = 0; s < input.servers.size() && residual > 1e-9;
         ++s) {
      ++iterations;
      const double can = st.growableRps(app, s);
      const double take = std::min(residual, can);
      if (take > 1e-9) {
        st.grow(app, s, take);
        residual -= take;
      }
    }
  }
  return st.finish(iterations);
}

PlacementController::PlacementController() : PlacementController(Options{}) {}

PlacementController::PlacementController(Options options)
    : options_(options) {
  MDC_EXPECT(options.balanceTolerance >= 1.0, "tolerance below 1.0");
  MDC_EXPECT(options.maxInstancesPerApp > 0, "maxInstancesPerApp == 0");
}

PlacementResult PlacementController::place(const PlacementInput& input) const {
  WorkingState st{input};
  std::uint32_t iterations = 0;

  // Phase 0: re-adopt the existing placement, clipped to demand, to
  // minimize churn (each kept instance is zero placement changes).
  {
    std::vector<double> residual(input.apps.size());
    for (std::uint32_t a = 0; a < input.apps.size(); ++a) {
      residual[a] = input.apps[a].demandRps;
    }
    for (const Assignment& a : input.current) {
      ++iterations;
      const double can = std::min({a.rps, residual[a.app],
                                   st.growableRps(a.app, a.server)});
      if (can > 1e-9) {
        st.grow(a.app, a.server, can);
        residual[a.app] -= can;
      }
    }
  }

  // Phase 1+2: satisfy residual demand — first grow resident instances,
  // then start new ones on the emptiest servers.
  std::vector<std::uint32_t> byUtil(input.servers.size());
  std::iota(byUtil.begin(), byUtil.end(), 0u);
  for (std::uint32_t app : appsByDescendingDemand(input)) {
    double residual = input.apps[app].demandRps;
    for (const auto& [server, rps] : st.instances(app)) residual -= rps;
    if (residual <= 1e-9) continue;

    // Grow in place (no churn).
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

    // New placements on least-utilized servers.
    std::stable_sort(byUtil.begin(), byUtil.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                       return st.utilization(x) < st.utilization(y);
                     });
    for (std::uint32_t s : byUtil) {
      if (residual <= 1e-9) break;
      if (st.instanceCount(app) >= options_.maxInstancesPerApp) break;
      ++iterations;
      const double take = std::min(residual, st.growableRps(app, s));
      if (take > 1e-9) {
        st.grow(app, s, take);
        residual -= take;
      }
    }
  }

  // Phase 3: rebalance — move load off the hottest server onto the
  // coldest one that can take it, until the imbalance tolerance holds.
  // Each pass answers its questions from the state's indexes, built here,
  // and each answer must be exactly what a scan over servers/apps in
  // index order would pick (see WorkingState), so the indexes never
  // change a decision.
  st.indexForRebalance();
  const auto maxPasses = static_cast<std::uint32_t>(
      kMaxBalancePassesPerServer * static_cast<double>(input.servers.size()));
  std::uint32_t passes = 0;
  while (passes < maxPasses) {
    ++passes;
    ++iterations;
    // The mean is summed in server order every pass: a running sum would
    // round differently and could flip the tolerance test.
    double sum = 0.0;
    for (const double u : st.utilizations()) sum += u;
    const auto [hot, hotUtil] = st.hottest();
    const double meanUtil = sum / static_cast<double>(input.servers.size());
    if (meanUtil <= 0.0 || hotUtil <= options_.balanceTolerance * meanUtil) {
      break;
    }

    // Choose the app with the largest allocation on the hot server and
    // try to move a slice of it to the coldest feasible server.
    // Non-residents have rps 0 and could never win.
    std::uint32_t bestApp = 0;
    double bestRps = 0.0;
    for (const std::uint32_t a : st.residents(hot)) {
      const double rps = st.rpsOf(a, hot);
      if (rps > bestRps) {
        bestRps = rps;
        bestApp = a;
      }
    }
    if (bestRps <= 1e-9) break;

    const std::uint32_t cold =
        st.coldest(bestApp, hot, hotUtil, options_.maxInstancesPerApp);
    if (cold == hot) break;  // nowhere to move
    const double coldUtil = st.utilization(cold);

    const double targetShift = bestRps * (hotUtil - coldUtil) /
                               (2.0 * std::max(hotUtil, 1e-9));
    const double shift =
        std::min({bestRps, std::max(targetShift, bestRps * 0.1),
                  st.growableRps(bestApp, cold)});
    if (shift <= 1e-9) break;
    st.shrink(bestApp, hot, shift);
    st.grow(bestApp, cold, shift);
  }

  PlacementResult result = st.finish(iterations);
  result.rebalancePasses = passes;
  return result;
}

void validatePlacement(const PlacementInput& input,
                       const PlacementResult& result) {
  std::vector<CapacityVec> used(input.servers.size());
  std::vector<double> served(input.apps.size(), 0.0);
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (const Assignment& a : result.assignment) {
    MDC_ENSURE(a.app < input.apps.size(), "assignment: bad app index");
    MDC_ENSURE(a.server < input.servers.size(), "assignment: bad server");
    MDC_ENSURE(a.rps >= 0.0, "assignment: negative rps");
    MDC_ENSURE(seen.emplace(a.app, a.server).second,
               "duplicate (app, server) assignment");
    used[a.server] += input.apps[a.app].sla.demandFor(a.rps);
    served[a.app] += a.rps;
  }
  constexpr double kSlack = 1e-6;
  for (std::uint32_t s = 0; s < input.servers.size(); ++s) {
    const CapacityVec cap = input.servers[s].capacity;
    MDC_ENSURE(used[s].cpu() <= cap.cpu() + kSlack &&
                   used[s].memory() <= cap.memory() + kSlack &&
                   used[s].network() <= cap.network() + kSlack,
               "server oversubscribed by placement");
  }
  double total = 0.0;
  for (std::uint32_t a = 0; a < input.apps.size(); ++a) {
    MDC_ENSURE(served[a] <= input.apps[a].demandRps + kSlack,
               "app served more than its demand");
    total += served[a];
  }
  MDC_ENSURE(std::abs(total - result.satisfiedRps) <=
                 kSlack * (1.0 + total),
             "satisfiedRps inconsistent with assignment");
}

}  // namespace mdc
