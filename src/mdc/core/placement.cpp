#include "mdc/core/placement.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "mdc/util/expect.hpp"
#include "mdc/util/flat_map.hpp"

namespace mdc {

namespace {

/// The fixed-point unit of UtilizationSum, and the utilizations it takes:
/// 2^21 servers below 2 sum to less than 2^21 * 2^41 = 2^62.
constexpr double kFixedScale = 0x1p40;
constexpr double kFixedLimit = 2.0;
constexpr std::size_t kMaxFixedCount = std::size_t{1} << 21;

[[nodiscard]] bool fixable(double u) noexcept {
  return u >= 0.0 && u < kFixedLimit;  // false for NaN
}

[[nodiscard]] std::int64_t toFixed(double u) noexcept {
  return static_cast<std::int64_t>(u * kFixedScale);  // exact, then floor
}

}  // namespace

bool rebalanceStops(std::span<const double> utils, double hot,
                    double tolerance) {
  double sum = 0.0;
  for (const double u : utils) sum += u;
  const double mean = sum / static_cast<double>(utils.size());
  return mean <= 0.0 || hot <= tolerance * mean;
}

void UtilizationSum::add(double u) noexcept {
  ++count_;
  if (fixable(u)) {
    fixed_ += toFixed(u);
  } else {
    ++outOfRange_;
  }
}

void UtilizationSum::replace(double before, double after) noexcept {
  if (fixable(before)) {
    fixed_ -= toFixed(before);
  } else {
    --outOfRange_;
  }
  if (fixable(after)) {
    fixed_ += toFixed(after);
  } else {
    ++outOfRange_;
  }
}

std::optional<bool> UtilizationSum::certifiedStop(
    double hot, double tolerance) const noexcept {
  if (outOfRange_ != 0 || fixed_ == 0 || count_ > kMaxFixedCount) {
    return std::nullopt;
  }
  // With F > 0, s >= 2^-40 and the server-order mean is positive, so the
  // test is hot <= tolerance * mean alone, and the threshold it compares
  // lies in [lo * (1 - rel), hi * (1 + rel)].
  const double n = static_cast<double>(count_);
  const double rel = (n + 8.0) * 0x1p-53;
  const auto end = fixed_ + static_cast<std::int64_t>(count_);
  const double lo =
      tolerance * (static_cast<double>(fixed_) / kFixedScale) / n;
  const double hi = tolerance * (static_cast<double>(end) / kFixedScale) / n;
  if (hot <= lo * (1.0 - rel)) return true;
  if (hot > hi * (1.0 + rel)) return false;
  return std::nullopt;
}

namespace {

/// Mutable working state shared by both algorithms.
///
/// Each app's instances are a FlatMap of server -> rps (a sorted vector,
/// ascending server), and each server's usage and utilization are dense
/// arrays.  grow() and shrink() are the only writers of `used_`; the
/// cached utilization is recomputed from `used_` after every change, so
/// it is always the exact double a fresh maxRatio() would return.
///
/// The rebalance asks per pass whether the servers are balanced, for the
/// hottest server, the coldest one that can take an app, and the apps on
/// a server.  indexForRebalance() builds what answers those without
/// rescanning — the exact utilization sum, the servers ordered by
/// (utilization, index) and the apps resident on each server in
/// ascending index — from the current state, and from then on grow() and
/// shrink() keep them current.  Nothing before the rebalance reads them,
/// and they hold only current values (the sum is exact, so its update
/// order cannot matter), so building them late yields what maintaining
/// them all along would have.
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

  /// Builds the rebalance indexes; see the class comment.
  void indexForRebalance() {
    std::vector<std::pair<double, std::uint32_t>> keys;
    keys.reserve(util_.size());
    for (std::uint32_t s = 0; s < util_.size(); ++s) {
      keys.emplace_back(util_[s], s);
      utilSum_.add(util_[s]);
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

  /// rebalanceStops() over every server's utilization, from the running
  /// sum where it certifies the answer.  Precondition: at least one
  /// server, and indexForRebalance() ran.
  [[nodiscard]] bool balanced(double hot, double tolerance) const {
    const std::optional<bool> certain = utilSum_.certifiedStop(hot, tolerance);
    return certain ? *certain : rebalanceStops(util_, hot, tolerance);
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
      utilSum_.replace(util_[server], util);
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
  UtilizationSum utilSum_;
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
    const auto [hot, hotUtil] = st.hottest();
    if (st.balanced(hotUtil, options_.balanceTolerance)) break;

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
