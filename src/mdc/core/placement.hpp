// Intra-pod application placement.
//
// The paper applies "existing solutions" ([23] Tang et al., [28] Zhang et
// al.) inside each pod and leans on their published scalability limits
// (~30 s for 7,000 servers / 17,500 apps, superlinear growth) to justify
// the pod decomposition.  We provide two implementations:
//
//  * PlacementController — a demand-satisfying, change-minimizing,
//    load-balancing controller in the spirit of [23]: it first grows
//    allocations on servers that already host an application (no new
//    placements), then starts new instances where capacity remains, then
//    runs an iterative rebalancing phase until the server-utilization
//    imbalance drops below tolerance.  Decision quality is high but cost
//    grows superlinearly with problem size — exactly the property E3
//    measures.
//  * FirstFitPlacement — a cheap first-fit-decreasing baseline: near-
//    linear time, worse balance and more placement churn.
//
// Both consume an abstract PlacementInput so the same code serves pod
// managers, the centralized whole-DC baseline, and unit tests.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "mdc/app/app_registry.hpp"
#include "mdc/util/units.hpp"

namespace mdc {

struct PlacementServer {
  CapacityVec capacity;
};

struct PlacementApp {
  AppSla sla;
  double demandRps = 0.0;
};

/// One application instance: `rps` of app `app` served on `server`.
struct Assignment {
  std::uint32_t app = 0;
  std::uint32_t server = 0;
  double rps = 0.0;
};

struct PlacementInput {
  std::vector<PlacementServer> servers;
  std::vector<PlacementApp> apps;
  /// Existing instances (for change minimization); may violate the new
  /// demands but must reference valid servers/apps.
  std::vector<Assignment> current;
};

struct PlacementResult {
  /// Unique (app, server) pairs, in (app, server) order.
  std::vector<Assignment> assignment;
  double satisfiedRps = 0.0;
  double demandRps = 0.0;
  /// Instances started/stopped relative to `current` (placement churn,
  /// which the paper says "must be minimized", §IV-D).
  std::uint32_t instancesStarted = 0;
  std::uint32_t instancesStopped = 0;
  std::uint32_t iterations = 0;
  /// Rebalance passes run (PlacementController only; the last one may
  /// find nothing to move).  Each pass is one hottest/coldest query, so
  /// this is the count that explains a slow decision.
  std::uint32_t rebalancePasses = 0;

  [[nodiscard]] double satisfactionRatio() const noexcept {
    return demandRps > 0.0 ? satisfiedRps / demandRps : 1.0;
  }
};

class PlacementAlgorithm {
 public:
  virtual ~PlacementAlgorithm() = default;
  [[nodiscard]] virtual PlacementResult place(
      const PlacementInput& input) const = 0;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

/// First-fit decreasing: apps by descending demand, servers in index
/// order.  Ignores `current` except for churn accounting.
class FirstFitPlacement final : public PlacementAlgorithm {
 public:
  [[nodiscard]] PlacementResult place(
      const PlacementInput& input) const override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "first-fit";
  }
};

/// The rebalance's stop test from the server-order double sum of `utils`:
/// `mean <= 0 || hot <= tolerance * mean`, mean = sum / utils.size(), the
/// sum taken in index order.  Precondition: `utils` is not empty.
[[nodiscard]] bool rebalanceStops(std::span<const double> utils, double hot,
                                  double tolerance);

/// An exact running sum of server utilizations that decides the
/// rebalance's stop test without re-adding every server each pass.
///
/// Each utilization u in [0, 2) enters as floor(u * 2^40) in an int64
/// sum F, so the sum is exact whatever order the updates came in, and the
/// real sum s of n servers lies in [F, F + n) * 2^-40.  The server-order
/// double sum rebalanceStops() takes lies within
/// (n - 1) * 2^-53 / (1 - (n - 1) * 2^-53) * s <= n * 2^-53 * s of s, and
/// its mean and tolerance product round once each.  certifiedStop()
/// answers only when `hot` lies outside that whole band, widened by eight
/// roundings (those two and the five the estimate itself takes), so every
/// answer it gives is rebalanceStops()'s; otherwise the caller sums in
/// server order.
class UtilizationSum {
 public:
  /// Adds one server at utilization `u`.
  void add(double u) noexcept;
  /// One server's utilization moved from `before` (the value it was
  /// added or last replaced with) to `after`.
  void replace(double before, double after) noexcept;

  /// rebalanceStops() over the servers summed here, or nullopt when the
  /// error bound cannot rule out another answer: near the threshold, with
  /// a utilization outside [0, 2), with F = 0 (the mean may be 0), or
  /// past 2^21 servers.
  [[nodiscard]] std::optional<bool> certifiedStop(
      double hot, double tolerance) const noexcept;

 private:
  std::int64_t fixed_ = 0;      // F: the sum of floor(u * 2^40), u in range
  std::size_t count_ = 0;       // n: servers added
  std::size_t outOfRange_ = 0;  // servers whose u is outside [0, 2)
};

/// Tang-style controller: grow in place, then place, then rebalance.
class PlacementController final : public PlacementAlgorithm {
 public:
  struct Options {
    /// Stop rebalancing once max/mean server utilization <= this.
    double balanceTolerance = 1.10;
    /// Maximum simultaneous instances of one app (VIP/RIP economics).
    std::uint32_t maxInstancesPerApp = 256;
  };

  /// Hard cap on rebalance passes as a multiple of server count.
  static constexpr double kMaxBalancePassesPerServer = 2.0;

  PlacementController();
  explicit PlacementController(Options options);

  [[nodiscard]] PlacementResult place(
      const PlacementInput& input) const override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "controller";
  }

 private:
  Options options_;
};

/// Validates that `result.assignment` respects every server's capacity in
/// `input` (including per-instance memory footprints) and that satisfied
/// demand is consistent.  Throws InvariantError on violation; used by
/// tests and by pod managers in debug runs.
void validatePlacement(const PlacementInput& input,
                       const PlacementResult& result);

}  // namespace mdc
