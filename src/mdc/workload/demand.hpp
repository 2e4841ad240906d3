// Demand models for elastic Internet applications.
//
// The paper's motivation is that Internet demand is "often hard to predict
// in advance" (§I).  These generators produce the demand signals the
// experiments need: Zipf-distributed popularity across applications,
// diurnal swings, sudden flash crowds, and drifting random walks.
// Everything is a pure function of (app, time) given the seed, so fluid
// epochs can be evaluated in any order and runs are reproducible.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mdc/sim/rng.hpp"
#include "mdc/util/ids.hpp"
#include "mdc/util/units.hpp"

namespace mdc {

/// Interface: request rate of an application at a point in time.
class DemandModel {
 public:
  virtual ~DemandModel() = default;
  [[nodiscard]] virtual double rps(AppId app, SimTime t) const = 0;
};

/// Constant per-app demand (the app's base rate scaled by `factor`).
class StaticDemand final : public DemandModel {
 public:
  StaticDemand(std::vector<double> baseRps, double factor = 1.0);
  [[nodiscard]] double rps(AppId app, SimTime t) const override;

 private:
  std::vector<double> base_;
  double factor_;
};

/// Sinusoidal diurnal pattern with per-app random phase and depth:
/// rps = base * (1 - depth/2 + depth/2 * sin(2*pi*t/period + phase)).
class DiurnalDemand final : public DemandModel {
 public:
  DiurnalDemand(std::vector<double> baseRps, double depth, SimTime period,
                std::uint64_t seed);
  [[nodiscard]] double rps(AppId app, SimTime t) const override;

 private:
  std::vector<double> base_;
  std::vector<double> phase_;
  double depth_;
  SimTime period_;
};

/// A flash-crowd spike layered on a base model: between start and end one
/// app's demand is multiplied, ramping up over `rampSeconds` and decaying
/// back afterwards.
class FlashCrowdDemand final : public DemandModel {
 public:
  struct Spike {
    AppId app;
    SimTime start = 0.0;
    SimTime end = 0.0;
    double multiplier = 10.0;
    SimTime rampSeconds = 30.0;
  };

  FlashCrowdDemand(std::unique_ptr<DemandModel> base,
                   std::vector<Spike> spikes);
  [[nodiscard]] double rps(AppId app, SimTime t) const override;

 private:
  std::unique_ptr<DemandModel> base_;
  std::vector<Spike> spikes_;
};

/// Mean-reverting multiplicative random walk, piecewise-constant over
/// `stepSeconds` epochs; deterministic in (app, epoch, seed).
class RandomWalkDemand final : public DemandModel {
 public:
  RandomWalkDemand(std::vector<double> baseRps, double volatility,
                   SimTime stepSeconds, std::uint64_t seed);
  [[nodiscard]] double rps(AppId app, SimTime t) const override;

 private:
  std::vector<double> base_;
  double volatility_;
  SimTime step_;
  std::uint64_t seed_;
};

/// Assigns Zipf(alpha)-distributed base rates across `n` apps such that
/// they sum to `totalRps`.  Rank 0 (app 0) is the most popular.
[[nodiscard]] std::vector<double> zipfBaseRates(std::size_t n, double alpha,
                                                double totalRps);

}  // namespace mdc
