// Unit tests for the application model and workload generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "mdc/app/app_registry.hpp"
#include "mdc/workload/demand.hpp"

namespace mdc {
namespace {

TEST(AppSla, DemandScalesLinearly) {
  AppSla sla;  // 1 core/krps, 2 GB, 0.04 Gbps/krps
  const CapacityVec d = sla.demandFor(2000.0);
  EXPECT_DOUBLE_EQ(d.cpu(), 2.0);
  EXPECT_DOUBLE_EQ(d.memory(), 2.0);
  EXPECT_DOUBLE_EQ(d.network(), 0.08);
  EXPECT_THROW((void)sla.demandFor(-1.0), PreconditionError);
}

TEST(AppSla, ServableRpsIsBindingResource) {
  AppSla sla;
  // CPU allows 2 krps; network allows 1 krps -> network binds.
  const CapacityVec s{2.0, 2.0, 0.04};
  EXPECT_DOUBLE_EQ(sla.servableRps(s), 1000.0);
}

TEST(AppSla, ServableRpsZeroWithoutMemoryFootprint) {
  AppSla sla;
  const CapacityVec s{2.0, 1.0, 1.0};  // mem < footprint
  EXPECT_DOUBLE_EQ(sla.servableRps(s), 0.0);
}

TEST(AppSla, SliceForCoversDemandWithHeadroom) {
  AppSla sla;
  const CapacityVec s = sla.sliceFor(1000.0, 1.5);
  EXPECT_DOUBLE_EQ(s.cpu(), 1.5);
  EXPECT_DOUBLE_EQ(s.memory(), 2.0);
  EXPECT_GE(sla.servableRps(s), 1000.0);
  EXPECT_THROW((void)sla.sliceFor(1000.0, 0.5), PreconditionError);
}

TEST(AppRegistry, CreateAndQuery) {
  AppRegistry reg;
  const AppId id = reg.create("web-0", AppSla{}, 500.0);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.app(id).name, "web-0");
  EXPECT_DOUBLE_EQ(reg.app(id).baseRps, 500.0);
  EXPECT_THROW((void)reg.app(AppId{5}), PreconditionError);
}

TEST(AppRegistry, VipAndInstanceAttachment) {
  AppRegistry reg;
  const AppId id = reg.create("a", AppSla{}, 1.0);
  reg.addVip(id, VipId{3});
  EXPECT_THROW(reg.addVip(id, VipId{3}), PreconditionError);
  reg.addInstance(id, VmId{7});
  EXPECT_EQ(reg.app(id).vips.size(), 1u);
  EXPECT_EQ(reg.app(id).instances.size(), 1u);
  reg.removeVip(id, VipId{3});
  reg.removeInstance(id, VmId{7});
  EXPECT_TRUE(reg.app(id).vips.empty());
  EXPECT_THROW(reg.removeInstance(id, VmId{7}), PreconditionError);
}

TEST(AppRegistry, IsInstanceFollowsAddAndRemove) {
  AppRegistry reg;
  const AppId a = reg.create("a", AppSla{}, 1.0);
  const AppId b = reg.create("b", AppSla{}, 1.0);
  const auto listed = [&](AppId app, VmId vm) {
    const auto& inst = reg.app(app).instances;
    return std::find(inst.begin(), inst.end(), vm) != inst.end();
  };

  // Ids past the table (nothing added yet, then past the largest added)
  // and the invalid ids are no app's instances.
  EXPECT_FALSE(reg.isInstance(a, VmId{0}));
  reg.addInstance(a, VmId{5});
  EXPECT_FALSE(reg.isInstance(a, VmId{6}));
  EXPECT_FALSE(reg.isInstance(a, VmId{1000000}));
  EXPECT_FALSE(reg.isInstance(a, VmId{}));
  EXPECT_FALSE(reg.isInstance(AppId{}, VmId{0}));

  // Add: listed and owned by its app only; a lower id inside the table
  // stays no one's.
  EXPECT_TRUE(reg.isInstance(a, VmId{5}));
  EXPECT_FALSE(reg.isInstance(b, VmId{5}));
  EXPECT_FALSE(reg.isInstance(a, VmId{4}));
  EXPECT_EQ(listed(a, VmId{5}), reg.isInstance(a, VmId{5}));

  // Another app's VM cannot be added to a second app, nor twice.
  EXPECT_THROW(reg.addInstance(b, VmId{5}), PreconditionError);
  EXPECT_THROW(reg.addInstance(a, VmId{5}), PreconditionError);
  EXPECT_THROW(reg.removeInstance(b, VmId{5}), PreconditionError);
  EXPECT_EQ(reg.app(a).instances, std::vector<VmId>{VmId{5}});
  EXPECT_TRUE(reg.app(b).instances.empty());

  // Remove, then re-add to the same app and to another one.
  reg.addInstance(a, VmId{2});
  reg.removeInstance(a, VmId{5});
  EXPECT_FALSE(reg.isInstance(a, VmId{5}));
  EXPECT_TRUE(reg.isInstance(a, VmId{2}));
  EXPECT_EQ(reg.app(a).instances, std::vector<VmId>{VmId{2}});
  reg.addInstance(a, VmId{5});
  EXPECT_TRUE(reg.isInstance(a, VmId{5}));
  EXPECT_EQ(reg.app(a).instances, (std::vector<VmId>{VmId{2}, VmId{5}}));
  reg.removeInstance(a, VmId{5});
  reg.addInstance(b, VmId{5});
  EXPECT_TRUE(reg.isInstance(b, VmId{5}));
  EXPECT_FALSE(reg.isInstance(a, VmId{5}));
  EXPECT_EQ(reg.app(b).instances, std::vector<VmId>{VmId{5}});
  for (std::uint32_t v = 0; v < 8; ++v) {
    for (const AppId app : {a, b}) {
      EXPECT_EQ(reg.isInstance(app, VmId{v}), listed(app, VmId{v}))
          << "app " << app << " vm " << v;
    }
  }
}

TEST(StaticDemand, ConstantOverTime) {
  StaticDemand d{{100.0, 200.0}, 2.0};
  EXPECT_DOUBLE_EQ(d.rps(AppId{0}, 0.0), 200.0);
  EXPECT_DOUBLE_EQ(d.rps(AppId{0}, 1e6), 200.0);
  EXPECT_DOUBLE_EQ(d.rps(AppId{1}, 5.0), 400.0);
  EXPECT_THROW((void)d.rps(AppId{2}, 0.0), PreconditionError);
}

TEST(DiurnalDemand, OscillatesWithinEnvelope) {
  DiurnalDemand d{{1000.0}, 0.6, 86400.0, 42};
  double lo = 1e18, hi = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double v = d.rps(AppId{0}, i * 86400.0 / 200.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  // Envelope: base * [1 - depth, 1].
  EXPECT_NEAR(lo, 400.0, 10.0);
  EXPECT_NEAR(hi, 1000.0, 10.0);
}

TEST(DiurnalDemand, PhasesDifferAcrossApps) {
  DiurnalDemand d{{1000.0, 1000.0, 1000.0, 1000.0}, 0.5, 86400.0, 7};
  // With random phases, apps should not all peak simultaneously.
  bool differ = false;
  for (int a = 1; a < 4; ++a) {
    if (std::abs(d.rps(AppId{0}, 0.0) -
                 d.rps(AppId{static_cast<std::uint32_t>(a)}, 0.0)) > 1.0) {
      differ = true;
    }
  }
  EXPECT_TRUE(differ);
}

TEST(FlashCrowdDemand, SpikeRampsAndDecays) {
  auto base = std::make_unique<StaticDemand>(std::vector<double>{100.0});
  FlashCrowdDemand::Spike spike;
  spike.app = AppId{0};
  spike.start = 100.0;
  spike.end = 200.0;
  spike.multiplier = 10.0;
  spike.rampSeconds = 50.0;
  FlashCrowdDemand d{std::move(base), {spike}};

  EXPECT_DOUBLE_EQ(d.rps(AppId{0}, 0.0), 100.0);
  EXPECT_DOUBLE_EQ(d.rps(AppId{0}, 125.0), 100.0 * (1.0 + 9.0 * 0.5));
  EXPECT_DOUBLE_EQ(d.rps(AppId{0}, 175.0), 1000.0);  // fully ramped
  // Decays after the end.
  EXPECT_LT(d.rps(AppId{0}, 300.0), 1000.0);
  EXPECT_GT(d.rps(AppId{0}, 300.0), 100.0);
  EXPECT_NEAR(d.rps(AppId{0}, 2000.0), 100.0, 1.0);
}

TEST(FlashCrowdDemand, OtherAppsUnaffected) {
  auto base =
      std::make_unique<StaticDemand>(std::vector<double>{100.0, 100.0});
  FlashCrowdDemand::Spike spike;
  spike.app = AppId{0};
  spike.start = 0.0;
  spike.end = 100.0;
  FlashCrowdDemand d{std::move(base), {spike}};
  EXPECT_DOUBLE_EQ(d.rps(AppId{1}, 50.0), 100.0);
}

TEST(FlashCrowdDemand, Validation) {
  auto mk = [] {
    return std::make_unique<StaticDemand>(std::vector<double>{1.0});
  };
  FlashCrowdDemand::Spike bad;
  bad.app = AppId{0};
  bad.start = 10.0;
  bad.end = 5.0;
  EXPECT_THROW((FlashCrowdDemand{mk(), {bad}}), PreconditionError);
  EXPECT_THROW((FlashCrowdDemand{nullptr, {}}), PreconditionError);
}

TEST(RandomWalkDemand, DeterministicAndBounded) {
  RandomWalkDemand d{{1000.0}, 0.3, 60.0, 99};
  RandomWalkDemand d2{{1000.0}, 0.3, 60.0, 99};
  for (int i = 0; i < 50; ++i) {
    const double t = i * 60.0;
    EXPECT_DOUBLE_EQ(d.rps(AppId{0}, t), d2.rps(AppId{0}, t));
    EXPECT_GE(d.rps(AppId{0}, t), 100.0);   // clamp floor
    EXPECT_LE(d.rps(AppId{0}, t), 4000.0);  // clamp ceiling
  }
}

TEST(RandomWalkDemand, ActuallyVaries) {
  RandomWalkDemand d{{1000.0}, 0.3, 60.0, 99};
  double lo = 1e18, hi = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double v = d.rps(AppId{0}, i * 60.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(hi - lo, 50.0);
}

TEST(ZipfBaseRates, SumAndOrdering) {
  const auto rates = zipfBaseRates(100, 0.9, 1e6);
  EXPECT_NEAR(std::accumulate(rates.begin(), rates.end(), 0.0), 1e6, 1.0);
  EXPECT_GT(rates[0], rates[1]);
  EXPECT_GT(rates[1], rates[99]);
}

}  // namespace
}  // namespace mdc
