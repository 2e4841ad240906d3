// Equivalence of the batched bootstrap deploy (GlobalManager::deployApps)
// with the per-instance scan it replaced.  On small worlds with uneven
// slices, crashed servers and pre-filled servers whose low utilization
// still leaves too little room, every instance must land on the same
// server (with the same VM and VIP ids), and an over-full world must stop
// at the same app.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "mdc/scenario/megadc.hpp"
#include "mdc/sim/rng.hpp"

namespace mdc {
namespace {

using Deployment = GlobalManager::AppDeployment;

/// Test-local reference: one scan of every pod server per instance,
/// keeping the first server with the strictly smallest utilization among
/// the up servers the slice fits.  `lowerSkipped` counts placements where
/// an up server with a lower utilization was passed over for not fitting.
Status scanDeploy(MegaDc& dc, const std::vector<Deployment>& batch,
                  int& lowerSkipped) {
  GlobalManager& gm = *dc.manager;
  const auto& pods = gm.pods();
  const bool pinned = gm.options().pinAppsToPods;
  std::uint32_t nextPod = 0;
  for (const Deployment& d : batch) {
    for (std::uint32_t v = 0; v < gm.options().vipsPerApp; ++v) {
      const auto vip = gm.viprip().createVipNow(d.app);
      if (!vip.ok()) return Status::fail(vip.error().code);
    }
    const CapacityVec slice =
        dc.apps.app(d.app).sla.sliceFor(d.perInstanceRps, kSliceHeadroom);
    for (std::uint32_t i = 0; i < d.instances; ++i) {
      bool placed = false;
      const std::size_t attempts = pinned ? 1 : pods.size();
      for (std::size_t attempt = 0; attempt < attempts && !placed;
           ++attempt) {
        const PodManager& pod = pinned ? *pods[d.app.index() % pods.size()]
                                       : *pods[nextPod % pods.size()];
        ++nextPod;
        ServerId best;
        double bestUtil = std::numeric_limits<double>::infinity();
        double lowestUp = std::numeric_limits<double>::infinity();
        for (ServerId s : pod.servers()) {
          if (!dc.hosts.serverUp(s)) continue;
          lowestUp = std::min(lowestUp, dc.hosts.serverUtilization(s));
          if (!slice.fitsWithin(dc.hosts.freeCapacity(s))) continue;
          const double u = dc.hosts.serverUtilization(s);
          if (u < bestUtil) {
            bestUtil = u;
            best = s;
          }
        }
        if (!best.valid()) continue;
        if (lowestUp < bestUtil) ++lowerSkipped;
        auto created = dc.hosts.createVm(
            d.app, best, slice, /*clone=*/true,
            [&gm, app = d.app, rps = d.perInstanceRps](VmId vm) {
              (void)gm.viprip().createRipNow(app, vm, rps);
            });
        if (created.ok()) {
          dc.apps.addInstance(d.app, created.value());
          placed = true;
        }
      }
      if (!placed) {
        return Status::fail("insufficient_capacity",
                            "app " + std::to_string(d.app.value()));
      }
    }
  }
  return Status::okStatus();
}

MegaDcConfig deployWorld(bool pinned) {
  MegaDcConfig cfg = testScaleConfig();
  cfg.topology.numServers = 60;
  cfg.numPods = 3;
  cfg.numApps = 24;
  cfg.manager.pinAppsToPods = pinned;
  return cfg;
}

/// Crashes some servers and pre-fills others before the deploy: balanced
/// fillers leave a low utilization but too little CPU for a big slice,
/// memory-heavy ones a higher utilization with the CPU free.
void prepare(MegaDc& dc, std::uint64_t seed) {
  Rng rng{seed};
  const AppId filler{0};
  const CapacityVec cap = dc.config().topology.serverCapacity;
  for (std::uint32_t s = 0; s < dc.hosts.serverCount(); ++s) {
    const ServerId server{s};
    const std::uint64_t pick = rng.uniformInt(10);
    if (pick == 0) {
      dc.hosts.crashServer(server);
    } else if (pick < 6) {
      const double f = rng.uniform(0.25, 0.45);
      ASSERT_TRUE(dc.hosts
                      .createVm(filler, server,
                                CapacityVec{f * cap.cpu(), f * cap.memory(),
                                            f * cap.network()})
                      .ok());
    } else if (pick < 8) {
      const double f = rng.uniform(0.5, 0.7);
      ASSERT_TRUE(dc.hosts
                      .createVm(filler, server,
                                CapacityVec{0.05 * cap.cpu(),
                                            f * cap.memory(), 0.0})
                      .ok());
    }
  }
}

std::vector<Deployment> batchFor(const MegaDc& dc, std::uint64_t seed,
                                 std::uint32_t maxInstances) {
  Rng rng{seed * 7919 + 1};
  std::vector<Deployment> batch;
  for (const Application& a : dc.apps.all()) {
    const auto instances =
        static_cast<std::uint32_t>(1 + rng.uniformInt(maxInstances));
    // 0.24 to 5.4 cores per instance on 8-core servers.
    batch.push_back({a.id, instances, rng.uniform(200.0, 4500.0)});
  }
  return batch;
}

/// Deploys one batch both ways on twin worlds and compares the outcome;
/// returns how many placements passed over a lower-utilization server.
int expectSamePlacement(bool pinned, std::uint64_t seed,
                        std::uint32_t maxInstances, bool expectOk) {
  SCOPED_TRACE("pinned " + std::to_string(pinned) + " seed " +
               std::to_string(seed));
  MegaDc batched{deployWorld(pinned)};
  MegaDc scanned{deployWorld(pinned)};
  prepare(batched, seed);
  prepare(scanned, seed);
  const std::vector<Deployment> batch = batchFor(batched, seed, maxInstances);

  int lowerSkipped = 0;
  const Status got = batched.manager->deployApps(batch);
  const Status want = scanDeploy(scanned, batch, lowerSkipped);
  EXPECT_EQ(got.ok(), expectOk);
  EXPECT_EQ(got.ok(), want.ok());
  if (!got.ok() && !want.ok()) {
    EXPECT_EQ(got.error().code, want.error().code);
    EXPECT_EQ(got.error().detail, want.error().detail);
  }
  EXPECT_EQ(batched.hosts.vmsCreated(), scanned.hosts.vmsCreated());
  for (const Application& a : batched.apps.all()) {
    const Application& b = scanned.apps.app(a.id);
    EXPECT_EQ(a.vips, b.vips) << "app " << a.id;
    EXPECT_EQ(a.instances, b.instances) << "app " << a.id;
    if (a.instances != b.instances) continue;
    for (const VmId vm : a.instances) {
      EXPECT_EQ(batched.hosts.vm(vm).server, scanned.hosts.vm(vm).server)
          << "app " << a.id << " vm " << vm;
    }
  }
  // The RIPs bind when the clones activate; the VIP/RIP state must agree.
  batched.sim.runUntil(5.0);
  scanned.sim.runUntil(5.0);
  EXPECT_EQ(batched.manager->viprip().stateMachine().stateHash(),
            scanned.manager->viprip().stateMachine().stateHash());
  return lowerSkipped;
}

TEST(DeployApps, PlacesEveryInstanceWhereTheScanDoes) {
  for (const bool pinned : {false, true}) {
    int lowerSkipped = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      lowerSkipped += expectSamePlacement(pinned, seed, 2, true);
    }
    // The worlds exercise the skip-and-push-back path.
    EXPECT_GT(lowerSkipped, 0) << "pinned " << pinned;
  }
}

TEST(DeployApps, OverfullWorldFailsAtTheSameApp) {
  for (const bool pinned : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      (void)expectSamePlacement(pinned, seed, 14, false);
    }
  }
}

}  // namespace
}  // namespace mdc
