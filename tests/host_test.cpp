// Unit tests for the host fleet: VM lifecycle, capacity accounting, and
// hypervisor operation latencies.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "mdc/host/host_fleet.hpp"
#include "mdc/topo/topology.hpp"

namespace mdc {
namespace {

constexpr AppId kApp{0};

struct Fixture {
  Simulation sim;
  Topology topo;
  HostFleet fleet;

  static TopologyConfig config() {
    TopologyConfig cfg;
    cfg.numServers = 4;
    cfg.serverCapacity = CapacityVec{8.0, 32.0, 1.0};
    cfg.numSwitches = 1;
    return cfg;
  }
  static HostCostModel costs() {
    HostCostModel c;
    c.vmBootSeconds = 60.0;
    c.vmCloneSeconds = 5.0;
    c.capacityAdjustSeconds = 2.0;
    c.migrationGbps = 8.0;  // 1 GB memory -> 1 s
    return c;
  }

  Fixture() : topo(config()), fleet(topo, sim, costs()) {}
};

CapacityVec slice(double cpu = 2.0, double mem = 4.0, double net = 0.25) {
  return CapacityVec{cpu, mem, net};
}

TEST(HostFleet, CreateVmReservesCapacityImmediately) {
  Fixture f;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(f.fleet.usedCapacity(ServerId{0}), slice());
  EXPECT_EQ(f.fleet.vm(r.value()).state, VmState::Booting);
  EXPECT_EQ(f.fleet.vm(r.value()).effectiveSlice, CapacityVec{});
}

TEST(HostFleet, VmBecomesActiveAfterBootLatency) {
  Fixture f;
  bool activated = false;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice(), false,
                                  [&](VmId) { activated = true; });
  ASSERT_TRUE(r.ok());
  f.sim.runUntil(59.0);
  EXPECT_FALSE(activated);
  f.sim.runUntil(61.0);
  EXPECT_TRUE(activated);
  EXPECT_EQ(f.fleet.vm(r.value()).state, VmState::Active);
  EXPECT_EQ(f.fleet.vm(r.value()).effectiveSlice, slice());
}

TEST(HostFleet, CloneIsFasterThanBoot) {
  Fixture f;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice(), /*clone=*/true);
  ASSERT_TRUE(r.ok());
  f.sim.runUntil(6.0);
  EXPECT_EQ(f.fleet.vm(r.value()).state, VmState::Active);
}

TEST(HostFleet, CreateRejectsOversubscription) {
  Fixture f;
  ASSERT_TRUE(f.fleet.createVm(kApp, ServerId{0}, slice(6.0, 8.0, 0.5)).ok());
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice(6.0, 8.0, 0.5));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "insufficient_capacity");
}

TEST(HostFleet, DestroyWhileBootingFreesEverything) {
  Fixture f;
  bool activated = false;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice(), false,
                                  [&](VmId) { activated = true; });
  f.fleet.destroyVm(r.value());
  f.sim.runUntil(120.0);
  EXPECT_FALSE(activated);
  EXPECT_EQ(f.fleet.usedCapacity(ServerId{0}), CapacityVec{});
  EXPECT_FALSE(f.fleet.vmExists(r.value()));
  EXPECT_EQ(f.fleet.activeVmCount(), 0u);
}

TEST(HostFleet, AdjustCapacityGrow) {
  Fixture f;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice(2.0, 4.0, 0.25));
  f.sim.runUntil(61.0);
  bool done = false;
  ASSERT_TRUE(f.fleet
                  .adjustVmCapacity(r.value(), slice(4.0, 4.0, 0.5),
                                    [&](VmId) { done = true; })
                  .ok());
  // During the transition the reservation is the pointwise max.
  EXPECT_DOUBLE_EQ(f.fleet.usedCapacity(ServerId{0}).cpu(), 4.0);
  f.sim.runUntil(64.0);
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(f.fleet.vm(r.value()).effectiveSlice.cpu(), 4.0);
  EXPECT_DOUBLE_EQ(f.fleet.usedCapacity(ServerId{0}).cpu(), 4.0);
}

TEST(HostFleet, AdjustCapacityShrinkFreesAfterDelay) {
  Fixture f;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice(4.0, 4.0, 0.5));
  f.sim.runUntil(61.0);
  ASSERT_TRUE(f.fleet.adjustVmCapacity(r.value(), slice(2.0, 4.0, 0.25)).ok());
  // Shrink keeps the old reservation until it completes.
  EXPECT_DOUBLE_EQ(f.fleet.usedCapacity(ServerId{0}).cpu(), 4.0);
  f.sim.runUntil(64.0);
  EXPECT_DOUBLE_EQ(f.fleet.usedCapacity(ServerId{0}).cpu(), 2.0);
}

TEST(HostFleet, AdjustRejectsWhenPeakDoesNotFit) {
  Fixture f;
  const auto a = f.fleet.createVm(kApp, ServerId{0}, slice(4.0, 16.0, 0.5));
  const auto b = f.fleet.createVm(kApp, ServerId{0}, slice(4.0, 16.0, 0.5));
  (void)b;
  f.sim.runUntil(61.0);
  const Status s = f.fleet.adjustVmCapacity(a.value(), slice(5.0, 16.0, 0.5));
  EXPECT_EQ(s.error().code, "insufficient_capacity");
}

TEST(HostFleet, AdjustRequiresActiveVm) {
  Fixture f;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice());
  EXPECT_EQ(f.fleet.adjustVmCapacity(r.value(), slice()).error().code,
            "vm_not_active");
}

TEST(HostFleet, MigrationMovesVmAfterTransfer) {
  Fixture f;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice(2.0, 4.0, 0.25));
  f.sim.runUntil(61.0);
  bool done = false;
  ASSERT_TRUE(
      f.fleet.migrateVm(r.value(), ServerId{1}, [&](VmId) { done = true; })
          .ok());
  EXPECT_EQ(f.fleet.vm(r.value()).state, VmState::Migrating);
  // Both reservations held during migration.
  EXPECT_DOUBLE_EQ(f.fleet.usedCapacity(ServerId{0}).cpu(), 2.0);
  EXPECT_DOUBLE_EQ(f.fleet.usedCapacity(ServerId{1}).cpu(), 2.0);
  // 4 GB * 8 / 8 Gbps = 4 s.
  f.sim.runUntil(64.0);
  EXPECT_FALSE(done);
  f.sim.runUntil(66.0);
  EXPECT_TRUE(done);
  EXPECT_EQ(f.fleet.vm(r.value()).server, ServerId{1});
  EXPECT_EQ(f.fleet.vm(r.value()).state, VmState::Active);
  EXPECT_EQ(f.fleet.usedCapacity(ServerId{0}), CapacityVec{});
  EXPECT_DOUBLE_EQ(f.fleet.migratedGb(), 4.0);
}

TEST(HostFleet, MigrationRejectsSameServerAndFullDestination) {
  Fixture f;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice());
  f.sim.runUntil(61.0);
  EXPECT_EQ(f.fleet.migrateVm(r.value(), ServerId{0}).error().code,
            "same_server");
  // Fill server 1.
  ASSERT_TRUE(f.fleet.createVm(kApp, ServerId{1}, slice(8.0, 32.0, 1.0)).ok());
  EXPECT_EQ(f.fleet.migrateVm(r.value(), ServerId{1}).error().code,
            "insufficient_capacity");
}

TEST(HostFleet, DestroyDuringMigrationReleasesBothReservations) {
  Fixture f;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice());
  f.sim.runUntil(61.0);
  ASSERT_TRUE(f.fleet.migrateVm(r.value(), ServerId{1}).ok());
  f.fleet.destroyVm(r.value());
  EXPECT_EQ(f.fleet.usedCapacity(ServerId{0}), CapacityVec{});
  EXPECT_EQ(f.fleet.usedCapacity(ServerId{1}), CapacityVec{});
  f.sim.runUntil(120.0);  // completion callback must be a no-op
  EXPECT_EQ(f.fleet.usedCapacity(ServerId{1}), CapacityVec{});
}

TEST(HostFleet, ServerUtilizationUsesBindingResource) {
  Fixture f;
  ASSERT_TRUE(f.fleet.createVm(kApp, ServerId{0}, slice(2.0, 4.0, 0.75)).ok());
  // net: 0.75/1.0 = 0.75 is the binding dimension.
  EXPECT_DOUBLE_EQ(f.fleet.serverUtilization(ServerId{0}), 0.75);
}

TEST(HostFleet, VmsOnTracksPlacement) {
  Fixture f;
  const auto a = f.fleet.createVm(kApp, ServerId{2}, slice());
  const auto b = f.fleet.createVm(kApp, ServerId{2}, slice());
  EXPECT_EQ(f.fleet.vmsOn(ServerId{2}).size(), 2u);
  f.fleet.destroyVm(a.value());
  ASSERT_EQ(f.fleet.vmsOn(ServerId{2}).size(), 1u);
  EXPECT_EQ(f.fleet.vmsOn(ServerId{2})[0], b.value());
}

TEST(HostFleet, OperationCounters) {
  Fixture f;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice());
  f.sim.runUntil(61.0);
  ASSERT_TRUE(f.fleet.adjustVmCapacity(r.value(), slice(3.0, 4.0, 0.25)).ok());
  f.sim.runUntil(64.0);
  ASSERT_TRUE(f.fleet.migrateVm(r.value(), ServerId{1}).ok());
  EXPECT_EQ(f.fleet.vmsCreated(), 1u);
  EXPECT_EQ(f.fleet.capacityAdjustments(), 1u);
  EXPECT_EQ(f.fleet.migrationsStarted(), 1u);
}

TEST(HostFleet, DoubleDestroyThrows) {
  Fixture f;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice());
  f.fleet.destroyVm(r.value());
  EXPECT_THROW(f.fleet.destroyVm(r.value()), PreconditionError);
}

TEST(HostFleet, VmIdsAreDenseAndCountEveryCreatedVm) {
  Fixture f;
  for (std::uint32_t n = 1; n <= 5; ++n) {
    const auto r = f.fleet.createVm(kApp, ServerId{n % 4}, slice(0.5));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), VmId{n - 1});
    EXPECT_EQ(f.fleet.vmIndexBound(), n);
  }
  // Destroyed VMs keep their id and their record; the next id moves on.
  f.fleet.destroyVm(VmId{1});
  EXPECT_EQ(f.fleet.vmIndexBound(), 5u);
  EXPECT_EQ(f.fleet.vm(VmId{1}).state, VmState::Destroyed);
  EXPECT_EQ(f.fleet.createVm(kApp, ServerId{0}, slice(0.5)).value(), VmId{5});
  EXPECT_EQ(f.fleet.vmIndexBound(), 6u);
  EXPECT_EQ(f.fleet.vmsCreated(), 6u);
}

TEST(HostFleet, VmRecordReferencesSurviveLaterCreates) {
  // The epoch engine caches VmRecord pointers across epochs.
  Fixture f;
  const VmId id = f.fleet.createVm(kApp, ServerId{1}, slice()).value();
  VmRecord& rec = f.fleet.vmMutable(id);
  rec.offeredRps = 42.0;
  const VmRecord* before = &rec;
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(f.fleet.createVm(kApp, ServerId{0}, CapacityVec{}).ok());
  }
  EXPECT_EQ(&f.fleet.vmMutable(id), before);
  EXPECT_EQ(before->id, id);
  EXPECT_EQ(before->server, ServerId{1});
  EXPECT_EQ(before->slice, slice());
  EXPECT_EQ(before->offeredRps, 42.0);
}

// The VM table is chunked: ids at both ends of each chunk resolve to
// their own records, and a reference taken in one chunk keeps its address
// while later creates fill it and allocate the next two.
TEST(HostFleet, VmRecordsResolveAcrossChunkBoundaries) {
  Fixture f;
  constexpr std::size_t kChunk = std::size_t{1} << HostFleet::kVmChunkBits;
  std::vector<const VmRecord*> addresses;
  const auto create = [&](std::size_t upTo) {
    while (f.fleet.vmIndexBound() < upTo) {
      const std::size_t i = f.fleet.vmIndexBound();
      const VmId id =
          f.fleet.createVm(AppId{static_cast<AppId::value_type>(i)},
                           ServerId{0}, CapacityVec{})
              .value();
      ASSERT_EQ(id.index(), i);
      addresses.push_back(&f.fleet.vm(id));
    }
  };
  create(kChunk);  // exactly one full chunk
  const VmId last{static_cast<VmId::value_type>(kChunk - 1)};
  const VmId next{static_cast<VmId::value_type>(kChunk)};
  EXPECT_TRUE(f.fleet.vmExists(last));
  EXPECT_FALSE(f.fleet.vmExists(next));  // its chunk is not allocated
  EXPECT_THROW((void)f.fleet.vm(next), PreconditionError);
  VmRecord& edge = f.fleet.vmMutable(last);
  edge.servedRps = 7.0;

  create(3 * kChunk + 1);  // two more boundaries, one id into a fourth
  EXPECT_EQ(&f.fleet.vmMutable(last), &edge);
  EXPECT_EQ(edge.servedRps, 7.0);
  for (std::size_t c = 0; c <= 3; ++c) {
    for (const std::size_t i : {c * kChunk, c * kChunk + kChunk - 1}) {
      if (i >= f.fleet.vmIndexBound()) continue;
      const VmId id{static_cast<VmId::value_type>(i)};
      EXPECT_EQ(f.fleet.vm(id).id, id) << i;
      EXPECT_EQ(f.fleet.vm(id).app.index(), i) << i;
    }
  }
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    ASSERT_EQ(&f.fleet.vm(VmId{static_cast<VmId::value_type>(i)}),
              addresses[i])
        << i;
  }
  const std::size_t bound = f.fleet.vmIndexBound();
  for (const std::size_t i : {bound, bound + 1, 4 * kChunk - 1, 4 * kChunk,
                              std::size_t{VmId::kInvalidValue}}) {
    const VmId id{static_cast<VmId::value_type>(i)};
    EXPECT_FALSE(f.fleet.vmExists(id)) << i;
    EXPECT_THROW((void)f.fleet.vm(id), PreconditionError) << i;
    EXPECT_THROW((void)f.fleet.vmMutable(id), PreconditionError) << i;
  }
  // A destroyed record keeps its slot and reads as absent.
  f.fleet.destroyVm(next);
  EXPECT_FALSE(f.fleet.vmExists(next));
  EXPECT_EQ(&f.fleet.vm(next), addresses[kChunk]);
  EXPECT_EQ(f.fleet.vm(next).state, VmState::Destroyed);
}

TEST(HostFleet, UnknownVmIdsReadAsAbsent) {
  Fixture f;
  ASSERT_TRUE(f.fleet.createVm(kApp, ServerId{0}, slice()).ok());
  for (const VmId id : {VmId{1}, VmId{1000}, VmId{}}) {
    EXPECT_FALSE(f.fleet.vmExists(id)) << id;
    EXPECT_EQ(f.fleet.vmConfigVersion(id), 0u) << id;
    EXPECT_THROW((void)f.fleet.vm(id), PreconditionError) << id;
    EXPECT_THROW((void)f.fleet.vmMutable(id), PreconditionError) << id;
    EXPECT_THROW(f.fleet.destroyVm(id), PreconditionError) << id;
  }
}

}  // namespace
}  // namespace mdc
