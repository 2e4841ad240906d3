// Physical servers and the VMs they host, with the hypervisor operations
// the paper's knobs rely on:
//
//  * VM creation (fresh boot) and fast cloning (SnowFlock [14]),
//  * live migration (black-box/gray-box [25]) with a bandwidth cost,
//  * hot VM capacity adjustment without reboot (VMware ESX-style [5]).
//
// Every operation has a latency drawn from the cited systems' magnitudes
// (configurable via HostCostModel) so the knob-comparison experiments can
// weigh speed against reach.  Capacity is reserved pessimistically at
// operation start so concurrent decisions never oversubscribe a server.
//
// VM ids are dense from 0 and never reused, and a destroyed VM keeps its
// record (state Destroyed), so the VM table is indexed by id and the next
// id is its size.  It is a list of fixed chunks of 2^kVmChunkBits records:
// not a vector, because the epoch engine caches `VmRecord*` in its flow
// trees and a new chunk never moves an existing one; and not a deque,
// whose 512-byte blocks hold four records each, so that a lookup is a
// shift and a mask and a walk by id reads contiguous memory.  The per-VM
// version sits apart in its own dense column because the engine's
// validate phase reads every cached VM's version each epoch: with the
// version inside VmRecord that phase took about 1.6x as long (traced
// e2ebench runs, seed 1, 4-vCPU VM, six alternating pairs per workload;
// run totals, medians, 12.2 -> 20.1 ms on `paper` and 80.6 -> 129.1 ms on
// `dataplane`, slower in every pair).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "mdc/sim/simulation.hpp"
#include "mdc/topo/topology.hpp"
#include "mdc/util/expect.hpp"
#include "mdc/util/ids.hpp"
#include "mdc/util/result.hpp"
#include "mdc/util/units.hpp"

namespace mdc {

enum class VmState : std::uint8_t { Booting, Active, Migrating, Destroyed };

struct VmRecord {
  VmId id;
  AppId app;
  ServerId server;
  CapacityVec slice;           // reserved share of the server
  CapacityVec effectiveSlice;  // share actually serving load (lags slice)
  VmState state = VmState::Booting;
  SimTime createdAt = 0.0;
  /// Bumped whenever a migration starts or is cancelled, so a stale
  /// migration-completion event can detect it no longer applies.
  std::uint64_t migrationSeq = 0;

  // Fluid-engine gauges (requests/s offered to and served by this VM).
  double offeredRps = 0.0;
  double servedRps = 0.0;
};

struct HostCostModel {
  SimTime vmBootSeconds = 60.0;
  SimTime vmCloneSeconds = 5.0;
  SimTime capacityAdjustSeconds = 2.0;
  double migrationGbps = 1.0;  // dedicated migration bandwidth
};

/// A VM killed by a server crash, recorded for the failure detector:
/// switch tables may still reference it (black-holing traffic) until the
/// detector purges its RIPs.
struct CrashedVm {
  VmId vm;
  AppId app;
  SimTime crashedAt = 0.0;
};

/// Runtime state of the server fleet plus all VM lifecycle operations.
class HostFleet {
 public:
  using VmCallback = std::function<void(VmId)>;

  /// log2 of the records per chunk of the VM table: 1,024 records
  /// (104 KiB) a chunk, which bounds the table's unused tail.
  static constexpr std::size_t kVmChunkBits = 10;

  HostFleet(const Topology& topo, Simulation& sim, HostCostModel costs);

  // --- VM lifecycle -----------------------------------------------------

  /// Creates a VM for `app` on `server` with the given slice.  `clone`
  /// selects the fast-clone latency instead of a cold boot.  `onActive`
  /// (optional) fires when the VM starts serving.
  /// Errors: "insufficient_capacity", "server_down".
  Result<VmId> createVm(AppId app, ServerId server, CapacityVec slice,
                        bool clone = false, VmCallback onActive = {});

  /// Hot-resizes the VM's slice.  The reservation moves to
  /// max(old, new) during the transition and settles at `newSlice`.
  /// Errors: "vm_not_active", "insufficient_capacity".
  Status adjustVmCapacity(VmId vm, CapacityVec newSlice,
                          VmCallback onDone = {});

  /// Live-migrates the VM; it keeps serving on the source until the
  /// migration completes.  Duration = sliceMemory * 8 / migrationGbps.
  /// Errors: "vm_not_active", "same_server", "insufficient_capacity",
  /// "server_down".
  Status migrateVm(VmId vm, ServerId dst, VmCallback onDone = {});

  /// Destroys the VM and frees its reservation immediately.
  /// Precondition: VM exists and is not already destroyed.
  void destroyVm(VmId vm);

  // --- failure semantics --------------------------------------------------

  /// Crashes a server: every resident VM dies instantly (recorded as a
  /// crash casualty; a crash that kills none leaves no batch), an
  /// in-flight migration *into* the server loses its destination copy
  /// (the VM keeps serving on its source), and the server refuses
  /// placements until recoverServer().  Returns how many VMs were killed.
  std::size_t crashServer(ServerId server);

  /// Brings a crashed server back into service (empty).
  void recoverServer(ServerId server);

  [[nodiscard]] bool serverUp(ServerId server) const {
    return serverState(server).up;
  }
  [[nodiscard]] std::size_t downServers() const noexcept { return down_; }

  /// Casualties of one crashed server, surrendered to the caller exactly
  /// once (the failure detector purges their RIP bindings).
  [[nodiscard]] std::vector<CrashedVm> takeCrashCasualties(ServerId server);

  /// Uncollected casualty batches in ascending server id (peek).
  [[nodiscard]] const std::map<ServerId, std::vector<CrashedVm>>&
  crashCasualties() const noexcept {
    return casualties_;
  }

  [[nodiscard]] std::uint64_t serverCrashes() const noexcept {
    return serverCrashes_;
  }
  [[nodiscard]] std::uint64_t vmsLostToCrashes() const noexcept {
    return vmsLost_;
  }

  // --- queries ------------------------------------------------------------

  /// The VM's record, destroyed or not.  A reference stays valid (same
  /// address) for the fleet's lifetime.  Precondition: `id` was created
  /// by this fleet.
  [[nodiscard]] const VmRecord& vm(VmId id) const {
    MDC_EXPECT(id.index() < vmCount_, "unknown vm");
    return record(id.index());
  }
  [[nodiscard]] VmRecord& vmMutable(VmId id) {
    MDC_EXPECT(id.index() < vmCount_, "unknown vm");
    return record(id.index());
  }
  /// Created by this fleet and not destroyed.
  [[nodiscard]] bool vmExists(VmId id) const noexcept {
    return id.index() < vmCount_ &&
           record(id.index()).state != VmState::Destroyed;
  }

  /// Monotonic per-VM version covering the facts the epoch descent
  /// resolves through a RIP: the VM's existence and its host server.
  /// Bumped by createVm, destroyVm (crash kills included), and migration
  /// completion (the server — and so the flow path — changes).  Slice and
  /// gauge changes do NOT bump it: they feed the serving phase, which the
  /// engine recomputes every epoch anyway.  Never-allocated ids read 0.
  [[nodiscard]] std::uint64_t vmConfigVersion(VmId id) const noexcept {
    const std::size_t i = id.index();
    return i < vmVersions_.size() ? vmVersions_[i] : 0;
  }

  /// How many VMs were ever created: one past the largest VM index, and
  /// the bound for VmId-indexed gauge arrays.
  [[nodiscard]] std::size_t vmIndexBound() const noexcept {
    return vmCount_;
  }

  [[nodiscard]] const std::vector<VmId>& vmsOn(ServerId server) const;
  [[nodiscard]] CapacityVec usedCapacity(ServerId server) const;
  [[nodiscard]] CapacityVec freeCapacity(ServerId server) const;

  /// Binding-resource utilization of a server in [0, inf).
  [[nodiscard]] double serverUtilization(ServerId server) const;

  [[nodiscard]] std::size_t activeVmCount() const noexcept {
    return liveVms_;
  }
  [[nodiscard]] std::size_t serverCount() const noexcept {
    return servers_.size();
  }

  // --- operation counters (disruption accounting for E6) -----------------

  [[nodiscard]] std::uint64_t vmsCreated() const noexcept {
    return vmCount_;
  }
  [[nodiscard]] std::uint64_t migrationsStarted() const noexcept {
    return migrations_;
  }
  [[nodiscard]] std::uint64_t capacityAdjustments() const noexcept {
    return adjustments_;
  }
  [[nodiscard]] double migratedGb() const noexcept { return migratedGb_; }

  [[nodiscard]] const HostCostModel& costs() const noexcept { return costs_; }

 private:
  struct ServerState {
    CapacityVec used;
    std::vector<VmId> vms;
    bool up = true;
  };

  static constexpr std::size_t kVmChunkMask =
      (std::size_t{1} << kVmChunkBits) - 1;

  /// The record at index `i`.  Precondition: i < vmCount_.
  [[nodiscard]] VmRecord& record(std::size_t i) const noexcept {
    return vmChunks_[i >> kVmChunkBits][i & kVmChunkMask];
  }

  ServerState& serverState(ServerId id);
  const ServerState& serverState(ServerId id) const;
  void detachFromServer(VmId vm, ServerId server);
  void bumpVm(VmId id);
  /// The record of a VM not destroyed, or nullptr: what a deferred
  /// completion event checks before it applies.
  [[nodiscard]] VmRecord* liveVm(VmId id) noexcept;

  const Topology& topo_;
  Simulation& sim_;
  HostCostModel costs_;
  std::vector<ServerState> servers_;
  std::vector<std::unique_ptr<VmRecord[]>> vmChunks_;  // by VmId index
  std::size_t vmCount_ = 0;
  std::vector<std::uint64_t> vmVersions_;  // by VmId index, vmCount_ long
  std::size_t liveVms_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t adjustments_ = 0;
  double migratedGb_ = 0.0;
  std::size_t down_ = 0;
  std::uint64_t serverCrashes_ = 0;
  std::uint64_t vmsLost_ = 0;
  std::map<ServerId, std::vector<CrashedVm>> casualties_;
};

}  // namespace mdc
