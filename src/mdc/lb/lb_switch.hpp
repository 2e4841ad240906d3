// L4 load-balancing switch model.
//
// Parameters follow the paper's reference hardware (Cisco Catalyst CSM,
// [12]): 4,000 VIPs, 16,000 RIPs, 4 Gbps layer-4 throughput, 1M concurrent
// TCP connections, 1.25 Mpps.  The table limits — not the silicon — drive
// every architectural argument in the paper, so they are enforced here as
// hard, branchable errors (Result/Status), never as contract violations.
//
// A switch entry maps a VIP to a weighted set of RIPs.  Each RIP targets
// either a VM (ordinary load balancing) or another VIP (an m-VIP on the
// load-balancing layer, used by the two-LB-layer architecture of §V-B).
//
// Connection tracking: packets of one TCP session must keep hitting the
// same RIP, and only the owning switch knows the mapping (§IV-B).  That
// mapping lives in the ConnectionShard the session engine attaches to
// each switch; the switch reads it for its connection-table limit, to
// refuse removing a VIP that still has sessions, and to sever them on a
// forced removal or a crash.  VIP transfer is only safe when a VIP has no
// tracked sessions.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "mdc/lb/conn_shard.hpp"
#include "mdc/util/ids.hpp"
#include "mdc/util/result.hpp"
#include "mdc/util/units.hpp"

namespace mdc {

/// Hardware limits of one LB switch; defaults are the paper's reference.
struct SwitchLimits {
  std::uint32_t maxVips = 4000;
  std::uint32_t maxRips = 16000;
  double capacityGbps = 4.0;
  std::uint64_t maxConnections = 1'000'000;
  /// Seconds one programmatic (re)configuration operation takes ([20],
  /// [28] report "several seconds"); ops on one switch serialize.
  SimTime reconfigSeconds = 3.0;
};

/// A RIP: one weighted backend of a VIP.  Exactly one of `vm` / `mvip`
/// is valid.
struct RipEntry {
  RipId rip;
  VmId vm;
  VipId mvip;
  double weight = 1.0;

  [[nodiscard]] bool targetsVm() const noexcept { return vm.valid(); }
};

struct VipEntry {
  VipId vip;
  AppId app;
  std::vector<RipEntry> rips;

  [[nodiscard]] const RipEntry* findRip(RipId rip) const {
    for (const RipEntry& r : rips) {
      if (r.rip == rip) return &r;
    }
    return nullptr;
  }
  [[nodiscard]] double totalWeight() const;
};

class LbSwitch {
 public:
  LbSwitch(SwitchId id, SwitchLimits limits);

  [[nodiscard]] SwitchId id() const noexcept { return id_; }
  [[nodiscard]] const SwitchLimits& limits() const noexcept { return limits_; }

  // --- table management (all O(#rips of one vip) or better) ------------
  // Every mutation additionally fails with "switch_down" on a crashed
  // switch.

  /// Errors: "vip_table_full", "vip_exists", "switch_down".
  Status configureVip(VipId vip, AppId app);

  /// Errors: "vip_unknown", "vip_has_connections".
  Status removeVip(VipId vip);

  /// Errors: "vip_unknown", "rip_table_full", "rip_exists", "bad_weight".
  Status addRip(VipId vip, RipEntry entry);

  /// Errors: "vip_unknown", "rip_unknown".
  Status removeRip(VipId vip, RipId rip);

  /// Whether the weight changed: writing the current weight again is a
  /// success that reconfigures nothing.
  /// Errors: "vip_unknown", "rip_unknown", "bad_weight".
  Result<bool> setRipWeight(VipId vip, RipId rip, double weight);

  [[nodiscard]] const VipEntry* findVip(VipId vip) const;
  [[nodiscard]] bool hasVip(VipId vip) const { return findVip(vip) != nullptr; }
  [[nodiscard]] std::uint32_t vipCount() const noexcept {
    return static_cast<std::uint32_t>(vips_.size());
  }
  [[nodiscard]] std::uint32_t ripCount() const noexcept { return ripCount_; }
  /// The VIP table in place, in table order.  Invalidated by any table
  /// mutation: removeVip swap-and-pops, so an entry may change position.
  [[nodiscard]] std::span<const VipEntry> vips() const noexcept {
    return vips_;
  }

  [[nodiscard]] std::uint32_t spareVips() const noexcept {
    return limits_.maxVips - vipCount();
  }
  [[nodiscard]] std::uint32_t spareRips() const noexcept {
    return limits_.maxRips - ripCount();
  }

  // --- connection tracking (the attached ConnectionShard) --------------

  /// Attaches (or, with nullptr, detaches) the SessionEngine's connection
  /// shard for this switch.  While attached, shard sessions count toward
  /// the connection-table limit, block VIP removal and transfer, and are
  /// severed by crash()/dropConnections().  The engine owns the shard's
  /// lifetime and detaches on destruction.  Without a shard the switch
  /// tracks no connections.
  void attachShard(ConnectionShard* shard);
  [[nodiscard]] ConnectionShard* shard() const noexcept { return shard_; }

  [[nodiscard]] std::uint64_t activeConnections() const noexcept {
    return shard_ != nullptr ? shard_->size() : 0;
  }
  [[nodiscard]] std::uint64_t activeConnections(VipId vip) const {
    return shard_ != nullptr ? shard_->countForVip(vip) : 0;
  }

  /// Drops every connection of `vip` (what a forced VIP transfer does to
  /// in-flight sessions).  Returns how many were dropped.
  std::uint64_t dropConnections(VipId vip) {
    return shard_ != nullptr ? shard_->severVip(vip) : 0;
  }

  // --- failure semantics ------------------------------------------------

  /// Whether the switch is powered and forwarding.  All table mutations
  /// fail with "switch_down" while it is not.
  [[nodiscard]] bool up() const noexcept { return up_; }

  /// Crash: the switch loses power.  Volatile state — the VIP/RIP tables
  /// and the connection-tracking table — is gone; every tracked TCP
  /// session is severed.  Returns how many connections were dropped.
  /// The caller (SwitchFleet) is responsible for orphan bookkeeping.
  std::uint64_t crash();

  /// Reboot after a crash: the switch comes back up with *empty* tables
  /// (configuration is not persistent, §IV-B: only the owning switch
  /// knows its connection state).  Precondition: currently down.
  void recover();

  // --- fluid-engine gauges ---------------------------------------------

  /// Offered L4 demand through this switch in the last fluid epoch.
  void setOfferedGbps(double gbps) noexcept { offeredGbps_ = gbps; }
  [[nodiscard]] double offeredGbps() const noexcept { return offeredGbps_; }
  [[nodiscard]] double utilization() const noexcept {
    return limits_.capacityGbps > 0.0 ? offeredGbps_ / limits_.capacityGbps
                                      : 0.0;
  }

  /// Total reconfiguration operations applied (control-plane cost).
  [[nodiscard]] std::uint64_t reconfigOps() const noexcept {
    return reconfigOps_;
  }

 private:
  VipEntry* findVipMutable(VipId vip);

  SwitchId id_;
  SwitchLimits limits_;
  std::vector<VipEntry> vips_;
  std::unordered_map<VipId, std::size_t> vipIndex_;
  std::uint32_t ripCount_ = 0;
  ConnectionShard* shard_ = nullptr;  // owned by the SessionEngine
  double offeredGbps_ = 0.0;
  std::uint64_t reconfigOps_ = 0;
  bool up_ = true;
};

}  // namespace mdc
