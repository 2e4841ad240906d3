// The data center's fleet of LB switches, with a coherent VIP-ownership
// index.
//
// The paper makes all LB switches "globally shared resources for all
// applications" (§III-C): any switch can host any VIP, because every
// switch connects to every border router and can reach every server.  The
// fleet maintains the single source of truth for "which switch owns this
// VIP" and implements dynamic VIP transfer (§IV-B): an internal move that
// notifies border routers but involves no external route updates.
//
// All VIP placement mutations should go through the fleet so the index
// stays coherent; per-switch RIP/weight/connection operations are
// forwarded for convenience.
//
// While a reader holds the VIP change log open (the session engine, which
// keeps a per-VIP route table), every mutation that can change what a VIP
// resolves to also appends the VIP to the log.  The reader takes what was
// logged since its last take and refreshes only those VIPs, instead of
// re-reading the ownership index and the owner's table for every lookup.
// With no reader nothing is logged.
//
// VIP ids are dense (the VIP/RIP manager allocates them from 0), so the
// ownership index, the per-VIP versions and the orphan marks are columns
// indexed by VIP id, grown together by the first mutation of a VIP; an
// invalid SwitchId in the owner column means unowned, and a VIP's orphan
// mark counts the uncollected orphan batches that hold it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "mdc/lb/lb_switch.hpp"
#include "mdc/util/units.hpp"

namespace mdc {

/// A VIP stranded by a switch crash: its last-known configuration, kept
/// so a failure detector can re-place it on a healthy switch.
struct OrphanedVip {
  VipId vip;
  AppId app;
  std::vector<RipEntry> rips;
  SimTime orphanedAt = 0.0;
};

class SwitchFleet {
 public:
  /// Adds a switch with the given limits; ids are dense from 0.
  SwitchId addSwitch(const SwitchLimits& limits);

  [[nodiscard]] std::size_t size() const noexcept { return switches_.size(); }
  [[nodiscard]] LbSwitch& at(SwitchId sw);
  [[nodiscard]] const LbSwitch& at(SwitchId sw) const;

  /// The switch currently owning `vip`, if any.
  [[nodiscard]] std::optional<SwitchId> ownerOf(VipId vip) const;

  // --- failure semantics ------------------------------------------------

  /// Crashes a switch at sim time `now`: every VIP it hosted becomes an
  /// orphan (recorded with its RIP set for later re-placement), its
  /// tracked connections are severed (counted in droppedConnections()),
  /// and the switch refuses all operations until recoverSwitch().
  /// Returns the number of VIPs orphaned.
  std::size_t crashSwitch(SwitchId sw, SimTime now);

  /// Reboots a crashed switch: up again, tables empty.  Pending orphans
  /// of the switch stay pending — recovery re-places them explicitly.
  void recoverSwitch(SwitchId sw);

  [[nodiscard]] bool isUp(SwitchId sw) const { return at(sw).up(); }
  [[nodiscard]] std::size_t upCount() const;

  /// Orphans of one crashed switch, surrendered to the caller (the
  /// failure detector collects them exactly once).
  [[nodiscard]] std::vector<OrphanedVip> takeOrphans(SwitchId sw);
  [[nodiscard]] std::size_t pendingOrphans() const;
  /// Whether an uncollected orphan batch holds `vip`.
  [[nodiscard]] bool isOrphaned(VipId vip) const noexcept {
    const std::size_t i = vip.index();
    return i < orphanMarks_.size() && orphanMarks_[i] > 0;
  }
  /// Uncollected orphan batches in ascending switch id (peek; a detector
  /// uses this to notice crash-reboot blips it never probed).
  [[nodiscard]] const std::map<SwitchId, std::vector<OrphanedVip>>& orphans()
      const noexcept {
    return orphans_;
  }
  [[nodiscard]] std::uint64_t switchCrashes() const noexcept {
    return crashes_;
  }

  // --- placement operations (keep the ownership index coherent) --------

  /// Errors: those of LbSwitch::configureVip plus "vip_owned_elsewhere".
  Status configureVip(SwitchId sw, VipId vip, AppId app);

  /// Removes the VIP from its owning switch.
  /// Errors: "vip_unowned" plus those of LbSwitch::removeVip.
  Status removeVip(VipId vip);

  /// Dynamic VIP transfer (§IV-B): moves the VIP — with its whole RIP set
  /// and weights — from its current switch to `to`.  Refuses with
  /// "vip_in_use" if the VIP still has tracked connections and `force` is
  /// false; with force, in-flight connections are dropped and counted as
  /// affinity violations.  Errors also: "vip_unowned", "same_switch",
  /// "vip_exists" (the destination holds a duplicate copy),
  /// "vip_table_full", "rip_table_full" (destination capacity),
  /// "switch_down" (crashed destination).
  Status transferVip(VipId vip, SwitchId to, bool force = false);

  /// Observer of successful transferVip calls (the VIP/RIP manager keeps
  /// its intent journal in sync with direct balancer moves through this).
  using TransferListener =
      std::function<void(VipId, SwitchId from, SwitchId to)>;
  void setTransferListener(TransferListener listener) {
    onTransfer_ = std::move(listener);
  }

  // --- forwarded per-VIP operations -------------------------------------

  Status addRip(VipId vip, RipEntry entry);
  Status removeRip(VipId vip, RipId rip);
  Status setRipWeight(VipId vip, RipId rip, double weight);
  [[nodiscard]] const VipEntry* findVip(VipId vip) const;

  // --- control-channel (per-switch) application -------------------------
  // These apply a config command to ONE named switch's own table — the
  // way a message delivered over the control channel does — and then
  // repair the ownership index to match observable reality.  Unlike
  // configureVip(), a duplicate host (the same VIP live on a second
  // switch after a control-plane race) is representable: the index keeps
  // pointing at the first host until the duplicate is removed.

  /// Errors: those of LbSwitch::configureVip.
  Status applyConfigureVip(SwitchId sw, VipId vip, AppId app);
  /// With `dropConnections`, tracked sessions are severed (and counted in
  /// droppedConnections()) instead of failing "vip_has_connections".  If
  /// the removed copy was the indexed owner, the index repoints to a
  /// surviving duplicate host, if any.
  /// Errors: those of LbSwitch::removeVip.
  Status applyRemoveVip(SwitchId sw, VipId vip, bool dropConnections = false);
  Status applyAddRip(SwitchId sw, VipId vip, RipEntry entry);
  Status applyRemoveRip(SwitchId sw, VipId vip, RipId rip);
  Status applySetRipWeight(SwitchId sw, VipId vip, RipId rip, double weight);

  /// Every switch whose table currently holds `vip` (duplicate audit).
  [[nodiscard]] std::vector<SwitchId> hostsOf(VipId vip) const;

  // --- config versioning ------------------------------------------------

  /// Monotonic per-VIP version, bumped by every mutation that can change
  /// what the epoch engine resolves through this VIP: configure/remove,
  /// transfer (ownership move), RIP add/remove, a RIP weight change (a
  /// write of the weight the RIP already has is none), the control-plane
  /// apply* variants, and a hosting switch's crash.  Never-configured VIPs
  /// read as version 0.  The incremental engine caches a flow tree against
  /// the versions it read and re-descends when any of them moved.
  [[nodiscard]] std::uint64_t vipConfigVersion(VipId vip) const noexcept {
    const std::size_t i = vip.index();
    return i < vipVersions_.size() ? vipVersions_[i] : 0;
  }

  /// Opens the VIP change log for its one reader.  The log starts with
  /// every VIP mutated so far, once each, in ascending id, so a reader
  /// attached after VIPs exist starts complete.
  void openVipLog();
  /// Stops logging and frees the log.
  void closeVipLog();
  /// Moves the VIPs logged since the last take into `out` (its previous
  /// contents are dropped) and empties the log: one entry per bump, in
  /// bump order, so a VIP mutated repeatedly repeats.  Swapping buffers
  /// frees what the reader consumed and allocates nothing once both
  /// buffers have grown to a take's size.
  void takeVipMutations(std::vector<VipId>& out);

  // --- fleet-wide accounting --------------------------------------------

  [[nodiscard]] std::uint32_t totalVips() const;
  [[nodiscard]] std::uint32_t totalRips() const;
  [[nodiscard]] std::uint64_t vipTransfers() const noexcept {
    return transfers_;
  }
  [[nodiscard]] std::uint64_t droppedConnections() const noexcept {
    return droppedConns_;
  }

  /// Offered-throughput of every switch (fluid gauges), for imbalance
  /// metrics.
  [[nodiscard]] std::vector<double> offeredGbps() const;

  /// Iterate switches (for balancers).
  void forEach(const std::function<void(const LbSwitch&)>& fn) const;

 private:
  /// Another up switch (not `excluding`) hosting `vip`, if any.
  [[nodiscard]] std::optional<SwitchId> otherHostOf(VipId vip,
                                                   SwitchId excluding) const;

  /// The indexed owner of `vip`, or an invalid id when unowned.
  [[nodiscard]] SwitchId owner(VipId vip) const noexcept {
    return vip.index() < owner_.size() ? owner_[vip.index()] : SwitchId{};
  }
  /// Bumps the VIP's version and logs it while the log is open; grows
  /// both VIP columns to cover it, so every ownership write below follows
  /// a bump.
  void bumpVip(VipId vip);

  std::vector<LbSwitch> switches_;
  std::vector<std::uint64_t> vipVersions_;  // by VipId index
  std::vector<SwitchId> owner_;             // by VipId index, same length
  std::vector<std::uint32_t> orphanMarks_;  // by VipId index, same length
  std::vector<VipId> vipLog_;  // bumps since the reader's last take
  bool vipLogOpen_ = false;
  TransferListener onTransfer_;
  std::map<SwitchId, std::vector<OrphanedVip>> orphans_;
  std::uint64_t transfers_ = 0;
  std::uint64_t droppedConns_ = 0;
  std::uint64_t crashes_ = 0;
};

}  // namespace mdc
