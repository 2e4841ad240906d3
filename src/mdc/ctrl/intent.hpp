// Intended VIP/RIP state, and the write-ahead journal that makes it
// crash-recoverable.
//
// With an unreliable channel the manager can no longer treat the switch
// tables as its own bookkeeping: a command may be lost, may land late, or
// may land twice on the wrong side of a retry.  The IntentStore is the
// manager's *authoritative* picture — which switch each VIP should live
// on, with which RIP set and weights — kept separate from the fleet's
// actual tables; the anti-entropy reconciler compares the two and heals
// the difference.  Every index the manager reads (VIPs and RIPs per
// switch, VIPs per access router, each VM's RIP bindings) is derived
// inside IntentStore::apply(), the one function live mutations, journal
// replay and snapshot install all go through, so no copy can drift.
//
// Ids are dense, so the intents and every derived index are tables
// indexed by id: a lookup is a bounds check plus an index, and forEach and
// forEachBound walk ascending ids (the reconciler's audit order, the
// snapshot's canonical order).  No table can index an invalid id: the
// store refuses one as a VIP, or as the switch of an AddVip or MoveVip.
//
// Every intent mutation is a small IntentRecord appended to the journal
// *before* it is applied to the store (write-ahead).  The journal is the
// checksummed state::Changelog and nothing else: each record is framed
// with a length prefix and CRC32, so replay after a simulated crash
// trusts only the longest valid prefix of the bytes — a torn tail or a
// corrupted record is cut off, never replayed as garbage.  Fencing-term
// changes are journaled too (as their own record tag), so the recovered
// state knows the highest term that ever wrote to it.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mdc/lb/lb_switch.hpp"
#include "mdc/state/changelog.hpp"
#include "mdc/util/ids.hpp"
#include "mdc/util/units.hpp"

namespace mdc {

/// Where one VIP should live and what should be behind it.
struct VipIntent {
  AppId app;
  SwitchId sw;
  AccessRouterId router;
  std::vector<RipEntry> rips;

  [[nodiscard]] const RipEntry* findRip(RipId rip) const {
    for (const RipEntry& r : rips) {
      if (r.rip == rip) return &r;
    }
    return nullptr;
  }
  [[nodiscard]] double totalWeight() const;
};

/// One intended RIP bound to a VM: the VIP it sits behind and its id.
struct RipBinding {
  VipId vip;
  RipId rip;
};

enum class IntentOp : std::uint8_t {
  AddVip,       // vip, app, sw, router
  RemoveVip,    // vip
  MoveVip,      // vip, sw (placement change; RIP set travels along)
  MoveRoute,    // vip, router
  AddRip,       // vip, rip
  RemoveRip,    // vip, rip.rip
  SetRipWeight  // vip, rip.rip, weight
};

struct IntentRecord {
  IntentOp op = IntentOp::AddVip;
  VipId vip;
  AppId app;
  SwitchId sw;
  AccessRouterId router;
  RipEntry rip;
  double weight = 0.0;
  SimTime at = 0.0;
};

// Changelog payload tags: first byte of every journal record.
inline constexpr std::uint8_t kJournalTagIntent = 0;
inline constexpr std::uint8_t kJournalTagTermChange = 1;
inline constexpr std::uint8_t kJournalTagAdmission = 2;

/// One scheduling round's admission decisions (E18): how many requests
/// were admitted to the batch, shed for overload since the previous
/// round, expired on their deadline budget, and deferred on a footprint
/// conflict.  Journaled write-ahead like intent mutations, so the
/// recovered state hash covers the admission history bit-identically.
struct AdmissionRoundRecord {
  std::uint32_t admitted = 0;
  std::uint32_t shed = 0;
  std::uint32_t expired = 0;
  std::uint32_t deferred = 0;
};

/// One decoded changelog payload: an intent mutation, a term change, or
/// an admission round.
struct JournalEntry {
  std::uint8_t tag = kJournalTagIntent;
  IntentRecord record;    // valid when tag == kJournalTagIntent
  std::uint64_t term = 0; // valid when tag == kJournalTagTermChange
  AdmissionRoundRecord admission;  // valid when tag == kJournalTagAdmission
};

void encodeIntentRecord(const IntentRecord& record, state::ByteWriter& w);

/// Strict decode of one changelog payload: unknown tag, out-of-range op,
/// non-finite weight, or leftover bytes all fail — a CRC-valid but
/// semantically malformed record must stop replay, not corrupt state.
[[nodiscard]] bool decodeJournalEntry(std::span<const std::uint8_t> payload,
                                      JournalEntry& out);

class IntentStore {
 public:
  /// The VIP's intent, or nullptr; invalidated by the next apply().
  [[nodiscard]] const VipIntent* find(VipId vip) const {
    if (vip.index() >= vips_.size()) return nullptr;
    const VipIntent& in = vips_[vip.index()];
    return in.sw.valid() ? &in : nullptr;
  }
  [[nodiscard]] std::size_t vipCount() const noexcept { return vipCount_; }
  /// Intended RIPs over all VIPs.
  [[nodiscard]] std::size_t ripCount() const noexcept {
    std::size_t n = 0;
    for (const Occupancy& on : onSwitch_) n += on.rips;
    return n;
  }

  /// Intended occupancy per switch (placement scoring under in-flight
  /// commands, where actual tables lag intent).
  [[nodiscard]] std::uint32_t vipsOn(SwitchId sw) const {
    return sw.index() < onSwitch_.size() ? onSwitch_[sw.index()].vips : 0;
  }
  [[nodiscard]] std::uint32_t ripsOn(SwitchId sw) const {
    return sw.index() < onSwitch_.size() ? onSwitch_[sw.index()].rips : 0;
  }
  /// VIPs intended to be advertised at `router` (VIPs without a valid
  /// router count nowhere).
  [[nodiscard]] std::uint32_t vipsAt(AccessRouterId router) const {
    const std::size_t i = router.index();
    return i < routerVips_.size() ? routerVips_[i] : 0;
  }
  /// The VM's intended RIPs, in the order their AddRip records were
  /// applied.  The view is invalidated by the next apply().
  [[nodiscard]] std::span<const RipBinding> bindingsOf(VmId vm) const {
    if (vm.index() >= bindings_.size()) return {};
    return bindings_[vm.index()];
  }
  /// Every VM with at least one intended RIP, with its bindings, in
  /// ascending VM id.
  void forEachBound(
      const std::function<void(VmId, std::span<const RipBinding>)>& fn)
      const;

  /// Whether apply() would accept the record.  apply() asserts on it (a
  /// malformed live mutation is a bug); replay checks first and treats a
  /// refusal as end-of-valid-journal.
  [[nodiscard]] bool canApply(const IntentRecord& record) const;

  /// Applies one mutation and updates every derived index.  The same
  /// function serves live updates, journal replay and snapshot install,
  /// so none of them can diverge.
  void apply(const IntentRecord& record);

  /// Every intended VIP, in ascending VIP id: a walk of the table, with
  /// `fn` called inline.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (std::uint32_t i = 0; i < vips_.size(); ++i) {
      if (vips_[i].sw.valid()) fn(VipId{i}, vips_[i]);
    }
  }

 private:
  struct Occupancy {
    std::uint32_t vips = 0;
    std::uint32_t rips = 0;
  };

  void unbind(VmId vm, VipId vip, RipId rip);

  // Tables indexed by id, each grown to cover the largest id written.
  std::vector<VipIntent> vips_;  // by VipId; an invalid sw = not intended
  std::size_t vipCount_ = 0;     // entries of vips_ that are intended
  std::vector<Occupancy> onSwitch_;        // by SwitchId
  std::vector<std::uint32_t> routerVips_;  // by AccessRouterId
  std::vector<std::vector<RipBinding>> bindings_;  // by VmId; empty = none
};

/// Write-ahead journal: encodes records into the checksummed changelog.
/// It keeps no in-memory copy; recovery parses the durable bytes once,
/// through the state machine.
class IntentJournal {
 public:
  void append(const IntentRecord& record);
  /// Journals a fencing-term change (not an intent mutation).
  void appendTermChange(std::uint64_t term);
  /// Journals one scheduling round's admission counts.
  void appendAdmission(const AdmissionRoundRecord& round);

  [[nodiscard]] state::Changelog& changelog() noexcept { return log_; }
  [[nodiscard]] const state::Changelog& changelog() const noexcept {
    return log_;
  }

 private:
  state::Changelog log_;
};

}  // namespace mdc
