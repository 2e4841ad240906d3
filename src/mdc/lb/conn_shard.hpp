// Per-switch connection shard: the session data plane's storage.
//
// The paper's quiescence argument (§IV-B) rests on the fact that only the
// owning switch knows each TCP session's RIP mapping.  This shard IS that
// knowledge: a slot table of live sessions pinned to one switch, sized for
// the reference hardware's 1M concurrent connections.  Each slot is one
// 32-byte record (id, expiry, app, vip, rip, generation), aligned so an
// open or an expiry touches one cache line.
//
// Design constraints, in order:
//  * deterministic — slot assignment (LIFO free list) and expiry order
//    (timing-wheel bucket order) are pure functions of the operation
//    sequence, so a serialized and a sharded session tick that feed each
//    shard the same per-shard operation stream produce bit-identical
//    state (see SessionEngine's equivalence suite);
//  * O(active-per-tick) expiry — a power-of-two timing wheel with lazy
//    stale-entry deletion (generation counters) replaces the seed
//    engine's one-simulation-event-per-session scheme, which fell over
//    long before a million sessions;
//  * no allocation in steady state — freed slots, wheel buckets and the
//    per-VIP counts keep their storage (a VIP's count stays at 0 rather
//    than being erased), so opens and closes reuse what earlier sessions
//    left behind;
//  * no lookup per session — each VIP the shard has hosted owns a dense
//    count cell, assigned once (cellOf) and kept for the shard's
//    lifetime; a slot records its session's cell, so an open or a close
//    adjusts its VIP's count by index, and only the per-VIP queries
//    (countForVip, severVip, forEachOfVip) search the sorted VIP -> cell
//    index.  Memory stays O(VIPs the shard has hosted);
//  * cheap bulk severs — a switch crash (severAll) or a forced VIP
//    transfer (severVip) is a control-plane-rate operation, so it may
//    scan, but it must never leave stale wheel entries behind that a
//    later tick would misinterpret (the generation check handles that).
//
// The shard lives in the lb module because the conn->RIP mapping is
// switch-private state; the SessionEngine owns shard lifetimes and
// attaches them to switches (LbSwitch::attachShard) so table limits and
// crash semantics see tracked sessions.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "mdc/util/ids.hpp"

namespace mdc {

class ConnectionShard {
 public:
  /// `wheelSlots` is rounded up to a power of two (minimum 2).  One slot
  /// per tick of session lifetime keeps most expiries on their first lap.
  explicit ConnectionShard(std::uint32_t wheelSlots = 1024);

  /// Opens a session.  `sessionId` is an engine-minted opaque 64-bit id
  /// ((app << 32) | per-app sequence).  `expiryTick` is the absolute tick
  /// index at which the session completes; it must be strictly greater
  /// than every tick already passed to expireDue().  Capacity is the
  /// caller's job (the engine budgets against the switch's table limit).
  void open(std::uint64_t sessionId, AppId app, VipId vip, RipId rip,
            std::uint64_t expiryTick) {
    openInCell(sessionId, app, cellOf(vip), rip, expiryTick);
  }
  /// open() for a VIP whose count cell the caller already holds (the
  /// session engine keeps it in its route table).
  void openInCell(std::uint64_t sessionId, AppId app, std::uint32_t cell,
                  RipId rip, std::uint64_t expiryTick);

  /// The count cell of `vip`, assigned on the VIP's first call.
  std::uint32_t cellOf(VipId vip);

  /// Completes every session whose expiry tick is <= `tick`.  Call with
  /// strictly increasing tick indices, once per tick.  Returns how many
  /// completed (also accumulated into completed()).
  std::uint64_t expireDue(std::uint64_t tick);

  /// Severs every session of `vip` (forced VIP transfer): the switch
  /// forgets the RIP mapping mid-flight.  Returns how many were broken.
  std::uint64_t severVip(VipId vip);

  /// Severs everything (switch crash: the table is volatile).  Counters
  /// survive — they are the engine's accounting, not switch state.
  std::uint64_t severAll();

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint64_t countForVip(VipId vip) const;

  [[nodiscard]] std::uint64_t opened() const noexcept { return opened_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t broken() const noexcept { return broken_; }

  /// Live sessions of one VIP, ascending slot order (trace emission on
  /// forced transfers; tests assert RIP stickiness through it).
  void forEachOfVip(
      VipId vip,
      const std::function<void(std::uint64_t sessionId, RipId rip)>& fn) const;

  /// Every live session, ascending slot order.
  void forEach(const std::function<void(std::uint64_t sessionId, AppId app,
                                        VipId vip, RipId rip,
                                        std::uint64_t expiryTick)>& fn) const;

  /// FNV-1a over live sessions (ascending slot order) plus the cumulative
  /// counters: the per-shard half of the engine's determinism fingerprint.
  [[nodiscard]] std::uint64_t stateHash() const noexcept;

 private:
  /// One session slot.  `gen` is odd while the slot holds a live session
  /// and is bumped on both open and close, so a wheel entry naming an
  /// older generation is stale.
  struct alignas(32) Slot {
    std::uint64_t id;
    std::uint64_t expiry;
    std::uint32_t app;
    std::uint32_t cell;  // the session's VIP's count cell
    std::uint32_t rip;
    std::uint32_t gen;

    [[nodiscard]] bool live() const noexcept { return (gen & 1u) != 0; }
  };
  static_assert(sizeof(Slot) == 32);

  void closeSlot(std::uint32_t slot);
  static constexpr std::uint32_t kNoCell = 0xffffffffu;
  /// The cell of `vip`, or kNoCell if the shard never hosted it.
  [[nodiscard]] std::uint32_t findCell(VipId vip) const noexcept;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // LIFO: deterministic slot reuse

  // Timing wheel: bucket = expiryTick & mask_; entries pack
  // (slot << 32 | generation).  Sessions outliving one lap stay in their
  // bucket and are re-examined every wheelSlots ticks.
  std::vector<std::vector<std::uint64_t>> wheel_;
  std::uint64_t mask_;

  // Per-VIP counts by cell, each cell's VIP, and the (VIP, cell) index
  // sorted by VIP.
  using CellIndexEntry = std::pair<VipId, std::uint32_t>;
  std::vector<std::uint64_t> perCell_;
  std::vector<VipId> cellVip_;
  std::vector<CellIndexEntry> cellIndex_;

  std::uint64_t size_ = 0;
  std::uint64_t opened_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t broken_ = 0;
};

}  // namespace mdc
