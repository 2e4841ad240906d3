// The hydra-style durable deterministic state machine (ROADMAP #2).
//
// Gluing the changelog and the snapshot store together under one
// recovery policy:
//
//   durable state  =  latest VALID snapshot  +  changelog tail replay
//
// The machine itself is state-agnostic — the owner (VipRipManager)
// provides hooks to serialize/install its deterministic section, apply
// one mutation record, and optionally carry an advisory section (pod
// weight checkpoints).  Determinism contract: the deterministic section
// must be a pure function of the mutations applied so far, so
//
//   same snapshot + same tail  =>  bit-identical section  =>  equal hash.
//
// recover() enforces that contract: a candidate snapshot is installed,
// the deterministic section is re-serialized from the installed state,
// and the image is rejected if the hash does not match its header.
// Rejected/torn snapshots fall back to the next-older image and finally
// to full replay — recovery degrades in bounded steps, never to garbage.
//
// takeSnapshot() compacts the changelog only up to the OLDEST valid
// retained snapshot, so every retained fallback image still has the tail
// it needs.  A torn snapshot write therefore costs retention space, not
// recoverability.  A recovery that fast-forwards the log past a torn
// tail is a compaction too: it republishes the image it accepted, so two
// valid images cover the new base.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "mdc/state/changelog.hpp"
#include "mdc/state/snapshot.hpp"

namespace mdc::state {

class DurableStateMachine {
 public:
  struct Hooks {
    /// Serializes the replayable (hash-covered) state.
    std::function<void(ByteWriter&)> buildDeterministic;
    /// Installs a deterministic section; false rejects the snapshot.
    std::function<bool(ByteReader&)> installDeterministic;
    /// Clears all replayable state (before a full replay, and before
    /// each snapshot-install attempt).
    std::function<void()> reset;
    /// Applies one changelog record; false stops replay at that record
    /// (a CRC-valid but semantically malformed record is never trusted).
    std::function<bool(std::span<const std::uint8_t>)> applyMutation;
    /// Optional advisory (unhashed hint) section.
    std::function<void(ByteWriter&)> buildAdvisory;
    std::function<void(ByteReader&)> installAdvisory;
  };

  struct SnapshotResult {
    bool taken = false;
    std::uint64_t index = 0;
    std::uint64_t stateHash = 0;
    std::uint64_t compactedRecords = 0;
  };

  struct RecoveryStats {
    bool usedSnapshot = false;
    std::uint64_t snapshotIndex = 0;
    std::uint64_t snapshotTerm = 0;
    double snapshotAge = 0.0;  // now - takenAt of the accepted image
    std::uint64_t replayedRecords = 0;
    std::uint64_t truncatedBytes = 0;
    std::uint64_t snapshotsRejected = 0;
    /// One past the last applied record: the recovered state equals a
    /// clean run of changelog records [0, recoveredIndex).
    std::uint64_t recoveredIndex = 0;
    std::uint64_t stateHash = 0;
    /// True when no snapshot survived AND the changelog had already been
    /// compacted (or fast-forwarded): records before baseIndex are gone
    /// for good and the recovered stream restarts there.  Callers should
    /// treat this as an alarm, not business as usual.
    bool prefixLost = false;
  };

  /// Retains the snapshot store's default two valid images.
  explicit DurableStateMachine(Changelog& log) : log_(log) {}

  void setHooks(Hooks hooks) { hooks_ = std::move(hooks); }

  /// Serializes the deterministic section and publishes it as a new
  /// snapshot image, then compacts the changelog up to the oldest valid
  /// retained snapshot.  A no-op unless a record landed since the last
  /// snapshot (an idle manager does not churn identical images).
  SnapshotResult takeSnapshot(std::uint64_t term, double now);

  /// Rebuilds state from the best valid snapshot plus changelog tail
  /// replay, truncating the changelog to the prefix actually applied.
  RecoveryStats recover(double now);

  /// fnv1a64 of the current deterministic section.
  [[nodiscard]] std::uint64_t stateHash() const;

  [[nodiscard]] SnapshotStore& snapshots() noexcept { return store_; }
  [[nodiscard]] const SnapshotStore& snapshots() const noexcept {
    return store_;
  }
  [[nodiscard]] Changelog& changelog() noexcept { return log_; }

  // -- Cumulative counters (for the obs layer) --------------------------
  [[nodiscard]] std::uint64_t snapshotsTaken() const noexcept {
    return snapshotsTaken_;
  }
  [[nodiscard]] std::uint64_t recoveries() const noexcept {
    return recoveries_;
  }
  [[nodiscard]] std::uint64_t replayedRecordsTotal() const noexcept {
    return replayedRecordsTotal_;
  }
  [[nodiscard]] std::uint64_t truncatedBytesTotal() const noexcept {
    return truncatedBytesTotal_;
  }
  [[nodiscard]] std::uint64_t snapshotsRejectedTotal() const noexcept {
    return snapshotsRejectedTotal_;
  }
  [[nodiscard]] std::uint64_t compactedRecordsTotal() const noexcept {
    return log_.compactedRecords();
  }
  /// Records appended since the last snapshot — the replay bound.
  [[nodiscard]] std::uint64_t recordsSinceSnapshot() const noexcept {
    return log_.endIndex() - lastSnapshotIndex_;
  }
  /// Sim time of the last snapshot (0 before any).
  [[nodiscard]] double lastSnapshotAt() const noexcept {
    return lastSnapshotAt_;
  }
  [[nodiscard]] const RecoveryStats& lastRecovery() const noexcept {
    return lastRecovery_;
  }

 private:
  Changelog& log_;
  SnapshotStore store_;
  Hooks hooks_;

  std::uint64_t lastSnapshotIndex_ = 0;
  double lastSnapshotAt_ = 0.0;
  std::uint64_t snapshotsTaken_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t replayedRecordsTotal_ = 0;
  std::uint64_t truncatedBytesTotal_ = 0;
  std::uint64_t snapshotsRejectedTotal_ = 0;
  RecoveryStats lastRecovery_;
};

}  // namespace mdc::state
