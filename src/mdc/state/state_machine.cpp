#include "mdc/state/state_machine.hpp"

#include "mdc/util/expect.hpp"

namespace mdc::state {

DurableStateMachine::SnapshotResult DurableStateMachine::takeSnapshot(
    std::uint64_t term, double now) {
  MDC_EXPECT(static_cast<bool>(hooks_.buildDeterministic),
             "state machine hooks not set");
  SnapshotResult out;
  if (snapshotsTaken_ > 0 && recordsSinceSnapshot() == 0) return out;

  const SnapshotStore::Installed img = store_.install(
      log_.endIndex(), term, now, hooks_.buildDeterministic,
      [this](ByteWriter& w) {
        if (hooks_.buildAdvisory) hooks_.buildAdvisory(w);
      });
  ++snapshotsTaken_;
  lastSnapshotIndex_ = img.meta.index;
  lastSnapshotAt_ = now;

  // Compact only records every retained valid fallback has covered: a
  // torn/corrupt newest image keeps the tail the older image needs.
  // With a single valid image nothing compacts — otherwise one bit of
  // rot in that image would lose the whole prefix; the tail stays until
  // a second image exists to fall back on.
  if (img.validRetained >= 2) {
    out.compactedRecords = log_.compactTo(img.oldestValidIndex);
  }

  out.taken = true;
  out.index = img.meta.index;
  out.stateHash = img.meta.stateHash;
  return out;
}

DurableStateMachine::RecoveryStats DurableStateMachine::recover(double now) {
  MDC_EXPECT(static_cast<bool>(hooks_.installDeterministic) &&
                 static_cast<bool>(hooks_.reset) &&
                 static_cast<bool>(hooks_.applyMutation),
             "state machine hooks not set");
  RecoveryStats stats;

  // Candidate snapshots, newest first, each validated in place.  An
  // image whose index predates the compaction point lost the tail it
  // would need and cannot seed replay.  Compaction never outruns the
  // oldest valid image, and a fast-forward (snapshot outran a torn tail,
  // below) republishes the image it accepts, but images older than the
  // new base are stale for good — they get rejected here.
  const std::vector<SnapshotView> candidates =
      store_.loadAllValid(&stats.snapshotsRejected);

  const SnapshotView* accepted = nullptr;
  for (const SnapshotView& img : candidates) {
    if (img.meta.index < log_.baseIndex()) {
      // Tail records before the compaction point are gone: this image
      // cannot legally seed replay.
      ++stats.snapshotsRejected;
      continue;
    }
    hooks_.reset();
    ByteReader det(img.deterministic);
    if (!hooks_.installDeterministic(det) || !det.exhausted()) {
      ++stats.snapshotsRejected;
      continue;
    }
    // The determinism check: re-serializing the installed state must
    // reproduce the hash stamped when the snapshot was taken.
    if (stateHash() != img.meta.stateHash) {
      ++stats.snapshotsRejected;
      continue;
    }
    accepted = &img;
    break;
  }

  // Only the accepted image's sections are copied: the fast-forward
  // below republishes it, and a publish may prune the buffer they alias.
  SnapshotMeta meta;
  std::vector<std::uint8_t> det;
  std::vector<std::uint8_t> adv;
  if (accepted == nullptr) {
    hooks_.reset();
    stats.prefixLost = log_.baseIndex() > 0;
  } else {
    meta = accepted->meta;
    det.assign(accepted->deterministic.begin(), accepted->deterministic.end());
    adv.assign(accepted->advisory.begin(), accepted->advisory.end());
    stats.usedSnapshot = true;
    stats.snapshotIndex = meta.index;
    stats.snapshotTerm = meta.term;
    stats.snapshotAge = now - meta.takenAt;
  }

  const std::uint64_t startIndex =
      stats.usedSnapshot ? meta.index : log_.baseIndex();

  const Changelog::Replay tail = log_.replay();
  std::uint64_t applied = tail.records.size();
  for (std::size_t i = 0; i < tail.records.size(); ++i) {
    const std::uint64_t index = tail.firstIndex + i;
    if (index < startIndex) continue;
    if (!hooks_.applyMutation(tail.records[i])) {
      // CRC-valid but semantically malformed: stop replay here and cut
      // the record (and everything after it) off the durable log.
      applied = i;
      break;
    }
    ++stats.replayedRecords;
  }

  // Resynchronize the changelog with what was actually trusted, so new
  // appends land after the good prefix.
  stats.truncatedBytes =
      log_.truncateToValidPrefix(/*maxRecords=*/applied);
  if (stats.usedSnapshot && meta.index > log_.endIndex()) {
    // The crash damaged records the snapshot already covers (no appends
    // since it).  The snapshot made them durable: fast-forward the log
    // instead of rolling the index space back behind the installed state.
    log_.resetTo(meta.index);
    // A fast-forward is a compaction, so it keeps takeSnapshot's rule:
    // two valid images cover the new base.  Republish the accepted
    // image, once more if an armed torn write tears the first copy.
    bool torn = false;
    do {
      torn = store_.tornWriteArmed();
      store_.install(meta.index, meta.term, meta.takenAt,
                     [&det](ByteWriter& w) { w.raw(det); },
                     [&adv](ByteWriter& w) { w.raw(adv); });
    } while (torn);
  }
  stats.recoveredIndex = log_.endIndex();

  if (stats.usedSnapshot && hooks_.installAdvisory && !adv.empty()) {
    ByteReader r(adv);
    hooks_.installAdvisory(r);
  }

  stats.stateHash = stateHash();
  lastSnapshotIndex_ = stats.usedSnapshot ? meta.index : log_.baseIndex();
  lastSnapshotAt_ = stats.usedSnapshot ? meta.takenAt : 0.0;

  ++recoveries_;
  replayedRecordsTotal_ += stats.replayedRecords;
  truncatedBytesTotal_ += stats.truncatedBytes;
  snapshotsRejectedTotal_ += stats.snapshotsRejected;
  lastRecovery_ = stats;
  return stats;
}

std::uint64_t DurableStateMachine::stateHash() const {
  MDC_EXPECT(static_cast<bool>(hooks_.buildDeterministic),
             "state machine hooks not set");
  ByteWriter w;
  hooks_.buildDeterministic(w);
  return fnv1a64(w.bytes());
}

}  // namespace mdc::state
