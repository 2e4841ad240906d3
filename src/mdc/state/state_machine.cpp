#include "mdc/state/state_machine.hpp"

#include "mdc/util/expect.hpp"

namespace mdc::state {

DurableStateMachine::SnapshotResult DurableStateMachine::takeSnapshot(
    std::uint64_t term, double now) {
  MDC_EXPECT(static_cast<bool>(hooks_.buildDeterministic),
             "state machine hooks not set");
  SnapshotResult out;
  if (snapshotsTaken_ > 0 && recordsSinceSnapshot() == 0) return out;

  ByteWriter det;
  hooks_.buildDeterministic(det);
  ByteWriter adv;
  if (hooks_.buildAdvisory) hooks_.buildAdvisory(adv);

  SnapshotMeta meta;
  meta.index = log_.endIndex();
  meta.term = term;
  meta.takenAt = now;
  meta.stateHash = fnv1a64(det.bytes());
  store_.install(meta, det.bytes(), adv.bytes());
  ++snapshotsTaken_;
  lastSnapshotIndex_ = meta.index;
  lastSnapshotAt_ = now;

  // Compact only records every retained valid fallback has covered: a
  // torn/corrupt newest image keeps the tail the older image needs.
  // With a single valid image nothing compacts — otherwise one bit of
  // rot in that image would lose the whole prefix; the tail stays until
  // a second image exists to fall back on.
  const std::vector<SnapshotImage> valid = store_.loadAllValid();
  if (valid.size() >= 2) {
    out.compactedRecords = log_.compactTo(valid.back().meta.index);
  }

  out.taken = true;
  out.index = meta.index;
  out.stateHash = meta.stateHash;
  return out;
}

DurableStateMachine::RecoveryStats DurableStateMachine::recover(double now) {
  MDC_EXPECT(static_cast<bool>(hooks_.installDeterministic) &&
                 static_cast<bool>(hooks_.reset) &&
                 static_cast<bool>(hooks_.applyMutation),
             "state machine hooks not set");
  RecoveryStats stats;

  // Candidate snapshots, newest first.  An image whose index predates
  // the compaction point lost the tail it would need and cannot seed
  // replay.  Compaction itself never outruns the oldest valid image,
  // but a fast-forward (snapshot outran a torn tail, below) can leave
  // older images permanently stale — they get rejected here.
  const std::vector<SnapshotImage> candidates =
      store_.loadAllValid(&stats.snapshotsRejected);

  const SnapshotImage* accepted = nullptr;
  for (const SnapshotImage& img : candidates) {
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

  if (accepted == nullptr) {
    hooks_.reset();
    stats.prefixLost = log_.baseIndex() > 0;
  } else {
    stats.usedSnapshot = true;
    stats.snapshotIndex = accepted->meta.index;
    stats.snapshotTerm = accepted->meta.term;
    stats.snapshotAge = now - accepted->meta.takenAt;
  }

  const std::uint64_t startIndex =
      accepted != nullptr ? accepted->meta.index : log_.baseIndex();

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
  if (accepted != nullptr && accepted->meta.index > log_.endIndex()) {
    // The crash damaged records the snapshot already covers (no appends
    // since it).  The snapshot made them durable: fast-forward the log
    // instead of rolling the index space back behind the installed state.
    log_.resetTo(accepted->meta.index);
  }
  stats.recoveredIndex = log_.endIndex();

  if (accepted != nullptr && hooks_.installAdvisory &&
      !accepted->advisory.empty()) {
    ByteReader adv(accepted->advisory);
    hooks_.installAdvisory(adv);
  }

  stats.stateHash = stateHash();
  lastSnapshotIndex_ =
      accepted != nullptr ? accepted->meta.index : log_.baseIndex();
  lastSnapshotAt_ = accepted != nullptr ? accepted->meta.takenAt : 0.0;

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
