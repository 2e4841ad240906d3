// Whole-DC snapshot images with atomic write-then-swap semantics.
//
// A snapshot is one self-validating blob:
//
//   [u32 magic 'MDCS'][u32 version][u32 crc32(body)]
//   body = [u64 index][u64 term][f64 takenAt][u64 stateHash]
//          [u32 payloadLen][payload]
//
// where payload = [u32 detLen][deterministic section][advisory section].
// The CRC covers the whole body — metadata included — so a flipped bit
// in `index` or `term` is rejected on load instead of silently steering
// replay to the wrong resume point.  The deterministic section is the
// replayable manager state (its FNV-1a hash is `stateHash` in the body —
// recovery re-derives it from the installed state and rejects the image
// on mismatch, which catches encode/decode divergence the CRC cannot).
// The advisory section carries hints (pod weight checkpoints) that speed
// up warm starts but are never hashed: losing them costs performance,
// not correctness.
//
// Installation models the write-then-swap protocol of a real snapshot
// file: the image is encoded into a staging buffer and only published
// (appended to the retained list) as one atomic step.  armTornWrite()
// makes the next publish swap in a half-written staging buffer instead —
// the torn image fails validation on load and recovery falls back to the
// previous snapshot, which retention rules below guarantee still exists.
//
// An image costs its bytes once: the owner's writers serialize both
// sections straight into the staging buffer, the header is filled in
// place, and FNV-1a (over the deterministic section) and the CRC (over
// the body) each run once.  Validation checks magic, version, frame and
// CRC and reads the sections in place, copying nothing.
//
// Retention: prune oldest-first, but only while more than `keep` VALID
// images remain — invalid/torn images never count toward `keep`, so
// arming faults cannot prune away the last good fallback.  An install
// validates each older retained image once (the new one is valid unless
// torn, by construction), and the prune and the compaction bound it
// reports both come from that one pass.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mdc/state/codec.hpp"
#include "mdc/util/function_ref.hpp"

namespace mdc::state {

struct SnapshotMeta {
  /// Changelog index this snapshot covers: replay resumes at `index`.
  std::uint64_t index = 0;
  /// Fencing term of the leader that took it.
  std::uint64_t term = 0;
  /// Sim time the snapshot was taken (for snapshot-age metrics).
  double takenAt = 0.0;
  /// fnv1a64 of the deterministic section.
  std::uint64_t stateHash = 0;
};

/// A retained image that passed validation, read in place: the section
/// spans alias the store's buffer and are invalidated by the next
/// install() or corruptLatest().
struct SnapshotView {
  SnapshotMeta meta;
  std::span<const std::uint8_t> deterministic;
  std::span<const std::uint8_t> advisory;
};

class SnapshotStore {
 public:
  static constexpr std::uint32_t kMagic = 0x5343444du;  // 'MDCS'
  static constexpr std::uint32_t kVersion = 1;

  struct Options {
    /// Valid images retained after each install.
    std::uint32_t keep = 2;
  };

  /// Appends one section of an image to the staging buffer.
  using SectionWriter = FunctionRef<void(ByteWriter&)>;

  /// What install() published, and what its prune retained.
  struct Installed {
    /// The new image's header; stateHash is fnv1a64 of its
    /// deterministic section.
    SnapshotMeta meta;
    /// Valid images retained after the prune.
    std::size_t validRetained = 0;
    /// Changelog index of the oldest of them: the furthest the log may
    /// compact while every retained fallback keeps its tail.
    std::uint64_t oldestValidIndex = 0;
  };

  SnapshotStore() = default;
  explicit SnapshotStore(Options options) : options_(options) {}

  /// Serializes a new image for changelog `index` — `deterministic`, then
  /// `advisory`, each appending its section to the staging buffer —
  /// publishes it atomically, and prunes per the retention rule.  With a
  /// torn write armed, publishes a truncated staging buffer instead (and
  /// disarms).
  Installed install(std::uint64_t index, std::uint64_t term, double takenAt,
                    SectionWriter deterministic, SectionWriter advisory);

  /// The next install() publishes a torn (half-written) image.
  void armTornWrite() noexcept { tornArmed_ = true; }
  [[nodiscard]] bool tornWriteArmed() const noexcept { return tornArmed_; }

  /// Flips one bit in the newest image's CRC-covered region (bit rot).
  /// Returns false when the store is empty.
  bool corruptLatest(std::uint64_t entropy);

  /// Validates all retained images newest-first, dropping any that fail
  /// (magic/version/frame/CRC).  Increments *rejected once per invalid
  /// image when non-null.
  [[nodiscard]] std::vector<SnapshotView> loadAllValid(
      std::uint64_t* rejected = nullptr) const;

  /// Raw images retained (valid or not).
  [[nodiscard]] std::size_t count() const noexcept { return images_.size(); }
  /// The retained images' bytes, oldest .. newest, valid or not.
  [[nodiscard]] const std::vector<std::vector<std::uint8_t>>& images()
      const noexcept {
    return images_;
  }

 private:
  /// Validates one image; on success `out` views its sections in place.
  [[nodiscard]] static bool decode(std::span<const std::uint8_t> raw,
                                   SnapshotView& out);

  Options options_;
  std::vector<std::vector<std::uint8_t>> images_;  // oldest .. newest
  bool tornArmed_ = false;
};

}  // namespace mdc::state
