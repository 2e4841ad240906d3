#include "mdc/state/snapshot.hpp"

#include <algorithm>
#include <limits>

#include "mdc/util/expect.hpp"

namespace mdc::state {

namespace {

// Byte offsets in an image (see the layout in snapshot.hpp).
constexpr std::size_t kCrcAt = 8;
constexpr std::size_t kBodyAt = 12;
constexpr std::size_t kStateHashAt = 36;
constexpr std::size_t kPayloadLenAt = 44;
constexpr std::size_t kPayloadAt = 48;  // [u32 detLen][det][advisory]
constexpr std::size_t kDeterministicAt = 52;

}  // namespace

SnapshotStore::Installed SnapshotStore::install(std::uint64_t index,
                                                std::uint64_t term,
                                                double takenAt,
                                                SectionWriter deterministic,
                                                SectionWriter advisory) {
  // Serialize straight into the staging buffer.
  ByteWriter image;
  image.u32(kMagic);
  image.u32(kVersion);
  image.u32(0);  // crc32(body), filled in below
  image.u64(index);
  image.u64(term);
  image.f64(takenAt);
  image.u64(0);  // stateHash
  image.u32(0);  // payloadLen
  image.u32(0);  // detLen
  deterministic(image);
  const std::size_t detLen = image.size() - kDeterministicAt;
  advisory(image);
  std::vector<std::uint8_t> staged = image.take();
  MDC_EXPECT(staged.size() - kPayloadAt <=
                 std::numeric_limits<std::uint32_t>::max(),
             "snapshot image too large");

  Installed out;
  const std::span<std::uint8_t> bytes(staged);
  out.meta = SnapshotMeta{index, term, takenAt,
                          fnv1a64(bytes.subspan(kDeterministicAt, detLen))};
  storeLe(&bytes[kStateHashAt], out.meta.stateHash);
  storeLe(&bytes[kPayloadLenAt],
          static_cast<std::uint32_t>(bytes.size() - kPayloadAt));
  storeLe(&bytes[kPayloadAt], static_cast<std::uint32_t>(detLen));
  storeLe(&bytes[kCrcAt], crc32(bytes.subspan(kBodyAt)));

  // One validation pass over the images already retained; the new one is
  // valid unless torn (half a frame never validates).
  struct Checked {
    bool valid = false;
    std::uint64_t index = 0;
  };
  std::vector<Checked> checked;
  checked.reserve(images_.size() + 1);
  for (const auto& raw : images_) {
    SnapshotView view;
    const bool valid = decode(raw, view);
    checked.push_back(Checked{valid, view.meta.index});
  }

  const bool torn = tornArmed_;
  if (torn) {
    // The swap happened against a half-written staging file: publish a
    // truncated image.  Validation on load rejects it.
    staged.resize(staged.size() / 2);
    tornArmed_ = false;
  }
  images_.push_back(std::move(staged));
  checked.push_back(Checked{!torn, index});

  // Drop oldest-first while strictly more than `keep` valid images
  // remain; torn/corrupt images in front of them go too (they are older
  // than every image we keep), but never count toward `keep`.
  std::size_t valid = static_cast<std::size_t>(std::count_if(
      checked.begin(), checked.end(), [](const Checked& c) { return c.valid; }));
  std::size_t drop = 0;
  while (drop < checked.size() && valid > options_.keep) {
    if (checked[drop].valid) --valid;
    ++drop;
  }
  images_.erase(images_.begin(),
                images_.begin() + static_cast<std::ptrdiff_t>(drop));
  out.validRetained = valid;
  const auto oldest =
      std::find_if(checked.begin() + static_cast<std::ptrdiff_t>(drop),
                   checked.end(), [](const Checked& c) { return c.valid; });
  if (oldest != checked.end()) out.oldestValidIndex = oldest->index;
  return out;
}

bool SnapshotStore::corruptLatest(std::uint64_t entropy) {
  if (images_.empty()) return false;
  std::vector<std::uint8_t>& raw = images_.back();
  if (raw.empty()) return false;
  // Damage anywhere past the magic/version prefix: the body CRC covers
  // metadata and payload alike, and flipping the CRC field itself just
  // makes the check fail the other way around.
  const std::size_t lo = raw.size() > 8 ? 8 : 0;
  const std::size_t byteAt = lo + (entropy % (raw.size() - lo));
  raw[byteAt] ^= static_cast<std::uint8_t>(1u << ((entropy >> 32) % 8));
  return true;
}

bool SnapshotStore::decode(std::span<const std::uint8_t> raw,
                           SnapshotView& out) {
  ByteReader r(raw);
  if (r.u32() != kMagic) return false;
  if (r.u32() != kVersion) return false;
  const std::uint32_t want = r.u32();
  if (!r.ok()) return false;
  if (crc32(raw.subspan(kBodyAt)) != want) return false;
  out.meta.index = r.u64();
  out.meta.term = r.u64();
  out.meta.takenAt = r.f64();
  out.meta.stateHash = r.u64();
  const std::uint32_t payloadLen = r.u32();
  if (!r.ok() || r.remaining() != payloadLen) return false;
  const std::span<const std::uint8_t> payload = raw.last(payloadLen);

  ByteReader p(payload);
  const std::uint32_t detLen = p.u32();
  if (!p.ok() || detLen > p.remaining()) return false;
  out.deterministic = payload.subspan(4, detLen);
  out.advisory = payload.subspan(4 + detLen);
  return true;
}

std::vector<SnapshotView> SnapshotStore::loadAllValid(
    std::uint64_t* rejected) const {
  std::vector<SnapshotView> out;
  for (auto it = images_.rbegin(); it != images_.rend(); ++it) {
    SnapshotView view;
    if (decode(*it, view)) {
      out.push_back(view);
    } else if (rejected != nullptr) {
      ++*rejected;
    }
  }
  return out;
}

}  // namespace mdc::state
