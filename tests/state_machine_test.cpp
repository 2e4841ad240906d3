// Durable deterministic state machine (E17): checksummed changelog,
// whole-DC snapshots with write-then-swap, corruption-tolerant recovery,
// and the determinism contract "same snapshot + same tail => identical
// state hash" — exercised at the codec/changelog/snapshot layer, with a
// toy automaton under randomized kill points, and end-to-end through the
// VipRipManager's journal.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "mdc/core/epoch_report.hpp"
#include "mdc/ctrl/command_sender.hpp"
#include "mdc/scenario/megadc.hpp"
#include "mdc/sim/rng.hpp"
#include "mdc/state/changelog.hpp"
#include "mdc/state/codec.hpp"
#include "mdc/state/snapshot.hpp"
#include "mdc/state/state_machine.hpp"

namespace mdc {
namespace {

using state::ByteReader;
using state::ByteWriter;
using state::Changelog;
using state::DurableStateMachine;
using state::SnapshotMeta;
using state::SnapshotStore;
using state::SnapshotView;

// --- codec ----------------------------------------------------------------

TEST(StateCodec, RoundtripsEveryTypeBitIdentically) {
  ByteWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.f64(-0.0);
  w.f64(3.141592653589793);
  w.b(true);
  w.str("vip/rip");
  w.id(VipId{42});
  w.id(VipId{});  // invalid sentinel must roundtrip too

  ByteReader r{w.bytes()};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  const double z = r.f64();
  EXPECT_EQ(z, 0.0);
  EXPECT_TRUE(std::signbit(z));
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_TRUE(r.b());
  EXPECT_EQ(r.str(), "vip/rip");
  EXPECT_EQ(r.id<VipId>(), VipId{42});
  EXPECT_FALSE(r.id<VipId>().valid());
  EXPECT_TRUE(r.exhausted());
}

TEST(StateCodec, ReaderFailsSoftPastEnd) {
  ByteWriter w;
  w.u32(7);
  ByteReader r{w.bytes()};
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.u64(), 0u);  // past the end: zero, not UB
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // sticky failure
  EXPECT_FALSE(r.exhausted());
}

std::vector<std::uint8_t> bytesOf(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(StateCodec, Crc32MatchesKnownVector) {
  EXPECT_EQ(state::crc32({}), 0u);
  // CRC-32("123456789") is the classic check value.
  EXPECT_EQ(state::crc32(bytesOf("123456789")), 0xcbf43926u);
}

/// CRC-32 one byte at a time (the reflected polynomial's 256-entry table):
/// the definition the word-at-a-time kernel must reproduce.
std::uint32_t referenceCrc32Step(std::uint32_t c, std::uint8_t byte) {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t v = i;
      for (int k = 0; k < 8; ++k) {
        v = (v & 1u) ? (0xedb88320u ^ (v >> 1)) : (v >> 1);
      }
      t[i] = v;
    }
    return t;
  }();
  return table[(c ^ byte) & 0xffu] ^ (c >> 8);
}

std::uint32_t referenceCrc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t c = 0xffffffffu;
  for (const std::uint8_t byte : bytes) c = referenceCrc32Step(c, byte);
  return c ^ 0xffffffffu;
}

TEST(StateCodec, Crc32KernelMatchesBytewiseReferenceAtEveryLengthAndOffset) {
  Rng rng{0xc3c32u};
  std::vector<std::uint8_t> buf(4100 + 8);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.nextU64());
  // Every start offset mod 8 and every length up to 4,100 bytes: all
  // head/word/tail splits of the 8-byte loop, on unaligned data too.  The
  // reference runs along the buffer once per offset: its state after
  // `len` bytes is the CRC of that prefix.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    std::uint32_t c = 0xffffffffu;
    for (std::size_t len = 0; len <= 4100; ++len) {
      const std::span<const std::uint8_t> bytes(buf.data() + offset, len);
      ASSERT_EQ(state::crc32(bytes), c ^ 0xffffffffu)
          << "offset " << offset << " length " << len;
      if (len < 4100) c = referenceCrc32Step(c, buf[offset + len]);
    }
  }
}

TEST(StateCodec, Fnv1aMatchesKnownVectors) {
  EXPECT_EQ(state::fnv1a64({}), 0xcbf29ce484222325ull);
  EXPECT_EQ(state::fnv1a64(bytesOf("a")), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(state::fnv1a64(bytesOf("foobar")), 0x85944171f73967e8ull);
}

TEST(StateCodec, WordAppendsWriteLittleEndianBytesAndReadBack) {
  // Doubles travel as their bit patterns: a quiet NaN with a payload, a
  // signalling NaN, a negative NaN and -0.0 must survive bit for bit.
  const std::vector<std::uint64_t> doubleBits = {
      0x7ff8dead'beef0001ull, 0x7ff0000000000001ull, 0xfff8000000000123ull,
      0x8000000000000000ull, 0x400921fb54442d18ull};
  ByteWriter w;
  std::vector<std::uint8_t> want;
  const auto le = [&want](std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      want.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  w.u8(0xab);
  le(0xab, 1);
  w.u32(0x01020304u);
  le(0x01020304u, 4);
  w.u64(0x0102030405060708ull);
  le(0x0102030405060708ull, 8);
  w.u32(0xffffffffu);
  le(0xffffffffu, 4);
  for (const std::uint64_t bits : doubleBits) {
    w.f64(std::bit_cast<double>(bits));
    le(bits, 8);
  }
  EXPECT_EQ(std::vector<std::uint8_t>(w.bytes().begin(), w.bytes().end()),
            want);

  ByteReader r{w.bytes()};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0x01020304u);
  EXPECT_EQ(r.u64(), 0x0102030405060708ull);
  EXPECT_EQ(r.u32(), 0xffffffffu);
  for (const std::uint64_t bits : doubleBits) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), bits);
  }
  EXPECT_TRUE(r.exhausted());
}

// --- changelog ------------------------------------------------------------

std::vector<std::uint8_t> payload(std::uint64_t v) {
  ByteWriter w;
  w.u64(v);
  return w.take();
}

TEST(StateChangelog, AppendReplayPreservesRecordsAndIndices) {
  Changelog log;
  EXPECT_EQ(log.append(payload(10)), 0u);
  EXPECT_EQ(log.append(payload(11)), 1u);
  EXPECT_EQ(log.append(payload(12)), 2u);

  const auto replay = log.replay();
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.firstIndex, 0u);
  EXPECT_FALSE(replay.truncatedTail);
  EXPECT_EQ(replay.trailingBytes, 0u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    ByteReader r{replay.records[i]};
    EXPECT_EQ(r.u64(), 10u + i);
  }
}

TEST(StateChangelog, TornTailIsDetectedAndTruncated) {
  Changelog log;
  for (std::uint64_t i = 0; i < 5; ++i) log.append(payload(i));
  ASSERT_TRUE(log.tearTail(/*entropy=*/3));

  // Replay trusts the bytes: the torn frame is cut off, not parsed.
  const auto replay = log.replay();
  EXPECT_EQ(replay.records.size(), 4u);
  EXPECT_TRUE(replay.truncatedTail);
  EXPECT_GT(replay.trailingBytes, 0u);

  // Bookkeeping still claims 5 until recovery resyncs it.
  EXPECT_EQ(log.size(), 5u);
  const std::uint64_t cut = log.truncateToValidPrefix();
  EXPECT_GT(cut, 0u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.endIndex(), 4u);

  // Post-truncation appends land after the good prefix.
  EXPECT_EQ(log.append(payload(99)), 4u);
  EXPECT_EQ(log.replay().records.size(), 5u);
}

TEST(StateChangelog, CorruptRecordStopsReplayAtValidPrefix) {
  Changelog log;
  for (std::uint64_t i = 0; i < 4; ++i) log.append(payload(i));
  ASSERT_TRUE(log.corruptTail(/*entropy=*/0x51u));

  const auto replay = log.replay();
  EXPECT_EQ(replay.records.size(), 3u);
  EXPECT_TRUE(replay.truncatedTail);

  log.truncateToValidPrefix();
  EXPECT_EQ(log.size(), 3u);
}

TEST(StateChangelog, CompactionPreservesGlobalIndices) {
  Changelog log;
  for (std::uint64_t i = 0; i < 10; ++i) log.append(payload(i));
  EXPECT_EQ(log.compactTo(6), 6u);
  EXPECT_EQ(log.baseIndex(), 6u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.compactedRecords(), 6u);

  const auto replay = log.replay();
  ASSERT_EQ(replay.records.size(), 4u);
  EXPECT_EQ(replay.firstIndex, 6u);
  ByteReader r{replay.records.front()};
  EXPECT_EQ(r.u64(), 6u);

  // New records keep counting from the global end.
  EXPECT_EQ(log.append(payload(10)), 10u);
}

// --- snapshot store -------------------------------------------------------

/// Installs an image whose sections are the given bytes.
SnapshotStore::Installed install(SnapshotStore& store, std::uint64_t index,
                                 std::uint64_t term, double at,
                                 std::span<const std::uint8_t> det,
                                 std::span<const std::uint8_t> adv) {
  return store.install(
      index, term, at, [&](ByteWriter& w) { w.raw(det); },
      [&](ByteWriter& w) { w.raw(adv); });
}

bool sameBytes(std::span<const std::uint8_t> a,
               std::span<const std::uint8_t> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

TEST(StateSnapshot, InstallLoadRoundtripsSections) {
  SnapshotStore store{SnapshotStore::Options{2}};
  const auto det = payload(7);
  const auto adv = payload(8);
  const auto installed = install(store, 12, 3, 36.0, det, adv);
  EXPECT_EQ(installed.meta.stateHash, state::fnv1a64(det));
  EXPECT_EQ(installed.validRetained, 1u);
  EXPECT_EQ(installed.oldestValidIndex, 12u);

  std::uint64_t rejected = 0;
  const auto images = store.loadAllValid(&rejected);
  ASSERT_EQ(images.size(), 1u);
  EXPECT_EQ(rejected, 0u);
  EXPECT_EQ(images[0].meta.index, 12u);
  EXPECT_EQ(images[0].meta.term, 3u);
  EXPECT_EQ(images[0].meta.takenAt, 36.0);
  EXPECT_EQ(images[0].meta.stateHash, state::fnv1a64(det));
  EXPECT_TRUE(sameBytes(images[0].deterministic, det));
  EXPECT_TRUE(sameBytes(images[0].advisory, adv));
}

TEST(StateSnapshot, TornWritePublishesInvalidImageAndOlderSurvives) {
  SnapshotStore store{SnapshotStore::Options{2}};
  install(store, 5, 1, 10.0, payload(1), {});

  store.armTornWrite();
  const auto torn = install(store, 9, 1, 20.0, payload(2), {});
  EXPECT_FALSE(store.tornWriteArmed());  // one-shot
  EXPECT_EQ(store.count(), 2u);
  EXPECT_EQ(torn.validRetained, 1u);
  EXPECT_EQ(torn.oldestValidIndex, 5u);

  std::uint64_t rejected = 0;
  const auto images = store.loadAllValid(&rejected);
  ASSERT_EQ(images.size(), 1u);  // torn image dropped, fallback intact
  EXPECT_EQ(rejected, 1u);
  EXPECT_EQ(images[0].meta.index, 5u);
}

TEST(StateSnapshot, CorruptionIsRejectedOnLoad) {
  SnapshotStore store{SnapshotStore::Options{2}};
  install(store, 5, 1, 10.0, payload(1), {});
  ASSERT_TRUE(store.corruptLatest(/*entropy=*/0xf00du));

  std::uint64_t rejected = 0;
  EXPECT_TRUE(store.loadAllValid(&rejected).empty());
  EXPECT_EQ(rejected, 1u);
}

TEST(StateSnapshot, RetentionNeverPrunesLastValidFallback) {
  SnapshotStore store{SnapshotStore::Options{1}};
  install(store, 1, 1, 1.0, payload(1), {});
  // Two consecutive torn installs: with keep=1, naive pruning would
  // rotate the only valid image out.  Retention counts valid images.
  store.armTornWrite();
  install(store, 2, 1, 2.0, payload(2), {});
  store.armTornWrite();
  install(store, 3, 1, 3.0, payload(3), {});

  const auto images = store.loadAllValid();
  ASSERT_EQ(images.size(), 1u);
  EXPECT_EQ(images[0].meta.index, 1u);

  // A new valid install finally displaces the old fallback.
  const auto fourth = install(store, 4, 1, 4.0, payload(4), {});
  EXPECT_EQ(fourth.validRetained, 1u);
  EXPECT_EQ(fourth.oldestValidIndex, 4u);
  const auto after = store.loadAllValid();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].meta.index, 4u);
}

// --- the machine under randomized kill points -----------------------------

// A toy deterministic automaton: the state is an order-sensitive digest
// of every applied record.  Its hooks mirror exactly what VipRipManager
// does — serialize/install/reset/apply — so the kill-point schedule can
// hammer the generic recovery policy cheaply.
struct ToyAutomaton {
  std::uint64_t acc = 0;
  std::uint64_t applied = 0;

  void apply(std::uint64_t v) {
    acc = acc * 6364136223846793005ull + v;
    ++applied;
  }
  void serialize(ByteWriter& w) const {
    w.u64(acc);
    w.u64(applied);
  }
  [[nodiscard]] std::uint64_t hash() const {
    ByteWriter w;
    serialize(w);
    return state::fnv1a64(w.bytes());
  }
};

DurableStateMachine::Hooks toyHooks(ToyAutomaton& toy) {
  DurableStateMachine::Hooks hooks;
  hooks.buildDeterministic = [&toy](ByteWriter& w) { toy.serialize(w); };
  hooks.installDeterministic = [&toy](ByteReader& r) {
    toy.acc = r.u64();
    toy.applied = r.u64();
    return r.ok();
  };
  hooks.reset = [&toy] { toy = ToyAutomaton{}; };
  hooks.applyMutation = [&toy](std::span<const std::uint8_t> bytes) {
    ByteReader r{bytes};
    const std::uint64_t v = r.u64();
    if (!r.exhausted()) return false;
    toy.apply(v);
    return true;
  };
  return hooks;
}

// Crash at a random point of the append/snapshot schedule — including
// mid-record and mid-snapshot writes and latent snapshot bit rot — then
// recover, and assert the machine's contract: the recovered state is
// bit-identical (by hash) to a clean run over the surviving history
// prefix, and the replay tail stays bounded by the snapshot cadence.
TEST(StateMachineKillPoint, RecoveryMatchesCleanRunHashAcrossSeeds) {
  std::uint64_t fastForwards = 0;
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng{0xe17c0ffeeull * seed};

    Changelog log;
    DurableStateMachine machine{log};
    ToyAutomaton toy;
    machine.setHooks(toyHooks(toy));

    // history holds every record with a global index below the log's
    // end.  No recovery may lose a prefix: compaction and fast-forwards
    // both leave two valid images over the log's base, and rot reaches
    // only the newest image.
    std::vector<std::uint64_t> history;
    // Shadow of the store's VALID images (indexes, oldest..newest),
    // mirroring the retention rule, so the test states the replay bound
    // independently: recovery replays at most the records after the
    // newest valid snapshot.
    constexpr std::size_t kKeep = 2;  // SnapshotStore::Options default
    std::vector<std::uint64_t> validSnaps;
    const auto retainValid = [&](std::uint64_t index) {
      validSnaps.push_back(index);
      // Mirror retention: oldest valid images beyond `keep` go.
      while (validSnaps.size() > kKeep) validSnaps.erase(validSnaps.begin());
    };
    bool newestRawValid = false;
    double now = 0.0;
    std::uint64_t recoveriesWithSnapshot = 0;

    const auto recoverAndCheck = [&] {
      const std::uint64_t baseBefore = log.baseIndex();
      const auto stats = machine.recover(now);
      const std::uint64_t totalEnd = history.size();
      if (!validSnaps.empty()) {
        EXPECT_TRUE(stats.usedSnapshot);
        EXPECT_EQ(stats.snapshotIndex, validSnaps.back());
        EXPECT_LE(stats.replayedRecords, totalEnd - validSnaps.back())
            << "replay not bounded by snapshot interval";
      } else {
        EXPECT_FALSE(stats.usedSnapshot);
      }
      EXPECT_FALSE(stats.prefixLost);
      // The crash may have cost the torn/corrupt suffix, never more.
      ASSERT_LE(stats.recoveredIndex, totalEnd);
      history.resize(stats.recoveredIndex);

      // Determinism: recovered state == clean run over the surviving
      // stream, asserted by hash.
      ToyAutomaton clean;
      for (const std::uint64_t v : history) clean.apply(v);
      EXPECT_EQ(machine.stateHash(), clean.hash());
      EXPECT_EQ(toy.hash(), clean.hash());
      if (stats.usedSnapshot) ++recoveriesWithSnapshot;
      if (log.baseIndex() != baseBefore) {
        // A fast-forward (snapshot outran a torn tail) republishes the
        // accepted image, so two valid images cover the new base, and
        // strands the images older than it: mirror both.
        ++fastForwards;
        EXPECT_EQ(log.baseIndex(), stats.snapshotIndex);
        retainValid(stats.snapshotIndex);
        newestRawValid = true;
        while (validSnaps.front() < log.baseIndex()) {
          validSnaps.erase(validSnaps.begin());
        }
        EXPECT_EQ(validSnaps.size(), 2u);
      }
    };

    for (int step = 0; step < 600; ++step) {
      now += 1.0;
      const std::uint64_t action = rng.uniformInt(100);
      if (action < 68) {
        const std::uint64_t v = rng.nextU64();
        log.append(payload(v));
        toy.apply(v);
        history.push_back(v);
      } else if (action < 78) {
        if (rng.uniformInt(4) == 0) machine.snapshots().armTornWrite();
        const bool willTear = machine.snapshots().tornWriteArmed();
        const auto res = machine.takeSnapshot(/*term=*/1, now);
        if (res.taken) {
          newestRawValid = !willTear;
          if (!willTear) retainValid(res.index);
        }
      } else if (action < 86) {
        log.tearTail(rng.nextU64());  // crash mid-append
        recoverAndCheck();
      } else if (action < 93) {
        log.corruptTail(rng.nextU64());  // bit rot in the tail record
        recoverAndCheck();
      } else if (action < 97) {
        // Latent bit rot in the newest image (valid or already torn).
        if (machine.snapshots().corruptLatest(rng.nextU64()) &&
            newestRawValid) {
          validSnaps.pop_back();
          newestRawValid = false;
        }
        recoverAndCheck();
      } else {
        recoverAndCheck();  // clean restart: nothing may be lost
      }
    }
    // The schedule actually exercised the snapshot fallback path.
    EXPECT_GT(machine.snapshotsTaken(), 0u);
    EXPECT_GT(recoveriesWithSnapshot, 0u);
    EXPECT_GT(machine.recoveries(), 0u);
    EXPECT_GT(machine.compactedRecordsTotal(), 0u);
  }
  EXPECT_GT(fastForwards, 0u);
}

// The chain that cost `failover` its whole intent: a crash tears the
// record before the newest snapshot, recovery accepts the snapshot past
// the torn tail and fast-forwards the log, latent rot then hits the
// newest image, and the leader crashes again.  The fast-forward is a
// compaction, so two valid images must cover the new base — also when a
// torn write is armed as recovery republishes — and the second recovery
// still starts from a snapshot and loses nothing.
TEST(StateMachineKillPoint, FastForwardThenNewestImageRotKeepsThePrefix) {
  for (const bool tornArmed : {false, true}) {
    SCOPED_TRACE(tornArmed ? "torn write armed" : "no armed write");
    Changelog log;
    DurableStateMachine machine{log};
    ToyAutomaton toy;
    machine.setHooks(toyHooks(toy));
    std::vector<std::uint64_t> history;
    const auto append = [&](std::uint64_t v) {
      log.append(payload(v));
      toy.apply(v);
      history.push_back(v);
    };

    for (std::uint64_t v = 0; v < 10; ++v) append(v);
    ASSERT_TRUE(machine.takeSnapshot(/*term=*/1, 1.0).taken);
    for (std::uint64_t v = 10; v < 20; ++v) append(v);
    // Two valid images: the log compacts to the older one.
    ASSERT_EQ(machine.takeSnapshot(/*term=*/1, 2.0).compactedRecords, 10u);
    if (tornArmed) machine.snapshots().armTornWrite();

    // Crash mid-append of a record the newest snapshot already covers.
    ASSERT_TRUE(log.tearTail(/*entropy=*/3));
    const auto first = machine.recover(3.0);
    ASSERT_TRUE(first.usedSnapshot);
    EXPECT_EQ(first.snapshotIndex, 20u);
    EXPECT_EQ(first.recoveredIndex, 20u);
    EXPECT_EQ(log.baseIndex(), 20u);  // fast-forwarded past the torn record
    EXPECT_FALSE(machine.snapshots().tornWriteArmed());
    std::size_t covering = 0;
    for (const SnapshotView& img : machine.snapshots().loadAllValid()) {
      if (img.meta.index >= log.baseIndex()) ++covering;
    }
    EXPECT_EQ(covering, 2u);

    // Latent rot in the newest image, then the next leader crashes too.
    ASSERT_TRUE(machine.snapshots().corruptLatest(/*entropy=*/0x5eedu));
    const auto second = machine.recover(4.0);
    EXPECT_TRUE(second.usedSnapshot);
    EXPECT_FALSE(second.prefixLost);
    EXPECT_EQ(second.snapshotIndex, 20u);
    EXPECT_EQ(second.recoveredIndex, 20u);
    ToyAutomaton clean;
    for (const std::uint64_t v : history) clean.apply(v);
    EXPECT_EQ(second.stateHash, clean.hash());
    EXPECT_EQ(toy.hash(), clean.hash());
  }
}

// --- the snapshot store against its byte-at-a-time predecessor ------------

/// The snapshot store as it was before images were serialized, checksummed
/// and validated once: each install encodes three byte-by-byte copies
/// (payload, body, image), each prune step decodes every retained image
/// (payload copies included), and loadAllValid copies every payload.  Its
/// encoder, reader, CRC and FNV are test-local, so the oracle shares no
/// code with the store it checks.
class CopyingSnapshotStore {
 public:
  struct Image {
    SnapshotMeta meta;
    std::vector<std::uint8_t> deterministic;
    std::vector<std::uint8_t> advisory;
  };

  void install(const SnapshotMeta& meta,
               std::span<const std::uint8_t> deterministic,
               std::span<const std::uint8_t> advisory) {
    std::vector<std::uint8_t> payload;
    put(payload, deterministic.size(), 4);
    for (const std::uint8_t b : deterministic) payload.push_back(b);
    for (const std::uint8_t b : advisory) payload.push_back(b);
    std::vector<std::uint8_t> body;
    put(body, meta.index, 8);
    put(body, meta.term, 8);
    put(body, std::bit_cast<std::uint64_t>(meta.takenAt), 8);
    put(body, meta.stateHash, 8);
    put(body, payload.size(), 4);
    for (const std::uint8_t b : payload) body.push_back(b);
    std::vector<std::uint8_t> image;
    put(image, SnapshotStore::kMagic, 4);
    put(image, SnapshotStore::kVersion, 4);
    put(image, referenceCrc32(body), 4);
    for (const std::uint8_t b : body) image.push_back(b);
    if (tornArmed_) {
      image.resize(image.size() / 2);
      tornArmed_ = false;
    }
    images_.push_back(std::move(image));
    while (!images_.empty() && validCount() > kKeep) {
      images_.erase(images_.begin());
    }
  }

  void armTornWrite() { tornArmed_ = true; }

  bool corruptLatest(std::uint64_t entropy) {
    if (images_.empty() || images_.back().empty()) return false;
    std::vector<std::uint8_t>& raw = images_.back();
    const std::size_t lo = raw.size() > 8 ? 8 : 0;
    raw[lo + entropy % (raw.size() - lo)] ^=
        static_cast<std::uint8_t>(1u << ((entropy >> 32) % 8));
    return true;
  }

  [[nodiscard]] std::vector<Image> loadAllValid(
      std::uint64_t* rejected = nullptr) const {
    std::vector<Image> out;
    for (auto it = images_.rbegin(); it != images_.rend(); ++it) {
      Image img;
      if (decode(*it, img)) {
        out.push_back(std::move(img));
      } else if (rejected != nullptr) {
        ++*rejected;
      }
    }
    return out;
  }

  /// takeSnapshot's compaction rule: once two valid images exist, the log
  /// compacts up to the oldest one.
  [[nodiscard]] std::uint64_t compactionIndex(std::uint64_t base) const {
    const std::vector<Image> valid = loadAllValid();
    return valid.size() >= 2 ? std::max(base, valid.back().meta.index)
                             : base;
  }

  [[nodiscard]] const std::vector<std::vector<std::uint8_t>>& images()
      const {
    return images_;
  }

 private:
  static constexpr std::size_t kKeep = 2;

  static void put(std::vector<std::uint8_t>& out, std::uint64_t v,
                  int width) {
    for (int i = 0; i < width; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  static std::uint64_t get(const std::vector<std::uint8_t>& raw,
                           std::size_t& pos, int width, bool& ok) {
    if (!ok || raw.size() - pos < static_cast<std::size_t>(width)) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(width); ++i) {
      v |= static_cast<std::uint64_t>(raw[pos + i]) << (8 * i);
    }
    pos += static_cast<std::size_t>(width);
    return v;
  }

  static bool decode(const std::vector<std::uint8_t>& raw, Image& out) {
    bool ok = true;
    std::size_t pos = 0;
    if (get(raw, pos, 4, ok) != SnapshotStore::kMagic) return false;
    if (get(raw, pos, 4, ok) != SnapshotStore::kVersion) return false;
    const std::uint64_t want = get(raw, pos, 4, ok);
    if (!ok) return false;
    const std::span<const std::uint8_t> body(raw.data() + 12,
                                             raw.size() - 12);
    if (referenceCrc32(body) != want) return false;
    out.meta.index = get(raw, pos, 8, ok);
    out.meta.term = get(raw, pos, 8, ok);
    out.meta.takenAt = std::bit_cast<double>(get(raw, pos, 8, ok));
    out.meta.stateHash = get(raw, pos, 8, ok);
    const std::uint64_t payloadLen = get(raw, pos, 4, ok);
    if (!ok || raw.size() - pos != payloadLen) return false;
    const std::uint64_t detLen = get(raw, pos, 4, ok);
    if (!ok || detLen > raw.size() - pos) return false;
    const auto det = raw.begin() + static_cast<std::ptrdiff_t>(pos);
    out.deterministic.assign(det, det + static_cast<std::ptrdiff_t>(detLen));
    out.advisory.assign(det + static_cast<std::ptrdiff_t>(detLen), raw.end());
    return true;
  }

  std::size_t validCount() const {
    std::size_t n = 0;
    for (const auto& raw : images_) {
      Image img;
      if (decode(raw, img)) ++n;
    }
    return n;
  }

  std::vector<std::vector<std::uint8_t>> images_;
  bool tornArmed_ = false;
};

std::uint64_t referenceFnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ull;
  return h;
}

std::uint64_t oracleSeed() {
  if (const char* s = std::getenv("MDC_CHAOS_SEED")) {
    return std::strtoull(s, nullptr, 10);
  }
  return 1009;
}

// A random script of snapshots (0-64 KiB images), armed torn writes and
// newest-image rot, run through DurableStateMachine::takeSnapshot and
// through the copying store with takeSnapshot's compaction rule beside
// it.  After every step the retained bytes, every valid image's meta and
// sections, the rejected count and the log's base must agree.  The script
// draws from MDC_CHAOS_SEED (default 1009), so the chaos soak runs a
// different one per seed.
TEST(SnapshotStoreOracle, OnePassStoreMatchesCopyingStoreUnderRandomScript) {
  const std::uint64_t seed = oracleSeed();
  SCOPED_TRACE("MDC_CHAOS_SEED=" + std::to_string(seed));
  Rng rng{seed * 0x9e3779b97f4a7c15ull + 0x5a57u};

  std::vector<std::uint8_t> det;
  std::vector<std::uint8_t> adv;
  Changelog log;
  DurableStateMachine machine{log};
  DurableStateMachine::Hooks hooks;
  hooks.buildDeterministic = [&det](ByteWriter& w) { w.raw(det); };
  hooks.buildAdvisory = [&adv](ByteWriter& w) { w.raw(adv); };
  machine.setHooks(std::move(hooks));
  CopyingSnapshotStore oracle;
  std::uint64_t oracleBase = 0;

  const auto randomBytes = [&rng](std::vector<std::uint8_t>& out,
                                  std::size_t maxLen) {
    out.resize(rng.uniformInt(4) == 0 ? 0 : rng.uniformInt(maxLen + 1));
    for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.nextU64());
  };

  std::uint64_t installs = 0;
  std::uint64_t rejectedSeen = 0;
  std::uint64_t compactions = 0;
  for (std::uint64_t step = 0; step < 240; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::uint64_t action = rng.uniformInt(100);
    if (action < 55) {
      // A snapshot needs a record since the last one.
      const std::uint64_t records = 1 + rng.uniformInt(3);
      for (std::uint64_t i = 0; i < records; ++i) {
        log.append(payload(rng.nextU64()));
      }
      randomBytes(det, 48u << 10);
      randomBytes(adv, 16u << 10);
      const double now = static_cast<double>(step);
      const std::uint64_t term = 1 + step / 50;
      const auto res = machine.takeSnapshot(term, now);
      ASSERT_TRUE(res.taken);
      ++installs;
      const SnapshotMeta meta{log.endIndex(), term, now,
                              referenceFnv1a64(det)};
      EXPECT_EQ(res.index, meta.index);
      EXPECT_EQ(res.stateHash, meta.stateHash);
      oracle.install(meta, det, adv);
      const std::uint64_t base = oracle.compactionIndex(oracleBase);
      if (base > oracleBase) ++compactions;
      oracleBase = base;
    } else if (action < 70) {
      machine.snapshots().armTornWrite();
      oracle.armTornWrite();
    } else if (action < 90) {
      const std::uint64_t entropy = rng.nextU64();
      EXPECT_EQ(machine.snapshots().corruptLatest(entropy),
                oracle.corruptLatest(entropy));
    } else {
      log.append(payload(rng.nextU64()));
    }

    ASSERT_EQ(machine.snapshots().images(), oracle.images());
    EXPECT_EQ(log.baseIndex(), oracleBase);
    std::uint64_t rejected = 0;
    std::uint64_t oracleRejected = 0;
    const auto views = machine.snapshots().loadAllValid(&rejected);
    const auto want = oracle.loadAllValid(&oracleRejected);
    EXPECT_EQ(rejected, oracleRejected);
    rejectedSeen += rejected;
    ASSERT_EQ(views.size(), want.size());
    for (std::size_t i = 0; i < views.size(); ++i) {
      EXPECT_EQ(views[i].meta.index, want[i].meta.index);
      EXPECT_EQ(views[i].meta.term, want[i].meta.term);
      EXPECT_EQ(views[i].meta.takenAt, want[i].meta.takenAt);
      EXPECT_EQ(views[i].meta.stateHash, want[i].meta.stateHash);
      EXPECT_TRUE(sameBytes(views[i].deterministic, want[i].deterministic));
      EXPECT_TRUE(sameBytes(views[i].advisory, want[i].advisory));
    }
  }
  // The script reached the cases the retention rule is about.
  EXPECT_GT(installs, 60u);
  EXPECT_GT(rejectedSeen, 0u);
  EXPECT_GT(compactions, 0u);
}

// --- whole-DC snapshot + recovery through the manager ---------------------

TEST(DurableManagerState, CrashWithTornTailRecoversFromSnapshotPlusTail) {
  MegaDcConfig cfg = testScaleConfig();
  MegaDc dc{cfg};
  dc.bootstrap();

  // Past the first periodic snapshot (period 60s, first at ~36s).
  dc.runUntil(100.0);
  auto& machine = dc.manager->viprip().stateMachine();
  ASSERT_GT(machine.snapshotsTaken(), 0u);
  const std::uint64_t termBefore = dc.manager->term();

  // Leader crashes mid-append; the standby recovers snapshot + tail.
  dc.faults->tornJournalWrite(105.0, /*repairAfter=*/30.0);
  dc.runUntil(120.0);
  ASSERT_TRUE(dc.manager->leaderUp());
  EXPECT_GT(dc.manager->term(), termBefore);
  EXPECT_EQ(machine.recoveries(), 1u);
  const auto& rec = machine.lastRecovery();
  EXPECT_TRUE(rec.usedSnapshot);
  EXPECT_GT(rec.truncatedBytes, 0u);
  // Fencing survived durably: the recovered term floor forced the new
  // leader strictly above everything the dead one journaled.
  EXPECT_GT(dc.manager->term(), rec.snapshotTerm);
  EXPECT_EQ(dc.manager->viprip().durableTerm(), dc.manager->term());

  // The recovered world converges and serves; later snapshots build up
  // a fallback pair and compaction finally reclaims the bootstrap tail.
  dc.runUntil(240.0);
  EXPECT_EQ(dc.manager->reconciler().divergenceLastRound(), 0u);
  EXPECT_GT(machine.compactedRecordsTotal(), 0u);
  const EpochReport& r = dc.engine->latest();
  EXPECT_GT(r.totalServedRps() / r.totalDemandRps(), 0.9);
  EXPECT_EQ(r.gauges.at("mdc.state.recoveries"), 1.0);
  EXPECT_GT(r.gauges.at("mdc.state.snapshots_taken"), 0.0);
  EXPECT_GT(r.gauges.at("mdc.state.truncated_bytes"), 0.0);
  EXPECT_GT(r.gauges.at("mdc.state.changelog_records"), 0.0);
}

TEST(DurableManagerState, CorruptSnapshotFallsBackWithoutLosingState) {
  MegaDcConfig cfg = testScaleConfig();
  MegaDc dc{cfg};
  dc.bootstrap();
  dc.runUntil(100.0);
  auto& machine = dc.manager->viprip().stateMachine();
  ASSERT_GT(machine.snapshotsTaken(), 0u);
  const std::size_t vipsBefore = dc.manager->viprip().intent().vipCount();
  ASSERT_GT(vipsBefore, 0u);

  // Latent bit rot in the newest image, then a leader crash: recovery
  // must reject the image and fall back (older snapshot or replay)
  // without losing any acknowledged state.
  dc.faults->corruptSnapshot(101.0);
  dc.faults->crashGlobalManager(102.0, /*repairAfter=*/30.0);
  dc.runUntil(130.0);
  ASSERT_TRUE(dc.manager->leaderUp());
  EXPECT_GE(machine.snapshotsRejectedTotal(), 1u);
  EXPECT_EQ(dc.manager->viprip().intent().vipCount(), vipsBefore);

  dc.runUntil(240.0);
  EXPECT_EQ(dc.manager->reconciler().divergenceLastRound(), 0u);
  const EpochReport& r = dc.engine->latest();
  EXPECT_GT(r.totalServedRps() / r.totalDemandRps(), 0.9);
  EXPECT_GE(r.gauges.at("mdc.state.snapshots_rejected"), 1.0);
}

// --- seeded retransmit jitter ---------------------------------------------

// Two switches behind a dead channel retry the same command schedule;
// with jitter their timers must diverge (no retry storm lockstep), yet
// each schedule is a pure function of (jitterSeed, switch id).
TEST(CommandSenderJitter, RetrySchedulesDivergeAcrossSwitchesButReplay) {
  const auto transmitTimes = [](std::uint64_t jitterSeed, double jitter,
                                SwitchId::value_type swIndex) {
    Simulation sim;
    SwitchFleet fleet;
    // Create both switches in every run so ids and streams line up.
    const SwitchId s0 = fleet.addSwitch(SwitchLimits{});
    const SwitchId s1 = fleet.addSwitch(SwitchLimits{});
    const SwitchId sw = swIndex == 0 ? s0 : s1;
    ControlChannel channel{sim, 1};
    channel.setPartitioned(s0, true);
    channel.setPartitioned(s1, true);
    CommandSender::Options opt;
    opt.ackTimeoutSeconds = 1.0;
    opt.maxBackoffSeconds = 8.0;
    opt.maxAttempts = 0;  // retry forever; we sample the schedule
    opt.backoffJitter = jitter;
    opt.jitterSeed = jitterSeed;
    CommandSender sender{sim, channel, fleet, opt};

    std::vector<SimTime> times;
    Tracer tracer{sim, Tracer::Options{1u << 10, true}};
    sender.setTracer(&tracer);
    SwitchCommand cfg;
    cfg.kind = CmdKind::ConfigureVip;
    cfg.vip = VipId{1};
    cfg.app = AppId{0};
    cfg.trace = tracer.begin();
    sender.send(sw, cfg, [](Status) {});
    sim.runUntil(200.0);
    for (const TraceEvent& e : tracer.ring().snapshot()) {
      if (e.hop == HopKind::CmdTransmit) times.push_back(e.at);
    }
    return times;
  };

  const auto a = transmitTimes(0xfeedu, 0.1, 0);
  const auto b = transmitTimes(0xfeedu, 0.1, 1);
  ASSERT_GT(a.size(), 8u);
  ASSERT_GT(b.size(), 8u);
  // The schedules must not resynchronize — even after the deterministic
  // backoff saturates at maxBackoff, jitter keeps the links apart.
  std::size_t equal = 0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 1; i < n; ++i) {
    if (a[i] == b[i]) ++equal;
  }
  EXPECT_LT(equal, n / 4) << "retry schedules locked in step";

  // Determinism: the same (seed, switch) reproduces the exact schedule.
  EXPECT_EQ(a, transmitTimes(0xfeedu, 0.1, 0));
  // A different base seed moves it.
  EXPECT_NE(a, transmitTimes(0xbeefu, 0.1, 0));
  // Jitter off: both switches collapse to the same deterministic
  // schedule — the pre-jitter behavior, byte for byte.
  const auto plainA = transmitTimes(0xfeedu, 0.0, 0);
  const auto plainB = transmitTimes(0xfeedu, 0.0, 1);
  EXPECT_EQ(std::vector<SimTime>(plainA.begin() + 1, plainA.end()),
            std::vector<SimTime>(plainB.begin() + 1, plainB.end()));
}

// --- epoch report canonical encoding --------------------------------------

TEST(EpochReportCodec, EncodeDecodeHashRoundtrip) {
  EpochReport rep;
  rep.time = 82.0;
  rep.gauges["mdc.state.changelog_records"] = 123;
  rep.gauges["mdc.state.snapshots_taken"] = 2;
  rep.gauges["mdc.state.replayed_records"] = 9;
  rep.gauges["mdc.state.compacted_records"] = 106;
  rep.gauges["mdc.session.rejected{reason=cap}"] = 4;
  rep.gauges["mdc.state.snapshot_age_seconds"] = 0.25;
  // Plan seeds use all 64 bits (chaos tests derive them as
  // seed * 0x9e3779b97f4a7c15 + c), beyond what a double holds exactly.
  rep.faultPlanSeed = 7 * 0x9e3779b97f4a7c15ull + 0xe17u;
  ASSERT_GT(rep.faultPlanSeed, std::uint64_t{1} << 53);
  rep.appDemandRps[AppId{3}] = 1000.0;
  rep.appServedRps[AppId{3}] = 990.0;

  ByteWriter w;
  encodeEpochReport(rep, w);
  ByteReader r{w.bytes()};
  const EpochReport back = decodeEpochReport(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.time, rep.time);
  EXPECT_EQ(back.gauges, rep.gauges);
  EXPECT_EQ(back.gauges.at("mdc.state.compacted_records"), 106.0);
  EXPECT_EQ(back.faultPlanSeed, rep.faultPlanSeed);
  EXPECT_EQ(back.appServedRps, rep.appServedRps);
  EXPECT_EQ(hashEpochReport(back), hashEpochReport(rep));

  // The hash is sensitive to every gauge value, to the key set, and to
  // the low bits of the seed.
  EpochReport changed = rep;
  changed.gauges["mdc.state.replayed_records"] = 10;
  EXPECT_NE(hashEpochReport(changed), hashEpochReport(rep));
  EpochReport extra = rep;
  extra.gauges["mdc.state.recoveries"] = 0;
  EXPECT_NE(hashEpochReport(extra), hashEpochReport(rep));
  EpochReport reseeded = rep;
  reseeded.faultPlanSeed += 1;
  EXPECT_NE(hashEpochReport(reseeded), hashEpochReport(rep));
}

}  // namespace
}  // namespace mdc
