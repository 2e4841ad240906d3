// Edge-case and stress coverage for the epoch engine's worker pool:
// degenerate job counts, the nested-fork refusal, the static-range
// dispatch, and a randomized stress test asserting that per-worker
// accumulator partitions merged in slot order reproduce the sequential
// addition sequence bit-for-bit at every worker count — the exact
// protocol the fluid engine's emission phase is built on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <vector>

#include "mdc/util/expect.hpp"
#include "mdc/util/thread_pool.hpp"

namespace mdc {
namespace {

TEST(ThreadPoolEdge, FewerJobsThanWorkers) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallelFor(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolEdge, ZeroJobsIsANoOp) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  pool.parallelFor(0, [&](std::size_t) { ran++; });
  EXPECT_EQ(ran.load(), 0);
  pool.parallelRanges(0, [&](unsigned, std::size_t, std::size_t) { ran++; });
  EXPECT_EQ(ran.load(), 0);
  // The pool stays usable after empty rounds.
  pool.parallelFor(5, [&](std::size_t) { ran++; });
  EXPECT_EQ(ran.load(), 5);
}

TEST(ThreadPoolEdge, NestedParallelForIsRefused) {
  ThreadPool pool(4);
  std::atomic<int> refused{0};
  pool.parallelFor(8, [&](std::size_t) {
    try {
      pool.parallelFor(2, [](std::size_t) {});
    } catch (const PreconditionError&) {
      refused++;
    }
  });
  EXPECT_EQ(refused.load(), 8);
  // Refusal from inside the inline (single-worker) path as well.
  ThreadPool solo(1);
  EXPECT_THROW(solo.parallelFor(
                   1, [&](std::size_t) { solo.parallelFor(1, [](std::size_t) {}); }),
               PreconditionError);
  // And the refusing pool remains healthy.
  std::atomic<int> ran{0};
  pool.parallelFor(16, [&](std::size_t) { ran++; });
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolEdge, ParallelRangesCoversEveryItemExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t items : {1ul, 3ul, 4ul, 5ul, 1000ul}) {
    std::vector<std::atomic<int>> hits(items);
    std::atomic<unsigned> maxSlot{0};
    pool.parallelRanges(items, [&](unsigned slot, std::size_t lo,
                                   std::size_t hi) {
      ASSERT_LT(lo, hi);  // no empty ranges are dispatched
      unsigned seen = maxSlot.load();
      while (slot > seen && !maxSlot.compare_exchange_weak(seen, slot)) {
      }
      for (std::size_t i = lo; i < hi; ++i) hits[i]++;
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    // Slots are dense in [0, min(workers, items)).
    EXPECT_LT(maxSlot.load(), std::min<std::size_t>(4, items));
  }
}

TEST(ThreadPoolEdge, ParallelRangesAreContiguousAscending) {
  ThreadPool pool(1);  // inline: ranges arrive in slot order
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  pool.parallelRanges(10, [&](unsigned, std::size_t lo, std::size_t hi) {
    ranges.emplace_back(lo, hi);
  });
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (std::pair<std::size_t, std::size_t>{0, 10}));
}

// The partition/concatenation discipline the session engine's insert
// phase relies on (DESIGN.md §13): workers fill per-slot-private ordered
// buffers over static contiguous ranges; buffers applied in slot order
// replay the sequential addition sequence exactly, so the result is
// bit-identical to a single thread's — for ANY worker count, 50
// randomized epochs long.
TEST(ThreadPoolStress, DeterministicPartitionMergeAcrossWorkerCounts) {
  constexpr std::size_t kAccumulators = 64;
  constexpr std::size_t kItems = 4096;
  constexpr int kEpochs = 50;

  std::mt19937 rng(0xACC);
  std::uniform_int_distribution<std::uint32_t> slotDist(0, kAccumulators - 1);
  std::uniform_real_distribution<double> valDist(1e-6, 1e6);

  // Per-epoch randomized work: item -> (accumulator slot, addend).
  std::vector<std::vector<std::pair<std::uint32_t, double>>> epochs(kEpochs);
  for (auto& items : epochs) {
    items.resize(kItems);
    for (auto& [slot, val] : items) {
      slot = slotDist(rng);
      val = valDist(rng);
    }
  }

  const auto run = [&](unsigned workers) {
    ThreadPool pool(workers);
    std::vector<double> acc(kAccumulators, 0.0);
    for (const auto& items : epochs) {
      // Each worker emits its contiguous range into a private ordered
      // buffer (never touching acc), then the buffers merge in slot-index
      // order — concatenation order == item order.
      std::vector<std::vector<std::pair<std::uint32_t, double>>> part(
          pool.workers());
      pool.parallelRanges(items.size(), [&](unsigned slot, std::size_t lo,
                                            std::size_t hi) {
        auto& out = part[slot];
        out.reserve(hi - lo);
        for (std::size_t i = lo; i < hi; ++i) out.push_back(items[i]);
      });
      for (const auto& p : part) {
        for (const auto& [slot, val] : p) acc[slot] += val;
      }
    }
    return acc;
  };

  const std::vector<double> ref = run(1);
  for (const unsigned workers : {2u, 8u}) {
    const std::vector<double> got = run(workers);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      // Bit-identical, not approximately equal.
      EXPECT_EQ(got[i], ref[i]) << "accumulator " << i << " diverged at "
                                << workers << " workers";
    }
  }
}

}  // namespace
}  // namespace mdc
