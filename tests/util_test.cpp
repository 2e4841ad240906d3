// Unit tests for the util module: strong ids, contracts, units, results,
// statistics helpers, and the epoch engine's worker pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <vector>

#include "mdc/util/expect.hpp"
#include "mdc/util/flat_map.hpp"
#include "mdc/util/ids.hpp"
#include "mdc/util/result.hpp"
#include "mdc/util/stats.hpp"
#include "mdc/util/thread_pool.hpp"
#include "mdc/util/units.hpp"

namespace mdc {
namespace {

TEST(StrongId, DefaultConstructedIsInvalid) {
  ServerId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, ServerId::invalid());
}

TEST(StrongId, ValueRoundTrips) {
  ServerId id{42};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
  EXPECT_EQ(id.index(), 42u);
}

TEST(StrongId, Ordering) {
  EXPECT_LT(VmId{1}, VmId{2});
  EXPECT_EQ(VmId{7}, VmId{7});
  EXPECT_NE(VmId{7}, VmId{8});
}

TEST(StrongId, HashableInUnorderedSet) {
  std::unordered_set<AppId> set;
  set.insert(AppId{1});
  set.insert(AppId{2});
  set.insert(AppId{1});
  EXPECT_EQ(set.size(), 2u);
}

TEST(StrongId, StreamOutput) {
  std::ostringstream os;
  os << PodId{5} << " " << PodId{};
  EXPECT_EQ(os.str(), "5 <invalid>");
}

TEST(IdAllocator, AllocatesDenselyFromZero) {
  IdAllocator<VipId> alloc;
  EXPECT_EQ(alloc.next(), VipId{0});
  EXPECT_EQ(alloc.next(), VipId{1});
  EXPECT_EQ(alloc.allocated(), 2u);
}

TEST(Expect, PreconditionThrows) {
  EXPECT_THROW(MDC_EXPECT(false, "boom"), PreconditionError);
  EXPECT_NO_THROW(MDC_EXPECT(true, "fine"));
}

TEST(Expect, InvariantThrowsWithMessage) {
  try {
    MDC_ENSURE(1 == 2, "numbers drifted");
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("numbers drifted"),
              std::string::npos);
  }
}

TEST(CapacityVec, Arithmetic) {
  CapacityVec a{2.0, 4.0, 1.0};
  CapacityVec b{1.0, 1.0, 0.5};
  EXPECT_EQ((a + b).cpu(), 3.0);
  EXPECT_EQ((a - b).memory(), 3.0);
  EXPECT_EQ((a * 2.0).network(), 2.0);
  EXPECT_EQ((2.0 * a).cpu(), 4.0);
}

TEST(CapacityVec, FitsWithin) {
  CapacityVec small{1.0, 1.0, 1.0};
  CapacityVec big{2.0, 2.0, 2.0};
  EXPECT_TRUE(small.fitsWithin(big));
  EXPECT_FALSE(big.fitsWithin(small));
  EXPECT_TRUE(small.fitsWithin(small));
}

TEST(CapacityVec, NonNegative) {
  EXPECT_TRUE((CapacityVec{0.0, 0.0, 0.0}).nonNegative());
  EXPECT_FALSE((CapacityVec{1.0, -0.1, 0.0}).nonNegative());
}

TEST(CapacityVec, MaxRatioFindsBindingResource) {
  CapacityVec use{1.0, 8.0, 0.5};
  CapacityVec cap{4.0, 16.0, 1.0};
  EXPECT_DOUBLE_EQ(use.maxRatio(cap), 0.5);  // memory and net tie at 0.5
}

TEST(CapacityVec, MaxRatioInfiniteWhenDenomZero) {
  CapacityVec use{1.0, 0.0, 0.0};
  CapacityVec cap{0.0, 16.0, 1.0};
  EXPECT_TRUE(std::isinf(use.maxRatio(cap)));
}

TEST(CapacityVec, IndexByResourceEnum) {
  CapacityVec c{1.0, 2.0, 3.0};
  EXPECT_EQ(c[Resource::Cpu], 1.0);
  EXPECT_EQ(c[Resource::Memory], 2.0);
  EXPECT_EQ(c[Resource::Network], 3.0);
  c[Resource::Cpu] = 9.0;
  EXPECT_EQ(c.cpu(), 9.0);
}

TEST(FlatMap, EraseKeepsTheOthersSortedAndFound) {
  FlatMap<std::uint32_t, double> m;
  for (const std::uint32_t k : {5u, 1u, 9u, 3u}) m[k] = 10.0 * k;
  const auto next = m.erase(m.find(3));
  ASSERT_NE(next, m.end());
  EXPECT_EQ(next->first, 5u);
  m.erase(m.find(9));  // the last entry
  m.erase(m.find(1));  // the first entry
  EXPECT_FALSE(m.contains(1) || m.contains(3) || m.contains(9));
  ASSERT_EQ(m.size(), 1u);
  EXPECT_DOUBLE_EQ(m.at(5), 50.0);
  m[2] = 20.0;
  m[7] = 70.0;
  std::vector<std::uint32_t> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::uint32_t>{2, 5, 7}));
}

TEST(Result, SuccessAndError) {
  Result<int> good{7};
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);

  Result<int> bad{Error{"full", "table exhausted"}};
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, "full");
  EXPECT_THROW((void)bad.value(), PreconditionError);
}

TEST(Status, OkAndFail) {
  EXPECT_TRUE(Status::okStatus().ok());
  const Status s = Status::fail("nope", "reason");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "nope");
  EXPECT_THROW((void)Status::okStatus().error(), PreconditionError);
}

TEST(Stats, MeanAndStddev) {
  std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(Stats, EmptyInputsAreSafe) {
  std::vector<double> empty;
  EXPECT_EQ(mean(empty), 0.0);
  EXPECT_EQ(stddev(empty), 0.0);
  EXPECT_EQ(coefficientOfVariation(empty), 0.0);
  EXPECT_EQ(jainFairness(empty), 1.0);
  EXPECT_EQ(maxOverMean(empty), 1.0);
}

TEST(Stats, JainFairnessBounds) {
  std::vector<double> balanced{3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(jainFairness(balanced), 1.0);
  std::vector<double> skewed{9.0, 0.0, 0.0};
  EXPECT_NEAR(jainFairness(skewed), 1.0 / 3.0, 1e-12);
}

TEST(Stats, MaxOverMean) {
  std::vector<double> xs{1.0, 1.0, 4.0};
  EXPECT_DOUBLE_EQ(maxOverMean(xs), 2.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
}

TEST(Stats, PercentilePreconditions) {
  std::vector<double> empty;
  EXPECT_THROW((void)percentile(empty, 50.0), PreconditionError);
  std::vector<double> one{1.0};
  EXPECT_THROW((void)percentile(one, 101.0), PreconditionError);
}

TEST(Units, Helpers) {
  EXPECT_DOUBLE_EQ(gbps(4.0), 4.0);
  EXPECT_DOUBLE_EQ(mbps(500.0), 0.5);
  EXPECT_DOUBLE_EQ(minutes(2.0), 120.0);
  EXPECT_DOUBLE_EQ(hours(1.0), 3600.0);
}

TEST(ThreadPool, RunsEveryJobExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallelFor(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallelFor(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // safe: no helper threads
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ReusableAcrossRounds) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallelFor(17, [&](std::size_t) { total++; });
  }
  EXPECT_EQ(total.load(), 50 * 17);
}

TEST(ThreadPool, PropagatesJobExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallelFor(100,
                                [&](std::size_t i) {
                                  if (i == 57) {
                                    throw std::runtime_error("job failed");
                                  }
                                }),
               std::runtime_error);
  // The pool must survive a failed round.
  std::atomic<int> ran{0};
  pool.parallelFor(8, [&](std::size_t) { ran++; });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ResolveWorkersHonoursEnv) {
  // Oversubscription escape hatch makes the expectations machine-
  // independent; the clamp itself is tested below.
  ::setenv("MDC_ALLOW_OVERSUBSCRIBE", "1", 1);
  EXPECT_EQ(ThreadPool::resolveWorkers(3), 3u);
  ::setenv("MDC_THREADS", "5", 1);
  EXPECT_EQ(ThreadPool::resolveWorkers(0), 5u);
  ::unsetenv("MDC_THREADS");
  EXPECT_EQ(ThreadPool::resolveWorkers(0), 1u);
  ::unsetenv("MDC_ALLOW_OVERSUBSCRIBE");
}

TEST(ThreadPool, ResolveWorkersClampsToHardware) {
  ::unsetenv("MDC_ALLOW_OVERSUBSCRIBE");
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  const unsigned cap = std::min(hw, ThreadPool::kMaxWorkers);
  // A request beyond the machine is clamped, never oversubscribed.
  EXPECT_EQ(ThreadPool::resolveWorkers(cap + 8), cap);
  ::setenv("MDC_THREADS", "64", 1);
  EXPECT_EQ(ThreadPool::resolveWorkers(0), cap);
  ::unsetenv("MDC_THREADS");
  // 1 worker is always granted as-is.
  EXPECT_EQ(ThreadPool::resolveWorkers(1), 1u);
}

TEST(ThreadPool, ResolveWorkersCapsAtMaxEvenWhenOversubscribed) {
  ::setenv("MDC_ALLOW_OVERSUBSCRIBE", "1", 1);
  EXPECT_EQ(ThreadPool::resolveWorkers(ThreadPool::kMaxWorkers + 4),
            ThreadPool::kMaxWorkers);
  ::unsetenv("MDC_ALLOW_OVERSUBSCRIBE");
}

}  // namespace
}  // namespace mdc
