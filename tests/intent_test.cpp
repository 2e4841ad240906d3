// IntentStore's derived indexes — each VM's RIP bindings, each access
// router's VIP count, each switch's VIP and RIP counts — checked against a
// full scan of the intent after every mutation of randomized sequences
// over all seven record kinds, and against a store rebuilt the way
// snapshot install rebuilds one; both walks, forEach and forEachBound,
// must yield strictly ascending ids.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "mdc/ctrl/intent.hpp"
#include "mdc/sim/rng.hpp"

namespace mdc {
namespace {

constexpr std::uint32_t kVips = 10;
constexpr std::uint32_t kSwitches = 3;
constexpr std::uint32_t kRouters = 3;
constexpr std::uint32_t kVms = 6;
constexpr std::uint32_t kRipIds = 12;

using Binding = std::pair<std::uint32_t, std::uint32_t>;  // (vip, rip)

std::vector<Binding> toPairs(std::span<const RipBinding> refs) {
  std::vector<Binding> out;
  for (const RipBinding& b : refs) {
    out.emplace_back(b.vip.value(), b.rip.value());
  }
  return out;
}

/// A router draw that is invalid one time in four.
AccessRouterId drawRouter(Rng& rng) {
  const std::uint64_t r = rng.uniformInt(kRouters + 1);
  return r == kRouters ? AccessRouterId{} : AccessRouterId{std::uint32_t(r)};
}

IntentRecord drawRecord(Rng& rng) {
  IntentRecord rec;
  rec.op = static_cast<IntentOp>(
      rng.uniformInt(static_cast<std::uint64_t>(IntentOp::SetRipWeight) + 1));
  rec.vip = VipId{std::uint32_t(rng.uniformInt(kVips))};
  rec.app = AppId{0};
  rec.sw = SwitchId{std::uint32_t(rng.uniformInt(kSwitches))};
  rec.router = drawRouter(rng);
  // Few RIP ids, so one id sits behind several VIPs and ids are removed
  // and re-added; a quarter of the RIPs are m-VIP RIPs with no VM.
  rec.rip.rip = RipId{std::uint32_t(rng.uniformInt(kRipIds))};
  if (rng.bernoulli(0.25)) {
    rec.rip.mvip = VipId{std::uint32_t(rng.uniformInt(kVips))};
  } else {
    rec.rip.vm = VmId{std::uint32_t(rng.uniformInt(kVms))};
  }
  rec.rip.weight = rng.uniform(0.0, 4.0);
  rec.weight = rng.uniform(0.0, 4.0);
  return rec;
}

template <typename Id>
bool strictlyAscending(const std::vector<Id>& ids) {
  return std::adjacent_find(ids.begin(), ids.end(),
                            std::greater_equal<Id>{}) == ids.end();
}

/// Compares every derived index of `store` with a scan of its VIPs.
/// `appliedAt` orders each VM's bindings as their AddRips were applied;
/// without it (a rebuilt store) the bindings compare as sets.
void expectIndexesMatchScan(
    const IntentStore& store,
    const std::map<Binding, std::uint64_t>* appliedAt) {
  std::array<std::vector<std::tuple<std::uint64_t, Binding>>, kVms> bound;
  std::array<std::uint32_t, kRouters> routerVips{};
  std::array<std::uint32_t, kSwitches> switchVips{};
  std::array<std::uint32_t, kSwitches> switchRips{};
  std::vector<VipId> walked;
  store.forEach([&](VipId vip, const VipIntent& in) {
    walked.push_back(vip);
    if (in.router.valid()) ++routerVips[in.router.index()];
    ++switchVips[in.sw.index()];
    switchRips[in.sw.index()] += static_cast<std::uint32_t>(in.rips.size());
    for (const RipEntry& r : in.rips) {
      if (!r.targetsVm()) continue;
      const Binding b{vip.value(), r.rip.value()};
      bound[r.vm.index()].emplace_back(
          appliedAt != nullptr ? appliedAt->at(b) : 0, b);
    }
  });
  EXPECT_TRUE(strictlyAscending(walked));
  EXPECT_EQ(walked.size(), store.vipCount());

  std::size_t boundVms = 0;
  for (std::uint32_t vm = 0; vm < kVms; ++vm) {
    std::sort(bound[vm].begin(), bound[vm].end());
    std::vector<Binding> want;
    for (const auto& [at, b] : bound[vm]) want.push_back(b);
    std::vector<Binding> got = toPairs(store.bindingsOf(VmId{vm}));
    if (appliedAt == nullptr) std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "vm " << vm;
    if (!want.empty()) ++boundVms;
  }
  EXPECT_TRUE(store.bindingsOf(VmId{}).empty());
  std::vector<VmId> visited;
  store.forEachBound([&](VmId vm, std::span<const RipBinding> refs) {
    visited.push_back(vm);
    EXPECT_FALSE(refs.empty()) << "vm " << vm.value();
  });
  EXPECT_TRUE(strictlyAscending(visited));
  EXPECT_EQ(visited.size(), boundVms);

  for (std::uint32_t r = 0; r < kRouters; ++r) {
    EXPECT_EQ(store.vipsAt(AccessRouterId{r}), routerVips[r])
        << "router " << r;
  }
  EXPECT_EQ(store.vipsAt(AccessRouterId{}), 0u);
  for (std::uint32_t sw = 0; sw < kSwitches; ++sw) {
    EXPECT_EQ(store.vipsOn(SwitchId{sw}), switchVips[sw]) << "switch " << sw;
    EXPECT_EQ(store.ripsOn(SwitchId{sw}), switchRips[sw]) << "switch " << sw;
  }
}

/// Rebuilds `store` the way snapshot install does: VIPs in the store's
/// (id) order, each AddVip followed by its RIPs' AddRips in intent order.
IntentStore rebuildLikeSnapshotInstall(const IntentStore& store) {
  IntentStore rebuilt;
  store.forEach([&](VipId vip, const VipIntent& in) {
    IntentRecord add;
    add.op = IntentOp::AddVip;
    add.vip = vip;
    add.app = in.app;
    add.sw = in.sw;
    add.router = in.router;
    rebuilt.apply(add);
    for (const RipEntry& r : in.rips) {
      IntentRecord bind;
      bind.op = IntentOp::AddRip;
      bind.vip = vip;
      bind.rip = r;
      rebuilt.apply(bind);
    }
  });
  return rebuilt;
}

TEST(IntentStoreIndex, DerivedIndexesMatchScanUnderRandomMutations) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng{seed};
    IntentStore store;
    std::map<Binding, std::uint64_t> appliedAt;
    std::array<std::uint32_t, 7> appliedByOp{};
    std::uint32_t vipsRemovedWithRips = 0;
    for (std::uint64_t step = 0; step < 1500; ++step) {
      IntentRecord rec = drawRecord(rng);
      // Bias toward records that apply: target an intended VIP, and
      // remove or reweight one of its RIPs, most of the time.
      std::vector<VipId> intended;
      store.forEach(
          [&](VipId vip, const VipIntent&) { intended.push_back(vip); });
      if (rec.op != IntentOp::AddVip && !intended.empty() &&
          rng.bernoulli(0.85)) {
        rec.vip = intended[rng.uniformInt(intended.size())];
        const VipIntent& in = *store.find(rec.vip);
        if ((rec.op == IntentOp::RemoveRip ||
             rec.op == IntentOp::SetRipWeight) &&
            !in.rips.empty() && rng.bernoulli(0.8)) {
          rec.rip.rip = in.rips[rng.uniformInt(in.rips.size())].rip;
        }
      }
      if (!store.canApply(rec)) continue;
      const VipIntent* target = store.find(rec.vip);
      if (rec.op == IntentOp::RemoveVip && !target->rips.empty()) {
        ++vipsRemovedWithRips;
      }
      store.apply(rec);
      ++appliedByOp[static_cast<std::size_t>(rec.op)];
      if (rec.op == IntentOp::AddRip) {
        appliedAt[{rec.vip.value(), rec.rip.rip.value()}] = step;
      }
      expectIndexesMatchScan(store, &appliedAt);
      if (step % 100 == 99) {
        expectIndexesMatchScan(rebuildLikeSnapshotInstall(store), nullptr);
      }
      if (testing::Test::HasFailure()) return;
    }
    expectIndexesMatchScan(rebuildLikeSnapshotInstall(store), nullptr);
    // The sequence exercised every record kind, and RemoveVip of a VIP
    // that still had RIPs.
    for (std::size_t op = 0; op < appliedByOp.size(); ++op) {
      EXPECT_GT(appliedByOp[op], 0u) << "op " << op;
    }
    EXPECT_GT(vipsRemovedWithRips, 0u);
  }
}

}  // namespace
}  // namespace mdc
