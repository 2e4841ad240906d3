// Tests for the sharded session data plane: arrival/expiry mechanics,
// connection affinity under VIP transfer (§IV-B), the randomized
// serialized-vs-sharded equivalence suite, the route-table oracle under
// fleet churn, drain-curve properties across DNS TTLs, and the rejection
// taxonomy / global-cap plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "mdc/scenario/megadc.hpp"
#include "mdc/scenario/session_engine.hpp"
#include "mdc/state/codec.hpp"

namespace mdc {
namespace {

double weightOf(const AuthoritativeDns& dns, AppId app, VipId vip) {
  for (const VipWeight& w : dns.vips(app)) {
    if (w.vip == vip) return w.weight;
  }
  return -1.0;
}

struct Fixture {
  Simulation sim;
  AppRegistry apps;
  AuthoritativeDns dns;
  ResolverPopulation resolvers;
  SwitchFleet fleet;
  StaticDemand demand{{10'000.0}};
  AppId app;
  VipId vip{100};
  SwitchId swA, swB;

  explicit Fixture(SwitchLimits limits = SwitchLimits{},
                   ResolverConfig rc = ResolverConfig{})
      : resolvers{dns, rc} {
    app = apps.create("web", AppSla{}, 10'000.0);
    swA = fleet.addSwitch(limits);
    swB = fleet.addSwitch(limits);
    EXPECT_TRUE(fleet.configureVip(swA, vip, app).ok());
    RipEntry rip;
    rip.rip = RipId{0};
    rip.vm = VmId{0};
    EXPECT_TRUE(fleet.addRip(vip, rip).ok());
    dns.registerApp(app);
    dns.addVip(app, vip, 1.0);
  }

  SessionEngine::Options options() {
    SessionEngine::Options o;
    o.sessionsPerSecondPerKrps = 1.0;  // 10 sessions/s at 10 krps
    o.meanSessionSeconds = 20.0;
    o.tick = 1.0;
    o.seed = 5;
    return o;
  }

  SessionEngine make(SessionEngine::Options o) {
    return SessionEngine{sim, apps, demand, dns, resolvers, fleet, o};
  }
};

TEST(SessionEngine, SessionsArriveAndTrackOnSwitch) {
  Fixture f;
  SessionEngine engine = f.make(f.options());
  engine.start();
  f.sim.runUntil(30.0);
  EXPECT_GT(engine.totalArrivals(), 200u);
  EXPECT_GT(engine.activeSessions(), 0u);
  EXPECT_EQ(engine.rejectedSessions(), 0u);
  EXPECT_EQ(f.fleet.at(f.swA).activeConnections(), engine.activeSessions());
  EXPECT_EQ(engine.shardOf(f.swA).size(), engine.activeSessions());
}

TEST(SessionEngine, SessionsCompleteOverTime) {
  Fixture f;
  SessionEngine engine = f.make(f.options());
  engine.start();
  f.sim.runUntil(200.0);
  EXPECT_GT(engine.completedSessions(), 0u);
  EXPECT_EQ(engine.brokenSessions(), 0u);
  // Little's law sanity: active ~ rate * duration = 10/s * 20 s = 200.
  EXPECT_NEAR(static_cast<double>(engine.activeSessions()), 200.0, 80.0);
}

TEST(SessionEngine, ConservationHoldsEveryEpoch) {
  Fixture f;
  SessionEngine engine = f.make(f.options());
  engine.start();
  for (double t = 1.0; t <= 120.0; t += 1.0) {
    f.sim.runUntil(t);
    ASSERT_EQ(engine.totalArrivals(),
              engine.activeSessions() + engine.completedSessions() +
                  engine.brokenSessions() + engine.rejectedSessions());
  }
}

TEST(SessionEngine, TransferRefusedWhileSessionsActive) {
  Fixture f;
  SessionEngine engine = f.make(f.options());
  engine.start();
  f.sim.runUntil(30.0);
  ASSERT_GT(f.fleet.at(f.swA).activeConnections(f.vip), 0u);
  EXPECT_EQ(f.fleet.transferVip(f.vip, f.swB).error().code, "vip_in_use");
}

TEST(SessionEngine, ForcedTransferBreaksSessions) {
  Fixture f;
  SessionEngine engine = f.make(f.options());
  engine.start();
  f.sim.runUntil(30.0);
  const auto inFlight = f.fleet.at(f.swA).activeConnections(f.vip);
  ASSERT_GT(inFlight, 0u);
  ASSERT_TRUE(engine.forceTransfer(f.vip, f.swB).ok());
  EXPECT_EQ(f.fleet.droppedConnections(), inFlight);
  EXPECT_EQ(engine.brokenSessions(), inFlight);
  EXPECT_EQ(f.fleet.at(f.swA).activeConnections(f.vip), 0u);
}

TEST(SessionEngine, DrainViaDnsThenTransferCleanly) {
  // The paper's drain recipe by hand: stop exposing the VIP, wait for
  // sessions to finish, then transfer with zero affinity violations.
  // A TTL-compliant population only — lingering clients (1800 s time
  // constant) would keep a trickle on the old VIP for hours.
  ResolverConfig compliant;
  compliant.lingerFraction = 0.0;
  Fixture f{SwitchLimits{}, compliant};
  // Add a second VIP so clients have somewhere else to go.
  const VipId vip2{101};
  ASSERT_TRUE(f.fleet.configureVip(f.swB, vip2, f.app).ok());
  RipEntry rip;
  rip.rip = RipId{1};
  rip.vm = VmId{1};
  ASSERT_TRUE(f.fleet.addRip(vip2, rip).ok());
  f.dns.addVip(f.app, vip2, 1.0);

  SessionEngine engine = f.make(f.options());
  engine.start();
  f.sim.runUntil(30.0);
  ASSERT_GT(f.fleet.at(f.swA).activeConnections(f.vip), 0u);

  f.dns.setWeight(f.app, f.vip, 0.0);  // selective exposure away
  // Old sessions finish (mean 20 s); new ones go to vip2 as resolver
  // caches expire.  After several TTLs + session lifetimes it quiesces.
  f.sim.runUntil(2000.0);
  EXPECT_EQ(f.fleet.at(f.swA).activeConnections(f.vip), 0u);
  ASSERT_TRUE(f.fleet.transferVip(f.vip, f.swB).ok());
  EXPECT_EQ(engine.brokenSessions(), 0u);
  EXPECT_EQ(f.fleet.droppedConnections(), 0u);
}

TEST(SessionEngine, RejectsWhenNoVipExposed) {
  Simulation sim;
  AppRegistry apps;
  AuthoritativeDns dns;
  ResolverPopulation resolvers{dns, ResolverConfig{}};
  SwitchFleet fleet;
  StaticDemand demand{{1000.0}};
  const AppId app = apps.create("a", AppSla{}, 1000.0);
  dns.registerApp(app);  // registered but no VIPs

  SessionEngine::Options o;
  o.sessionsPerSecondPerKrps = 5.0;
  SessionEngine engine{sim, apps, demand, dns, resolvers, fleet, o};
  engine.start();
  sim.runUntil(10.0);
  EXPECT_GT(engine.totalArrivals(), 0u);
  EXPECT_EQ(engine.rejectedSessions(), engine.totalArrivals());
  EXPECT_EQ(engine.rejectedFor(SessionReject::NoVip), engine.totalArrivals());
  EXPECT_EQ(engine.rejectedForApp(app), engine.totalArrivals());
}

TEST(SessionEngine, CapRejectionsCountedPerReasonAndApp) {
  Fixture f;
  SessionEngine::Options o = f.options();
  o.maxActiveSessions = 50;
  SessionEngine engine = f.make(o);
  engine.start();
  f.sim.runUntil(100.0);
  EXPECT_LE(engine.activeSessions(), 50u);
  EXPECT_GT(engine.rejectedFor(SessionReject::Cap), 0u);
  EXPECT_EQ(engine.rejectedFor(SessionReject::Cap), engine.rejectedSessions());
  EXPECT_EQ(engine.rejectedForApp(f.app), engine.rejectedSessions());
  EXPECT_EQ(engine.totalArrivals(),
            engine.activeSessions() + engine.completedSessions() +
                engine.brokenSessions() + engine.rejectedSessions());
}

TEST(SessionEngine, SwitchFullRejectionsCounted) {
  SwitchLimits tiny;
  tiny.maxConnections = 30;
  Fixture f{tiny};
  SessionEngine engine = f.make(f.options());
  engine.start();
  f.sim.runUntil(100.0);
  EXPECT_LE(f.fleet.at(f.swA).activeConnections(), 30u);
  EXPECT_GT(engine.rejectedFor(SessionReject::SwitchFull), 0u);
  EXPECT_EQ(engine.totalArrivals(),
            engine.activeSessions() + engine.completedSessions() +
                engine.brokenSessions() + engine.rejectedSessions());
}

TEST(SessionEngine, NoRipsRejectionsCounted) {
  Simulation sim;
  AppRegistry apps;
  AuthoritativeDns dns;
  ResolverPopulation resolvers{dns, ResolverConfig{}};
  SwitchFleet fleet;
  StaticDemand demand{{5000.0}};
  const AppId app = apps.create("a", AppSla{}, 5000.0);
  const SwitchId sw = fleet.addSwitch(SwitchLimits{});
  const VipId vip{7};
  ASSERT_TRUE(fleet.configureVip(sw, vip, app).ok());  // VIP with no RIPs
  dns.registerApp(app);
  dns.addVip(app, vip, 1.0);

  SessionEngine::Options o;
  o.sessionsPerSecondPerKrps = 2.0;
  SessionEngine engine{sim, apps, demand, dns, resolvers, fleet, o};
  engine.start();
  sim.runUntil(10.0);
  EXPECT_GT(engine.rejectedFor(SessionReject::NoRips), 0u);
  EXPECT_EQ(engine.rejectedFor(SessionReject::NoRips),
            engine.rejectedSessions());
}

TEST(SessionEngine, OptionValidation) {
  Fixture f;
  SessionEngine::Options bad = f.options();
  bad.meanSessionSeconds = 0.0;
  EXPECT_THROW(f.make(bad), PreconditionError);
  bad = f.options();
  bad.tick = 0.0;
  EXPECT_THROW(f.make(bad), PreconditionError);
  bad = f.options();
  bad.wheelSlots = 0;
  EXPECT_THROW(f.make(bad), PreconditionError);
}

TEST(SessionEngine, BeginDrainErrorTaxonomy) {
  Fixture f;
  SessionEngine engine = f.make(f.options());
  engine.start();
  f.sim.runUntil(10.0);
  EXPECT_EQ(engine.beginDrain(VipId{999}, f.swB).error().code, "vip_unowned");
  EXPECT_EQ(engine.beginDrain(f.vip, f.swA).error().code, "same_switch");
  f.fleet.crashSwitch(f.swB, f.sim.now());
  EXPECT_EQ(engine.beginDrain(f.vip, f.swB).error().code, "switch_down");
  f.fleet.recoverSwitch(f.swB);
  ASSERT_TRUE(engine.beginDrain(f.vip, f.swB).ok());
  EXPECT_EQ(engine.beginDrain(f.vip, f.swB).error().code, "already_draining");
  EXPECT_TRUE(engine.draining(f.vip));
  EXPECT_EQ(engine.drainsInProgress(), 1u);
}

// ---------------------------------------------------------------------------
// Randomized serialized-vs-sharded equivalence (the tentpole's proof).
//
// Four identical worlds run 200 epochs of the same arrival process and
// the same scripted mutation storm (DNS weight changes, drains, forced
// transfers, switch crashes and recoveries), ticking with 1, 2, 4, and 8
// workers.  The 1-worker world is the reference: its pool runs every
// phase inline over one range, the serialized tick.  Every epoch, every
// counter and the full state hash must be bit-identical across all four.
// ---------------------------------------------------------------------------

struct TwinWorld {
  static constexpr std::size_t kApps = 6;
  static constexpr std::size_t kSwitches = 4;

  Simulation sim;
  AppRegistry apps;
  AuthoritativeDns dns;
  ResolverPopulation resolvers{dns, ResolverConfig{30.0, 0.0, 1800.0}};
  SwitchFleet fleet;
  StaticDemand demand;
  std::vector<AppId> ids;
  std::unique_ptr<SessionEngine> engine;

  TwinWorld(unsigned workers, std::uint64_t seed)
      : demand{rates()} {
    for (std::size_t a = 0; a < kApps; ++a) {
      ids.push_back(
          apps.create("app" + std::to_string(a), AppSla{}, rates()[a]));
      dns.registerApp(ids.back());
    }
    for (std::size_t s = 0; s < kSwitches; ++s) fleet.addSwitch(SwitchLimits{});
    std::uint32_t nextRip = 0;
    for (std::size_t a = 0; a < kApps; ++a) {
      for (std::size_t k = 0; k < 2; ++k) {
        const VipId vip{static_cast<std::uint32_t>(100 + a * 2 + k)};
        const SwitchId sw{static_cast<std::uint32_t>((a + k) % kSwitches)};
        EXPECT_TRUE(fleet.configureVip(sw, vip, ids[a]).ok());
        for (int j = 0; j < 2; ++j) {
          RipEntry rip;
          rip.rip = RipId{nextRip};
          rip.vm = VmId{nextRip};
          ++nextRip;
          EXPECT_TRUE(fleet.addRip(vip, rip).ok());
        }
        dns.addVip(ids[a], vip, 1.0);
      }
    }
    SessionEngine::Options o;
    o.sessionsPerSecondPerKrps = 2.0;
    o.meanSessionSeconds = 12.0;
    o.seed = seed;
    o.tick = 1.0;
    o.maxActiveSessions = 1500;  // tight enough to exercise Cap admission
    o.workers = workers;
    o.wheelSlots = 64;
    engine = std::make_unique<SessionEngine>(sim, apps, demand, dns, resolvers,
                                             fleet, o);
  }

  static std::vector<double> rates() {
    std::vector<double> r;
    for (std::size_t a = 0; a < kApps; ++a) {
      r.push_back(4000.0 + 3000.0 * static_cast<double>(a));
    }
    return r;
  }

  void step(std::uint64_t epoch) {
    sim.runUntil(static_cast<SimTime>(epoch));
    engine->tick();
  }
};

struct ScriptAction {
  enum Kind { Weight, Drain, Force, Crash, Recover } kind;
  std::uint64_t epoch;
  std::uint32_t vip = 0;  // vip id (Weight/Drain/Force)
  std::uint32_t sw = 0;   // destination / crash target
  double weight = 0.0;
};

// One deterministic mutation script, drawn once and replayed against
// every world.  Only switches 1 and 2 crash (and later recover), so the
// worlds never lose every VIP owner.
std::vector<ScriptAction> makeScript(std::uint64_t scriptSeed,
                                     std::uint64_t epochs) {
  std::mt19937 rng{static_cast<std::uint32_t>(scriptSeed)};
  std::vector<ScriptAction> script;
  const double weights[] = {0.0, 0.5, 1.0, 2.0};
  for (std::uint64_t e = 5; e <= epochs; e += 5) {
    ScriptAction a{};
    a.epoch = e;
    const auto roll = static_cast<std::uint32_t>(rng() % 10);
    a.vip = static_cast<std::uint32_t>(100 + rng() % (TwinWorld::kApps * 2));
    a.sw = static_cast<std::uint32_t>(rng() % TwinWorld::kSwitches);
    if (roll < 5) {
      a.kind = ScriptAction::Weight;
      a.weight = weights[rng() % 4];
    } else if (roll < 8) {
      a.kind = ScriptAction::Drain;
    } else {
      a.kind = ScriptAction::Force;
    }
    script.push_back(a);
  }
  script.push_back({ScriptAction::Crash, 60, 0, 1, 0.0});
  script.push_back({ScriptAction::Recover, 90, 0, 1, 0.0});
  script.push_back({ScriptAction::Crash, 120, 0, 2, 0.0});
  script.push_back({ScriptAction::Recover, 150, 0, 2, 0.0});
  return script;
}

std::string apply(TwinWorld& w, const ScriptAction& a) {
  switch (a.kind) {
    case ScriptAction::Weight: {
      // Weight changes only apply while the VIP is still in DNS under a
      // live owner; mirror that check so the script stays applicable.
      const auto owner = w.fleet.ownerOf(VipId{a.vip});
      if (!owner.has_value()) return "skip_unowned";
      const VipEntry* e = w.fleet.at(*owner).findVip(VipId{a.vip});
      if (e == nullptr || weightOf(w.dns, e->app, VipId{a.vip}) < 0.0) {
        return "skip_not_in_dns";
      }
      w.dns.setWeight(e->app, VipId{a.vip}, a.weight);
      return "ok";
    }
    case ScriptAction::Drain: {
      const Status s = w.engine->beginDrain(VipId{a.vip}, SwitchId{a.sw});
      return s.ok() ? "ok" : s.error().code;
    }
    case ScriptAction::Force: {
      const Status s = w.engine->forceTransfer(VipId{a.vip}, SwitchId{a.sw});
      return s.ok() ? "ok" : s.error().code;
    }
    case ScriptAction::Crash:
      if (!w.fleet.isUp(SwitchId{a.sw})) return "skip_down";
      w.fleet.crashSwitch(SwitchId{a.sw}, w.sim.now());
      return "ok";
    case ScriptAction::Recover:
      if (w.fleet.isUp(SwitchId{a.sw})) return "skip_up";
      w.fleet.recoverSwitch(SwitchId{a.sw});
      return "ok";
  }
  return "?";
}

TEST(SessionEngineEquivalence, RandomizedShardedMatchesSerializedBitExact) {
  // The container may expose a single core; the sweep intentionally
  // oversubscribes to prove determinism is scheduling-independent.
  ::setenv("MDC_ALLOW_OVERSUBSCRIBE", "1", 1);
  constexpr std::uint64_t kEpochs = 200;
  const std::uint64_t seed = 20260809;

  TwinWorld ref{1, seed};
  EXPECT_EQ(ref.engine->workerCount(), 1u);
  std::vector<std::unique_ptr<TwinWorld>> sharded;
  for (unsigned workers : {2u, 4u, 8u}) {
    sharded.push_back(std::make_unique<TwinWorld>(workers, seed));
    EXPECT_EQ(sharded.back()->engine->workerCount(), workers);
  }

  const std::vector<ScriptAction> script = makeScript(seed ^ 0xabcd, kEpochs);
  std::size_t next = 0;
  for (std::uint64_t e = 1; e <= kEpochs; ++e) {
    // Keep script order stable: actions were generated epoch-ascending.
    for (std::size_t i = 0; i < script.size(); ++i) {
      if (script[i].epoch != e) continue;
      const std::string refOutcome = apply(ref, script[i]);
      for (auto& w : sharded) {
        ASSERT_EQ(apply(*w, script[i]), refOutcome)
            << "action " << i << " diverged at epoch " << e;
      }
    }
    ref.step(e);
    for (auto& w : sharded) {
      w->step(e);
      ASSERT_EQ(w->engine->totalArrivals(), ref.engine->totalArrivals())
          << "epoch " << e << " workers " << w->engine->workerCount();
      ASSERT_EQ(w->engine->activeSessions(), ref.engine->activeSessions())
          << "epoch " << e << " workers " << w->engine->workerCount();
      ASSERT_EQ(w->engine->completedSessions(), ref.engine->completedSessions())
          << "epoch " << e << " workers " << w->engine->workerCount();
      ASSERT_EQ(w->engine->brokenSessions(), ref.engine->brokenSessions())
          << "epoch " << e << " workers " << w->engine->workerCount();
      ASSERT_EQ(w->engine->rejectedSessions(), ref.engine->rejectedSessions())
          << "epoch " << e << " workers " << w->engine->workerCount();
      ASSERT_EQ(w->engine->stateHash(), ref.engine->stateHash())
          << "epoch " << e << " workers " << w->engine->workerCount();
    }
    (void)next;
  }
  // The storm actually exercised the interesting paths.
  EXPECT_GT(ref.engine->totalArrivals(), 10'000u);
  EXPECT_GT(ref.engine->brokenSessions(), 0u);
  EXPECT_GT(ref.engine->rejectedSessions(), 0u);
  EXPECT_GT(ref.engine->drainsCompleted() + ref.engine->drainsAborted() +
                ref.engine->drainsInProgress(),
            0u);
}

// ---------------------------------------------------------------------------
// Route-table oracle.
//
// The engine resolves an arrival through its per-VIP route table, which
// it refreshes from the fleet's change log.  The equivalence suite above
// cannot see a stale table: every worker count reads the same entry.
// Here a seeded churn script mutates the fleet between ticks (RIP add,
// remove and reweight, plain and forced transfers, VIP removal and
// re-configuration, a duplicate host whose indexed copy is then removed,
// switch crashes and recoveries, DNS weight flips), and a direct
// resolution — ownerOf, findVip, totalWeight, a linear RIP pick, on the
// same per-(app, epoch) streams — predicts every tick's per-reason
// rejections and every new session.  The script is seeded from
// MDC_CHAOS_SEED, so each soak seed churns differently.
// ---------------------------------------------------------------------------

std::uint64_t oracleSeed() {
  if (const char* s = std::getenv("MDC_CHAOS_SEED")) {
    return std::strtoull(s, nullptr, 10);
  }
  return 1009;
}

// (id, app, vip, rip, expiry tick) of one live session.
using Session = std::tuple<std::uint64_t, std::uint32_t, std::uint32_t,
                           std::uint32_t, std::uint64_t>;

std::uint64_t directStreamSeed(std::uint64_t seed, std::uint64_t app,
                               std::uint64_t epoch) {
  std::uint64_t h = seed + 0x9e3779b97f4a7c15ull * (app + 1);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h += epoch;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

std::uint64_t directPoisson(Rng& rng, double lambda) {
  if (lambda < 30.0) {
    std::uint64_t count = 0;
    double p = std::exp(-lambda);
    double cdf = p;
    const double u = rng.uniform();
    while (u > cdf && count < 1000) {
      ++count;
      p *= lambda / static_cast<double>(count);
      cdf += p;
    }
    return count;
  }
  return static_cast<std::uint64_t>(
      std::max(0.0, std::round(rng.normal(lambda, std::sqrt(lambda)))));
}

struct OracleWorld {
  static constexpr std::size_t kApps = 6;
  static constexpr std::uint32_t kSwitches = 4;
  static constexpr std::uint32_t kVips = 2 * kApps;
  static constexpr std::uint32_t kFirstVip = 100;

  Simulation sim;
  AppRegistry apps;
  AuthoritativeDns dns;
  ResolverPopulation resolvers{dns, ResolverConfig{5.0, 0.0, 1800.0}};
  SwitchFleet fleet;
  StaticDemand demand;
  SessionEngine::Options options;
  std::unique_ptr<SessionEngine> engine;
  std::uint32_t nextRip = 0;
  std::vector<std::uint32_t> seq;  // predicted per-app session sequence

  OracleWorld(unsigned workers, std::uint64_t seed)
      : demand{TwinWorld::rates()}, seq(kApps, 0) {
    for (std::size_t a = 0; a < kApps; ++a) {
      const AppId id = apps.create("app" + std::to_string(a), AppSla{},
                                   TwinWorld::rates()[a]);
      dns.registerApp(id);
    }
    for (std::uint32_t s = 0; s < kSwitches; ++s) {
      fleet.addSwitch(SwitchLimits{});
    }
    for (std::uint32_t v = 0; v < kVips; ++v) {
      const VipId vip{kFirstVip + v};
      EXPECT_TRUE(fleet.configureVip(SwitchId{v % kSwitches}, vip, appOf(vip))
                      .ok());
      for (int j = 0; j < 3; ++j) {
        EXPECT_TRUE(fleet.addRip(vip, newRip(1.0 + j)).ok());
      }
      dns.addVip(appOf(vip), vip, 1.0);
    }
    options.sessionsPerSecondPerKrps = 2.0;
    options.meanSessionSeconds = 12.0;
    options.seed = seed;
    options.tick = 1.0;
    options.workers = workers;
    options.wheelSlots = 64;
    engine = std::make_unique<SessionEngine>(sim, apps, demand, dns, resolvers,
                                             fleet, options);
  }

  static AppId appOf(VipId vip) {
    return AppId{(vip.value() - kFirstVip) / 2};
  }

  RipEntry newRip(double weight) {
    RipEntry e;
    e.rip = RipId{nextRip};
    e.vm = VmId{nextRip};
    e.weight = weight;
    ++nextRip;
    return e;
  }

  std::vector<std::vector<Session>> sessions() const {
    std::vector<std::vector<Session>> out(kSwitches);
    for (std::uint32_t s = 0; s < kSwitches; ++s) {
      engine->shardOf(SwitchId{s}).forEach(
          [&](std::uint64_t id, AppId app, VipId vip, RipId rip,
              std::uint64_t expiry) {
            out[s].emplace_back(id, app.value(), vip.value(), rip.value(),
                                expiry);
          });
      std::sort(out[s].begin(), out[s].end());
    }
    return out;
  }
};

struct DirectTick {
  std::uint64_t arrivals = 0;
  std::uint64_t noVip = 0;
  std::uint64_t noOwner = 0;
  std::uint64_t noRips = 0;
  std::vector<std::vector<Session>> opened;  // by owning switch
};

// The tick's arrivals resolved directly against the fleet, in ascending
// app order: the reference the engine's route table must reproduce.
// Runs after the tick: nothing in it touches the fleet or the shares
// once arrivals are drawn (the script starts no drain).
DirectTick resolveDirect(OracleWorld& w, std::uint64_t epoch) {
  DirectTick out;
  out.opened.resize(OracleWorld::kSwitches);
  const SessionEngine::Options& o = w.options;
  for (const Application& application : w.apps.all()) {
    const AppId app = application.id;
    const double lambda = w.demand.rps(app, w.sim.now()) / 1000.0 *
                          o.sessionsPerSecondPerKrps * o.tick;
    if (lambda <= 0.0) continue;
    Rng rng{directStreamSeed(o.seed, app.value(), epoch)};
    const std::uint64_t count = directPoisson(rng, lambda);
    out.arrivals += count;
    const std::span<const VipWeight> shares = w.resolvers.view(app);
    double shareTotal = 0.0;
    for (const VipWeight& s : shares) shareTotal += s.weight;
    for (std::uint64_t i = 0; i < count; ++i) {
      if (shares.empty() || shareTotal <= 0.0) {
        ++out.noVip;
        continue;
      }
      const double u = rng.uniform() * shareTotal;
      double acc = 0.0;
      VipId vip = shares.back().vip;
      for (const VipWeight& s : shares) {
        acc += s.weight;
        if (u < acc) {
          vip = s.vip;
          break;
        }
      }
      const auto owner = w.fleet.ownerOf(vip);
      if (!owner.has_value()) {
        ++out.noOwner;
        continue;
      }
      const VipEntry* e = w.fleet.at(*owner).findVip(vip);
      const double total = e != nullptr ? e->totalWeight() : 0.0;
      if (e == nullptr || e->rips.empty() || total <= 0.0) {
        ++out.noRips;
        continue;
      }
      const double r = rng.uniform() * total;
      double ripAcc = 0.0;
      RipId rip = e->rips.back().rip;
      for (const RipEntry& entry : e->rips) {
        ripAcc += entry.weight;
        if (r < ripAcc) {
          rip = entry.rip;
          break;
        }
      }
      const double duration = rng.exponential(o.meanSessionSeconds);
      const std::uint64_t life = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(std::ceil(duration / o.tick)));
      const std::uint64_t id =
          (static_cast<std::uint64_t>(app.value()) << 32) |
          w.seq[app.index()]++;
      out.opened[owner->index()].emplace_back(id, app.value(), vip.value(),
                                              rip.value(), epoch + life);
    }
  }
  return out;
}

struct Churn {
  enum Kind {
    AddRip,
    RemoveRip,
    Reweight,
    Transfer,
    ForceTransfer,
    RemoveVip,
    Reconfigure,
    Duplicate,
    RemoveIndexedCopy,
    Crash,
    Recover,
    DnsWeight,
  } kind;
  std::uint64_t epoch;
  std::uint32_t vip;  // VIP id
  std::uint32_t pick;  // switch or RIP choice, reduced modulo at apply time
  double weight;
};
constexpr int kChurnKinds = 12;

// Two random actions per epoch, RIP and weight churn the most frequent.
// A duplicate host is followed by the removal of the indexed copy three
// ticks later, and a crash by its recovery.
std::vector<Churn> makeChurn(std::uint64_t seed, std::uint64_t epochs) {
  std::mt19937_64 rng{seed};
  const double weights[] = {0.0, 0.25, 1.0, 2.0, 5.0};
  const Churn::Kind drawn[] = {
      Churn::AddRip,        Churn::AddRip,      Churn::AddRip,
      Churn::RemoveRip,     Churn::RemoveRip,   Churn::Reweight,
      Churn::Reweight,      Churn::Reweight,    Churn::Reweight,
      Churn::Transfer,      Churn::Transfer,    Churn::ForceTransfer,
      Churn::RemoveVip,     Churn::Reconfigure, Churn::Reconfigure,
      Churn::Reconfigure,   Churn::Duplicate,   Churn::Duplicate,
      Churn::Crash,         Churn::DnsWeight,   Churn::DnsWeight,
      Churn::DnsWeight,
  };
  std::vector<Churn> script;
  for (std::uint64_t e = 2; e <= epochs; ++e) {
    for (int k = 0; k < 2; ++k) {
      Churn c{};
      c.epoch = e;
      c.kind = drawn[rng() % std::size(drawn)];
      c.vip = OracleWorld::kFirstVip +
              static_cast<std::uint32_t>(rng() % OracleWorld::kVips);
      c.pick = static_cast<std::uint32_t>(rng() % 1000);
      c.weight = weights[rng() % 5];
      script.push_back(c);
      if (c.kind == Churn::Duplicate) {
        Churn follow = c;
        follow.kind = Churn::RemoveIndexedCopy;
        follow.epoch = e + 3;
        script.push_back(follow);
      } else if (c.kind == Churn::Crash) {
        Churn follow = c;
        follow.kind = Churn::Recover;
        follow.epoch = e + 4 + rng() % 8;
        script.push_back(follow);
      }
    }
  }
  std::stable_sort(script.begin(), script.end(),
                   [](const Churn& a, const Churn& b) {
                     return a.epoch < b.epoch;
                   });
  return script;
}

std::string code(const Status& s) { return s.ok() ? "ok" : s.error().code; }

std::string applyChurn(OracleWorld& w, const Churn& c) {
  const VipId vip{c.vip};
  const AppId app = OracleWorld::appOf(vip);
  const SwitchId sw{c.pick % OracleWorld::kSwitches};
  const auto owner = w.fleet.ownerOf(vip);
  const VipEntry* entry = w.fleet.findVip(vip);
  switch (c.kind) {
    case Churn::AddRip:
      return code(w.fleet.addRip(vip, w.newRip(c.weight)));
    case Churn::RemoveRip:
    case Churn::Reweight: {
      if (entry == nullptr || entry->rips.empty()) return "skip_no_rips";
      const RipId rip = entry->rips[c.pick % entry->rips.size()].rip;
      return code(c.kind == Churn::RemoveRip
                      ? w.fleet.removeRip(vip, rip)
                      : w.fleet.setRipWeight(vip, rip, c.weight));
    }
    case Churn::Transfer:
      return code(w.fleet.transferVip(vip, sw));
    case Churn::ForceTransfer:
      return code(w.engine->forceTransfer(vip, sw));
    case Churn::RemoveVip:
      if (!owner.has_value()) return "skip_unowned";
      return code(
          w.fleet.applyRemoveVip(*owner, vip, /*dropConnections=*/true));
    case Churn::Reconfigure: {
      // The first unowned VIP from c.vip on, cyclically: crashes and
      // removals strand VIPs, and this is what places them again.
      VipId target = VipId::invalid();
      for (std::uint32_t i = 0; i < OracleWorld::kVips; ++i) {
        const VipId v{OracleWorld::kFirstVip +
                      (c.vip - OracleWorld::kFirstVip + i) %
                          OracleWorld::kVips};
        if (!w.fleet.ownerOf(v).has_value()) {
          target = v;
          break;
        }
      }
      if (!target.valid()) return "skip_all_owned";
      const Status s =
          w.fleet.configureVip(sw, target, OracleWorld::appOf(target));
      if (!s.ok() || c.pick % 3 == 0) return code(s);  // some stay RIP-less
      return code(w.fleet.addRip(target, w.newRip(c.weight + 1.0)));
    }
    case Churn::Duplicate: {
      if (!owner.has_value() || *owner == sw) return "skip_same_host";
      const Status s = w.fleet.applyConfigureVip(sw, vip, app);
      if (!s.ok()) return code(s);
      return code(w.fleet.applyAddRip(sw, vip, w.newRip(c.weight + 0.5)));
    }
    case Churn::RemoveIndexedCopy:
      if (!owner.has_value() || w.fleet.hostsOf(vip).size() < 2) {
        return "skip_single_host";
      }
      return code(
          w.fleet.applyRemoveVip(*owner, vip, /*dropConnections=*/true));
    case Churn::Crash:
      if (!w.fleet.isUp(sw)) return "skip_down";
      w.fleet.crashSwitch(sw, w.sim.now());
      return "ok";
    case Churn::Recover:
      if (w.fleet.isUp(sw)) return "skip_up";
      w.fleet.recoverSwitch(sw);
      return "ok";
    case Churn::DnsWeight:
      w.dns.setWeight(app, vip, c.weight);
      return "ok";
  }
  return "?";
}

TEST(SessionEngineRouteOracle, ChurnedFleetMatchesDirectResolution) {
  ::setenv("MDC_ALLOW_OVERSUBSCRIBE", "1", 1);
  const std::uint64_t seed = oracleSeed();
  SCOPED_TRACE("MDC_CHAOS_SEED=" + std::to_string(seed));
  constexpr std::uint64_t kEpochs = 150;
  std::vector<std::unique_ptr<OracleWorld>> worlds;
  for (unsigned workers : {1u, 4u}) {
    worlds.push_back(std::make_unique<OracleWorld>(workers, seed));
    ASSERT_EQ(worlds.back()->engine->workerCount(), workers);
  }
  const std::vector<Churn> script = makeChurn(seed ^ 0x5eed, kEpochs);

  std::uint64_t applied[kChurnKinds] = {};
  std::uint64_t opened = 0;
  std::size_t next = 0;
  for (std::uint64_t e = 1; e <= kEpochs; ++e) {
    for (; next < script.size() && script[next].epoch == e; ++next) {
      const std::string outcome = applyChurn(*worlds[0], script[next]);
      for (std::size_t i = 1; i < worlds.size(); ++i) {
        ASSERT_EQ(applyChurn(*worlds[i], script[next]), outcome)
            << "churn " << next << " diverged at epoch " << e;
      }
      if (outcome == "ok") ++applied[script[next].kind];
    }
    for (auto& wp : worlds) {
      OracleWorld& w = *wp;
      SCOPED_TRACE("epoch " + std::to_string(e) + " workers " +
                   std::to_string(w.engine->workerCount()));
      const auto before = w.sessions();
      const std::uint64_t arrivals = w.engine->totalArrivals();
      std::uint64_t rejected[kSessionRejectCount];
      for (std::size_t r = 0; r < kSessionRejectCount; ++r) {
        rejected[r] = w.engine->rejectedFor(static_cast<SessionReject>(r));
      }
      w.sim.runUntil(static_cast<SimTime>(e));
      w.engine->tick();
      ASSERT_EQ(w.engine->epochsTicked(), e);

      const DirectTick direct = resolveDirect(w, e);
      const auto delta = [&](SessionReject r) {
        return w.engine->rejectedFor(r) - rejected[static_cast<std::size_t>(r)];
      };
      ASSERT_EQ(w.engine->totalArrivals() - arrivals, direct.arrivals);
      ASSERT_EQ(delta(SessionReject::NoVip), direct.noVip);
      ASSERT_EQ(delta(SessionReject::NoOwner), direct.noOwner);
      ASSERT_EQ(delta(SessionReject::NoRips), direct.noRips);
      ASSERT_EQ(delta(SessionReject::Cap), 0u);
      ASSERT_EQ(delta(SessionReject::SwitchFull), 0u);
      const auto after = w.sessions();
      for (std::uint32_t s = 0; s < OracleWorld::kSwitches; ++s) {
        std::vector<Session> expected;
        for (const Session& x : before[s]) {
          if (std::get<4>(x) > e) expected.push_back(x);  // not yet expired
        }
        expected.insert(expected.end(), direct.opened[s].begin(),
                        direct.opened[s].end());
        std::sort(expected.begin(), expected.end());
        ASSERT_EQ(after[s], expected) << "switch " << s;
        if (wp == worlds.front()) opened += direct.opened[s].size();
      }
    }
    ASSERT_EQ(worlds[1]->engine->stateHash(), worlds[0]->engine->stateHash())
        << "epoch " << e;
  }
  // The churn reached the resolution paths it exists to check.
  const SessionEngine& ref = *worlds[0]->engine;
  EXPECT_GT(opened, 4'000u);
  EXPECT_GT(ref.rejectedFor(SessionReject::NoOwner) +
                ref.rejectedFor(SessionReject::NoRips),
            0u);
  EXPECT_GT(applied[Churn::Reweight] + applied[Churn::AddRip] +
                applied[Churn::RemoveRip],
            10u);
  EXPECT_GT(applied[Churn::ForceTransfer] + applied[Churn::RemoveVip] +
                applied[Churn::Crash],
            0u);
  // Routes that outgrew their ranges were appended and the flat pick
  // table compacted, at the same refreshes in every world.
  EXPECT_GE(ref.routeCompactions(), 2u);
  EXPECT_EQ(worlds[1]->engine->routeCompactions(), ref.routeCompactions());
}

// ---------------------------------------------------------------------------
// Drain-curve properties across DNS TTLs (the paper's TTL argument).
// ---------------------------------------------------------------------------

struct DrainWorld {
  Simulation sim;
  AppRegistry apps;
  AuthoritativeDns dns;
  ResolverPopulation resolvers;
  SwitchFleet fleet;
  StaticDemand demand{{20'000.0}};
  AppId app;
  VipId vipA{1}, vipB{2};
  SwitchId swA, swB, swC;
  std::unique_ptr<SessionEngine> engine;

  explicit DrainWorld(double ttlSeconds, std::uint64_t seed = 7)
      : resolvers{dns, ResolverConfig{ttlSeconds, 0.0, 1800.0}} {
    app = apps.create("web", AppSla{}, 20'000.0);
    swA = fleet.addSwitch(SwitchLimits{});
    swB = fleet.addSwitch(SwitchLimits{});
    swC = fleet.addSwitch(SwitchLimits{});
    EXPECT_TRUE(fleet.configureVip(swA, vipA, app).ok());
    EXPECT_TRUE(fleet.configureVip(swB, vipB, app).ok());
    for (std::uint32_t r = 0; r < 4; ++r) {
      RipEntry rip;
      rip.rip = RipId{r};
      rip.vm = VmId{r};
      EXPECT_TRUE(fleet.addRip(r < 2 ? vipA : vipB, rip).ok());
    }
    dns.registerApp(app);
    dns.addVip(app, vipA, 1.0);
    dns.addVip(app, vipB, 1.0);
    SessionEngine::Options o;
    o.sessionsPerSecondPerKrps = 1.0;  // 20 sessions/s
    o.meanSessionSeconds = 10.0;
    o.tick = 1.0;
    o.seed = seed;
    engine = std::make_unique<SessionEngine>(sim, apps, demand, dns, resolvers,
                                             fleet, o);
    engine->start();
  }
};

TEST(SessionEngineDrain, QuiescentDrainZeroBrokenMonotoneAfterShareDecay) {
  for (const double ttl : {1.0, 30.0, 300.0}) {
    SCOPED_TRACE("ttl=" + std::to_string(ttl));
    DrainWorld w{ttl};
    w.sim.runUntil(50.0);
    ASSERT_GT(w.fleet.at(w.swA).activeConnections(w.vipA), 0u);
    ASSERT_TRUE(w.engine->beginDrain(w.vipA, w.swC).ok());
    EXPECT_EQ(weightOf(w.dns, w.app, w.vipA), 0.0);

    // Once the resolver share of the draining VIP has fully decayed, no
    // new session can pick it: the old switch's resident count must be
    // monotone non-increasing from there until the transfer fires.
    bool decayed = false;
    std::uint64_t prev = 0;
    const double deadline = 50.0 + ttl * 40.0 + 600.0;
    for (double t = 51.0; t <= deadline; t += 1.0) {
      w.sim.runUntil(t);
      if (w.engine->drainsCompleted() > 0) break;
      const std::uint64_t cnt = w.fleet.at(w.swA).activeConnections(w.vipA);
      if (!decayed && w.resolvers.share(w.app, w.vipA) <= 1e-9) {
        decayed = true;
        prev = cnt;
      }
      if (decayed) {
        ASSERT_LE(cnt, prev) << "old-switch count grew at t=" << t;
        prev = cnt;
      }
    }
    ASSERT_EQ(w.engine->drainsCompleted(), 1u);
    EXPECT_EQ(w.engine->drainsInProgress(), 0u);
    EXPECT_EQ(w.engine->brokenSessions(), 0u);
    EXPECT_EQ(w.fleet.droppedConnections(), 0u);
    ASSERT_TRUE(w.fleet.ownerOf(w.vipA).has_value());
    EXPECT_EQ(*w.fleet.ownerOf(w.vipA), w.swC);
    // Quiescent completion re-exposes the VIP at its prior weight.
    EXPECT_EQ(weightOf(w.dns, w.app, w.vipA), 1.0);
    EXPECT_EQ(w.engine->drainLatency().count(), 1u);
    EXPECT_GT(w.engine->drainP99Seconds(), 0.0);
  }
}

TEST(SessionEngineDrain, DrainLatencyGrowsWithTtl) {
  std::vector<double> latency;
  for (const double ttl : {1.0, 30.0, 300.0}) {
    DrainWorld w{ttl};
    w.sim.runUntil(50.0);
    ASSERT_TRUE(w.engine->beginDrain(w.vipA, w.swC).ok());
    w.sim.runUntil(50.0 + ttl * 40.0 + 600.0);
    ASSERT_EQ(w.engine->drainsCompleted(), 1u);
    latency.push_back(w.engine->drainP99Seconds());
  }
  // TTL is the dominant term of the drain curve: longer client caches
  // hold sessions on the old switch longer.
  EXPECT_LT(latency[0], latency[1]);
  EXPECT_LT(latency[1], latency[2]);
}

TEST(SessionEngineDrain, ForcedTransferBreaksExactlyResidents) {
  DrainWorld w{30.0};
  w.sim.runUntil(50.0);
  const std::uint64_t resident = w.fleet.at(w.swA).activeConnections(w.vipA);
  ASSERT_GT(resident, 0u);

  // Snapshot the *other* VIP's sessions: survivors must keep their RIP.
  std::map<std::uint64_t, std::uint32_t> before;
  w.engine->shardOf(w.swB).forEachOfVip(
      w.vipB, [&](std::uint64_t id, RipId rip) { before[id] = rip.value(); });
  ASSERT_FALSE(before.empty());

  ASSERT_TRUE(w.engine->forceTransfer(w.vipA, w.swC).ok());
  EXPECT_EQ(w.engine->brokenSessions(), resident);
  EXPECT_EQ(w.fleet.at(w.swA).activeConnections(w.vipA), 0u);
  ASSERT_TRUE(w.fleet.ownerOf(w.vipA).has_value());
  EXPECT_EQ(*w.fleet.ownerOf(w.vipA), w.swC);

  std::size_t matched = 0;
  w.engine->shardOf(w.swB).forEachOfVip(
      w.vipB, [&](std::uint64_t id, RipId rip) {
        const auto it = before.find(id);
        ASSERT_NE(it, before.end()) << "survivor session appeared from nowhere";
        EXPECT_EQ(it->second, rip.value()) << "survivor lost RIP stickiness";
        ++matched;
      });
  EXPECT_EQ(matched, before.size());
}

TEST(SessionEngineDrain, AbortedDrainWhenOwnerCrashes) {
  DrainWorld w{30.0};
  w.sim.runUntil(50.0);
  ASSERT_TRUE(w.engine->beginDrain(w.vipA, w.swC).ok());
  w.fleet.crashSwitch(w.swA, w.sim.now());
  w.sim.runUntil(52.0);
  EXPECT_EQ(w.engine->drainsAborted(), 1u);
  EXPECT_EQ(w.engine->drainsCompleted(), 0u);
  EXPECT_EQ(w.engine->drainsInProgress(), 0u);
  // Aborts leave DNS to the health plane: weight stays steered away.
  EXPECT_EQ(weightOf(w.dns, w.app, w.vipA), 0.0);
  EXPECT_GT(w.engine->brokenSessions(), 0u);  // crash severed the shard
}

TEST(SessionEngineDrain, DrainAndBreakEmitTraceSpans) {
  DrainWorld w{30.0};
  Tracer tracer{w.sim, Tracer::Options{1u << 12, true}};
  w.engine->attachTracer(&tracer);
  w.sim.runUntil(50.0);

  ASSERT_TRUE(w.engine->beginDrain(w.vipA, w.swC).ok());
  const std::uint64_t resident = w.fleet.at(w.swA).activeConnections(w.vipA);
  ASSERT_GT(resident, 0u);
  ASSERT_TRUE(w.engine->forceTransfer(w.vipA, w.swC).ok());

  std::size_t starts = 0, dones = 0, breaks = 0;
  for (const TraceEvent& e : tracer.ring().snapshot()) {
    if (e.hop == HopKind::SessionDrainStart) ++starts;
    if (e.hop == HopKind::SessionDrainDone) ++dones;
    if (e.hop == HopKind::SessionConnBroken) ++breaks;
  }
  EXPECT_EQ(starts, 1u);
  EXPECT_EQ(dones, 1u);  // the force finished the in-flight drain
  EXPECT_EQ(breaks, resident);
}

// ---------------------------------------------------------------------------
// MegaDc plumbing: the configurable cap, per-app rejections, and the
// labeled mdc.session.rejected metric (satellite 4).
// ---------------------------------------------------------------------------

TEST(SessionEngineMegaDc, CapFlowsThroughConfigMetricsAndReports) {
  MegaDcConfig cfg = testScaleConfig();
  cfg.enableSessionEngine = true;
  cfg.session.maxActiveSessions = 25;
  cfg.session.sessionsPerSecondPerKrps = 5.0;
  cfg.session.meanSessionSeconds = 30.0;
  MegaDc dc{cfg};
  dc.bootstrap();
  dc.runUntil(60.0);

  ASSERT_NE(dc.sessions, nullptr);
  EXPECT_LE(dc.sessions->activeSessions(), 25u);
  EXPECT_GT(dc.sessions->rejectedFor(SessionReject::Cap), 0u);
  EXPECT_EQ(dc.sessions->totalArrivals(),
            dc.sessions->activeSessions() + dc.sessions->completedSessions() +
                dc.sessions->brokenSessions() +
                dc.sessions->rejectedSessions());

  // Per-app rejections partition the total.
  std::uint64_t perApp = 0;
  for (const auto& a : dc.apps.all()) {
    perApp += dc.sessions->rejectedForApp(a.id);
  }
  EXPECT_EQ(perApp, dc.sessions->rejectedSessions());

  // The labeled rejection gauge surfaces the same counter.
  EXPECT_EQ(dc.metrics.value("mdc.session.rejected", {{"reason", "cap"}}),
            static_cast<double>(dc.sessions->rejectedFor(SessionReject::Cap)));
  EXPECT_EQ(dc.metrics.value("mdc.session.active"),
            static_cast<double>(dc.sessions->activeSessions()));

  // Reports carry the session plane (and survive the canonical codec).
  const EpochReport& rep = dc.engine->latest();
  EXPECT_EQ(rep.gauges.at("mdc.session.arrivals"),
            static_cast<double>(dc.sessions->totalArrivals()));
  EXPECT_TRUE(rep.gauges.contains("mdc.session.rejected{reason=cap}"));
  state::ByteWriter wtr;
  encodeEpochReport(rep, wtr);
  state::ByteReader rdr{wtr.bytes()};
  const EpochReport back = decodeEpochReport(rdr);
  EXPECT_EQ(back.gauges, rep.gauges);
  EXPECT_EQ(back.gauges.at("mdc.session.active"),
            rep.gauges.at("mdc.session.active"));
  EXPECT_EQ(hashEpochReport(back), hashEpochReport(rep));
}

}  // namespace
}  // namespace mdc
