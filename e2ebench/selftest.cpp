// Tests of the benchmark's own helpers: slicing fidelity, the firing
// schedule, the tail-percentile rule, and the printed metric names.
// Run from the repository root (ctest does), where BENCHMARK.json lives.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <regex>
#include <sstream>

#include "harness.hpp"

namespace e2e {
namespace {

using namespace mdc;

/// A test-scale world with sessions on, advanced through 20 epochs or,
/// with `faults`, through a short stretch of them on a lossy channel.
Workload tiny(Faults faults) {
  Workload w;
  w.name = "tiny";
  w.seed = 7;
  w.config = testScaleConfig();
  w.config.enableSessionEngine = true;
  w.config.engine.workers = 1;
  w.config.session.workers = 1;
  w.faults = faults;
  if (faults == Faults::None) {
    w.windowEpochs = 20;
    return w;
  }
  w.config.ctrlFaults.dropRate = 0.05;
  w.config.ctrlFaults.delaySeconds = 0.02;
  w.calmBefore = 4.0;
  w.faultSeconds = 40.0;
  w.recoveryCap = 300.0;
  if (faults == Faults::Failover) {
    w.config.manager.enablePodLoops = false;
    w.leaderCrashes = 2;
  }
  return w;
}

TEST(E2eSlicing, SlicedAtEveryFiringMatchesPlainRunUntil) {
  MegaDcConfig cfg = testScaleConfig();
  cfg.enableSessionEngine = true;
  cfg.engine.workers = 1;
  cfg.session.workers = 1;
  MegaDc plain{cfg};
  MegaDc sliced{cfg};
  plain.bootstrap();
  const SimTime started = sliced.sim.now() + 10.0;
  sliced.bootstrap();
  ASSERT_EQ(started, sliced.sim.now());
  const SimTime until = started + 60.0;
  plain.runUntil(until);
  const std::vector<Firing> firings = firingSchedule(
      sliced.config(), sliced.manager->pods().size(), started,
      std::nextafter(started, -std::numeric_limits<double>::infinity()),
      until);
  ASSERT_GT(firings.size(), 60u);
  for (const Firing& f : firings) {
    if (f.at > sliced.sim.now()) {
      sliced.runUntil(std::nextafter(f.at, 0.0));
    }
    const std::uint64_t before = sliced.sim.eventsExecuted();
    sliced.runUntil(f.at);
    EXPECT_GE(sliced.sim.eventsExecuted() - before,
              static_cast<std::uint64_t>(std::popcount(f.loops)))
        << "no loop fired at " << f.at;
  }
  sliced.runUntil(until);
  EXPECT_EQ(plain.sim.eventsExecuted(), sliced.sim.eventsExecuted());
  EXPECT_EQ(hashEpochReport(plain.engine->latest()),
            hashEpochReport(sliced.engine->latest()));
  EXPECT_EQ(plain.manager->viprip().stateMachine().stateHash(),
            sliced.manager->viprip().stateMachine().stateHash());
  EXPECT_EQ(plain.sessions->stateHash(), sliced.sessions->stateHash());
}

TEST(E2eSlicing, TracedRepetitionReproducesUntracedOutputs) {
  for (const Faults faults : {Faults::None, Faults::Failover, Faults::Storm}) {
    const Workload w = tiny(faults);
    const RepResult plain = runRepetition(w, false);
    const RepResult traced = runRepetition(w, true);
    EXPECT_TRUE(plain.violations.empty()) << w.name << ": "
                                          << plain.violations.front();
    EXPECT_TRUE(traced.violations.empty()) << w.name << ": "
                                           << traced.violations.front();
    EXPECT_TRUE(modelDiff(plain, traced).empty())
        << w.name << " diverged on " << modelDiff(plain, traced).front();
    EXPECT_GT(plain.operations, 0u);
    EXPECT_GT(traced.traced.at("scenario.engine.step_s").value, 0.0);
    if (faults == Faults::Failover) {
      // Every crash waited for an idle command plane: nothing failed.
      EXPECT_EQ(plain.model.at("core.manager.failovers").value, 2.0);
      EXPECT_EQ(plain.failedOperations, 0u);
      EXPECT_EQ(traced.failedOperations, 0u);
      EXPECT_EQ(traced.traced.at("ctrl.cmd.refused").value, 0.0);
    }
  }
}

TEST(E2eRepetitions, OneRuleForEveryBudget) {
  EXPECT_EQ(repetitionsFor(1.0), 2u);
  EXPECT_EQ(repetitionsFor(16.0), 3u);
  EXPECT_EQ(repetitionsFor(22.0), 4u);
  EXPECT_EQ(repetitionsFor(27.0), 5u);
  EXPECT_EQ(repetitionsFor(60.0), 6u);
}

TEST(E2eSchedule, MergesLoopsFiringAtTheSameInstant) {
  MegaDcConfig cfg = testScaleConfig();
  cfg.enableSessionEngine = true;
  // Engine every 2 s, sessions every 1 s and the lease every 2 s, all at
  // phase 0: one Firing carries all three.
  const auto firings = firingSchedule(cfg, 2, 100.0, 99.0, 104.0);
  ASSERT_FALSE(firings.empty());
  EXPECT_EQ(firings.front().at, 100.0);
  const std::uint32_t together =
      bit(Loop::Engine) | bit(Loop::Session) | bit(Loop::Lease) |
      bit(Loop::Pod);
  EXPECT_EQ(firings.front().loops & together, together);
  EXPECT_EQ(firings.front().pods, std::vector<std::uint32_t>{0});
  for (std::size_t i = 1; i < firings.size(); ++i) {
    EXPECT_LT(firings[i - 1].at, firings[i].at);
  }
}

TEST(E2eTail, HighestPercentileWithTenSamplesBeyond) {
  auto ramp = [](std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
    return v;
  };
  EXPECT_EQ(tailOf({}).samples, 0u);
  // Fewer than 20 samples: no percentile has ten beyond it; the maximum.
  const Tail few = tailOf(ramp(19));
  EXPECT_EQ(few.pct, 100.0);
  EXPECT_EQ(few.value, 19.0);
  EXPECT_EQ(few.samples, 19u);
  const std::pair<std::size_t, double> cases[] = {
      {20, 50.0},     {99, 50.0},       {100, 90.0},      {999, 90.0},
      {1000, 99.0},   {9999, 99.0},     {10'000, 99.9},   {99'999, 99.9},
      {100'000, 99.99}};
  for (const auto& [n, pct] : cases) {
    const Tail t = tailOf(ramp(n));
    EXPECT_EQ(t.pct, pct) << n << " samples";
    EXPECT_EQ(t.value, percentile(ramp(n), pct)) << n << " samples";
    // Nearest rank: exactly (100 - pct)% of the samples lie above it.
    EXPECT_GE(static_cast<double>(n) - t.value, 10.0) << n << " samples";
  }
  EXPECT_EQ(percentile(ramp(100), 50.0), 50.0);
  EXPECT_EQ(percentile(ramp(100), 99.0), 99.0);
  EXPECT_EQ(percentile(ramp(7), 0.0), 1.0);
}

/// name -> second field ("unit" of a metric, "why" of a workload) of the
/// entries of one array of BENCHMARK.json.
std::map<std::string, std::string> declared(const std::string& group) {
  std::ifstream in("BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  const std::string all = text.str();
  const std::size_t start = all.find("\"" + group + "\"");
  EXPECT_NE(start, std::string::npos) << group;
  const std::string body = all.substr(start, all.find(']', start) - start);
  static const std::regex entry(
      R"re("name":\s*"([^"]*)",\s*"(?:unit|why)":\s*"([^"]*)")re");
  std::map<std::string, std::string> out;
  for (std::sregex_iterator it(body.begin(), body.end(), entry), end;
       it != end; ++it) {
    out[(*it)[1]] = (*it)[2];
  }
  return out;
}

void expectPrintsExactly(const Metrics& printed,
                         const std::map<std::string, std::string>& want) {
  static const std::regex allowed("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  std::map<std::string, std::string> got;
  for (const auto& [name, m] : printed) {
    EXPECT_TRUE(std::regex_match(name, allowed)) << name;
    got[name] = m.unit;
  }
  EXPECT_EQ(got, want);
}

TEST(E2eNames, PrintedMetricsMatchBenchmarkJson) {
  const auto e2e = declared("end_to_end");
  const auto layers = declared("per_layer");
  ASSERT_FALSE(e2e.empty());
  ASSERT_FALSE(layers.empty());
  expectPrintsExactly(timedRun(tiny(Faults::None), 2).metrics, e2e);
  expectPrintsExactly(tracedRun(tiny(Faults::Storm)).metrics, layers);
  const auto workloads = declared("workloads");
  EXPECT_EQ(workloads.size(), 2u);
  for (const auto& [name, why] : workloads) {
    EXPECT_EQ(makeWorkload(name, 1).name, name);
  }
  // The reproductions of open defects are not benchmark workloads.
  for (const char* name : {"failover", "storm"}) {
    EXPECT_FALSE(workloads.contains(name)) << name;
    EXPECT_NE(makeWorkload(name, 1).faults, Faults::None) << name;
  }
  EXPECT_THROW((void)makeWorkload("tiny", 1), std::invalid_argument);
}

}  // namespace
}  // namespace e2e
