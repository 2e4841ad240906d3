// Tests for the plumbing the E15–E19 benches share (bench/harness.hpp):
// flag parsing, the best-window rule, and the baseline compare.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../bench/harness.hpp"

namespace mdc::bench {
namespace {

std::string parse(Cli& cli, std::vector<const char*> args) {
  args.insert(args.begin(), "bench");
  return cli.parse(static_cast<int>(args.size()), args.data());
}

TEST(BenchHarness, ParsesSharedAndDeclaredFlags) {
  bool mega = false;
  bool profile = false;
  std::string trace;
  Cli cli{"BENCH_X.json"};
  cli.flag("--mega", mega).flag("--profile", profile).file("--trace", trace);
  EXPECT_EQ(parse(cli, {"--smoke", "--mega", "--trace", "t.jsonl",
                        "--baseline", "BENCH_Y.json"}),
            "");
  EXPECT_TRUE(cli.smoke);
  EXPECT_TRUE(mega);
  EXPECT_FALSE(profile);
  EXPECT_EQ(trace, "t.jsonl");
  EXPECT_EQ(cli.baseline, "BENCH_Y.json");
  EXPECT_EQ(cli.out, "BENCH_X.json");  // the default survives

  EXPECT_EQ(parse(cli, {"--out", "o.json"}), "");
  EXPECT_EQ(cli.out, "o.json");
}

TEST(BenchHarness, FlagErrorsAreReturned) {
  std::string trace;
  Cli cli{"BENCH_X.json"};
  cli.file("--trace", trace);
  EXPECT_EQ(parse(cli, {"--smoke", "--out"}), "--out needs a value");
  EXPECT_EQ(parse(cli, {"--trace"}), "--trace needs a value");
  EXPECT_EQ(parse(cli, {"--mega"}), "unknown flag --mega");
  EXPECT_EQ(parse(cli, {"smoke"}), "unknown flag smoke");
}

TEST(BenchHarness, BestWindowHasLowestMedian) {
  const std::vector<std::vector<double>> windows{
      {5.0, 1.0, 9.0}, {3.0, 4.0, 2.0}, {8.0, 2.5, 7.0}};
  std::size_t next = 0;
  const Window best =
      bestOf(3, [&](Window& w) { w.stepMs = windows[next++]; });
  EXPECT_EQ(next, 3u);
  EXPECT_DOUBLE_EQ(best.p50(), 3.0);
  EXPECT_DOUBLE_EQ(best.minMs(), 2.0);
  EXPECT_DOUBLE_EQ(best.stepsPerSecond(), 1000.0 / 3.0);
}

TEST(BenchHarness, BaselineRuleFailsBelowSeventyPercent) {
  EXPECT_TRUE(holdsBaseline("x", 70.0, 100.0, "x regressed"));
  EXPECT_TRUE(holdsBaseline("x", 0.7 * 4.42382, 4.42382, "x regressed"));
  EXPECT_FALSE(holdsBaseline("x", 69.999, 100.0, "x regressed"));
  EXPECT_FALSE(holdsBaseline("x", 0.0, 100.0, "x regressed"));
}

TEST(BenchHarness, BaselineReadsNumbersAndMode) {
  const Baseline base{
      "{\n  \"smoke\": true,\n  \"checks\": {\n    \"ratio\": 4.5,\n"
      "    \"ok\": true\n  }\n}\n"};
  EXPECT_TRUE(base.smoke());
  EXPECT_DOUBLE_EQ(base.number("ratio"), 4.5);
  EXPECT_EQ(extractNumber("{\"ratio\": 4.5}", "rat"), std::nullopt);
  EXPECT_EQ(extractNumber("{\"ok\": true}", "ok"), std::nullopt);
  EXPECT_FALSE(Baseline{"{\"smoke\": false}"}.smoke());
}

TEST(BenchHarness, MissingBaselineKeyFails) {
  const Baseline base{"{\"checks\": {\"conns_per_sec_1w\": 10}}"};
  EXPECT_EXIT((void)base.number("conns_per_sec_serialized"),
              ::testing::ExitedWithCode(1),
              "FAIL: baseline has no number under "
              "\"conns_per_sec_serialized\"");
}

}  // namespace
}  // namespace mdc::bench
