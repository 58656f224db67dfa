// Golden-input coverage for the bench_diff CLI (tools/bench_diff_main.hpp)
// and the bench record schema it reads (obs/bench_metrics.hpp). Exercises
// all three exit codes — 0 clean, 1 regression, 2 usage/IO error — and
// checks that each committed BENCH_*.json declares the directions its gate
// relies on.
#include <gtest/gtest.h>

#include <fstream>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "obs/bench_metrics.hpp"
#include "support/common.hpp"
#include "support/json.hpp"
#include "../tools/bench_diff_main.hpp"

namespace {

using alge::obs::Better;
using alge::tools::run_bench_diff;

std::string golden(const std::string& name) {
  return std::string(ALGE_GOLDEN_DIR) + "/bench_diff/" + name;
}

alge::json::Value load(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return alge::json::parse(buf.str());
}

/// A committed BENCH_<bench>.json at the repository root.
alge::json::Value committed(const std::string& bench) {
  return load(std::string(ALGE_SOURCE_DIR) + "/BENCH_" + bench + ".json");
}

/// Every metric of `doc` with its declared direction, by name.
std::map<std::string, Better> directions(const alge::json::Value& doc) {
  std::map<std::string, Better> out;
  for (const alge::obs::Metric& m : alge::obs::read_bench_metrics(doc)) {
    out[m.name] = m.better;
  }
  return out;
}

/// A bench file "t" holding one record "r" with the given metrics.
alge::json::Value one_record(
    std::initializer_list<std::tuple<const char*, double, Better>> metrics) {
  alge::obs::BenchRecord rec("r");
  for (const auto& [key, value, better] : metrics) {
    rec.metric(key, value, "u", better);
  }
  alge::json::Value records = alge::json::Value::array();
  records.push_back(rec.to_json());
  return alge::obs::bench_file("t", std::move(records));
}

struct CliResult {
  int rc;
  std::string out;
  std::string err;
};

CliResult run(std::vector<std::string> args) {
  CliResult r;
  r.rc = run_bench_diff(args, &r.out, &r.err);
  return r;
}

// ---------------------------------------------------------------- exit 0

TEST(BenchDiffCli, CleanPairWithinThresholdExitsZero) {
  const CliResult r = run({golden("sim_base.json"), golden("sim_clean.json")});
  EXPECT_EQ(r.rc, 0);
  EXPECT_TRUE(r.err.empty()) << r.err;
  EXPECT_EQ(r.out.find("REGRESSION"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("0 regression(s)"), std::string::npos) << r.out;
}

TEST(BenchDiffCli, ImprovementsExitZeroAndAreReported) {
  const CliResult r =
      run({golden("sim_base.json"), golden("sim_improved.json")});
  EXPECT_EQ(r.rc, 0);
  // Time halved and throughput doubled: both directions improved.
  EXPECT_NE(r.out.find("improved"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("2 improvement(s)"), std::string::npos) << r.out;
}

TEST(BenchDiffCli, RenamedMetricIsReportedButNotARegression) {
  const CliResult r =
      run({golden("sim_base.json"), golden("sim_renamed.json")});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("removed     gbench.BM_fft.real_time_ns"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("added       gbench.BM_fft2.real_time_ns"),
            std::string::npos)
      << r.out;
}

TEST(BenchDiffCli, GoogleBenchmarkTimeUnitsAreNormalized) {
  // Base reports in us, current the same values in ns; after unit
  // normalization nothing changed.
  const CliResult r =
      run({golden("gbench_base.json"), golden("gbench_current.json")});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("3 metric(s) compared"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("0 regression(s), 0 improvement(s)"),
            std::string::npos)
      << r.out;
}

TEST(BenchDiffCli, VerboseListsUnchangedMetrics) {
  const CliResult r = run(
      {golden("sim_base.json"), golden("sim_clean.json"), "--verbose"});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("ok "), std::string::npos) << r.out;
}

TEST(BenchDiffCli, LooseThresholdSilencesRegressions) {
  const CliResult r = run({golden("sim_base.json"),
                           golden("sim_regressed.json"), "--threshold=0.60"});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("0 regression(s)"), std::string::npos) << r.out;
}

// ---------------------------------------------------------------- exit 1

TEST(BenchDiffCli, RegressionsExitOne) {
  const CliResult r =
      run({golden("sim_base.json"), golden("sim_regressed.json")});
  EXPECT_EQ(r.rc, 1);
  // Time +50% and throughput -40% both regress; the neutral "iterations"
  // counter jumping 8 -> 1000 must not.
  EXPECT_NE(r.out.find("REGRESSION"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("2 regression(s)"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("REGRESSION  gbench.BM_mm25d.iterations"),
            std::string::npos)
      << r.out;
}

// ---------------------------------------------------------------- exit 2

TEST(BenchDiffCli, MissingPathsAreAUsageError) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{},
        std::vector<std::string>{golden("sim_base.json")},
        std::vector<std::string>{golden("sim_base.json"),
                                 golden("sim_clean.json"), "extra.json"}}) {
    CliResult r;
    r.rc = run_bench_diff(args, &r.out, &r.err);
    EXPECT_EQ(r.rc, 2);
    EXPECT_NE(r.err.find("usage:"), std::string::npos) << r.err;
  }
}

TEST(BenchDiffCli, UnknownFlagIsAUsageError) {
  const CliResult r = run(
      {golden("sim_base.json"), golden("sim_clean.json"), "--frobnicate"});
  EXPECT_EQ(r.rc, 2);
  EXPECT_NE(r.err.find("unknown flag"), std::string::npos) << r.err;
}

TEST(BenchDiffCli, BadThresholdIsAUsageError) {
  for (const char* flag : {"--threshold=abc", "--threshold=-0.5"}) {
    const CliResult r =
        run({golden("sim_base.json"), golden("sim_clean.json"), flag});
    EXPECT_EQ(r.rc, 2) << flag;
    EXPECT_NE(r.err.find("usage:"), std::string::npos) << r.err;
  }
}

TEST(BenchDiffCli, UnreadableFileExitsTwo) {
  const CliResult r =
      run({golden("no_such_file.json"), golden("sim_clean.json")});
  EXPECT_EQ(r.rc, 2);
  EXPECT_NE(r.err.find("cannot read"), std::string::npos) << r.err;
}

TEST(BenchDiffCli, MalformedJsonExitsTwo) {
  const CliResult r =
      run({golden("sim_base.json"), golden("malformed.json")});
  EXPECT_EQ(r.rc, 2);
  EXPECT_NE(r.err.find("not valid JSON"), std::string::npos) << r.err;
}

TEST(BenchDiffCli, UnknownShapeExitsTwo) {
  // Valid JSON in neither the bench record schema nor google-benchmark's
  // format is refused by path, never flattened into guessed metrics.
  const CliResult r =
      run({golden("sim_base.json"), golden("unknown_shape.json")});
  EXPECT_EQ(r.rc, 2);
  EXPECT_NE(r.err.find("unknown_shape.json' is not a bench file"),
            std::string::npos)
      << r.err;
  EXPECT_TRUE(r.out.empty()) << r.out;
}

TEST(BenchDiffCli, NullSinksAreAccepted) {
  EXPECT_EQ(run_bench_diff({golden("sim_base.json"), golden("sim_clean.json")},
                           nullptr, nullptr),
            0);
  EXPECT_EQ(run_bench_diff({}, nullptr, nullptr), 2);
}

// ------------------------------------------------------ bench schema

TEST(BenchSchema, WriterRecordRoundTripsThroughReader) {
  alge::obs::BenchRecord rec("mm n=64");
  rec.metric("makespan", 1234.5, "model time", Better::kLower)
      .metric("speedup", 7.25, "ratio", Better::kHigher)
      .metric("p", 64, "ranks", Better::kNone)
      .info("wall_seconds", 0.5)
      .info("identical", true);
  alge::json::Value records = alge::json::Value::array();
  records.push_back(rec.to_json());
  const alge::json::Value doc = alge::obs::bench_file("demo", std::move(records));
  EXPECT_FALSE(doc.at("host").as_string().empty());

  const std::vector<alge::obs::Metric> m =
      alge::obs::read_bench_metrics(alge::json::parse(doc.dump()));
  ASSERT_EQ(m.size(), 3u);  // sorted by name; info fields never appear
  EXPECT_EQ(m[0].name, "demo.mm n=64.makespan");
  EXPECT_EQ(m[0].value, 1234.5);
  EXPECT_EQ(m[0].better, Better::kLower);
  EXPECT_EQ(m[1].name, "demo.mm n=64.p");
  EXPECT_EQ(m[1].value, 64.0);
  EXPECT_EQ(m[1].better, Better::kNone);
  EXPECT_EQ(m[2].name, "demo.mm n=64.speedup");
  EXPECT_EQ(m[2].value, 7.25);
  EXPECT_EQ(m[2].better, Better::kHigher);
}

TEST(BenchSchema, ReaderRefusesOtherShapes) {
  using alge::json::parse;
  using alge::obs::read_bench_metrics;
  const char* refused[] = {
      // The retired per-bench shapes and a bare numeric tree.
      R"([{"bench": "sweep", "wall_seconds": 1.0}])",
      R"({"bench": "ghost", "results": [{"name": "a", "makespan": 1.0}]})",
      R"({"benchmarks": {"BM_A": {"optimized": {"real_time_ns": 1.0}}}})",
      R"({"startup_time": 1.0})",
      // Schema documents with a missing or undeclared piece.
      R"({"records": []})",
      R"({"bench": "b", "records": [{"metrics": {}}]})",
      R"({"bench": "b", "records": [{"name": "r", "metrics":
          {"m": {"value": 1.0, "better": "lower"}}}]})",
      R"({"bench": "b", "records": [{"name": "r", "metrics":
          {"m": {"value": 1.0, "unit": "s"}}}]})",
      R"({"bench": "b", "records": [{"name": "r", "metrics":
          {"m": {"value": 1.0, "unit": "s", "better": "faster"}}}]})",
      R"({"bench": "b", "records": [{"name": "r", "metrics":
          {"m": {"value": "1", "unit": "s", "better": "lower"}}}]})",
  };
  for (const char* text : refused) {
    EXPECT_THROW(read_bench_metrics(parse(text)), alge::json::json_error)
        << text;
  }
  // Info is optional and never read, whatever it holds.
  const std::vector<alge::obs::Metric> m = read_bench_metrics(
      parse(R"({"bench": "b", "host": "h", "records": [{"name": "r",
          "metrics": {"m": {"value": 2.0, "unit": "s", "better": "none"}},
          "info": {"seconds": 3.0, "nested": {"x": 1.0}}}]})"));
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0].name, "b.r.m");
}

// google-benchmark output is the one imported format; the importer, not a
// name heuristic, declares its directions.
TEST(MetricDirection, ThroughputLikeNamesAreMoreIsBetter) {
  const auto d = directions(alge::json::parse(
      R"({"benchmarks": [{"name": "BM_mm", "items_per_second": 5.0,
          "bytes_per_second": 6.0}]})"));
  EXPECT_EQ(d.at("gbench.BM_mm.items_per_second"), Better::kHigher);
  EXPECT_EQ(d.at("gbench.BM_mm.bytes_per_second"), Better::kHigher);
}

TEST(MetricDirection, TimeLikeNamesAreLessIsBetter) {
  const auto d = directions(alge::json::parse(
      R"({"benchmarks": [{"name": "BM_mm", "real_time": 2.0,
          "cpu_time": 1.0, "time_unit": "ns", "iterations": 9}]})"));
  EXPECT_EQ(d.at("gbench.BM_mm.real_time_ns"), Better::kLower);
  EXPECT_EQ(d.at("gbench.BM_mm.cpu_time_ns"), Better::kLower);
  EXPECT_EQ(d.size(), 2u);  // iteration counts are configuration
}

TEST(MetricDirection, ThroughputRuleWinsOverEmbeddedTimeWords) {
  // "items_per_second" contains "second" but imports as throughput.
  const auto d = directions(alge::json::parse(
      R"({"benchmarks": [{"name": "BM_x", "items_per_second": 1.0}]})"));
  EXPECT_EQ(d.at("gbench.BM_x.items_per_second"), Better::kHigher);
}

TEST(MetricDirection, NeutralNamesNeverGate) {
  // A metric declared "none" never regresses, whatever its name says.
  const alge::json::Value base = one_record(
      {{"wall_seconds", 1.0, Better::kNone}, {"iterations", 8.0, Better::kNone}});
  const alge::json::Value cur = one_record(
      {{"wall_seconds", 9.0, Better::kNone}, {"iterations", 1.0, Better::kNone}});
  const alge::obs::BenchDiff d = alge::obs::diff_bench_json(base, cur, 0.10);
  EXPECT_EQ(d.metrics.size(), 2u);
  EXPECT_EQ(d.regressions, 0);
}

// --------------------------------------- committed files, bench by bench

TEST(GhostNormalizer, EmitsSpeedupAndSimFieldsSkipsWallClock) {
  const alge::json::Value doc = committed("ghost");
  const auto d = directions(doc);
  for (const alge::json::Value& rec : doc.at("records").as_array()) {
    const std::string n = "ghost." + rec.at("name").as_string() + ".";
    EXPECT_EQ(d.at(n + "p"), Better::kNone) << n;
    for (const char* lower : {"makespan", "energy", "flops_per_rank",
                              "words_per_rank", "msgs_per_rank"}) {
      EXPECT_EQ(d.at(n + lower), Better::kLower) << n << lower;
    }
    // Raw wall clock is machine noise: recorded, never compared.
    EXPECT_EQ(d.count(n + "full_seconds"), 0u) << n;
    EXPECT_EQ(d.count(n + "ghost_seconds"), 0u) << n;
  }
  EXPECT_EQ(d.at("ghost.scaling_mm n=256 q=8.speedup"), Better::kHigher);
}

TEST(ServeNormalizer, EmitsRatesAndQuantilesSkipsRunScaledCounts) {
  std::vector<std::string> names;
  for (const alge::obs::Metric& m :
       alge::obs::read_bench_metrics(committed("serve"))) {
    if (m.name.rfind("serve.ghost_miss.", 0) == 0) names.push_back(m.name);
  }
  // Query counts and elapsed seconds scale with --duration: info only.
  EXPECT_EQ(names, (std::vector<std::string>{
                       "serve.ghost_miss.max_us", "serve.ghost_miss.p50_us",
                       "serve.ghost_miss.p99_us",
                       "serve.ghost_miss.queries_per_sec"}));
}

TEST(ServeNormalizer, DirectionsGateThroughputUpLatencyDown) {
  const auto d = directions(committed("serve"));
  EXPECT_EQ(d.at("serve.closed_form_pipelined.queries_per_sec"),
            Better::kHigher);
  EXPECT_EQ(d.at("serve.ghost_miss.p50_us"), Better::kLower);
  EXPECT_EQ(d.at("serve.ghost_miss.p99_us"), Better::kLower);
  EXPECT_EQ(d.at("serve.ghost_miss.max_us"), Better::kLower);

  const alge::json::Value base = one_record(
      {{"queries_per_sec", 600000.0, Better::kHigher},
       {"p99_us", 100.0, Better::kLower}});
  const alge::json::Value cur = one_record(
      {{"queries_per_sec", 100000.0, Better::kHigher},
       {"p99_us", 700.0, Better::kLower}});
  EXPECT_EQ(alge::obs::diff_bench_json(base, cur, 0.5).regressions, 2);
}

TEST(NavigatorNormalizer, EmitsFrontierMetricsSkipsWallClockAndSentinels) {
  const auto d = directions(committed("navigator"));
  EXPECT_EQ(d.count("navigator.nbody gen=0.frontier_area"), 1u);
  EXPECT_EQ(d.count("navigator.nbody gen=0.robust_fraction"), 1u);
  EXPECT_EQ(d.count("navigator.nbody gen=0.fault_energy_inflation"), 1u);
  EXPECT_EQ(d.count("navigator.nbody gen=2.crossover_generations"), 1u);
  // Wall clock never compares.
  EXPECT_EQ(d.count("navigator.nbody gen=0.navigate_seconds"), 0u);
  // An unreachable crossover (-1) sits under info, not among the metrics.
  const alge::json::Value regressed = load(golden("navigator_regressed.json"));
  EXPECT_EQ(regressed.at("records").as_array()[0]
                .at("info")
                .at("crossover_generations_faulted")
                .as_double(),
            -1.0);
  EXPECT_EQ(directions(regressed).count(
                "navigator.nbody gen=0.crossover_generations_faulted"),
            0u);
}

TEST(NavigatorNormalizer, DirectionsGateFrontierDownRobustnessUp) {
  const auto d = directions(committed("navigator"));
  const std::string n = "navigator.nbody gen=0.";
  for (const char* lower :
       {"frontier_area", "crossover_generations", "fault_energy_inflation",
        "min_energy_joules", "fiber_scored"}) {
    EXPECT_EQ(d.at(n + lower), Better::kLower) << lower;
  }
  for (const char* higher :
       {"robust_fraction", "gflops_per_watt_at_opt", "folded_scored"}) {
    EXPECT_EQ(d.at(n + higher), Better::kHigher) << higher;
  }
  // Counts and configuration stay neutral.
  for (const char* none :
       {"frontier_points", "measured_frontier_points", "generation"}) {
    EXPECT_EQ(d.at(n + none), Better::kNone) << none;
  }
}

TEST(BenchDiffCli, NavigatorFrontierRegressionsExitOne) {
  const CliResult r = run(
      {golden("navigator_base.json"), golden("navigator_regressed.json")});
  EXPECT_EQ(r.rc, 1);
  // frontier_area +50% (lower-better) and robust_fraction -50%
  // (higher-better) both regress.
  EXPECT_NE(r.out.find("REGRESSION  navigator.nbody gen=0.frontier_area"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("REGRESSION  navigator.nbody gen=0.robust_fraction"),
            std::string::npos)
      << r.out;
  // The faulted crossover went to the -1 "unreachable" sentinel: it must
  // surface as a removed metric, not as a -120% "improvement".
  EXPECT_NE(
      r.out.find("removed     navigator.nbody gen=0.crossover_generations_"
                 "faulted"),
      std::string::npos)
      << r.out;
}

// ------------------------------------------------- per-metric thresholds

TEST(ThresholdOverrides, LongestMatchingSubstringWins) {
  const alge::json::Value base =
      one_record({{"real_time_ns", 100.0, Better::kLower}});
  const alge::json::Value cur =
      one_record({{"real_time_ns", 103.0, Better::kLower}});
  // +3%: clean at the 10% default.
  EXPECT_EQ(alge::obs::diff_bench_json(base, cur, 0.10).regressions, 0);
  // A 1% override on "time" catches it...
  EXPECT_EQ(alge::obs::diff_bench_json(base, cur, 0.10, {{"time", 0.01}})
                .regressions,
            1);
  // ...unless the longer "real_time" match loosens it back to 5%.
  EXPECT_EQ(alge::obs::diff_bench_json(base, cur, 0.10,
                                       {{"time", 0.01}, {"real_time", 0.05}})
                .regressions,
            0);
}

TEST(BenchDiffCli, ThresholdOverridesFlagGatesPerMetric) {
  // The sim_regressed pair trips two regressions at the default 10%;
  // loosening exactly those two metric families silences both.
  const CliResult loose =
      run({golden("sim_base.json"), golden("sim_regressed.json"),
           "--thresholds=real_time_ns=0.60,items_per_second=0.60"});
  EXPECT_EQ(loose.rc, 0) << loose.out;
  // Tightening one family while the default stays loose still blocks.
  const CliResult tight =
      run({golden("sim_base.json"), golden("sim_clean.json"),
           "--threshold=0.60", "--thresholds=real_time_ns=0.0000001"});
  EXPECT_EQ(tight.rc, 1) << tight.out;
}

TEST(BenchDiffCli, BadThresholdOverrideIsAUsageError) {
  for (const char* bad :
       {"--thresholds=", "--thresholds=noequal", "--thresholds==0.5",
        "--thresholds=time=notanumber", "--thresholds=time=-1"}) {
    const CliResult r =
        run({golden("sim_base.json"), golden("sim_clean.json"), bad});
    EXPECT_EQ(r.rc, 2) << bad;
  }
}

// Zero baselines can't form a relative change; the diff treats any growth
// from zero as an infinite regression for lower-better metrics.
TEST(MetricDirection, ZeroBaseGrowthIsAnInfiniteRegression) {
  const alge::json::Value base =
      one_record({{"startup_time", 0.0, Better::kLower}});
  const alge::json::Value cur =
      one_record({{"startup_time", 1.0, Better::kLower}});
  const alge::obs::BenchDiff d = alge::obs::diff_bench_json(base, cur, 0.10);
  ASSERT_EQ(d.metrics.size(), 1u);
  EXPECT_TRUE(d.metrics[0].regression);
  EXPECT_EQ(d.regressions, 1);
}

// ------------------------------------------- navigator byte-stability

// The committed BENCH_navigator.json must read to a byte-stable metric
// listing: the golden pair pins the metric *set* (names), every value at
// full round-trip precision, and every declared direction. If the writer's
// naming or declarations change — or the snapshot drifts — this diff
// catches it before the CI gate silently starts comparing different
// metrics.
TEST(NavigatorNormalizer, CommittedFileNormalizesByteStably) {
  const alge::json::Value doc = load(golden("navigator_committed.json"));
  std::string listing;
  for (const alge::obs::Metric& m : alge::obs::read_bench_metrics(doc)) {
    listing += alge::strfmt("%s %.17g %s\n", m.name.c_str(), m.value,
                            m.better == Better::kLower    ? "lower"
                            : m.better == Better::kHigher ? "higher"
                                                          : "none");
  }
  std::ifstream want_in(golden("navigator_committed.normalized.txt"));
  ASSERT_TRUE(want_in.good());
  std::ostringstream want;
  want << want_in.rdbuf();
  EXPECT_EQ(listing, want.str());
}

TEST(TransportNormalizer, EmitsModelFieldsSkipsWallClock) {
  const auto d = directions(committed("transport"));
  const std::string n = "transport.summa.shm.";
  EXPECT_EQ(d.at(n + "p"), Better::kNone);
  // Makespan and the ledger totals are deterministic model quantities:
  // any growth is a cost-schedule change.
  EXPECT_EQ(d.at(n + "makespan"), Better::kLower);
  EXPECT_EQ(d.at(n + "ledger_messages_total"), Better::kLower);
  EXPECT_EQ(d.at(n + "ledger_words_total"), Better::kLower);
  // The only machine-dependent field never compares.
  EXPECT_EQ(d.count(n + "wall_seconds"), 0u);
}

}  // namespace
