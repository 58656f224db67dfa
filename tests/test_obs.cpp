// Tests for the observability layer (src/obs): Chrome trace_event export
// (streaming sink + golden-file stability of a fixed p=4 matmul run), the
// Eq. (2) energy ledger (the load-bearing property: (rank, phase) cells sum
// EXACTLY — 1-ulp-scale — to Machine::energy(), across real machine
// parameter sets from machines/db), and the bench record reader/differ
// behind tools/bench_diff and the CI regression gate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "engine/runner.hpp"
#include "machines/db.hpp"
#include "obs/bench_metrics.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/energy_ledger.hpp"
#include "sim/comm.hpp"
#include "sim/group.hpp"
#include "sim/machine.hpp"
#include "support/common.hpp"
#include "support/json.hpp"

#ifndef ALGE_GOLDEN_DIR
#define ALGE_GOLDEN_DIR "."
#endif

namespace alge::obs {
namespace {

// A small fixed workload touching every event kind: phased compute (skewed
// per rank so idle time exists), a ring exchange, buffer registration, and
// an allreduce.
void demo_program(sim::Comm& c) {
  const sim::Group world = sim::Group::world(c.size());
  sim::Buffer buf = c.alloc(16);
  {
    auto ph = c.phase("local-work");
    c.compute(50.0 * (c.rank() + 1));
  }
  {
    auto ph = c.phase("exchange");
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    sim::Buffer in = c.alloc(16);
    c.sendrecv(next, buf.span(), prev, in.span());
  }
  {
    auto ph = c.phase("reduce");
    std::vector<double> v(8, 1.0);
    c.allreduce_sum(v, world);
  }
}

sim::MachineConfig ledger_config(int p, const core::MachineParams& mp) {
  sim::MachineConfig cfg;
  cfg.p = p;
  cfg.params = mp;
  cfg.enable_ledger = true;
  return cfg;
}

// ------------------------------------------------------- energy ledger ----

// Relative tolerance for "equal up to floating-point reassociation": the
// ledger sums the same products in a different order than Machine::energy().
void expect_close(double a, double b) {
  const double scale = std::max({std::abs(a), std::abs(b), 1e-300});
  EXPECT_LE(std::abs(a - b), 1e-12 * scale) << a << " vs " << b;
}

TEST(EnergyLedger, SumsToMachineEnergyUnitParams) {
  sim::Machine m(ledger_config(4, core::MachineParams::unit()));
  m.run(demo_program);
  const EnergyLedger led = build_energy_ledger(m);
  expect_close(led.total(), m.energy().total());
}

TEST(EnergyLedger, SumsToMachineEnergyAcrossMachineDb) {
  // Real parameter sets: the Jaketown case study and a few Table II rows
  // (which only define γt/γe; graft them onto the case-study's network and
  // memory terms so every Eq. (2) term is live).
  std::vector<core::MachineParams> params_sets;
  params_sets.push_back(machines::CaseStudyMachine().params());
  for (std::size_t i : {std::size_t{0}, std::size_t{5}, std::size_t{10}}) {
    const auto& spec = machines::table2_processors().at(i);
    core::MachineParams mp = machines::CaseStudyMachine().params();
    mp.gamma_t = spec.gamma_t();
    mp.gamma_e = spec.gamma_e();
    params_sets.push_back(mp);
  }
  for (const auto& mp : params_sets) {
    for (int p : {2, 4, 8}) {
      sim::Machine m(ledger_config(p, mp));
      m.run(demo_program);
      const EnergyLedger led = build_energy_ledger(m);
      expect_close(led.total(), m.energy().total());
      // Explicit-memory convention too (the paper's "pay for what you hold").
      const double M = 4096.0;
      expect_close(build_energy_ledger(m, M).total(),
                   m.energy_with_memory(M).total());
    }
  }
}

TEST(EnergyLedger, RankAndPhaseMarginalsAgree) {
  sim::Machine m(ledger_config(4, core::MachineParams::unit()));
  m.run(demo_program);
  const EnergyLedger led = build_energy_ledger(m);
  double by_rank = 0.0;
  for (int r = 0; r < led.p(); ++r) by_rank += led.rank_total(r).total();
  double by_phase = 0.0;
  for (std::size_t ph = 0; ph < led.phases().size(); ++ph) {
    by_phase += led.phase_total(static_cast<int>(ph)).total();
  }
  expect_close(by_rank, led.total());
  expect_close(by_phase, led.total());
}

TEST(EnergyLedger, PhasesAttributeWorkWhereItHappened) {
  sim::Machine m(ledger_config(2, core::MachineParams::unit()));
  m.run([](sim::Comm& c) {
    {
      auto ph = c.phase("flops-only");
      c.compute(100.0);
    }
    {
      auto ph = c.phase("comm-only");
      std::vector<double> v(8, 1.0);
      if (c.rank() == 0) {
        c.send(1, v);
      } else {
        c.recv(0, v);
      }
    }
  });
  const auto& names = m.phase_names();
  int flops_id = -1;
  int comm_id = -1;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == "flops-only") flops_id = static_cast<int>(i);
    if (names[i] == "comm-only") comm_id = static_cast<int>(i);
  }
  ASSERT_GE(flops_id, 0);
  ASSERT_GE(comm_id, 0);
  const EnergyLedger led = build_energy_ledger(m);
  EXPECT_DOUBLE_EQ(led.phase_total(flops_id).counters.flops, 200.0);
  EXPECT_DOUBLE_EQ(led.phase_total(flops_id).counters.words_sent, 0.0);
  EXPECT_DOUBLE_EQ(led.phase_total(comm_id).counters.flops, 0.0);
  EXPECT_DOUBLE_EQ(led.phase_total(comm_id).counters.words_sent, 8.0);
  // Receiver's wait shows up as idle time inside the comm phase.
  EXPECT_GT(led.cell(1, comm_id).counters.idle, 0.0);
}

TEST(EnergyLedger, NestedPhasesRestoreTheEnclosingPhase) {
  sim::Machine m(ledger_config(1, core::MachineParams::unit()));
  m.run([](sim::Comm& c) {
    auto outer = c.phase("outer");
    c.compute(1.0);
    {
      auto inner = c.phase("inner");
      c.compute(10.0);
    }
    c.compute(100.0);  // must land back in "outer"
  });
  const auto& names = m.phase_names();
  int outer_id = -1;
  int inner_id = -1;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == "outer") outer_id = static_cast<int>(i);
    if (names[i] == "inner") inner_id = static_cast<int>(i);
  }
  ASSERT_GE(outer_id, 0);
  ASSERT_GE(inner_id, 0);
  EXPECT_DOUBLE_EQ(m.phase_counters(0)[static_cast<std::size_t>(outer_id)].flops,
                   101.0);
  EXPECT_DOUBLE_EQ(m.phase_counters(0)[static_cast<std::size_t>(inner_id)].flops,
                   10.0);
}

TEST(EnergyLedger, TailPhaseClosesTheMakespanGap) {
  // Rank 0 finishes early; the tail cell must hold T - clock_0 so the
  // rank's ledger time sums to the machine makespan.
  sim::Machine m(ledger_config(2, core::MachineParams::unit()));
  m.run([](sim::Comm& c) { c.compute(c.rank() == 0 ? 1.0 : 1000.0); });
  const EnergyLedger led = build_energy_ledger(m);
  ASSERT_FALSE(led.phases().empty());
  EXPECT_EQ(led.phases().back(), "(tail)");
  const int tail = static_cast<int>(led.phases().size()) - 1;
  for (int r = 0; r < 2; ++r) {
    double t = 0.0;
    for (std::size_t ph = 0; ph < led.phases().size(); ++ph) {
      t += led.cell(r, static_cast<int>(ph)).counters.time;
    }
    expect_close(t, m.makespan());
  }
  EXPECT_GT(led.cell(0, tail).counters.time,
            led.cell(1, tail).counters.time);
}

TEST(EnergyLedger, RequiresLedgerEnabled) {
  sim::MachineConfig cfg;
  cfg.p = 2;
  cfg.params = core::MachineParams::unit();
  sim::Machine m(cfg);
  m.run([](sim::Comm& c) { c.compute(1.0); });
  EXPECT_THROW(build_energy_ledger(m), invalid_argument_error);
}

TEST(EnergyLedger, JsonAndRenderContainThePhases) {
  sim::Machine m(ledger_config(2, core::MachineParams::unit()));
  m.run(demo_program);
  const EnergyLedger led = build_energy_ledger(m);
  const json::Value v = led.to_json();
  EXPECT_DOUBLE_EQ(v.at("p").as_double(), 2.0);
  const std::string table = led.render();
  EXPECT_NE(table.find("local-work"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
}

// -------------------------------------------------------- chrome trace ----

sim::MachineConfig trace_config(int p) {
  sim::MachineConfig cfg;
  cfg.p = p;
  cfg.params = core::MachineParams::unit();
  cfg.enable_trace = true;
  return cfg;
}

TEST(ChromeTrace, ExportParsesAndCoversEveryTrack) {
  sim::Machine m(trace_config(4));
  m.run(demo_program);
  std::ostringstream out;
  write_chrome_trace(m.trace(), m.p(), out);
  const json::Value doc = json::parse(out.str());
  const auto& evs = doc.at("traceEvents").as_array();
  ASSERT_GT(evs.size(), 0u);
  bool saw_compute = false, saw_send = false, saw_coll = false,
       saw_phase = false, saw_mem = false, saw_meta = false;
  for (const json::Value& e : evs) {
    const std::string name = e.at("name").as_string();
    const std::string ph = e.at("ph").as_string();
    if (name == "compute") saw_compute = true;
    if (name == "send") saw_send = true;
    if (name == "allreduce_sum") saw_coll = true;
    if (name == "exchange") saw_phase = true;
    if (name == "M" && ph == "C") saw_mem = true;
    if (ph == "M") saw_meta = true;
  }
  EXPECT_TRUE(saw_compute);
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_coll);
  EXPECT_TRUE(saw_phase);
  EXPECT_TRUE(saw_mem);
  EXPECT_TRUE(saw_meta);
}

TEST(ChromeTrace, StreamingSinkSeesEventsWithoutStoringThem) {
  sim::Machine m(trace_config(2));
  std::ostringstream out;
  ChromeTraceWriter writer(out, 2);
  m.set_trace_sink(&writer, /*keep_events=*/false);
  m.run([](sim::Comm& c) {
    std::vector<double> v(4, 1.0);
    if (c.rank() == 0) {
      c.send(1, v);
    } else {
      c.recv(0, v);
    }
    c.compute(10.0);
  });
  writer.finish();
  EXPECT_TRUE(m.trace().empty());  // nothing retained in memory
  const json::Value doc = json::parse(out.str());
  EXPECT_GT(doc.at("traceEvents").as_array().size(), 4u);  // metadata + spans
}

TEST(ChromeTrace, CounterTracksAreCumulative) {
  sim::Machine m(trace_config(1));
  m.run([](sim::Comm& c) {
    c.compute(5.0);
    c.compute(7.0);
  });
  std::ostringstream out;
  write_chrome_trace(m.trace(), 1, out);
  const json::Value doc = json::parse(out.str());
  const auto& evs = doc.at("traceEvents").as_array();
  std::vector<double> f_samples;
  for (const json::Value& e : evs) {
    if (e.at("ph").as_string() == "C" && e.at("name").as_string() == "F") {
      f_samples.push_back(e.at("args").at("F").as_double());
    }
  }
  ASSERT_EQ(f_samples.size(), 2u);
  EXPECT_DOUBLE_EQ(f_samples[0], 5.0);
  EXPECT_DOUBLE_EQ(f_samples[1], 12.0);
}

TEST(ChromeTrace, FileWriterRejectsUnopenablePath) {
  sim::Machine m(trace_config(1));
  m.run([](sim::Comm& c) { c.compute(1.0); });
  EXPECT_THROW(
      write_chrome_trace_file(m.trace(), 1, "/nonexistent-dir/x/y.json"),
      invalid_argument_error);
}

// The export of a fixed engine run is byte-stable: the golden file is the
// contract that trace output (event order, numeric formatting, track
// naming) does not drift silently. Regenerate deliberately with
// ALGE_UPDATE_GOLDEN=1 after an intentional format change.
TEST(ChromeTrace, GoldenTraceOfP4MatmulIsStable) {
  engine::ExperimentSpec spec;
  spec.alg = engine::Alg::kMm25d;
  spec.params = core::MachineParams::unit();
  spec.n = 4;
  spec.q = 2;
  spec.c = 1;
  sim::Trace trace;
  const engine::ExperimentResult r = engine::execute_traced(spec, &trace);
  ASSERT_EQ(r.p, 4);
  std::ostringstream out;
  write_chrome_trace(trace, r.p, out);

  const std::string golden_path =
      std::string(ALGE_GOLDEN_DIR) + "/chrome_trace_p4_matmul.json";
  if (std::getenv("ALGE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(golden_path);
    ASSERT_TRUE(f.is_open()) << golden_path;
    f << out.str();
    GTEST_SKIP() << "golden file regenerated: " << golden_path;
  }
  std::ifstream f(golden_path);
  ASSERT_TRUE(f.is_open())
      << golden_path << " missing; run with ALGE_UPDATE_GOLDEN=1";
  std::ostringstream want;
  want << f.rdbuf();
  EXPECT_EQ(out.str(), want.str())
      << "Chrome trace export changed for the fixed p=4 matmul run. If "
         "intentional, regenerate with ALGE_UPDATE_GOLDEN=1.";
}

TEST(ChromeTrace, ExecuteTracedMatchesUntracedResult) {
  engine::ExperimentSpec spec;
  spec.alg = engine::Alg::kMm25d;
  spec.params = core::MachineParams::unit();
  spec.n = 8;
  spec.q = 2;
  spec.c = 1;
  const engine::ExperimentResult plain = engine::execute(spec);
  sim::Trace trace;
  const engine::ExperimentResult traced = engine::execute_traced(spec, &trace);
  EXPECT_EQ(plain, traced);  // observation must not perturb the experiment
  EXPECT_FALSE(trace.events().empty());
}

// ------------------------------------------------------- bench metrics ----

/// A bench file "t" holding one record "r" with the given metrics.
json::Value one_record(
    std::initializer_list<std::tuple<const char*, double, Better>> metrics) {
  BenchRecord rec("r");
  for (const auto& [key, value, better] : metrics) {
    rec.metric(key, value, "u", better);
  }
  json::Value records = json::Value::array();
  records.push_back(rec.to_json());
  return bench_file("t", std::move(records));
}

TEST(BenchMetrics, NormalizesGoogleBenchmarkFormat) {
  const json::Value doc = json::parse(R"({
    "context": {"date": "2026", "num_cpus": 8},
    "benchmarks": [
      {"name": "BM_X/16", "real_time": 2.0, "cpu_time": 1.5,
       "time_unit": "us", "items_per_second": 5e6},
      {"name": "BM_Y", "real_time": 3.0, "time_unit": "ms"}
    ]})");
  const auto metrics = read_bench_metrics(doc);
  double x_ns = -1.0, y_ns = -1.0, x_items = -1.0;
  for (const auto& m : metrics) {
    if (m.name == "gbench.BM_X/16.real_time_ns") x_ns = m.value;
    if (m.name == "gbench.BM_Y.real_time_ns") y_ns = m.value;
    if (m.name == "gbench.BM_X/16.items_per_second") x_items = m.value;
    EXPECT_EQ(m.name.find("context"), std::string::npos)
        << "context must not leak: " << m.name;
  }
  EXPECT_DOUBLE_EQ(x_ns, 2000.0);     // 2 us
  EXPECT_DOUBLE_EQ(y_ns, 3000000.0);  // 3 ms
  EXPECT_DOUBLE_EQ(x_items, 5e6);
}

TEST(BenchMetrics, BaselineTableComparesAgainstGoogleBenchmarkOutput) {
  // The committed BENCH_sim.json shape: bench "gbench", the performance
  // contract as metrics and the pre-change baseline under info.
  const json::Value baseline = json::parse(
      R"({"bench": "gbench", "host": "h", "records": [{"name": "BM_A",
          "metrics": {"real_time_ns": {"value": 100.0, "unit": "ns",
                                       "better": "lower"}},
          "info": {"baseline": {"real_time_ns": 900.0}, "speedup": 9.0}}]})");
  const json::Value fresh = json::parse(
      R"({"benchmarks": [{"name": "BM_A", "real_time": 250.0,
                          "time_unit": "ns"}]})");
  const BenchDiff d = diff_bench_json(baseline, fresh, 0.5);
  ASSERT_EQ(d.metrics.size(), 1u);  // the formats meet on a common name
  EXPECT_EQ(d.metrics[0].name, "gbench.BM_A.real_time_ns");
  EXPECT_TRUE(d.metrics[0].regression);  // 2.5x slower than committed
  EXPECT_TRUE(d.only_base.empty());
  EXPECT_TRUE(d.only_current.empty());
}

TEST(BenchMetrics, DiffFlagsRegressionsByDirection) {
  const json::Value base = one_record({{"a_time_ns", 100.0, Better::kLower},
                                       {"b_per_second", 50.0, Better::kHigher},
                                       {"count", 7.0, Better::kNone}});
  const json::Value slower = one_record({{"a_time_ns", 150.0, Better::kLower},
                                         {"b_per_second", 20.0, Better::kHigher},
                                         {"count", 9.0, Better::kNone}});
  const BenchDiff d = diff_bench_json(base, slower, 0.10);
  EXPECT_EQ(d.regressions, 2);  // time rose 50%, throughput fell 60%
  for (const auto& m : d.metrics) {
    if (m.name == "t.r.count") {
      EXPECT_FALSE(m.regression);  // neutral direction never regresses
    }
  }
  // Self-compare is always clean.
  EXPECT_EQ(diff_bench_json(base, base, 0.10).regressions, 0);
  // A generous threshold forgives the change.
  EXPECT_EQ(diff_bench_json(base, slower, 0.70).regressions, 0);
  // Improvements never count as regressions.
  const json::Value faster = one_record({{"a_time_ns", 50.0, Better::kLower},
                                         {"b_per_second", 80.0, Better::kHigher},
                                         {"count", 7.0, Better::kNone}});
  EXPECT_EQ(diff_bench_json(base, faster, 0.10).regressions, 0);
}

TEST(BenchMetrics, DiffTracksAppearingAndDisappearingMetrics) {
  const json::Value base = one_record(
      {{"old_ns", 1.0, Better::kLower}, {"both_ns", 2.0, Better::kLower}});
  const json::Value cur = one_record(
      {{"new_ns", 3.0, Better::kLower}, {"both_ns", 2.0, Better::kLower}});
  const BenchDiff d = diff_bench_json(base, cur, 0.10);
  ASSERT_EQ(d.only_base.size(), 1u);
  EXPECT_EQ(d.only_base[0], "t.r.old_ns");
  ASSERT_EQ(d.only_current.size(), 1u);
  EXPECT_EQ(d.only_current[0], "t.r.new_ns");
  EXPECT_EQ(d.regressions, 0);
}

TEST(BenchMetrics, RenderNamesTheOffendingMetric) {
  const json::Value base = one_record({{"slow_path_ns", 100.0, Better::kLower}});
  const json::Value cur = one_record({{"slow_path_ns", 250.0, Better::kLower}});
  const BenchDiff d = diff_bench_json(base, cur, 0.10);
  const std::string report = render_diff(d, 0.10);
  EXPECT_NE(report.find("REGRESSION"), std::string::npos);
  EXPECT_NE(report.find("slow_path_ns"), std::string::npos);
}

// ----------------------------------------------------- engine profiling ----

TEST(EngineProfile, SweepPopulatesProfileBlock) {
  std::vector<engine::ExperimentSpec> specs;
  for (int n : {4, 8, 12, 16}) {
    engine::ExperimentSpec s;
    s.alg = engine::Alg::kMm25d;
    s.params = core::MachineParams::unit();
    s.n = n;
    s.q = 2;
    s.c = 1;
    specs.push_back(s);
  }
  engine::SweepOptions opts;
  opts.threads = 2;
  engine::SweepRunner runner(opts);
  runner.run(specs);
  const engine::SweepProfile& prof = runner.stats().profile;
  EXPECT_GT(prof.run_seconds, 0.0);
  EXPECT_GE(prof.run_max_seconds, prof.run_seconds / 4.0);
  EXPECT_LE(prof.run_max_seconds, prof.run_seconds);
  EXPECT_GT(prof.pool_busy_seconds, 0.0);
  EXPECT_GT(prof.pool_occupancy, 0.0);
  EXPECT_LE(prof.pool_occupancy, 1.0 + 1e-9);
  EXPECT_GE(prof.queue_wait_seconds, 0.0);
  EXPECT_GE(prof.queue_wait_max_seconds, 0.0);

  // Second run over the same specs: everything cache-hits; lookups are
  // counted, simulation time is zero.
  runner.run(specs);
  EXPECT_EQ(runner.stats().cache_hits, 4);
  EXPECT_DOUBLE_EQ(runner.stats().profile.run_seconds, 0.0);
  EXPECT_GE(runner.stats().profile.cache_lookup_seconds, 0.0);
}

}  // namespace
}  // namespace alge::obs
