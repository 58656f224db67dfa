// ghost_speedup: wall-clock cost of full-data simulation vs
// --data-mode=ghost (sim/payload.hpp) on the sweeps ghost mode exists to
// accelerate. Every full/ghost pair must also produce identical
// ExperimentResults (the cost schedule is the contract; ghost merely skips
// the data), so the table doubles as a coarse differential check.
//
//   ghost_speedup [--full=true] [--json=PATH]
//
// The default subset finishes in seconds and is what CI re-runs for the
// warn-only regression diff against the committed BENCH_ghost.json.
// --full=true adds the n=4096 scaling_mm_energy headline (minutes of
// full-data dgemm) and the p=4096 ghost-only frontier point that full mode
// cannot complete in CI time; the committed file is generated that way.
#include <chrono>
#include <iostream>
#include <string>
#include <utility>

#include "bench_common.hpp"
#include "engine/runner.hpp"
#include "obs/bench_metrics.hpp"
#include "support/cli.hpp"
#include "support/common.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace {

using namespace alge;

double elapsed(const std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Run the spec and return (result, seconds). Sub-50ms runs (ghost mode is
/// routinely sub-millisecond) are re-timed over enough iterations that the
/// reported figure is an average, not scheduler noise; every iteration is
/// the same deterministic simulation, so only the timing precision changes.
std::pair<engine::ExperimentResult, double> timed(
    const engine::ExperimentSpec& spec) {
  auto t0 = std::chrono::steady_clock::now();
  engine::ExperimentResult r = engine::execute(spec);
  double s = elapsed(t0);
  if (s < 0.05) {
    const int iters = std::min(100, static_cast<int>(0.05 / std::max(s, 1e-6)) + 1);
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) (void)engine::execute(spec);
    s = elapsed(t0) / iters;
  }
  return {std::move(r), s};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alge;
  CliArgs cli;
  cli.add_flag("full", "false",
               "include the n=4096 headline pair (minutes of full-data "
               "local dgemm) and the p=4096 ghost-only frontier point; the "
               "committed BENCH_ghost.json is generated with this set");
  cli.add_flag("json", "",
               "write the BENCH_ghost.json record to this path (empty = "
               "table only)");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.usage("ghost_speedup");
    return 0;
  }
  const bool full_set = cli.get_bool("full");

  bench::banner(
      "Ghost-payload speedup: full-data vs --data-mode=ghost",
      "Same specs, same cost schedule -- wall time diverges by the skipped "
      "data movement and local kernels. 'identical' asserts the two runs' "
      "counters, makespan and energy match bit-for-bit.");

  json::Value results = json::Value::array();
  Table t({"sweep", "p", "full s", "ghost s", "speedup", "identical"});
  bool all_identical = true;

  // Every record — compare pairs and ghost-only frontier points alike —
  // carries the same simulated-cost metrics, so bench_diff can track each
  // sweep's p, makespan, energy and per-rank critical-path costs uniformly.
  // Wall-clock seconds vary with the machine and go under info.
  auto costs = [](const std::string& name, const engine::ExperimentResult& r) {
    using obs::Better;
    obs::BenchRecord rec(name);
    rec.metric("p", r.p, "ranks", Better::kNone)
        .metric("makespan", r.makespan, "model time", Better::kLower)
        .metric("energy", r.energy_total(), "model energy", Better::kLower)
        .metric("flops_per_rank", r.totals.flops_max, "flops", Better::kLower)
        .metric("words_per_rank", r.totals.words_sent_max, "words",
                Better::kLower)
        .metric("msgs_per_rank", r.totals.msgs_sent_max, "messages",
                Better::kLower);
    return rec;
  };

  auto compare = [&](const std::string& name, engine::ExperimentSpec spec) {
    spec.verify = false;  // ghost runs have no output to verify against
    spec.data_mode = sim::DataMode::kFull;
    const auto [rf, sf] = timed(spec);
    spec.data_mode = sim::DataMode::kGhost;
    const auto [rg, sg] = timed(spec);
    const bool identical = rf == rg;
    all_identical = all_identical && identical;
    const double speedup = sg > 0.0 ? sf / sg : 0.0;
    t.row()
        .cell(name)
        .cell(rf.p)
        .cell(sf, "%.3f")
        .cell(sg, "%.3f")
        .cell(speedup, "%.1f")
        .cell(identical ? "yes" : "NO");
    results.push_back(costs(name, rf)
                          .metric("speedup", speedup, "ratio",
                                  obs::Better::kHigher)
                          .info("full_seconds", sf)
                          .info("ghost_seconds", sg)
                          .info("cost_identical", identical)
                          .to_json());
  };

  auto ghost_only = [&](const std::string& name,
                        engine::ExperimentSpec spec) {
    spec.verify = false;
    spec.data_mode = sim::DataMode::kGhost;
    const auto [rg, sg] = timed(spec);
    t.row()
        .cell(name)
        .cell(rg.p)
        .cell("--")
        .cell(sg, "%.3f")
        .cell("--")
        .cell("--");
    results.push_back(costs(name, rg).info("ghost_seconds", sg).to_json());
  };

  // micro_sim territory: collectives moving real buffers vs size-only
  // views. Unit parameters; the payload is large enough that the full-mode
  // allocation + copies dominate.
  {
    engine::ExperimentSpec s;
    s.params = core::MachineParams::unit();
    s.alg = engine::Alg::kCollA2aDirect;
    s.p = 16;
    s.payload_words = 1 << 16;
    compare("coll_a2a_direct k=65536", s);
    s.alg = engine::Alg::kCollBcast;
    s.p = 64;
    s.payload_words = 1 << 20;
    compare("coll_bcast k=1048576", s);
  }

  // The scaling_mm_energy sweep machine (every energy term live, message
  // cap 64 words) at growing n: full-mode wall time is dominated by the
  // O(n^3/p) local dgemm per rank that contributes nothing ghost mode
  // does not also charge.
  core::MachineParams mp;
  mp.gamma_t = 1.0;
  mp.beta_t = 2.0;
  mp.alpha_t = 10.0;
  mp.gamma_e = 1.0;
  mp.beta_e = 4.0;
  mp.alpha_e = 20.0;
  mp.delta_e = 1e-4;
  mp.eps_e = 1e-2;
  mp.max_msg_words = 64;
  for (const int n : {256, 1024}) {
    engine::ExperimentSpec s;
    s.params = mp;
    s.alg = engine::Alg::kMm25d;
    s.n = n;
    s.q = 8;
    s.c = 1;
    compare(strfmt("scaling_mm n=%d q=8", n), s);
  }
  if (full_set) {
    engine::ExperimentSpec s;
    s.params = mp;
    s.alg = engine::Alg::kMm25d;
    s.n = 4096;
    s.q = 8;
    s.c = 1;
    compare("scaling_mm n=4096 q=8", s);

    // The ROADMAP model-scale frontier: p = 4096 ranks. Full mode would
    // have to materialize and multiply an n=16384 matrix (~tens of
    // minutes); ghost mode walks the identical message/compute schedule in
    // seconds. Uncapped messages: at this scale the cap sweep is its own
    // experiment.
    engine::ExperimentSpec f;
    f.params = mp;
    f.params.max_msg_words = 1e18;
    f.alg = engine::Alg::kMm25d;
    f.n = 16384;
    f.q = 64;
    f.c = 1;
    ghost_only("frontier_mm n=16384 q=64 (ghost only)", f);
  }

  t.print(std::cout);
  std::cout << "\nSpeedup is wall-clock full/ghost on this machine; the "
               "simulated makespan and energy are identical by construction "
               "(and checked above). See EXPERIMENTS.md \"Data modes\".\n";

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    obs::write_bench_file(obs::bench_file("ghost", std::move(results)),
                          json_path);
    std::fprintf(stderr, "[ghost] wrote %s\n", json_path.c_str());
  }
  return all_identical ? 0 : 1;
}
