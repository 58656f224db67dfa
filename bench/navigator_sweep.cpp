// navigator_sweep: track the Pareto navigator's headline metrics across
// machine generations (the Figs. 6/7 energy-parameter halvings applied to
// the Section-VI case-study machine) and, at generation 0, across the
// ghost/folded engine's measured frontier with its chaos re-score.
//
//   navigator_sweep [--generations=0,2,4] [--simulate=true] [--json=PATH]
//
// Every metric except navigate_seconds is deterministic (the navigator has
// no wall clocks or RNG beyond the chaos seed), so BENCH_navigator.json
// diffs flag real frontier shifts: a larger frontier_area means the
// frontier pulled away from the ideal corner, a larger
// fault_energy_inflation means faults cost more energy at the optimum, and
// crossover_generations moving means the 75 GFLOPS/W machine-generation
// crossover (Figs. 6/7) shifted. CI re-runs this and diffs against the
// committed BENCH_navigator.json; each metric's better direction is
// declared where the record is written below.
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/codesign.hpp"
#include "machines/db.hpp"
#include "navigator/navigator.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  using namespace alge;
  CliArgs cli;
  cli.add_flag("generations", "0,2,4",
               "energy-parameter halvings of the case-study machine to "
               "sweep (comma list; Figs. 6/7 scaling)");
  cli.add_flag("simulate", "true",
               "add the generation-0 measured-frontier rows (ghost/folded "
               "engine runs + chaos re-score)");
  cli.add_flag("threads", "2", "engine worker threads for the sim rows");
  cli.add_flag("json", "",
               "write the BENCH_navigator.json record to this path (empty "
               "= table only)");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.usage("navigator_sweep");
    return 0;
  }

  bench::banner(
      "Navigator sweep: frontier metrics across machine generations",
      "navigate() on the case-study machine after g halvings of every "
      "energy parameter (Figs. 6/7). frontier_area is the normalized "
      "staircase area between the frontier and its ideal corner; "
      "crossover_gen counts further halvings to 75 GFLOPS/W. The sim rows "
      "re-score the measured frontier under 1% drop/delay/reorder plans.");

  std::vector<int> generations;
  for (const long long g : cli.get_int_list("generations")) {
    generations.push_back(static_cast<int>(g));
  }
  ALGE_REQUIRE(!generations.empty(), "--generations must be non-empty");
  const bool simulate = cli.get_bool("simulate");
  const int threads = static_cast<int>(cli.get_int("threads"));

  const core::MachineParams base = [] {
    core::MachineParams mp = machines::CaseStudyMachine{}.params();
    mp.mem_words = 0.0;  // the optimizer chooses M (sec5 convention)
    return mp;
  }();

  json::Value results = json::Value::array();
  Table t({"model", "gen", "pts", "area", "E_opt (J)", "GF/W", "xover",
           "robust", "inflate", "seconds"});

  struct SweepCase {
    const char* model;
    double n;
    // Sim-stage grid caps (keep the CI run in seconds).
    double sim_p_available;
  };
  const std::vector<SweepCase> cases = {
      {"nbody", 1e7, 256.0},
      {"classical-mm", 1e5, 1024.0},
      {"strassen", 1e5, 512.0},
  };

  for (const SweepCase& sc : cases) {
    for (const int gen : generations) {
      navigator::NavRequest req;
      req.model = sc.model;
      req.n = sc.n;
      req.params = core::scale_energy_params(
          base, core::ParamScaleSpec::all(),
          std::pow(0.5, static_cast<double>(gen)));
      req.p_samples = 24;
      req.m_samples = 12;
      // One machine-size cap for every generation so frontier_area is
      // comparable down a model's column (and the grid stays CI-sized).
      req.limits.p_available = sc.sim_p_available;
      // The sim stage only runs at generation 0: fault robustness is a
      // property of the schedule, not of the energy coefficients, so one
      // measured frontier per model is the tracked signal.
      const bool sim_row = simulate && gen == 0;
      if (sim_row) {
        req.simulate = true;
        req.sim_points = 6;
        req.threads = threads;
      }

      const auto t0 = std::chrono::steady_clock::now();
      const navigator::NavReport rep = navigator::navigate(req);
      const double seconds = elapsed(t0);
      const navigator::ValidationResult vr = navigator::validate(rep, req);
      ALGE_REQUIRE(vr.ok, "navigator validation failed for %s gen %d: %s",
                   sc.model, gen,
                   vr.failures.empty() ? "?" : vr.failures.front().c_str());

      t.row()
          .cell(sc.model)
          .cell(gen)
          .cell(static_cast<int>(rep.model_frontier.size()))
          .cell(rep.frontier_area, "%.4g")
          .cell(rep.min_energy.E, "%.6g")
          .cell(rep.gflops_per_watt_at_opt, "%.3f")
          .cell(rep.crossover_generations)
          .cell(sim_row ? strfmt("%d/%zu", rep.robust_points,
                                 rep.measured_frontier.size())
                        : std::string("--"))
          .cell(sim_row ? strfmt("%.4f", rep.fault_energy_inflation)
                        : std::string("--"))
          .cell(seconds, "%.3f");

      using obs::Better;
      obs::BenchRecord rec(strfmt("%s gen=%d", sc.model, gen));
      // A crossover of -1 means "target unreachable": a sentinel, not a
      // small count, so it goes under info instead of being compared.
      auto crossover = [&rec](const char* key, int generations) {
        if (generations < 0) {
          rec.info(key, generations);
        } else {
          rec.metric(key, generations, "generations", Better::kLower);
        }
      };
      rec.info("model", std::string(sc.model))
          .metric("generation", gen, "halvings", Better::kNone)
          .metric("frontier_points",
                  static_cast<double>(rep.model_frontier.size()), "count",
                  Better::kNone)
          .metric("frontier_area", rep.frontier_area, "ratio", Better::kLower)
          .metric("min_energy_joules", rep.min_energy.E, "J", Better::kLower)
          .metric("min_time_seconds", rep.min_time.T, "s", Better::kLower)
          .metric("gflops_per_watt_at_opt", rep.gflops_per_watt_at_opt,
                  "GFLOP/s/W", Better::kHigher);
      crossover("crossover_generations", rep.crossover_generations);
      if (sim_row) {
        rec.metric("measured_frontier_points",
                   static_cast<double>(rep.measured_frontier.size()), "count",
                   Better::kNone)
            .metric("measured_frontier_area", rep.measured_frontier_area,
                    "ratio", Better::kLower)
            .metric("robust_fraction", rep.robust_fraction, "ratio",
                    Better::kHigher)
            .metric("fault_energy_inflation", rep.fault_energy_inflation,
                    "ratio", Better::kLower);
        crossover("crossover_generations_faulted",
                  rep.crossover_generations_faulted);
        // Fold coverage: a survivor that stops taking the folded fast path
        // shows up as folded_scored down and fiber_scored up.
        rec.metric("engine_runs", rep.simulated + rep.rescore_runs, "count",
                   Better::kNone)
            .metric("cache_hits", rep.cache_hits, "count", Better::kHigher)
            .metric("folded_scored", rep.folded_scored, "count",
                    Better::kHigher)
            .metric("fiber_scored", rep.fiber_scored, "count",
                    Better::kLower);
      }
      rec.info("navigate_seconds", seconds);
      results.push_back(rec.to_json());
    }
  }

  t.print(std::cout);
  std::cout << "\nAll rows passed the navigator's own validation (bounds, "
               "Pareto, bit-exact Section-V endpoints). frontier_area and "
               "the energy columns are deterministic; only the seconds "
               "column is wall-clock. See EXPERIMENTS.md \"Navigator\".\n";

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    obs::write_bench_file(obs::bench_file("navigator", std::move(results)),
                          json_path);
    std::fprintf(stderr, "[navigator] wrote %s\n", json_path.c_str());
  }
  return 0;
}
