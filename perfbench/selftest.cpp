// Self-tests of the benchmark's checks: each check must pass a real output
// and reject the same output with one deliberate fault injected.
#include <cstdio>
#include <cstring>

#include "checks.hpp"
#include "core/opt.hpp"
#include "engine/runner.hpp"
#include "transport/programs.hpp"

namespace perfbench::checks {

using namespace alge;

namespace {

int failures = 0;

void expect(const char* what, const std::string& good, const std::string& bad) {
  const bool ok = good.empty() && !bad.empty();
  if (!ok) ++failures;
  std::printf("%-4s %-44s good: %s | bad: %s\n", ok ? "ok" : "FAIL", what,
              good.empty() ? "passes" : good.c_str(),
              bad.empty() ? "NOT REJECTED" : "rejected");
}

engine::ExperimentSpec summa_spec(bool ghost, bool folded) {
  engine::ExperimentSpec s;
  s.alg = engine::Alg::kSumma;
  s.n = 64;
  s.q = 4;
  s.params.delta_e = 1e-3;
  if (ghost) {
    s.data_mode = sim::DataMode::kGhost;
  } else {
    s.verify = true;
  }
  if (folded) s.exec_mode = sim::ExecMode::kFolded;
  return s;
}

void simulated_runs() {
  const engine::ExperimentSpec full = summa_spec(false, false);
  const engine::ExperimentResult r = engine::execute(full);

  engine::ExperimentResult bad = r;
  bad.energy.words *= 1.0 + 1e-6;
  expect("energy that does not match Eq. (2)", energy_matches(r, full.params),
         energy_matches(bad, full.params));

  bad = r;
  bad.totals.flops_total += 2.0;
  expect("flop total off by one multiply-add", flops_match(r, full),
         flops_match(bad, full));

  bad = r;
  bad.max_abs_error = 1e-3;
  expect("verified run with a wrong output", verified_within(r, full),
         verified_within(bad, full));

  bad = r;
  bad.totals.words_total = 0.5 * matmul_words_lower_bound(
                                     full.n, r.p, r.totals.flops_max) * r.p;
  expect("words below the memory-independent bound",
         above_matmul_bound(r, full), above_matmul_bound(bad, full));

  const engine::ExperimentResult fib = engine::execute(summa_spec(true, false));
  const engine::ExperimentResult fold = engine::execute(summa_spec(true, true));
  bad = fold;
  bad.totals.msgs_sent_max += 1.0;
  expect("folded row whose cost signature differs",
         same_cost_signature(fib, fold), same_cost_signature(fib, bad));
  expect("row that did not fold", actually_folded(fold), actually_folded(fib));
}

void closed_forms() {
  const core::ClassicalMatmulModel model;
  core::MachineParams mp;
  mp.gamma_t = 1e-11;
  mp.beta_t = 1e-9;
  mp.alpha_t = 1e-6;
  mp.gamma_e = 1e-10;
  mp.beta_e = 1e-9;
  mp.alpha_e = 1e-7;
  mp.delta_e = 1e-9;
  mp.eps_e = 10;
  const double n = 20000;
  core::OptLimits lim;
  lim.p_available = 1e5;
  lim.M_cap = 1e10;
  const double t_ref = model.time(n, 1000, model.min_memory(n, 1000), mp);

  Question q;
  q.kind = "min_energy_given_time";
  q.t_max = t_ref;
  const core::Optimizer opt(model, n, mp);
  const core::RunPoint a = opt.min_energy_given_time(q.t_max, lim);
  Question tight = q;
  tight.t_max = a.T * 0.5;
  expect("closed-form answer that breaks its budget",
         within_budget(q, a, model, n, mp, lim),
         within_budget(tight, a, model, n, mp, lim));

  core::RunPoint worse = a;
  worse.E *= 2.0;
  const core::RunPoint scan = coarse_scan(q, model, n, mp, lim);
  expect("answer worse than the coarse scan",
         no_worse_than_scan(q, a, scan, model, n, lim),
         no_worse_than_scan(q, worse, scan, model, n, lim));
}

void transports() {
  const transport::AlgProgram prog =
      transport::make_program(transport::conformance_spec("summa"));
  transport::RunOptions opts;
  opts.p = prog.p;
  const transport::RunReport sim = transport::run_sim(opts, prog.program);
  const transport::RunReport tcp =
      transport::run_tcp_threads(opts, prog.program);

  transport::RunReport bad = tcp;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &bad.ranks[1].output[0], sizeof bits);
  bits ^= 1;  // flip the lowest mantissa bit of one output word
  std::memcpy(&bad.ranks[1].output[0], &bits, sizeof bits);
  expect("flipped output word in a transport rank", outputs_equal(sim, tcp),
         outputs_equal(sim, bad));

  bad = tcp;
  bad.ranks[2].wire.words_sent += 1.0;
  expect("wire traffic off the W/S ledger", wire_matches_ledger(tcp),
         wire_matches_ledger(bad));

  bad = tcp;
  bad.ranks[0].model.clock *= 1.0 + 1e-12;
  expect("model counters off the simulated run",
         model_counters_equal(sim, tcp), model_counters_equal(sim, bad));
}

}  // namespace

int self_test() {
  failures = 0;
  simulated_runs();
  closed_forms();
  transports();
  return failures;
}

}  // namespace perfbench::checks
