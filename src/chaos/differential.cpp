#include "chaos/differential.hpp"

#include <ostream>
#include <utility>

#include "algs/harness.hpp"
#include "chaos/schedule.hpp"
#include "support/common.hpp"

namespace alge::chaos {

namespace {

using algs::harness::RunResult;

/// Relative slack for "may only grow" clock comparisons: injected stalls
/// interleave extra additions into the clock accumulation, so the faulted
/// sum is not bit-for-bit a superset of the baseline's rounding sequence.
constexpr double kGrowSlack = 1e-12;

bool grew(double faulted, double baseline) {
  return faulted >= baseline * (1.0 - kGrowSlack);
}

/// Non-unit parameters (bench/scaling_mm_energy.cpp's tuning) so injected
/// latency, retries, and stalls are visible in time and every Eq. (2) term.
core::MachineParams tuned_params() {
  core::MachineParams mp;
  mp.gamma_t = 1.0;
  mp.beta_t = 2.0;
  mp.alpha_t = 10.0;
  mp.gamma_e = 1.0;
  mp.beta_e = 4.0;
  mp.alpha_e = 20.0;
  mp.delta_e = 1e-4;
  mp.eps_e = 1e-2;
  mp.max_msg_words = 64.0;
  return mp;
}

/// The registry's problem for a case: the algorithm's shape at size class
/// spec.p, with the case's problem seed.
algs::Problem problem_of(const CaseSpec& spec) {
  algs::Problem pr = algs::entry(spec.alg).chaos_shape(spec.p);
  pr.seed = spec.problem_seed;
  return pr;
}

}  // namespace

bool RunSignature::identical_to(const RunSignature& o) const {
  return ranks == o.ranks && totals == o.totals && makespan == o.makespan &&
         energy == o.energy && max_abs_error == o.max_abs_error;
}

bool RunSignature::cost_identical_to(const RunSignature& o) const {
  return ranks == o.ranks && totals == o.totals && makespan == o.makespan &&
         energy == o.energy && faults == o.faults;
}

RunSignature run_case(const CaseSpec& spec, const ChaosConfig& chaos) {
  algs::harness::RunObserver obs;
  std::shared_ptr<PlanInjector> injector;
  obs.configure = [&chaos, &injector](sim::MachineConfig& cfg) {
    cfg.data_mode = chaos.data_mode;
    cfg.exec_mode = chaos.exec_mode;
    if (chaos.schedule_seed != 0) {
      cfg.wake_policy =
          std::make_shared<SchedulePermuter>(chaos.schedule_seed);
    }
    if (!chaos.plan.inert()) {
      injector =
          chaos.plan.make_injector(chaos.fault_seed, cfg.params.alpha_t);
      cfg.faults = injector;
    }
  };
  RunSignature sig;
  obs.after_run = [&sig](const sim::Machine& m) {
    sig.fold_active = m.fold_active();
    sig.ranks.clear();
    sig.ranks.reserve(static_cast<std::size_t>(m.p()));
    for (int r = 0; r < m.p(); ++r) sig.ranks.push_back(m.rank_counters(r));
  };
  algs::harness::ScopedRunObserver scope(std::move(obs));
  // Ghost runs have no output, so verification only makes sense in full
  // mode (the harness rejects the combination outright).
  const RunResult res = algs::harness::run(
      problem_of(spec), spec.params,
      /*verify=*/chaos.data_mode == sim::DataMode::kFull);
  sig.totals = res.totals;
  sig.makespan = res.makespan;
  sig.energy = res.energy.breakdown;
  sig.max_abs_error = res.max_abs_error;
  if (injector) sig.faults = injector->stats();
  return sig;
}

namespace {

/// Name the first field that differs between two signatures (diagnostics).
std::string first_difference(const RunSignature& a, const RunSignature& b) {
  if (a.ranks.size() != b.ranks.size()) return "rank count";
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    const sim::RankCounters& x = a.ranks[r];
    const sim::RankCounters& y = b.ranks[r];
    if (x == y) continue;
    if (x.flops != y.flops) return strfmt("rank %zu flops", r);
    if (x.words_sent != y.words_sent) return strfmt("rank %zu words", r);
    if (x.msgs_sent != y.msgs_sent) return strfmt("rank %zu msgs", r);
    if (x.clock != y.clock) return strfmt("rank %zu clock", r);
    if (x.idle_time != y.idle_time) return strfmt("rank %zu idle", r);
    return strfmt("rank %zu counters", r);
  }
  if (!(a.totals == b.totals)) return "totals";
  if (a.makespan != b.makespan) return "makespan";
  if (!(a.energy == b.energy)) return "energy";
  if (a.max_abs_error != b.max_abs_error) return "max_abs_error";
  return "(none)";
}

/// Invariants a faulted run must satisfy vs the fault-free baseline.
/// Returns an empty string when all hold.
std::string check_faulted(const RunSignature& base, const RunSignature& sig,
                          const FaultPlan& plan) {
  if (sig.ranks.size() != base.ranks.size()) return "rank count changed";
  // The transport hides faults from the algorithm: identical work and
  // identical numerics, bit for bit.
  for (std::size_t r = 0; r < sig.ranks.size(); ++r) {
    if (sig.ranks[r].flops != base.ranks[r].flops) {
      return strfmt("rank %zu flops changed", r);
    }
    if (sig.ranks[r].mem_highwater != base.ranks[r].mem_highwater) {
      return strfmt("rank %zu memory high-water changed", r);
    }
  }
  if (sig.max_abs_error != base.max_abs_error) {
    return "numerical result changed";
  }
  // Faults only ever add cost.
  for (std::size_t r = 0; r < sig.ranks.size(); ++r) {
    if (sig.ranks[r].words_sent < base.ranks[r].words_sent ||
        sig.ranks[r].msgs_sent < base.ranks[r].msgs_sent) {
      return strfmt("rank %zu traffic shrank", r);
    }
    if (!grew(sig.ranks[r].clock, base.ranks[r].clock)) {
      return strfmt("rank %zu clock shrank", r);
    }
  }
  if (!grew(sig.makespan, base.makespan)) return "makespan shrank";
  // Plans that never retransmit (delay/reorder/pause) shift time only:
  // W, S — and therefore the traffic terms of Eq. (2) — are *exactly* the
  // baseline's.
  const FaultPlanConfig& c = plan.config();
  if (c.p_drop <= 0.0 && c.p_duplicate <= 0.0) {
    for (std::size_t r = 0; r < sig.ranks.size(); ++r) {
      const sim::RankCounters& x = sig.ranks[r];
      const sim::RankCounters& y = base.ranks[r];
      if (x.words_sent != y.words_sent || x.msgs_sent != y.msgs_sent ||
          x.words_recv != y.words_recv || x.msgs_recv != y.msgs_recv ||
          x.words_hops != y.words_hops || x.msgs_hops != y.msgs_hops) {
        return strfmt("rank %zu traffic changed under a time-only plan", r);
      }
    }
    if (sig.energy.flops != base.energy.flops ||
        sig.energy.words != base.energy.words ||
        sig.energy.messages != base.energy.messages) {
      return "traffic energy changed under a time-only plan";
    }
  }
  return {};
}

}  // namespace

DiffReport explore(const DiffOptions& opts) {
  ALGE_REQUIRE(opts.seeds >= 1, "need at least one seed");
  DiffReport rep;
  std::ostream* out = opts.out;
  for (algs::Alg alg : opts.algs) {
    for (int p : opts.ps) {
      ++rep.cases;
      CaseSpec spec;
      spec.alg = alg;
      spec.p = p;
      spec.problem_seed = opts.problem_seed;
      spec.params = tuned_params();
      // Registry names are string literals, so the view is NUL-terminated.
      const char* name = algs::to_string(alg).data();

      RunSignature base;
      try {
        base = run_case(spec, ChaosConfig{});
      } catch (const std::exception& e) {
        ++rep.failures;
        if (out != nullptr) {
          *out << strfmt("FAIL %s p=%d: baseline threw: %s\n",
                         name, p, e.what());
        }
        continue;
      }

      // (b) Schedule permutation: dataflow determinism demands full bit
      // identity — F, W, S, clocks, energy, numerics.
      int sched_bad = 0;
      for (int s = 1; s <= opts.seeds; ++s) {
        ++rep.schedule_runs;
        ChaosConfig cc;
        cc.schedule_seed = static_cast<std::uint64_t>(s);
        try {
          const RunSignature sig = run_case(spec, cc);
          if (!sig.identical_to(base)) {
            ++rep.mismatches;
            ++sched_bad;
            if (out != nullptr) {
              *out << strfmt(
                  "FAIL %s p=%d schedule seed %d: differs from round-robin "
                  "baseline at %s\n",
                  name, p, s,
                  first_difference(base, sig).c_str());
            }
          }
        } catch (const std::exception& e) {
          ++rep.failures;
          ++sched_bad;
          if (out != nullptr) {
            *out << strfmt("FAIL %s p=%d schedule seed %d: threw: %s\n",
                           name, p, s, e.what());
          }
        }
      }

      // (a) Fault plans: convergence plus graceful, monotone degradation.
      int fault_bad = 0;
      int case_fault_runs = 0;
      std::uint64_t injected = 0;
      for (const std::string& plan_name : opts.plans) {
        if (plan_name == "none") continue;  // that *is* the baseline
        const FaultPlan plan = FaultPlan::bundled(plan_name);
        for (int s = 1; s <= opts.seeds; ++s) {
          ++rep.fault_runs;
          ++case_fault_runs;
          ChaosConfig cc;
          cc.plan = plan;
          cc.fault_seed = static_cast<std::uint64_t>(s);
          try {
            const RunSignature sig = run_case(spec, cc);
            injected += sig.faults.total();
            const std::string err = check_faulted(base, sig, plan);
            if (!err.empty()) {
              ++rep.mismatches;
              ++fault_bad;
              if (out != nullptr) {
                *out << strfmt("FAIL %s p=%d plan=%s seed %d: %s\n",
                               name, p, plan_name.c_str(), s,
                               err.c_str());
              }
            }
          } catch (const std::exception& e) {
            ++rep.failures;
            ++fault_bad;
            if (out != nullptr) {
              *out << strfmt(
                  "FAIL %s p=%d plan=%s seed %d: did not converge: %s\n",
                  name, p, plan_name.c_str(), s, e.what());
            }
          }
        }
      }

      if (out != nullptr && opts.verbose) {
        *out << strfmt(
            "%-6s p=%d (runs on %d ranks): %d/%d schedules bit-identical, "
            "%d/%d fault runs converged (%llu faults injected)\n",
            name, p, algs::entry(alg).world_size(problem_of(spec)),
            opts.seeds - sched_bad, opts.seeds, case_fault_runs - fault_bad,
            case_fault_runs, static_cast<unsigned long long>(injected));
      }
    }
  }
  rep.summary = strfmt(
      "%d cases: %d schedule runs, %d fault runs; %d mismatches, %d "
      "failures -> %s",
      rep.cases, rep.schedule_runs, rep.fault_runs, rep.mismatches,
      rep.failures, rep.ok() ? "OK" : "FAIL");
  if (out != nullptr) *out << rep.summary << "\n";
  return rep;
}

namespace {

/// Name the first *cost* field that differs (ghost diagnostics; ignores
/// max_abs_error, which ghost runs cannot reproduce by design).
std::string first_cost_difference(const RunSignature& a,
                                  const RunSignature& b) {
  if (a.ranks.size() != b.ranks.size()) return "rank count";
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    const sim::RankCounters& x = a.ranks[r];
    const sim::RankCounters& y = b.ranks[r];
    if (x == y) continue;
    if (x.flops != y.flops) return strfmt("rank %zu flops", r);
    if (x.words_sent != y.words_sent) return strfmt("rank %zu words", r);
    if (x.msgs_sent != y.msgs_sent) return strfmt("rank %zu msgs", r);
    if (x.clock != y.clock) return strfmt("rank %zu clock", r);
    if (x.idle_time != y.idle_time) return strfmt("rank %zu idle", r);
    if (x.mem_highwater != y.mem_highwater) {
      return strfmt("rank %zu memory high-water", r);
    }
    return strfmt("rank %zu counters", r);
  }
  if (!(a.totals == b.totals)) return "totals";
  if (a.makespan != b.makespan) return "makespan";
  if (!(a.energy == b.energy)) return "energy";
  if (!(a.faults == b.faults)) return "injected faults";
  return "(none)";
}

}  // namespace

GhostDiffReport ghost_explore(const GhostDiffOptions& opts) {
  ALGE_REQUIRE(opts.seeds >= 1, "need at least one seed");
  GhostDiffReport rep;
  std::ostream* out = opts.out;
  for (algs::Alg alg : opts.algs) {
    for (int p : opts.ps) {
      ++rep.cases;
      CaseSpec spec;
      spec.alg = alg;
      spec.p = p;
      spec.problem_seed = opts.problem_seed;
      spec.params = tuned_params();
      // Registry names are string literals, so the view is NUL-terminated.
      const char* name = algs::to_string(alg).data();

      // One fault-free pairing, then every plan × seed. Each entry is a
      // (label, config) template; the pair loop runs it in both modes.
      struct Pairing {
        std::string label;
        ChaosConfig cc;
      };
      std::vector<Pairing> pairings;
      pairings.push_back({"fault-free", ChaosConfig{}});
      for (const std::string& plan_name : opts.plans) {
        if (plan_name == "none") continue;
        const FaultPlan plan = FaultPlan::bundled(plan_name);
        for (int s = 1; s <= opts.seeds; ++s) {
          ChaosConfig cc;
          cc.plan = plan;
          cc.fault_seed = static_cast<std::uint64_t>(s);
          pairings.push_back(
              {strfmt("plan=%s seed=%d", plan_name.c_str(), s), cc});
        }
      }

      int case_bad = 0;
      for (const Pairing& pairing : pairings) {
        ++rep.pairs;
        try {
          ChaosConfig full_cc = pairing.cc;
          full_cc.data_mode = sim::DataMode::kFull;
          const RunSignature full = run_case(spec, full_cc);
          ChaosConfig ghost_cc = pairing.cc;
          ghost_cc.data_mode = sim::DataMode::kGhost;
          const RunSignature ghost = run_case(spec, ghost_cc);
          if (!ghost.cost_identical_to(full)) {
            ++rep.mismatches;
            ++case_bad;
            if (out != nullptr) {
              *out << strfmt(
                  "FAIL %s p=%d %s: ghost cost signature differs at %s\n",
                  name, p, pairing.label.c_str(),
                  first_cost_difference(full, ghost).c_str());
            }
          }
        } catch (const std::exception& e) {
          ++rep.failures;
          ++case_bad;
          if (out != nullptr) {
            *out << strfmt("FAIL %s p=%d %s: threw: %s\n", name, p,
                           pairing.label.c_str(), e.what());
          }
        }
      }
      if (out != nullptr && opts.verbose) {
        *out << strfmt("%-6s p=%d (runs on %d ranks): %zu/%zu full/ghost "
                       "pairs bit-identical\n",
                       name, p, algs::entry(alg).world_size(problem_of(spec)),
                       pairings.size() - static_cast<std::size_t>(case_bad),
                       pairings.size());
      }
    }
  }
  rep.summary = strfmt(
      "%d cases: %d full/ghost pairs; %d mismatches, %d failures -> %s",
      rep.cases, rep.pairs, rep.mismatches, rep.failures,
      rep.ok() ? "OK" : "FAIL");
  if (out != nullptr) *out << rep.summary << "\n";
  return rep;
}

FoldDiffReport fold_explore(const FoldDiffOptions& opts) {
  ALGE_REQUIRE(opts.seeds >= 1, "need at least one seed");
  FoldDiffReport rep;
  std::ostream* out = opts.out;
  for (algs::Alg alg : opts.algs) {
    for (int p : opts.ps) {
      ++rep.cases;
      CaseSpec spec;
      spec.alg = alg;
      spec.p = p;
      spec.problem_seed = opts.problem_seed;
      spec.params = tuned_params();
      // Registry names are string literals, so the view is NUL-terminated.
      const char* name = algs::to_string(alg).data();

      // One fault-free pairing (the case that actually folds), then every
      // plan × seed (faults force the per-fiber fallback on the "folded"
      // side, which must still match bit for bit).
      struct Pairing {
        std::string label;
        ChaosConfig cc;
      };
      std::vector<Pairing> pairings;
      pairings.push_back({"fault-free", ChaosConfig{}});
      for (const std::string& plan_name : opts.plans) {
        if (plan_name == "none") continue;
        const FaultPlan plan = FaultPlan::bundled(plan_name);
        for (int s = 1; s <= opts.seeds; ++s) {
          ChaosConfig cc;
          cc.plan = plan;
          cc.fault_seed = static_cast<std::uint64_t>(s);
          pairings.push_back(
              {strfmt("plan=%s seed=%d", plan_name.c_str(), s), cc});
        }
      }

      int case_bad = 0;
      int case_folded = 0;
      for (const Pairing& pairing : pairings) {
        ++rep.pairs;
        try {
          ChaosConfig fiber_cc = pairing.cc;
          fiber_cc.data_mode = sim::DataMode::kGhost;
          fiber_cc.exec_mode = sim::ExecMode::kFibers;
          const RunSignature fiber = run_case(spec, fiber_cc);
          ChaosConfig folded_cc = pairing.cc;
          folded_cc.data_mode = sim::DataMode::kGhost;
          folded_cc.exec_mode = sim::ExecMode::kFolded;
          const RunSignature folded = run_case(spec, folded_cc);
          if (folded.fold_active) {
            ++rep.folded_pairs;
            ++case_folded;
          }
          if (!folded.cost_identical_to(fiber)) {
            ++rep.mismatches;
            ++case_bad;
            if (out != nullptr) {
              *out << strfmt(
                  "FAIL %s p=%d %s: folded cost signature differs at %s "
                  "(fold %s)\n",
                  name, p, pairing.label.c_str(),
                  first_cost_difference(fiber, folded).c_str(),
                  folded.fold_active ? "active" : "fell back");
            }
          }
        } catch (const std::exception& e) {
          ++rep.failures;
          ++case_bad;
          if (out != nullptr) {
            *out << strfmt("FAIL %s p=%d %s: threw: %s\n", name, p,
                           pairing.label.c_str(), e.what());
          }
        }
      }
      if (out != nullptr && opts.verbose) {
        *out << strfmt(
            "%-6s p=%d (runs on %d ranks): %zu/%zu fiber/folded pairs "
            "bit-identical, %d folded\n",
            name, p, algs::entry(alg).world_size(problem_of(spec)),
            pairings.size() - static_cast<std::size_t>(case_bad),
            pairings.size(), case_folded);
      }
    }
  }
  rep.summary = strfmt(
      "%d cases: %d fiber/folded pairs (%d actually folded); %d "
      "mismatches, %d failures -> %s",
      rep.cases, rep.pairs, rep.folded_pairs, rep.mismatches, rep.failures,
      rep.ok() ? "OK" : "FAIL");
  if (out != nullptr) *out << rep.summary << "\n";
  return rep;
}

}  // namespace alge::chaos
