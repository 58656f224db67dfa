// The benchmark's output checks. Each compares a program output against a
// separate computation or a property the method must have — never against
// a stored copy of an earlier output — and returns "" when it holds or a
// description of the violation. `perfbench --self-test` feeds every check a
// deliberately wrong value and demands that it fails.
#pragma once
#include <string>

#include "core/algmodel.hpp"
#include "core/opt.hpp"
#include "core/params.hpp"
#include "engine/job.hpp"
#include "support/json.hpp"
#include "transport/run.hpp"

namespace perfbench::checks {

// ---- simulated runs ------------------------------------------------------

/// Eq. (2) evaluated from a run's totals and makespan: γe·F + βe·W + αe·S
/// over the summed counts, plus p·(δe·M̄ + εe)·T with M̄ the mean per-rank
/// memory high-water mark.
double eq2_energy(const alge::sim::SimTotals& t, int p, double makespan,
                  const alge::core::MachineParams& mp);
std::string energy_matches(const alge::engine::ExperimentResult& r,
                           const alge::core::MachineParams& mp);

/// Flops the spec's algorithm performs, counted from its arithmetic
/// (products, updates, reductions) rather than taken from the simulator.
double exact_flops(const alge::engine::ExperimentSpec& s);
std::string flops_match(const alge::engine::ExperimentResult& r,
                        const alge::engine::ExperimentSpec& s);

/// A full-data verified run agrees with the harness's sequential reference
/// within a tolerance scaled to the reduction length of the problem.
std::string verified_within(const alge::engine::ExperimentResult& r,
                            const alge::engine::ExperimentSpec& s);

/// Folded and per-fiber runs of one spec have bit-identical costs.
std::string same_cost_signature(const alge::engine::ExperimentResult& fiber,
                                const alge::engine::ExperimentResult& folded);
/// The run took the folded path: 0 < fold_slots < p.
std::string actually_folded(const alge::engine::ExperimentResult& r);

/// Memory-independent lower bound on the average words a rank exchanges in
/// classical n×n matmul on p ranks (Ballard et al., arXiv:1202.3177, with
/// the Loomis–Whitney constant). A rank doing m multiplications touches at
/// least 3·m^(2/3) words; at most 3n² words are owned before and after the
/// run, and every moved word is counted once sent and once received. With
/// m ≤ m_max = flops_max/2 per rank the sum over ranks gives
///   words_total/p ≥ 1.5·(n³·m_max^(-1/3) − n²)/p,
/// which is 1.5·((n³/p)^(2/3) − n²/p) when the work is balanced.
double matmul_words_lower_bound(double n, double p, double flops_max);
/// Holds for a classical-matmul spec (mm25d, summa); the per-rank maximum
/// is at least the average.
std::string above_matmul_bound(const alge::engine::ExperimentResult& r,
                               const alge::engine::ExperimentSpec& s);

// ---- §V closed-form answers -----------------------------------------------

/// Objective and constraint of one closed-form query kind.
struct Question {
  std::string kind;
  double t_max = 0.0, e_max = 0.0, power_max = 0.0, proc_power_max = 0.0;
  bool minimize_time() const;
};
Question question_from_request(const alge::json::Value& req);

/// The answer meets its budget (with the optimizer's documented 1e-9
/// slack), lies in the model's domain, and its reported T and E are the
/// model's at its (p, M).
std::string within_budget(const Question& q, const alge::core::RunPoint& a,
                          const alge::core::AlgModel& model, double n,
                          const alge::core::MachineParams& mp,
                          const alge::core::OptLimits& lim);

/// Best feasible point of a coarse log grid over (p, M), evaluated straight
/// from the AlgModel (no core::Optimizer involved).
alge::core::RunPoint coarse_scan(const Question& q,
                                 const alge::core::AlgModel& model, double n,
                                 const alge::core::MachineParams& mp,
                                 const alge::core::OptLimits& lim);
/// One step of core::Optimizer's first-round grid (src/core/opt.cpp: 96
/// log-spaced p over the allowed range, 64 log-spaced M per p) at
/// processor count p, as the factor by which T or E can move across it.
/// Later rounds refine p only near the incumbent, so a point between
/// first-round grid points can beat the answer by up to this factor.
double grid_step(const alge::core::AlgModel& model, double n, double p,
                 const alge::core::OptLimits& lim);
/// The answer's objective is no worse than the scan's best by more than
/// one grid step (at the answer's or the scan's p).
std::string no_worse_than_scan(const Question& q,
                               const alge::core::RunPoint& answer,
                               const alge::core::RunPoint& scan,
                               const alge::core::AlgModel& model, double n,
                               const alge::core::OptLimits& lim);

// ---- real transports -------------------------------------------------------

/// Every rank's output vector is bitwise equal between two runs.
std::string outputs_equal(const alge::transport::RunReport& ref,
                          const alge::transport::RunReport& got);
/// What the backend moved equals the W/S ledger of the same rank.
std::string wire_matches_ledger(const alge::transport::RunReport& r);
/// Every rank's model counters equal the simulated run's.
std::string model_counters_equal(const alge::transport::RunReport& sim,
                                 const alge::transport::RunReport& got);

/// Run every check on a good value and on a deliberately wrong one; returns
/// the number of checks that did not behave (0 = all pass good values and
/// reject bad ones).
int self_test();

}  // namespace perfbench::checks
