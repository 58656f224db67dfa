#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "support/common.hpp"

namespace perfbench::checks {

using namespace alge;

namespace {

std::string fmt(const char* format, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

bool rel_close(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max({std::abs(a), std::abs(b), 1e-300});
}

int ilog2(int n) {
  int l = 0;
  while ((1 << (l + 1)) <= n) ++l;
  return l;
}

/// Sequential Strassen recursion as the local kernel charges it: classical
/// 2s³ at or below the cutoff (or at odd sizes), else 7 products plus 18
/// quadrant additions.
double strassen_count(int s, int cutoff) {
  if (s <= cutoff || s % 2 != 0) return 2.0 * s * s * static_cast<double>(s);
  const double h = s / 2;
  return 7.0 * strassen_count(s / 2, cutoff) + 18.0 * h * h;
}

}  // namespace

double eq2_energy(const sim::SimTotals& t, int p, double makespan,
                  const core::MachineParams& mp) {
  const double mean_mem =
      static_cast<double>(t.mem_highwater_total) / static_cast<double>(p);
  return mp.gamma_e * t.flops_total + mp.beta_e * t.words_hops_total +
         mp.alpha_e * t.msgs_hops_total +
         p * (mp.delta_e * mean_mem + mp.eps_e) * makespan;
}

std::string energy_matches(const engine::ExperimentResult& r,
                           const core::MachineParams& mp) {
  const double want = eq2_energy(r.totals, r.p, r.makespan, mp);
  const double got = r.energy_total();
  if (rel_close(got, want, 1e-9)) return "";
  return fmt("energy %.17g != Eq. (2) %.17g (p=%d)", got, want, r.p);
}

double exact_flops(const engine::ExperimentSpec& s) {
  const double n = s.n;
  switch (s.alg) {
    case engine::Alg::kMm25d:
      // n³ multiply-adds, plus the (c-1) n² additions of the depth reduce.
      return 2.0 * n * n * n + (s.c - 1) * n * n;
    case engine::Alg::kSumma:
      return 2.0 * n * n * n;
    case engine::Alg::kCaps: {
      // k breadth-first levels: at level l, 7^l subproblems of edge n/2^l
      // each pay 18 quadrant additions of (n/2^(l+1))²; the 7^k leaves run
      // the local Strassen kernel.
      double total = 0.0;
      double subproblems = 1.0;
      int edge = s.n;
      for (int l = 0; l < s.k; ++l) {
        const double h = edge / 2;
        total += subproblems * 18.0 * h * h;
        subproblems *= 7.0;
        edge /= 2;
      }
      const double leaf = s.caps_cutoff > 0 ? strassen_count(edge, s.caps_cutoff)
                                            : 2.0 * edge * edge * double(edge);
      return total + subproblems * leaf;
    }
    case engine::Alg::kNBody:
      // 20 flops per ordered pair of distinct particles, plus the team
      // reduce of 3 force words per particle over c replicas.
      return 20.0 * n * (n - 1) + 3.0 * (s.c - 1) * n;
    case engine::Alg::kLu: {
      // Right-looking blocked LU over nt×nt blocks of edge nb: per step a
      // diagonal factorization (2nb³/3), 2(nt-k-1) triangular solves (nb³)
      // and (nt-k-1)² trailing updates (2nb³).
      const int nt = s.n / s.nb;
      const double b3 = static_cast<double>(s.nb) * s.nb * s.nb;
      double total = 0.0;
      for (int k = 0; k < nt; ++k) {
        const double rest = nt - k - 1;
        total += 2.0 / 3.0 * b3 + 2.0 * rest * b3 + 2.0 * rest * rest * b3;
      }
      return total;
    }
    case engine::Alg::kFft: {
      // Four-step FFT: c_dim column FFTs of length r_dim (5 r log r) with
      // 6 r twiddle flops each, then r_dim row FFTs of length c_dim.
      const double r = s.r_dim;
      const double c = s.c_dim;
      return c * (5.0 * r * ilog2(s.r_dim) + 6.0 * r) +
             r * (5.0 * c * ilog2(s.c_dim));
    }
    case engine::Alg::kTsqr: {
      // p leaf Householder QRs of n×b, then p-1 QRs of stacked 2b×b pairs.
      auto qr = [](double m, double b) {
        return 2.0 * m * b * b - 2.0 / 3.0 * b * b * b;
      };
      return s.p * qr(s.n, s.nb) + (s.p - 1) * qr(2.0 * s.nb, s.nb);
    }
    default:
      break;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

std::string flops_match(const engine::ExperimentResult& r,
                        const engine::ExperimentSpec& s) {
  const double want = exact_flops(s);
  if (rel_close(r.totals.flops_total, want, 1e-12)) return "";
  return fmt("%s n=%d p=%d: flops %.17g != exact %.17g",
             std::string(engine::to_string(s.alg)).c_str(), s.n, r.p,
             r.totals.flops_total, want);
}

std::string verified_within(const engine::ExperimentResult& r,
                            const engine::ExperimentSpec& s) {
  // Rounding in a length-L reduction of O(1) terms grows like L·eps; the
  // Strassen recursion and the Gram products of TSQR square it.
  double len = s.n;
  if (s.alg == engine::Alg::kFft) len = double(s.r_dim) * s.c_dim;
  if (s.alg == engine::Alg::kTsqr) len = double(s.n) * s.p;
  const double tol = 1e-12 * len;
  if (!r.verified) return "run was not verified";
  if (std::isfinite(r.max_abs_error) && r.max_abs_error <= tol) return "";
  return fmt("%s n=%d p=%d: max error %.3g exceeds %.3g",
             std::string(engine::to_string(s.alg)).c_str(), s.n, r.p,
             r.max_abs_error, tol);
}

std::string same_cost_signature(const engine::ExperimentResult& f,
                                const engine::ExperimentResult& d) {
  if (f.p == d.p && f.makespan == d.makespan && f.totals == d.totals &&
      f.energy == d.energy) {
    return "";
  }
  return fmt("p=%d: folded cost signature differs from the per-fiber run "
             "(makespan %.17g vs %.17g, words %.17g vs %.17g)",
             f.p, d.makespan, f.makespan, d.totals.words_total,
             f.totals.words_total);
}

std::string actually_folded(const engine::ExperimentResult& r) {
  if (r.fold_slots > 0 && r.fold_slots < r.p) return "";
  return fmt("p=%d: fold_slots=%d, the run did not fold", r.p, r.fold_slots);
}

double matmul_words_lower_bound(double n, double p, double flops_max) {
  const double m_max = flops_max / 2.0;
  return 1.5 * (n * n * n * std::cbrt(1.0 / m_max) - n * n) / p;
}

std::string above_matmul_bound(const engine::ExperimentResult& r,
                               const engine::ExperimentSpec& s) {
  const double bound =
      matmul_words_lower_bound(s.n, r.p, r.totals.flops_max);
  const double avg = r.totals.words_total / r.p;
  if (avg >= bound * (1.0 - 1e-12) && r.totals.words_sent_max >= avg) {
    return "";
  }
  return fmt("n=%d p=%d: %.17g words per rank is below the lower bound %.17g",
             s.n, r.p, avg, bound);
}

// ---- §V ------------------------------------------------------------------

bool Question::minimize_time() const {
  return kind == "min_time" || kind == "min_time_given_energy" ||
         kind == "min_time_given_total_power" ||
         kind == "min_time_given_proc_power";
}

Question question_from_request(const json::Value& req) {
  Question q;
  q.kind = req.at("kind").as_string();
  auto opt = [&](const char* key) {
    const json::Value* v = req.find(key);
    return v == nullptr ? 0.0 : v->as_double();
  };
  q.t_max = opt("t_max");
  q.e_max = opt("e_max");
  q.power_max = opt("power_max");
  q.proc_power_max = opt("proc_power_max");
  return q;
}

namespace {

/// The constraint with a relative slack (0 = exact).
bool meets(const Question& q, double p, double T, double E, double slack) {
  const double k = 1.0 + slack;
  if (q.t_max > 0 && T > q.t_max * k) return false;
  if (q.e_max > 0 && E > q.e_max * k) return false;
  if (q.power_max > 0 && E / T > q.power_max * k) return false;
  if (q.proc_power_max > 0 && E / T / p > q.proc_power_max * k) return false;
  return true;
}

}  // namespace

std::string within_budget(const Question& q, const core::RunPoint& a,
                          const core::AlgModel& model, double n,
                          const core::MachineParams& mp,
                          const core::OptLimits& lim) {
  if (!a.feasible) return q.kind + ": answer is infeasible";
  if (a.p < 1.0 || a.p > lim.p_available * (1 + 1e-12)) {
    return fmt("%s: p=%.17g outside [1, %g]", q.kind.c_str(), a.p,
               lim.p_available);
  }
  if (a.M < model.min_memory(n, a.p) * (1 - 1e-12) ||
      (q.kind != "evaluate" && a.M > lim.M_cap * (1 + 1e-12))) {
    return fmt("%s: M=%.17g outside the model's memory range", q.kind.c_str(),
               a.M);
  }
  const double T = model.time(n, a.p, a.M, mp);
  const double E = model.energy(n, a.p, a.M, mp);
  if (!rel_close(a.T, T, 1e-12) || !rel_close(a.E, E, 1e-12)) {
    return fmt("%s: reported (T, E) = (%.17g, %.17g) but the model gives "
               "(%.17g, %.17g)",
               q.kind.c_str(), a.T, a.E, T, E);
  }
  if (!meets(q, a.p, a.T, a.E, 1e-9)) {
    return fmt("%s: answer T=%.17g E=%.17g breaks its budget", q.kind.c_str(),
               a.T, a.E);
  }
  return "";
}

core::RunPoint coarse_scan(const Question& q, const core::AlgModel& model,
                           double n, const core::MachineParams& mp,
                           const core::OptLimits& lim) {
  constexpr int kP = 24;
  constexpr int kM = 16;
  core::RunPoint best;
  double best_obj = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kP; ++i) {
    const double p =
        std::exp(std::log(lim.p_available) * i / static_cast<double>(kP - 1));
    const double lo = model.min_memory(n, p);
    const double hi =
        std::min(lim.M_cap, std::max(lo, model.max_useful_memory(n, p)));
    if (lo > lim.M_cap) continue;
    for (int j = 0; j < kM; ++j) {
      const double M =
          lo * std::pow(hi / lo, j / static_cast<double>(kM - 1));
      const double T = model.time(n, p, M, mp);
      const double E = model.energy(n, p, M, mp);
      if (!std::isfinite(T) || !std::isfinite(E) || !meets(q, p, T, E, 0.0)) {
        continue;
      }
      const double obj = q.minimize_time() ? T : E;
      if (obj < best_obj) {
        best_obj = obj;
        best = core::RunPoint{true, p, M, T, E};
      }
    }
  }
  return best;
}

double grid_step(const core::AlgModel& model, double n, double p,
                 const core::OptLimits& lim) {
  const double lo = model.min_memory(n, p);
  const double hi =
      std::min(lim.M_cap, std::max(lo, model.max_useful_memory(n, p)));
  return std::pow(hi / lo, 1.0 / 63.0) *
         std::pow(lim.p_available, 1.0 / 95.0);
}

std::string no_worse_than_scan(const Question& q, const core::RunPoint& answer,
                               const core::RunPoint& scan,
                               const core::AlgModel& model, double n,
                               const core::OptLimits& lim) {
  if (!scan.feasible) return "";  // the scan found nothing to beat
  if (!answer.feasible) {
    return q.kind + ": answer infeasible but the coarse scan found a point";
  }
  const double step = std::max(grid_step(model, n, answer.p, lim),
                               grid_step(model, n, scan.p, lim));
  const double a = q.minimize_time() ? answer.T : answer.E;
  const double s = q.minimize_time() ? scan.T : scan.E;
  if (a <= s * step) return "";
  return fmt("%s: objective %.17g is worse than the coarse scan's %.17g "
             "by more than one grid step %.6g (scan at p=%.6g M=%.6g)",
             q.kind.c_str(), a, s, step, scan.p, scan.M);
}

// ---- transports -------------------------------------------------------------

std::string outputs_equal(const transport::RunReport& ref,
                          const transport::RunReport& got) {
  if (ref.ranks.size() != got.ranks.size()) return "rank counts differ";
  for (std::size_t r = 0; r < ref.ranks.size(); ++r) {
    const auto& a = ref.ranks[r].output;
    const auto& b = got.ranks[r].output;
    if (a.size() != b.size() ||
        (!a.empty() && std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) != 0)) {
      return fmt("%s rank %zu: output differs bitwise from %s",
                 std::string(transport::to_string(got.backend)).c_str(), r,
                 std::string(transport::to_string(ref.backend)).c_str());
    }
  }
  return "";
}

std::string wire_matches_ledger(const transport::RunReport& rep) {
  for (std::size_t r = 0; r < rep.ranks.size(); ++r) {
    const auto& k = rep.ranks[r];
    if (k.wire.msgs_sent != k.model.msgs_sent ||
        k.wire.words_sent != k.model.words_sent ||
        k.wire.msgs_recv != k.model.msgs_recv ||
        k.wire.words_recv + k.self.words_recv != k.model.words_recv) {
      return fmt("%s rank %zu: wire (%g msgs, %g words) != ledger (%g, %g)",
                 std::string(transport::to_string(rep.backend)).c_str(), r,
                 k.wire.msgs_sent, k.wire.words_sent, k.model.msgs_sent,
                 k.model.words_sent);
    }
  }
  return "";
}

std::string model_counters_equal(const transport::RunReport& sim,
                                 const transport::RunReport& got) {
  if (sim.ranks.size() != got.ranks.size()) return "rank counts differ";
  for (std::size_t r = 0; r < sim.ranks.size(); ++r) {
    if (!(sim.ranks[r].model == got.ranks[r].model)) {
      return fmt("%s rank %zu: model counters differ from the simulated run",
                 std::string(transport::to_string(got.backend)).c_str(), r);
    }
  }
  return "";
}

}  // namespace perfbench::checks
