// verified-scaling: full-data, one-fiber-per-rank strong-scaling sweeps
// through engine::SweepRunner, every run verified against the harness's
// sequential reference (the Fig. 3 / scaling-table path).
//
// Stages: (1) 2.5D matmul across c and CAPS across k, (2) replicated
// n-body across c at fixed n, (3) the SUMMA, LU, FFT and TSQR baselines.
// Shapes are fixed so every round does the same work; the seed picks the
// matrix and particle data, and every round gets fresh data seeds so all
// specs are distinct and the in-memory result cache never hits.
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "engine/runner.hpp"

namespace perfbench {

namespace {

using namespace alge;
using engine::Alg;
using engine::ExperimentResult;
using engine::ExperimentSpec;

/// The timed sweeps run inline on one thread: with a 2-thread pool the
/// stage times spread 15-27% between runs on the shared 4-core reference
/// host, inline 6-12%. The traced run measures the pool separately.
constexpr int kThreads = 1;
constexpr int kPoolThreads = 2;

ExperimentSpec spec(Alg alg, const core::MachineParams& mp) {
  ExperimentSpec s;
  s.alg = alg;
  s.params = mp;
  s.verify = true;
  return s;
}

/// The specs of one stage; `small` gives the warm-up shapes.
std::vector<ExperimentSpec> stage_specs(int stage, bool small,
                                        const core::MachineParams& mp) {
  std::vector<ExperimentSpec> out;
  if (stage == 0) {
    for (const int c : {1, 2, 4}) {  // 2.5D: p = q²c = 16, 32, 64
      ExperimentSpec s = spec(Alg::kMm25d, mp);
      s.n = small ? 32 : 384;
      s.q = 4;
      s.c = c;
      out.push_back(s);
    }
    for (const int k : {1, 2}) {  // CAPS: p = 7, 49
      ExperimentSpec s = spec(Alg::kCaps, mp);
      s.n = small ? 28 : 448;  // 2^k·7^ceil(k/2) | n for k <= 2
      s.k = k;
      out.push_back(s);
    }
  } else if (stage == 1) {
    for (const int c : {1, 2, 4}) {  // n-body: p = 16 in c teams
      ExperimentSpec s = spec(Alg::kNBody, mp);
      s.n = small ? 64 : 4096;
      s.p = 16;
      s.c = c;
      out.push_back(s);
    }
  } else {
    ExperimentSpec summa = spec(Alg::kSumma, mp);
    summa.n = small ? 32 : 384;
    summa.q = 4;
    out.push_back(summa);
    ExperimentSpec lu = spec(Alg::kLu, mp);
    lu.n = small ? 32 : 384;
    lu.nb = small ? 4 : 16;
    lu.q = 4;
    lu.c = 1;
    out.push_back(lu);
    // The harness verifies FFT with an O(N²) DFT, which caps N.
    ExperimentSpec fft = spec(Alg::kFft, mp);
    fft.r_dim = fft.c_dim = small ? 16 : 64;
    fft.p = 16;
    out.push_back(fft);
    ExperimentSpec tsqr = spec(Alg::kTsqr, mp);
    tsqr.n = small ? 16 : 1024;  // rows per rank
    tsqr.nb = 16;
    tsqr.p = 16;
    out.push_back(tsqr);
  }
  return out;
}

const char* const kStageSpan[kStages] = {"engine.sweep.matmul",
                                         "engine.sweep.nbody",
                                         "engine.sweep.baselines"};

class VerifiedScaling final : public Workload {
 public:
  explicit VerifiedScaling(std::uint64_t seed)
      : seed_(seed), mp_(scaling_machine()) {}

  void setup() override {
    runner_ = std::make_unique<engine::SweepRunner>(
        engine::SweepOptions{kThreads, "", {}});
    std::vector<ExperimentSpec> warm;
    for (int st = 0; st < kStages; ++st) {
      for (ExperimentSpec s : stage_specs(st, /*small=*/true, mp_)) {
        s.seed = mix_seed(seed_, warm.size());
        warm.push_back(s);
      }
    }
    runner_->run(warm);
  }

  std::vector<ExperimentSpec> round_specs(int round, int stage) const {
    std::vector<ExperimentSpec> specs = stage_specs(stage, false, mp_);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      specs[i].seed = mix_seed(seed_, 1000 + 100 * round + 10 * stage + i);
    }
    return specs;
  }

  /// Runs one sweep; returns false (operations counted as failed) if a job
  /// threw.
  static bool sweep_with(engine::SweepRunner& runner,
                         const std::vector<ExperimentSpec>& specs,
                         std::vector<ExperimentResult>* results,
                         Outcome& out) {
    out.attempted += static_cast<long>(specs.size());
    try {
      *results = runner.run(specs);
      return true;
    } catch (const std::exception& e) {
      for (std::size_t i = 0; i < specs.size(); ++i) out.op_failed(e.what());
      return false;
    }
  }

  bool sweep(const std::vector<ExperimentSpec>& specs, Tracer& tr,
             const std::string& span, std::vector<ExperimentResult>* results,
             Outcome& out) {
    return tr.span(span,
                   [&] { return sweep_with(*runner_, specs, results, out); });
  }

  void check(const std::vector<ExperimentSpec>& specs,
             const std::vector<ExperimentResult>& results, Outcome& out) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      out.expect(checks::verified_within(results[i], specs[i]));
      out.expect(checks::flops_match(results[i], specs[i]));
      out.expect(checks::energy_matches(results[i], mp_));
      if (specs[i].alg == Alg::kMm25d || specs[i].alg == Alg::kSumma) {
        out.expect(checks::above_matmul_bound(results[i], specs[i]));
      }
    }
  }

  void round(int round, Tracer& tr, RoundTimes& times,
             Outcome& out) override {
    for (int st = 0; st < kStages; ++st) {
      const std::vector<ExperimentSpec> specs = round_specs(round, st);
      std::vector<ExperimentResult> results;
      const auto t0 = Clock::now();
      const bool ok = sweep(specs, tr, kStageSpan[st], &results, out);
      times.stage[st].push_back(seconds_since(t0));
      if (ok) check(specs, results, out);
    }
  }

  void layers(Tracer& tr, Metrics& m, Outcome& out) override {
    // The traced round ran the verified sweeps; run the same shapes
    // unverified and in ghost mode so the difference isolates the local
    // kernels and the verification.
    const int r = 1 << 20;
    double flops = 0, msgs = 0, words = 0;
    for (int st = 0; st < kStages; ++st) {
      std::vector<ExperimentSpec> specs = round_specs(r, st);
      std::vector<ExperimentResult> res;
      if (sweep(specs, tr, "algs.verified_sweep", &res, out)) {
        check(specs, res, out);
        for (const ExperimentResult& x : res) {
          msgs += x.totals.msgs_total;
          words += x.totals.words_total;
        }
      }
      for (const ExperimentSpec& s : specs) flops += checks::exact_flops(s);
      for (ExperimentSpec& s : specs) s.verify = false;
      sweep(specs, tr, "algs.unverified_sweep", &res, out);
      for (ExperimentSpec& s : specs) s.data_mode = sim::DataMode::kGhost;
      if (sweep(specs, tr, "sim.ghost_sweep", &res, out)) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
          out.expect(checks::flops_match(res[i], specs[i]));
          out.expect(checks::energy_matches(res[i], mp_));
        }
      }
    }
    const double verified = tr.total("algs.verified_sweep");
    const double unverified = tr.total("algs.unverified_sweep");
    const double ghost = tr.total("sim.ghost_sweep");
    m["algs.kernel_s"] = {unverified - ghost, "s"};
    m["algs.verify_s"] = {verified - unverified, "s"};
    m["algs.kernel_gflops"] = {flops / (unverified - ghost) / 1e9, "GFLOP/s"};
    m["algs.flops"] = {flops, "count"};
    m["sim.schedule_s"] = {ghost, "s"};
    m["sim.verified.msgs"] = {msgs, "count"};
    m["sim.verified.words"] = {words, "count"};
    // The engine's pool and cache: the same specs as one sweep through a
    // fresh runner with a thread pool.
    std::vector<ExperimentSpec> all;
    for (int st = 0; st < kStages; ++st) {
      for (const ExperimentSpec& s : round_specs(r + 1, st)) all.push_back(s);
    }
    engine::SweepRunner pool(engine::SweepOptions{kPoolThreads, "", {}});
    std::vector<ExperimentResult> res;
    if (tr.span("engine.pool_sweep", [&] {
          return sweep_with(pool, all, &res, out);
        })) {
      check(all, res, out);
    }
    const engine::SweepProfile& p = pool.stats().profile;
    m["engine.queue_wait_s"] = {p.queue_wait_seconds, "s"};
    m["engine.cache_lookup_s"] = {p.cache_lookup_seconds, "s"};
    m["engine.pool_occupancy"] = {p.pool_occupancy, "ratio"};
  }

 private:
  std::uint64_t seed_;
  core::MachineParams mp_;
  std::unique_ptr<engine::SweepRunner> runner_;
};

}  // namespace

std::unique_ptr<Workload> make_verified_scaling(std::uint64_t seed) {
  return std::make_unique<VerifiedScaling>(seed);
}

}  // namespace perfbench
