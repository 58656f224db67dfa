#include "algs/harness.hpp"

#include <vector>

#include "sim/comm.hpp"
#include "support/common.hpp"

namespace alge::algs::harness {

namespace {

thread_local RunObserver tls_observer;

RunResult finish(sim::Machine& m, bool verified, double err) {
  RunResult res;
  res.p = m.p();
  res.makespan = m.makespan();
  res.totals = m.totals();
  res.energy = m.energy();
  res.verified = verified;
  res.max_abs_error = err;
  res.fold_slots = m.fold_active() ? m.num_slots() : 0;
  if (tls_observer.after_run) tls_observer.after_run(m);
  return res;
}

}  // namespace

RunObserver& run_observer() { return tls_observer; }

ScopedRunObserver::ScopedRunObserver(RunObserver obs)
    : prev_(std::move(tls_observer)) {
  tls_observer = std::move(obs);
}

ScopedRunObserver::~ScopedRunObserver() { tls_observer = std::move(prev_); }

sim::MachineConfig observed_config(const core::MachineParams& mp) {
  sim::MachineConfig cfg;
  cfg.params = mp;
  cfg.enable_trace = tls_observer.enable_trace;
  cfg.enable_ledger = tls_observer.enable_ledger;
  if (tls_observer.configure) tls_observer.configure(cfg);
  return cfg;
}

RunResult run(const Problem& pr, const core::MachineParams& mp,
              bool verify) {
  sim::MachineConfig cfg = observed_config(mp);
  // Ghost runs replay the exact cost schedule without data, so there is no
  // output to verify.
  const bool ghost = cfg.data_mode == sim::DataMode::kGhost;
  ALGE_REQUIRE(!(ghost && verify),
               "ghost data mode measures cost, not output; run with "
               "verify=false");
  const AlgEntry& alg = entry(pr.alg);
  cfg.p = alg.world_size(pr);
  // A fold map only when the observer asked for folded execution and
  // nothing supplied one. A null map (no exact fold at this point) keeps
  // the machine on the per-fiber path, so attaching is always safe.
  if (cfg.exec_mode == sim::ExecMode::kFolded && cfg.fold == nullptr) {
    cfg.fold = alg.fold_map(pr);
  }
  sim::Machine m(cfg);
  // The machine allocates before the inputs and the program do: with the
  // opposite heap order the folded ghost rows ran about 5 % slower.
  const Program prog = prepare(pr, ghost);
  Outputs outputs(ghost ? 0 : static_cast<std::size_t>(prog.p));
  m.run([&](sim::Comm& comm) {
    if (ghost) {
      std::vector<double> none;
      prog.rank(comm, none);
    } else {
      prog.rank(comm, outputs[static_cast<std::size_t>(comm.rank())]);
    }
  });
  return finish(m, verify, verify ? prog.verify(outputs) : 0.0);
}

RunResult run_mm25d(int n, int q, int c, const core::MachineParams& mp,
                    bool verify, std::uint64_t seed,
                    const Mm25dOptions& opts) {
  return run({.alg = Alg::kMm25d,
              .n = n,
              .q = q,
              .c = c,
              .ring_replication = opts.ring_replication,
              .seed = seed},
             mp, verify);
}

RunResult run_summa(int n, int q, const core::MachineParams& mp, bool verify,
                    std::uint64_t seed) {
  return run({.alg = Alg::kSumma, .n = n, .q = q, .seed = seed}, mp, verify);
}

RunResult run_caps(int n, int k, const core::MachineParams& mp,
                   const CapsOptions& opts, bool verify, std::uint64_t seed) {
  return run({.alg = Alg::kCaps,
              .n = n,
              .k = k,
              .caps_schedule = opts.schedule,
              .caps_cutoff = opts.local_cutoff,
              .seed = seed},
             mp, verify);
}

RunResult run_nbody(int n, int p, int c, const core::MachineParams& mp,
                    bool verify, std::uint64_t seed) {
  return run({.alg = Alg::kNBody, .n = n, .c = c, .p = p, .seed = seed}, mp,
             verify);
}

RunResult run_lu(int n, int nb, int q, int c, const core::MachineParams& mp,
                 bool verify, std::uint64_t seed) {
  return run(
      {.alg = Alg::kLu, .n = n, .q = q, .c = c, .nb = nb, .seed = seed}, mp,
      verify);
}

RunResult run_fft(int r_dim, int c_dim, int p, AllToAllKind kind,
                  const core::MachineParams& mp, bool verify,
                  std::uint64_t seed) {
  return run({.alg = Alg::kFft,
              .p = p,
              .r_dim = r_dim,
              .c_dim = c_dim,
              .fft_bruck = kind == AllToAllKind::kBruck,
              .seed = seed},
             mp, verify);
}

RunResult run_tsqr(int rows_local, int b, int p,
                   const core::MachineParams& mp, bool verify,
                   std::uint64_t seed) {
  return run(
      {.alg = Alg::kTsqr, .n = rows_local, .p = p, .nb = b, .seed = seed}, mp,
      verify);
}

}  // namespace alge::algs::harness
