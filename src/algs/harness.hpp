// One-call experiment harness: run a registered algorithm
// (algs/registry.hpp) on the virtual-clock simulator, optionally verify the
// result against the sequential reference, and report the measured
// counters and Eq. (2) energy. The run_* entry points are thin wrappers
// over run(); the benches (bench/) and the examples (examples/) call them,
// so every experiment exercises the same per-rank programs the transports
// and the tests run. Inputs are generated once per run and shared by every
// rank; ghost runs generate none and keep no per-rank outputs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "algs/fft/fft.hpp"
#include "algs/matmul/distributed.hpp"
#include "algs/registry.hpp"
#include "algs/strassen/caps.hpp"
#include "core/params.hpp"
#include "sim/machine.hpp"

namespace alge::algs::harness {

/// Per-thread observation hooks for harness runs. The run_* entry points
/// construct their MachineConfig from the calling thread's observer
/// (run_observer()), so callers — e.g. engine::execute_traced — can turn on
/// tracing or the energy ledger and inspect the finished Machine without any
/// change to the run_* signatures (and therefore without perturbing the
/// engine's content-addressed cache keys, which hash only the spec).
///
/// Thread-local on purpose: each engine pool worker observes only its own
/// Machines, preserving the one-Machine-per-thread confinement documented in
/// sim/machine.hpp.
struct RunObserver {
  bool enable_trace = false;   ///< sets MachineConfig::enable_trace
  bool enable_ledger = false;  ///< sets MachineConfig::enable_ledger
  /// Called on the MachineConfig just before the Machine is constructed —
  /// the hook chaos uses to install fault injectors and wake policies
  /// (MachineConfig::faults / wake_policy) without new run_* parameters.
  std::function<void(sim::MachineConfig&)> configure;
  /// Called with the finished Machine (counters final, run complete) before
  /// the harness returns, e.g. to copy the trace or build an energy ledger.
  std::function<void(const sim::Machine&)> after_run;
};

/// The calling thread's observer; default-constructed (inert) until set.
RunObserver& run_observer();

/// MachineConfig seeded from the calling thread's observer (trace/ledger
/// flags applied, then the configure hook); with the default (inert)
/// observer this is exactly the config the harness always built. Exported
/// so engine::run_collective shares the identical config path.
sim::MachineConfig observed_config(const core::MachineParams& mp);

/// RAII: install `obs` on the current thread, restore the previous observer
/// on destruction.
class ScopedRunObserver {
 public:
  explicit ScopedRunObserver(RunObserver obs);
  ~ScopedRunObserver();
  ScopedRunObserver(const ScopedRunObserver&) = delete;
  ScopedRunObserver& operator=(const ScopedRunObserver&) = delete;

 private:
  RunObserver prev_;
};

struct RunResult {
  int p = 0;               ///< machine size
  double makespan = 0.0;   ///< simulated seconds
  sim::SimTotals totals;   ///< measured F/W/S aggregates
  sim::SimEnergy energy;   ///< Eq. (2) on the measured run
  double max_abs_error = 0.0;  ///< vs the sequential reference (if verified)
  bool verified = false;
  /// Fold execution slots: the fiber count (or 0 fibers + 1 rotor sweep =
  /// 1) when the machine folded, 0 when it ran one fiber per rank. Lets
  /// callers see whether a run actually took the folded fast path.
  int fold_slots = 0;

  /// Per-processor critical-path words/messages (what the paper's W and S
  /// bound).
  double words_per_proc() const { return totals.words_sent_max; }
  double msgs_per_proc() const { return totals.msgs_sent_max; }
};

/// Run `pr` on a Machine built from the calling thread's observer, folded
/// when the observer asks for it and the algorithm has a fold map.
/// verify=true checks the outputs against the sequential reference; ghost
/// machines have no outputs and reject it.
RunResult run(const Problem& pr, const core::MachineParams& mp,
              bool verify = false);

/// 2.5D (c=1: 2D Cannon; c=q: 3D) matrix multiplication, p = q²c ranks.
RunResult run_mm25d(int n, int q, int c, const core::MachineParams& mp,
                    bool verify = false, std::uint64_t seed = 1,
                    const Mm25dOptions& opts = {});

/// SUMMA 2D baseline, p = q² ranks.
RunResult run_summa(int n, int q, const core::MachineParams& mp,
                    bool verify = false, std::uint64_t seed = 1);

/// CAPS Strassen, p = 7^k ranks.
RunResult run_caps(int n, int k, const core::MachineParams& mp,
                   const CapsOptions& opts = {}, bool verify = false,
                   std::uint64_t seed = 1);

/// Replicating n-body, p ranks in c teams-of-replicas.
RunResult run_nbody(int n, int p, int c, const core::MachineParams& mp,
                    bool verify = false, std::uint64_t seed = 1);

/// Block-cyclic LU: c = 1 runs lu_2d on q², otherwise lu_25d on q²c ranks.
RunResult run_lu(int n, int nb, int q, int c, const core::MachineParams& mp,
                 bool verify = false, std::uint64_t seed = 1);

/// Four-step FFT of n = R·C complex points on p ranks.
RunResult run_fft(int r_dim, int c_dim, int p, AllToAllKind kind,
                  const core::MachineParams& mp, bool verify = false,
                  std::uint64_t seed = 1);

/// TSQR tree reduction of a (rows_local·p)×b tall matrix, p ranks.
/// Verification checks the factorization-independent Gram identity
/// AᵀA = RᵀR on rank 0's global R.
RunResult run_tsqr(int rows_local, int b, int p,
                   const core::MachineParams& mp, bool verify = false,
                   std::uint64_t seed = 1);

}  // namespace alge::algs::harness
