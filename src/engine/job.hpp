// The engine's unit of work: a serializable experiment specification and a
// typed result.
//
// An ExperimentSpec names everything that determines a simulated run —
// algorithm, machine parameters, problem/grid dimensions, options, seed —
// so that (a) the runner can execute it on any thread, and (b) its
// canonical JSON encoding can be hashed for content-addressed result
// caching. ExperimentResult carries the measured counters (F/W/S aggregates),
// the simulated makespan, the itemized Eq. (2) energy ledger, and the
// verification outcome; it round-trips through JSON bit-exactly (doubles are
// serialized with round-trip precision), which is what makes cached and
// freshly computed results interchangeable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "algs/registry.hpp"
#include "core/costs.hpp"
#include "core/params.hpp"
#include "sim/machine.hpp"
#include "support/json.hpp"

namespace alge::engine {

/// Everything the runner knows how to execute: the seven registered
/// algorithms plus the collective microbenchmarks (ablation_collectives).
using Alg = algs::Alg;
using algs::alg_from_string;
using algs::to_string;

/// MachineParams <-> JSON in the spec's canonical field order. Shared with
/// src/serve, whose requests carry explicit machine parameters in exactly
/// the encoding the cache keys already use.
json::Value machine_params_to_json(const core::MachineParams& mp);
core::MachineParams machine_params_from_json(const json::Value& v);

/// The problem (algorithm, dimensions, options, seed — algs::Problem; an
/// algorithm reads only the fields it needs) plus everything else that
/// determines a run.
struct ExperimentSpec : algs::Problem {
  core::MachineParams params;

  int payload_words = 0;  ///< collective payload per rank/peer
  bool verify = false;    ///< check against the sequential reference

  // Chaos axes (src/chaos): both default-inert. Serialized only when set,
  // so existing cache keys (and cached results) stay valid.
  std::uint64_t chaos_seed = 0;  ///< nonzero: permute the fiber wake order
  std::string fault_plan;        ///< bundled chaos::FaultPlan name ("" = off)

  // Data mode (sim/payload.hpp): kGhost runs the identical cost schedule
  // without data movement or local kernels. Default-inert and serialized
  // only when set, like the chaos axes, so kFull cache keys are unchanged.
  sim::DataMode data_mode = sim::DataMode::kFull;

  // Execution mode (sim/fold.hpp): kFolded collapses fold-congruent ranks
  // onto class representatives and replays per-class cost deltas (requires
  // kGhost; the machine transparently falls back to fibers when the
  // algorithm has no fold map or chaos axes are active). Default-inert and
  // serialized only when set, so existing cache keys are unchanged.
  sim::ExecMode exec_mode = sim::ExecMode::kFibers;

  // Transport backend (src/transport): "" or "sim" runs on the virtual-
  // clock simulator; "shm" / "tcp" execute the algorithm for real through
  // the registered backend executor (engine/backend.hpp). Default-inert and
  // serialized only when set, like the axes above, so existing cache keys
  // are unchanged. Real backends require the fault/ghost/fold axes to stay
  // at their defaults; verify checks their outputs like the simulator's.
  std::string transport;

  json::Value to_json() const;
  static ExperimentSpec from_json(const json::Value& v);

  /// Deterministic compact encoding; equal specs produce equal strings.
  /// This string (not the struct) is what the result cache hashes.
  std::string canonical_json() const { return to_json().dump(); }

  bool operator==(const ExperimentSpec& o) const {
    return canonical_json() == o.canonical_json();
  }
};

struct ExperimentResult {
  int p = 0;
  double makespan = 0.0;            ///< simulated seconds
  sim::SimTotals totals;            ///< measured F/W/S aggregates
  core::EnergyBreakdown energy;     ///< itemized Eq. (2) terms
  double max_abs_error = 0.0;       ///< vs sequential reference (if verified)
  bool verified = false;
  /// Fold execution slots: the fiber count when the machine folded (0 when
  /// it ran one fiber per rank). Serialized only when nonzero so cached
  /// per-fiber results keep their encoding.
  int fold_slots = 0;

  double words_per_proc() const { return totals.words_sent_max; }
  double msgs_per_proc() const { return totals.msgs_sent_max; }
  double energy_total() const { return energy.total(); }
  double power() const { return energy.total() / makespan; }

  json::Value to_json() const;
  static ExperimentResult from_json(const json::Value& v);

  bool operator==(const ExperimentResult& o) const = default;
};

}  // namespace alge::engine
