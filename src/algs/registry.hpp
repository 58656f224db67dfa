// The algorithm registry: one entry per distributed algorithm, and the only
// place that knows how to run one.
//
// An entry holds everything a caller needs to drive its algorithm: the
// name, spec validation and world size p, input generation, the per-rank
// program (a full-data branch and a ghost branch), verification against
// the sequential reference, the fold-map builder, and the small shapes the
// conformance suite and the chaos differentials run. The simulator harness
// (algs/harness.hpp), the engine, the real transports (transport/run.hpp)
// and the chaos sweeps all go through prepare(), so every backend runs the
// same per-rank program.
//
// Inputs are generated once per process, from Rng(seed), and shared
// read-only by every rank: fibers on the simulator, rank threads over TCP,
// forked shm children (which inherit them), or the one rank of a shell.
// Ghost programs generate no inputs and publish no outputs, so a ghost run
// allocates no per-rank storage at any p.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/fold.hpp"

namespace alge::sim {
class Comm;
}

namespace alge::algs {

/// Every workload the engine runs: the seven distributed algorithms, each
/// with a registry entry, then the collective microbenchmarks of
/// ablation_collectives, which the engine runs directly and which have no
/// entry.
enum class Alg {
  kMm25d,          ///< 2.5D matmul (c=1: Cannon 2D; c=q: 3D), p = q²c
  kSumma,          ///< SUMMA 2D baseline, p = q²
  kCaps,           ///< CAPS Strassen, p = 7^k
  kNBody,          ///< replicating n-body, p ranks in c teams
  kLu,             ///< block-cyclic LU (2D or 2.5D), p = q²c
  kFft,            ///< four-step FFT, n = r_dim·c_dim
  kTsqr,           ///< TSQR tree QR: n rows per rank × nb columns, p ranks
  kCollBcast,      ///< binomial broadcast of payload_words
  kCollReduce,     ///< binomial reduce of payload_words
  kCollAllgather,  ///< ring allgather of payload_words per rank
  kCollA2aDirect,  ///< direct all-to-all, payload_words per peer
  kCollA2aBruck,   ///< Bruck all-to-all, payload_words per peer
};

std::string_view to_string(Alg alg);
/// Any of the twelve names; throws invalid_argument_error otherwise.
Alg alg_from_string(std::string_view name);

/// One problem: the algorithm and its dimensions. An algorithm reads only
/// the fields it needs; the rest stay at their defaults.
struct Problem {
  Alg alg = Alg::kMm25d;
  int n = 0;      ///< problem size (matrix dim, particles; TSQR rows/rank)
  int q = 0;      ///< grid edge (mm25d/summa/lu)
  int c = 0;      ///< replication factor / team count
  int p = 0;      ///< rank count (nbody/fft/tsqr/collectives)
  int k = 0;      ///< CAPS levels (p = 7^k)
  int nb = 0;     ///< LU block size; TSQR column count b
  int r_dim = 0;  ///< FFT row dimension
  int c_dim = 0;  ///< FFT column dimension
  bool ring_replication = false;  ///< mm25d: ring instead of tree bcast
  std::string caps_schedule{};    ///< CAPS {B,D}* schedule ("" = all-BFS)
  int caps_cutoff = 32;           ///< CAPS local Strassen cutoff
  bool fft_bruck = false;         ///< FFT transpose: Bruck vs direct
  std::uint64_t seed = 1;         ///< input-generation seed
};

/// A problem's inputs, generated once per process and never written again.
struct Inputs {
  std::vector<double> a;  ///< A (row-major; Z-order for CAPS), particles, x
  std::vector<double> b;  ///< B (matmul and CAPS only)
};

/// One rank's work on any backend: runs against the Comm and publishes its
/// result (its C block, force block, factored blocks, FFT rows or R)
/// through `output`. Ghost ranks leave `output` untouched.
using RankProgram = std::function<void(sim::Comm&, std::vector<double>&)>;

/// Per-rank outputs in world-rank order; ranks without a result are empty.
using Outputs = std::vector<std::vector<double>>;

struct AlgEntry {
  Alg alg;
  /// Validates the problem's dimensions (invalid_argument_error) and
  /// returns the world size its run needs.
  int (*world_size)(const Problem&);
  Inputs (*make_inputs)(const Problem&);
  /// The per-rank program over `in`. A rank on a ghost-mode machine runs
  /// storage-free payloads and never reads `in`, which may then be null.
  RankProgram (*program)(const Problem&, std::shared_ptr<const Inputs> in);
  /// Max abs error of the gathered outputs against the sequential
  /// reference (TSQR: of the Gram matrices AᵀA and RᵀR).
  double (*verify)(const Problem&, const Inputs&, const Outputs&);
  /// Fold map for ExecMode::kFolded; nullptr when this point has none.
  std::shared_ptr<const sim::FoldMap> (*fold_map)(const Problem&);
  /// A small, fast problem for the cross-backend conformance matrix
  /// (p <= 8 everywhere).
  Problem (*conformance)();
  /// The problem the chaos differentials run for machine size class `p`.
  /// A size class is not a promise: CAPS always runs on 7 ranks, for
  /// example; world_size() of the result is the rank count.
  Problem (*chaos_shape)(int p);

  std::string_view name() const { return to_string(alg); }
};

/// The seven entries, in the order every sweep and matrix uses.
std::span<const AlgEntry> entries();
/// The entries' algorithms, in the same order.
const std::vector<Alg>& registered();
/// nullptr for the collectives, which have no entry.
const AlgEntry* find(Alg alg);
/// Throws invalid_argument_error for the collectives.
const AlgEntry& entry(Alg alg);
/// Throws invalid_argument_error listing the seven names.
const AlgEntry& entry(std::string_view name);

/// A problem made ready to run: the world size, the shared inputs and the
/// per-rank program over them.
struct Program {
  Problem problem;
  const AlgEntry* alg = nullptr;
  int p = 0;
  std::shared_ptr<const Inputs> inputs;  ///< null when prepared for ghost
  RankProgram rank;

  /// Max abs error of `outputs` (one per world rank) against the
  /// sequential reference. Needs the inputs: not for ghost programs.
  double verify(const Outputs& outputs) const;
};

/// Validate `pr`, generate its inputs once (skipped when `ghost`: ghost
/// ranks move sizes, not data) and build its per-rank program.
Program prepare(const Problem& pr, bool ghost = false);

}  // namespace alge::algs
