#include "algs/registry.hpp"

#include <algorithm>
#include <cmath>

#include "algs/fft/fft.hpp"
#include "algs/foldmaps.hpp"
#include "algs/lu/distributed.hpp"
#include "algs/lu/local.hpp"
#include "algs/matmul/distributed.hpp"
#include "algs/matmul/local.hpp"
#include "algs/nbody/nbody.hpp"
#include "algs/qr/tsqr.hpp"
#include "algs/strassen/caps.hpp"
#include "algs/strassen/layout.hpp"
#include "sim/comm.hpp"
#include "support/common.hpp"
#include "support/rng.hpp"
#include "topo/grid.hpp"

namespace alge::algs {

namespace {

using sim::ConstPayload;
using sim::Payload;

constexpr std::string_view kNames[] = {
    "mm25d",       "summa",          "caps",           "nbody",
    "lu",          "fft",            "tsqr",           "coll_bcast",
    "coll_reduce", "coll_allgather", "coll_a2a_direct", "coll_a2a_bruck",
};

std::size_t sq(int v) {
  return static_cast<std::size_t>(v) * static_cast<std::size_t>(v);
}

/// The inputs a full-data rank reads; null only for ghost programs.
const Inputs& data(const std::shared_ptr<const Inputs>& in) {
  ALGE_CHECK(in != nullptr, "full-data rank program prepared without inputs");
  return *in;
}

/// Row-major (bi, bj) block of an n×n matrix on a q×q grid.
std::vector<double> block_of(const std::vector<double>& m, int n, int q,
                             int bi, int bj) {
  const int nb = n / q;
  std::vector<double> out(sq(nb));
  for (int r = 0; r < nb; ++r) {
    for (int c = 0; c < nb; ++c) {
      out[static_cast<std::size_t>(r) * nb + c] =
          m[static_cast<std::size_t>(bi * nb + r) * n + (bj * nb + c)];
    }
  }
  return out;
}

/// Grid position (row, col)'s block-cyclic share of A, laid out per
/// BlockCyclic.
std::vector<double> lu_local_blocks(const std::vector<double>& a,
                                    const BlockCyclic& bc, int row, int col) {
  std::vector<double> dst(bc.local_words(), 0.0);
  for (int I = row; I < bc.nt(); I += bc.q) {
    for (int J = col; J < bc.nt(); J += bc.q) {
      for (int r = 0; r < bc.nb; ++r) {
        std::copy_n(a.data() +
                        static_cast<std::size_t>(I * bc.nb + r) * bc.n +
                        J * bc.nb,
                    bc.nb,
                    dst.data() + bc.local_offset(I, J) +
                        static_cast<std::size_t>(r) * bc.nb);
      }
    }
  }
  return dst;
}

/// Rank h's cl columns of the r_dim×c_dim complex signal x, each column
/// contiguous: the four-step FFT's input layout.
std::vector<double> fft_columns(const std::vector<double>& x, int r_dim,
                                int c_dim, int cl, int h) {
  std::vector<double> cols(2 * static_cast<std::size_t>(r_dim) * cl);
  for (int jl = 0; jl < cl; ++jl) {
    const int j2 = h * cl + jl;
    for (int j1 = 0; j1 < r_dim; ++j1) {
      const std::size_t dst = 2 * (static_cast<std::size_t>(jl) * r_dim + j1);
      const std::size_t src = 2 * (static_cast<std::size_t>(j1) * c_dim + j2);
      cols[dst] = x[src];
      cols[dst + 1] = x[src + 1];
    }
  }
  return cols;
}

/// Random n×n A and B, row-major.
Inputs matmul_inputs(const Problem& pr) {
  Rng rng(pr.seed);
  Inputs in;
  in.a = random_matrix(pr.n, pr.n, rng);
  in.b = random_matrix(pr.n, pr.n, rng);
  return in;
}

/// Max error of the q×q layer-0 C blocks (rank i·q + j) against A·B.
double verify_matmul(const Problem& pr, const Inputs& in,
                     const Outputs& out) {
  const int n = pr.n;
  std::vector<double> ref(sq(n), 0.0);
  matmul_add(in.a.data(), in.b.data(), ref.data(), n, n, n);
  double err = 0.0;
  for (int i = 0; i < pr.q; ++i) {
    for (int j = 0; j < pr.q; ++j) {
      err = std::max(err,
                     max_abs_diff(out[static_cast<std::size_t>(i) * pr.q + j],
                                  block_of(ref, n, pr.q, i, j)));
    }
  }
  return err;
}

// --- 2.5D matmul ---

int mm25d_world(const Problem& pr) { return topo::Grid3D(pr.q, pr.c).p(); }

RankProgram mm25d_program(const Problem& pr,
                          std::shared_ptr<const Inputs> in) {
  const topo::Grid3D grid(pr.q, pr.c);
  Mm25dOptions opts;
  opts.ring_replication = pr.ring_replication;
  return [grid, opts, n = pr.n, in](sim::Comm& comm,
                                    std::vector<double>& out) {
    if (grid.layer_of(comm.rank()) != 0) {
      mm_25d(comm, grid, n, {}, {}, {}, opts);
      return;
    }
    if (comm.ghost()) {
      const std::size_t nb2 = sq(n / grid.q());
      mm_25d(comm, grid, n, ConstPayload::ghost(nb2), ConstPayload::ghost(nb2),
             Payload::ghost(nb2), opts);
      return;
    }
    const int i = grid.row_of(comm.rank());
    const int j = grid.col_of(comm.rank());
    const auto a = block_of(data(in).a, n, grid.q(), i, j);
    const auto b = block_of(data(in).b, n, grid.q(), i, j);
    out.assign(a.size(), 0.0);
    mm_25d(comm, grid, n, a, b, out, opts);
  };
}

// --- SUMMA ---

int summa_world(const Problem& pr) { return topo::Grid2D(pr.q).p(); }

RankProgram summa_program(const Problem& pr,
                          std::shared_ptr<const Inputs> in) {
  const topo::Grid2D grid(pr.q);
  return [grid, n = pr.n, in](sim::Comm& comm, std::vector<double>& out) {
    if (comm.ghost()) {
      const std::size_t nb2 = sq(n / grid.q());
      summa_2d(comm, grid, n, ConstPayload::ghost(nb2),
               ConstPayload::ghost(nb2), Payload::ghost(nb2));
      return;
    }
    const int i = grid.row_of(comm.rank());
    const int j = grid.col_of(comm.rank());
    const auto a = block_of(data(in).a, n, grid.q(), i, j);
    const auto b = block_of(data(in).b, n, grid.q(), i, j);
    out.assign(a.size(), 0.0);
    summa_2d(comm, grid, n, a, b, out);
  };
}

// --- CAPS Strassen ---

int caps_levels(const Problem& pr) {
  return pr.caps_schedule.empty() ? pr.k
                                  : static_cast<int>(pr.caps_schedule.size());
}

int caps_world(const Problem& pr) { return caps_ranks(pr.k); }

/// A and B in the Z-order layout the shares are cut from.
Inputs caps_inputs(const Problem& pr) {
  Inputs in = matmul_inputs(pr);
  in.a = to_z_order(in.a, pr.n, caps_levels(pr));
  in.b = to_z_order(in.b, pr.n, caps_levels(pr));
  return in;
}

RankProgram caps_program(const Problem& pr, std::shared_ptr<const Inputs> in) {
  const int p = caps_ranks(pr.k);
  CapsOptions opts;
  opts.schedule = pr.caps_schedule;
  opts.local_cutoff = pr.caps_cutoff;
  const std::size_t share = sq(pr.n) / static_cast<std::size_t>(p);
  return [opts, p, share, n = pr.n, k = pr.k, in](sim::Comm& comm,
                                                  std::vector<double>& out) {
    if (comm.ghost()) {
      caps_multiply(comm, n, k, ConstPayload::ghost(share),
                    ConstPayload::ghost(share), Payload::ghost(share), opts);
      return;
    }
    const auto a = extract_share(data(in).a, p, comm.rank());
    const auto b = extract_share(data(in).b, p, comm.rank());
    out.assign(a.size(), 0.0);
    caps_multiply(comm, n, k, a, b, out, opts);
  };
}

double caps_verify(const Problem& pr, const Inputs& in, const Outputs& out) {
  const int n = pr.n;
  const int p = caps_ranks(pr.k);
  const int levels = caps_levels(pr);
  std::vector<double> Cz(sq(n), 0.0);
  for (int r = 0; r < p; ++r) {
    place_share(Cz, p, r, out[static_cast<std::size_t>(r)]);
  }
  const auto A = from_z_order(in.a, n, levels);
  const auto B = from_z_order(in.b, n, levels);
  std::vector<double> ref(sq(n), 0.0);
  matmul_add(A.data(), B.data(), ref.data(), n, n, n);
  return max_abs_diff(from_z_order(Cz, n, levels), ref);
}

// --- replicating n-body ---

int nbody_world(const Problem& pr) { return topo::TeamGrid(pr.p, pr.c).p(); }

Inputs nbody_inputs(const Problem& pr) {
  Rng rng(pr.seed);
  Inputs in;
  in.a = random_particles(pr.n, rng);
  return in;
}

RankProgram nbody_program(const Problem& pr,
                          std::shared_ptr<const Inputs> in) {
  const topo::TeamGrid grid(pr.p, pr.c);
  return [grid, n = pr.n, in](sim::Comm& comm, std::vector<double>& out) {
    if (grid.row_of(comm.rank()) != 0) {
      nbody_replicated(comm, grid, n, {}, {});
      return;
    }
    const std::size_t nb = static_cast<std::size_t>(n / grid.cols());
    if (comm.ghost()) {
      nbody_replicated(comm, grid, n,
                       ConstPayload::ghost(nb * kParticleWords),
                       Payload::ghost(nb * kForceWords));
      return;
    }
    const auto j = static_cast<std::size_t>(grid.col_of(comm.rank()));
    const std::size_t words = nb * kParticleWords;
    const auto mine =
        std::span<const double>(data(in).a).subspan(j * words, words);
    out.assign(nb * kForceWords, 0.0);
    nbody_replicated(comm, grid, n, mine, out);
  };
}

/// Row-0 ranks 0..P-1 hold the force blocks in order; the replica rows
/// publish nothing, so the concatenation of every output is the result.
double nbody_verify(const Problem& /*pr*/, const Inputs& in,
                    const Outputs& out) {
  std::vector<double> got;
  for (const auto& blk : out) got.insert(got.end(), blk.begin(), blk.end());
  return max_abs_diff(got, direct_forces(in.a));
}

// --- block-cyclic LU ---

BlockCyclic lu_layout(const Problem& pr) {
  BlockCyclic bc{pr.n, pr.nb, pr.q};
  bc.validate();
  return bc;
}

int lu_world(const Problem& pr) {
  lu_layout(pr);
  return pr.c <= 1 ? topo::Grid2D(pr.q).p() : topo::Grid3D(pr.q, pr.c).p();
}

Inputs lu_inputs(const Problem& pr) {
  Rng rng(pr.seed);
  Inputs in;
  in.a = diagonally_dominant_matrix(pr.n, rng);
  return in;
}

/// c <= 1 runs lu_2d on q² ranks, otherwise lu_25d on q²c; the factored
/// blocks stay where the (layer-0) rank received them.
RankProgram lu_program(const Problem& pr, std::shared_ptr<const Inputs> in) {
  const BlockCyclic bc = lu_layout(pr);
  if (pr.c <= 1) {
    const topo::Grid2D grid(pr.q);
    return [grid, bc, in](sim::Comm& comm, std::vector<double>& out) {
      if (comm.ghost()) {
        lu_2d(comm, grid, bc, Payload::ghost(bc.local_words()));
        return;
      }
      out = lu_local_blocks(data(in).a, bc, grid.row_of(comm.rank()),
                            grid.col_of(comm.rank()));
      lu_2d(comm, grid, bc, out);
    };
  }
  const topo::Grid3D grid(pr.q, pr.c);
  return [grid, bc, in](sim::Comm& comm, std::vector<double>& out) {
    if (grid.layer_of(comm.rank()) != 0) {
      lu_25d(comm, grid, bc, {});
      return;
    }
    if (comm.ghost()) {
      lu_25d(comm, grid, bc, Payload::ghost(bc.local_words()));
      return;
    }
    out = lu_local_blocks(data(in).a, bc, grid.row_of(comm.rank()),
                          grid.col_of(comm.rank()));
    lu_25d(comm, grid, bc, out);
  };
}

double lu_verify(const Problem& pr, const Inputs& in, const Outputs& out) {
  const BlockCyclic bc = lu_layout(pr);
  const int n = pr.n;
  const int nb = pr.nb;
  const int q = pr.q;
  auto serial = in.a;
  lu_factor_inplace(serial, n);
  double err = 0.0;
  for (int I = 0; I < bc.nt(); ++I) {
    for (int J = 0; J < bc.nt(); ++J) {
      const auto& src = out[static_cast<std::size_t>(I % q) * q + (J % q)];
      for (int r = 0; r < nb; ++r) {
        for (int cc = 0; cc < nb; ++cc) {
          const double want =
              serial[static_cast<std::size_t>(I * nb + r) * n + J * nb + cc];
          const double got = src[bc.local_offset(I, J) +
                                 static_cast<std::size_t>(r) * nb + cc];
          err = std::max(err, std::abs(want - got));
        }
      }
    }
  }
  return err;
}

// --- four-step FFT ---

int fft_world(const Problem& pr) {
  ALGE_REQUIRE(pr.p >= 1, "fft needs p >= 1, got %d", pr.p);
  return pr.p;
}

Inputs fft_inputs(const Problem& pr) {
  Rng rng(pr.seed);
  Inputs in;
  in.a.resize(2 * static_cast<std::size_t>(pr.r_dim) * pr.c_dim);
  rng.fill_uniform(in.a, -1.0, 1.0);
  return in;
}

RankProgram fft_program(const Problem& pr, std::shared_ptr<const Inputs> in) {
  const int r_dim = pr.r_dim;
  const int c_dim = pr.c_dim;
  const int cl = c_dim / pr.p;
  const std::size_t in_words = 2 * static_cast<std::size_t>(r_dim) * cl;
  const std::size_t out_words =
      2 * static_cast<std::size_t>(c_dim) * (r_dim / pr.p);
  const AllToAllKind kind =
      pr.fft_bruck ? AllToAllKind::kBruck : AllToAllKind::kDirect;
  return [=](sim::Comm& comm, std::vector<double>& out) {
    const int n = r_dim * c_dim;
    if (comm.ghost()) {
      fft_parallel(comm, n, r_dim, c_dim, ConstPayload::ghost(in_words),
                   Payload::ghost(out_words), kind);
      return;
    }
    const auto cols = fft_columns(data(in).a, r_dim, c_dim, cl, comm.rank());
    out.assign(out_words, 0.0);
    fft_parallel(comm, n, r_dim, c_dim, cols, out, kind);
  };
}

/// Rank h holds output rows k1 in [h·rl, (h+1)·rl), each c_dim long; the
/// reference is the naive DFT in k2-major order.
double fft_verify(const Problem& pr, const Inputs& in, const Outputs& out) {
  const int r_dim = pr.r_dim;
  const int c_dim = pr.c_dim;
  const int rl = r_dim / pr.p;
  const auto ref = naive_dft(in.a, r_dim * c_dim);
  double err = 0.0;
  for (int k1 = 0; k1 < r_dim; ++k1) {
    const auto& blk = out[static_cast<std::size_t>(k1 / rl)];
    for (int k2 = 0; k2 < c_dim; ++k2) {
      const std::size_t src =
          2 * (static_cast<std::size_t>(k1 % rl) * c_dim + k2);
      const std::size_t dst = 2 * (static_cast<std::size_t>(k2) * r_dim + k1);
      err = std::max(err, std::abs(blk[src] - ref[dst]));
      err = std::max(err, std::abs(blk[src + 1] - ref[dst + 1]));
    }
  }
  return err;
}

// --- TSQR (n = rows per rank, nb = columns b) ---

int tsqr_world(const Problem& pr) {
  ALGE_REQUIRE(pr.n >= pr.nb && pr.nb >= 1 && pr.p >= 1,
               "tsqr needs rows_local >= b >= 1 and p >= 1");
  return pr.p;
}

Inputs tsqr_inputs(const Problem& pr) {
  Rng rng(pr.seed);
  Inputs in;
  in.a = random_matrix(pr.n * pr.p, pr.nb, rng);
  return in;
}

RankProgram tsqr_program(const Problem& pr, std::shared_ptr<const Inputs> in) {
  const int b = pr.nb;
  const std::size_t lw = static_cast<std::size_t>(pr.n) * b;
  return [b, lw, in](sim::Comm& comm, std::vector<double>& out) {
    const bool root = comm.rank() == 0;
    if (comm.ghost()) {
      tsqr(comm, b, ConstPayload::ghost(lw),
           root ? Payload::ghost(sq(b)) : Payload{});
      return;
    }
    const auto mine = std::span<const double>(data(in).a)
                          .subspan(lw * static_cast<std::size_t>(comm.rank()),
                                   lw);
    if (root) out.assign(sq(b), 0.0);
    tsqr(comm, b, mine, root ? Payload(out) : Payload{});
  };
}

/// QᵀQ = I  =>  AᵀA = RᵀR: the factorization-independent check (R is only
/// unique up to row signs, so compare Gram matrices, not entries).
double tsqr_verify(const Problem& pr, const Inputs& in, const Outputs& out) {
  const int b = pr.nb;
  auto gram = [b](std::span<const double> a, int rows) {
    std::vector<double> g(sq(b), 0.0);
    for (int i = 0; i < b; ++i) {
      for (int j = 0; j < b; ++j) {
        double s = 0.0;
        for (int row = 0; row < rows; ++row) {
          s += a[static_cast<std::size_t>(row) * b + i] *
               a[static_cast<std::size_t>(row) * b + j];
        }
        g[static_cast<std::size_t>(i) * b + j] = s;
      }
    }
    return g;
  };
  return max_abs_diff(gram(out[0], b), gram(in.a, pr.n * pr.p));
}

// --- conformance and chaos shapes ---

int isqrt(int p) {
  int q = static_cast<int>(std::sqrt(static_cast<double>(p)));
  while ((q + 1) * (q + 1) <= p) ++q;
  while (q > 1 && q * q > p) --q;
  return q;
}

/// 2.5D grid for size class p: q = 2 keeps problems tiny and c absorbs the
/// rest when p is a multiple of q², but only while c divides q (p = 8 ->
/// the 2×2×2 grid). Perfect squares of q >= 3 run the q×q 2D grid, the
/// size classes the fold sweeps use, since Cannon folds nontrivially only
/// for q >= 3.
Problem grid_shape(Alg alg, int p, int nb) {
  int q = 2;
  int c = 1;
  if (p % 4 == 0 && (p / 4 == 1 || p / 4 == 2)) {
    c = p / 4;
  } else if (const int r = isqrt(p); r >= 3 && r * r == p) {
    q = r;
  }
  return {.alg = alg, .n = 8 * q, .q = q, .c = c, .nb = nb};
}

/// FFT size classes round down to a power of two: R and C are powers of
/// two and p divides both.
Problem fft_shape(int p) {
  int fp = 1;
  while (2 * fp <= p) fp *= 2;
  return {.alg = Alg::kFft, .p = fp, .r_dim = 2 * fp, .c_dim = 2 * fp};
}

/// CAPS runs the smallest nontrivial tree, k = 1 on 7 ranks, for
/// conformance and every size class; n = 14 is the smallest even size with
/// 7 | n² (share layout).
Problem caps_shape() { return {.alg = Alg::kCaps, .n = 14, .k = 1}; }

const AlgEntry kEntries[] = {
    {.alg = Alg::kMm25d,
     .world_size = mm25d_world,
     .make_inputs = matmul_inputs,
     .program = mm25d_program,
     .verify = verify_matmul,
     .fold_map =
         [](const Problem& pr) {
           return foldmap_mm25d(pr.q, pr.c, pr.n / pr.q, pr.ring_replication);
         },
     // c = 2 exercises the cross-layer replication/reduction traffic.
     .conformance =
         [] { return Problem{.alg = Alg::kMm25d, .n = 8, .q = 2, .c = 2}; },
     .chaos_shape = [](int p) { return grid_shape(Alg::kMm25d, p, 0); }},
    {.alg = Alg::kSumma,
     .world_size = summa_world,
     .make_inputs = matmul_inputs,
     .program = summa_program,
     .verify = verify_matmul,
     .fold_map = [](const Problem& pr) { return foldmap_summa(pr.n, pr.q); },
     .conformance = [] { return Problem{.alg = Alg::kSumma, .n = 8, .q = 2}; },
     .chaos_shape =
         [](int p) {
           const int q = isqrt(p);
           return Problem{.alg = Alg::kSumma, .n = 8 * q, .q = q};
         }},
    {.alg = Alg::kCaps,
     .world_size = caps_world,
     .make_inputs = caps_inputs,
     .program = caps_program,
     .verify = caps_verify,
     .fold_map =
         [](const Problem& pr) { return foldmap_caps(caps_ranks(pr.k)); },
     .conformance = caps_shape,
     .chaos_shape = [](int) { return caps_shape(); }},
    {.alg = Alg::kNBody,
     .world_size = nbody_world,
     .make_inputs = nbody_inputs,
     .program = nbody_program,
     .verify = nbody_verify,
     .fold_map = [](const Problem& pr) { return foldmap_nbody(pr.p, pr.c); },
     .conformance =
         [] { return Problem{.alg = Alg::kNBody, .n = 8, .c = 2, .p = 4}; },
     .chaos_shape =
         [](int p) {
           const int c = p % 2 == 0 ? 2 : 1;
           return Problem{
               .alg = Alg::kNBody, .n = 4 * (p / c), .c = c, .p = p};
         }},
    {.alg = Alg::kLu,
     .world_size = lu_world,
     .make_inputs = lu_inputs,
     .program = lu_program,
     .verify = lu_verify,
     .fold_map =
         [](const Problem& pr) {
           return foldmap_lu(pr.n, pr.nb, pr.q, pr.c);
         },
     .conformance =
         [] {
           return Problem{.alg = Alg::kLu, .n = 8, .q = 2, .c = 1, .nb = 2};
         },
     .chaos_shape = [](int p) { return grid_shape(Alg::kLu, p, 4); }},
    {.alg = Alg::kFft,
     .world_size = fft_world,
     .make_inputs = fft_inputs,
     .program = fft_program,
     .verify = fft_verify,
     .fold_map = [](const Problem& pr) { return foldmap_fft(pr.p); },
     .conformance =
         [] {
           return Problem{.alg = Alg::kFft, .p = 4, .r_dim = 4, .c_dim = 4};
         },
     .chaos_shape = fft_shape},
    // n = rows per rank, nb = columns b.
    {.alg = Alg::kTsqr,
     .world_size = tsqr_world,
     .make_inputs = tsqr_inputs,
     .program = tsqr_program,
     .verify = tsqr_verify,
     .fold_map = [](const Problem& pr) { return foldmap_tsqr(pr.p); },
     .conformance =
         [] { return Problem{.alg = Alg::kTsqr, .n = 4, .p = 4, .nb = 2}; },
     .chaos_shape =
         [](int p) {
           return Problem{.alg = Alg::kTsqr, .n = 8, .p = p, .nb = 4};
         }},
};

}  // namespace

std::string_view to_string(Alg alg) {
  const auto i = static_cast<std::size_t>(alg);
  ALGE_CHECK(i < std::size(kNames), "unnamed Alg value %zu", i);
  return kNames[i];
}

Alg alg_from_string(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kNames); ++i) {
    if (kNames[i] == name) return static_cast<Alg>(i);
  }
  throw invalid_argument_error(
      strfmt("unknown algorithm \"%.*s\"", static_cast<int>(name.size()),
             name.data()));
}

std::span<const AlgEntry> entries() { return kEntries; }

const std::vector<Alg>& registered() {
  static const std::vector<Alg> algs = [] {
    std::vector<Alg> out;
    for (const AlgEntry& e : kEntries) out.push_back(e.alg);
    return out;
  }();
  return algs;
}

const AlgEntry* find(Alg alg) {
  for (const AlgEntry& e : kEntries) {
    if (e.alg == alg) return &e;
  }
  return nullptr;
}

const AlgEntry& entry(Alg alg) {
  const AlgEntry* e = find(alg);
  ALGE_REQUIRE(e != nullptr, "'%s' is a collective microbenchmark, not a "
               "registered algorithm",
               std::string(to_string(alg)).c_str());
  return *e;
}

const AlgEntry& entry(std::string_view name) {
  std::string known;
  for (const AlgEntry& e : kEntries) {
    if (e.name() == name) return e;
    known += (known.empty() ? "" : ", ") + std::string(e.name());
  }
  throw invalid_argument_error(strfmt("unknown algorithm '%.*s' (have: %s)",
                                      static_cast<int>(name.size()),
                                      name.data(), known.c_str()));
}

double Program::verify(const Outputs& outputs) const {
  ALGE_REQUIRE(inputs != nullptr,
               "ghost programs have no output to verify; prepare the "
               "problem with ghost=false");
  ALGE_REQUIRE(outputs.size() == static_cast<std::size_t>(p),
               "verify needs one output per rank: got %zu for p=%d",
               outputs.size(), p);
  return alg->verify(problem, *inputs, outputs);
}

Program prepare(const Problem& pr, bool ghost) {
  Program out;
  out.problem = pr;
  out.alg = &entry(pr.alg);
  out.p = out.alg->world_size(pr);
  if (!ghost) {
    out.inputs = std::make_shared<const Inputs>(out.alg->make_inputs(pr));
  }
  out.rank = out.alg->program(pr, out.inputs);
  return out;
}

}  // namespace alge::algs
