// Field-by-field problem specs for the transport programs, kept for
// callers that name the algorithm by string and set each dimension in turn
// (the transport-real benchmark workload).
//
// The programs themselves are the registry's (algs/registry.hpp):
// make_program looks the name up there, generates the inputs once in this
// process and returns the per-rank program over them, so the identical
// closure runs under the simulator, on rank threads, in a forked shm child
// (which inherits the inputs) or in a rank's own shell over TCP. Each rank
// publishes its natural local result through the RankProgram output.
#pragma once

#include <cstdint>
#include <string>

#include "transport/run.hpp"

namespace alge::transport {

/// Problem parameters for one algorithm run; field meanings match
/// algs::Problem (n/q/c/p/k/nb/r_dim/c_dim and the per-algorithm options).
struct ProgramSpec {
  std::string alg;  ///< mm25d, summa, caps, nbody, lu, fft, tsqr
  int n = 8;
  int q = 2;
  int c = 1;
  int p = 4;      ///< rank count where independent (nbody, fft, tsqr)
  int k = 1;      ///< CAPS levels (p = 7^k)
  int nb = 2;     ///< LU block size; TSQR column count b
  int r_dim = 4;  ///< FFT rows
  int c_dim = 4;  ///< FFT columns
  bool fft_bruck = false;
  std::string caps_schedule;
  int caps_cutoff = 32;
  bool ring_replication = false;
  std::uint64_t seed = 1;
};

struct AlgProgram {
  int p = 0;  ///< world size the spec implies (q²c, 7^k, or spec.p)
  RankProgram program;
};

/// Build the rank program for `spec.alg`; throws invalid_argument_error on
/// an unknown name or invalid dimensions.
AlgProgram make_program(const ProgramSpec& spec);

/// The registry's conformance problem for `alg` (p <= 8 everywhere).
ProgramSpec conformance_spec(const std::string& alg);

}  // namespace alge::transport
