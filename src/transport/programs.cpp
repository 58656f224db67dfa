#include "transport/programs.hpp"

#include "algs/registry.hpp"

namespace alge::transport {

namespace {

/// The fields ProgramSpec and algs::Problem share, copied either way.
template <typename To, typename From>
void copy_dims(To& to, const From& from) {
  to.n = from.n;
  to.q = from.q;
  to.c = from.c;
  to.p = from.p;
  to.k = from.k;
  to.nb = from.nb;
  to.r_dim = from.r_dim;
  to.c_dim = from.c_dim;
  to.fft_bruck = from.fft_bruck;
  to.caps_schedule = from.caps_schedule;
  to.caps_cutoff = from.caps_cutoff;
  to.ring_replication = from.ring_replication;
  to.seed = from.seed;
}

}  // namespace

AlgProgram make_program(const ProgramSpec& spec) {
  algs::Problem pr;
  pr.alg = algs::entry(spec.alg).alg;
  copy_dims(pr, spec);
  algs::Program prog = algs::prepare(pr);
  return {prog.p, std::move(prog.rank)};
}

ProgramSpec conformance_spec(const std::string& alg) {
  ProgramSpec spec;
  spec.alg = alg;
  copy_dims(spec, algs::entry(alg).conformance());
  return spec;
}

}  // namespace alge::transport
