// transport-real: the per-rank programs (transport::make_program) run on
// the simulator and on rank threads over loopback TCP (run_tcp_threads),
// at p = 4 — the path where messages cross real sockets.
//
// Stages: (1) run_sim, the reference with no wire, for all six programs
// (SUMMA, Cannon c=1, LU, n-body, FFT, TSQR); (2) run_tcp_threads for the
// five bandwidth-bound ones; (3) run_tcp_threads for LU, whose small panels
// make it latency-bound (hundreds of small messages). CAPS needs p = 7,
// more ranks than the 4 cores of the reference host. run_shm is left out:
// it fails now and then with "peer finished without sending the expected
// message", because ShmTransport::ring_read reads the peer's finished state
// after an empty ring without reading the ring head again. Sizes let
// compute and wire time, not connection set-up, dominate. The seed picks
// the input data of each round.
#include <algorithm>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "transport/programs.hpp"
#include "transport/run.hpp"

namespace perfbench {

namespace {

using namespace alge;
using transport::Backend;
using transport::ProgramSpec;
using transport::RunReport;

constexpr int kRanks = 4;

/// Hand-set Eq. (1) coefficients of a commodity core, so the model
/// counters' makespan reads as a predicted wall time: 1 GFLOP/s naive
/// kernels, 4 GB/s (2.5e-10 s per 8-byte word), 10 µs per message.
core::MachineParams host_machine() {
  core::MachineParams mp;
  mp.gamma_t = 1e-9;
  mp.beta_t = 2.5e-10;
  mp.alpha_t = 1e-5;
  return mp;
}

struct Program {
  std::string name;
  ProgramSpec spec;
};

std::vector<Program> programs(bool small) {
  std::vector<Program> out;
  ProgramSpec s;
  s.alg = "summa";
  s.n = small ? 16 : 512;
  s.q = 2;
  out.push_back({"summa", s});
  s = {};
  s.alg = "mm25d";  // Cannon: 2.5D with c = 1
  s.n = small ? 16 : 512;
  s.q = 2;
  s.c = 1;
  out.push_back({"cannon", s});
  s = {};
  s.alg = "lu";
  s.n = small ? 32 : 384;
  s.nb = 16;
  s.q = 2;
  s.c = 1;
  out.push_back({"lu", s});
  s = {};
  s.alg = "nbody";
  s.n = small ? 64 : 4096;
  s.p = kRanks;
  s.c = 2;
  out.push_back({"nbody", s});
  s = {};
  s.alg = "fft";
  s.r_dim = s.c_dim = small ? 16 : 512;
  s.p = kRanks;
  out.push_back({"fft", s});
  s = {};
  s.alg = "tsqr";
  s.n = small ? 16 : 8192;  // rows per rank
  s.nb = 16;
  s.p = kRanks;
  out.push_back({"tsqr", s});
  return out;
}

/// Stage of a program's TCP run: latency-bound LU apart from the rest.
int tcp_stage(const Program& p) { return p.name == "lu" ? 2 : 1; }

class TransportReal final : public Workload {
 public:
  explicit TransportReal(std::uint64_t seed) : seed_(seed) {
    opts_.p = kRanks;
    opts_.params = host_machine();
  }

  void setup() override {
    progs_ = programs(false);
    // Warm-up: both backends once on a small program.
    const auto prog = transport::make_program(programs(true)[0].spec);
    transport::run_sim(opts_, prog.program);
    transport::run_tcp_threads(opts_, prog.program);
  }

  void round(int round, Tracer& tr, RoundTimes& times,
             Outcome& out) override {
    const std::size_t np = progs_.size();
    std::vector<transport::AlgProgram> built;
    for (std::size_t i = 0; i < np; ++i) {
      ProgramSpec s = progs_[i].spec;
      s.seed = mix_seed(seed_, 100 * round + i) | 1;
      built.push_back(transport::make_program(s));
    }
    std::vector<RunReport> sim(np), tcp(np);
    std::vector<bool> ok(np, true);
    auto run = [&](Backend b, std::size_t i, int st, RunReport* rep) {
      const std::string name = "transport." +
                               std::string(transport::to_string(b)) + "." +
                               progs_[i].name;
      ++out.attempted;
      const auto t0 = Clock::now();
      try {
        *rep = tr.span(name, [&] {
          return transport::run(b, opts_, built[i].program);
        });
      } catch (const std::exception& e) {
        out.op_failed(name + ": " + e.what());
        ok[i] = false;
      }
      times.stage[st].push_back(seconds_since(t0));
    };
    for (std::size_t i = 0; i < np; ++i) run(Backend::kSim, i, 0, &sim[i]);
    for (std::size_t i = 0; i < np; ++i) {
      run(Backend::kTcp, i, tcp_stage(progs_[i]), &tcp[i]);
    }
    for (std::size_t i = 0; i < np; ++i) {
      if (!ok[i]) continue;
      out.expect(checks::outputs_equal(sim[i], tcp[i]));
      out.expect(checks::wire_matches_ledger(tcp[i]));
      out.expect(checks::model_counters_equal(sim[i], tcp[i]));
    }
    if (tr.on()) {
      last_sim_ = sim;
      last_tcp_ = tcp;
    }
  }

  void layers(Tracer& /*tr*/, Metrics& m, Outcome& /*out*/) override {
    double wire_msgs = 0, wire_words = 0, launch = 0;
    for (std::size_t i = 0; i < progs_.size(); ++i) {
      const std::string& name = progs_[i].name;
      m["transport.sim." + name + "_s"] = {last_sim_[i].wall_s, "s"};
      m["transport.model." + name + "_s"] = {last_sim_[i].makespan(), "s"};
      const RunReport& r = last_tcp_[i];
      m["transport.tcp." + name + "_s"] = {r.wall_s, "s"};
      double slowest = 0;
      for (const auto& rank : r.ranks) {
        slowest = std::max(slowest, rank.wall_s);
        wire_msgs += rank.wire.msgs_sent;
        wire_words += rank.wire.words_sent;
      }
      launch += r.wall_s - slowest;
    }
    m["transport.tcp.launch_s"] = {launch, "s"};
    m["transport.wire_msgs"] = {wire_msgs, "count"};
    m["transport.wire_words"] = {wire_words, "count"};
  }

 private:
  std::uint64_t seed_;
  transport::RunOptions opts_;
  std::vector<Program> progs_;
  std::vector<RunReport> last_sim_, last_tcp_;
};

}  // namespace

std::unique_ptr<Workload> make_transport_real(std::uint64_t seed) {
  return std::make_unique<TransportReal>(seed);
}

}  // namespace perfbench
