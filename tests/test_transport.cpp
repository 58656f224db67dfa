// Unit tests for the transport layer's building blocks: chunk math, backend
// naming, self-send accounting, the runner report aggregation, and the
// engine's transport axis (spec serialization, executor registry,
// dispatch).

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "algs/registry.hpp"
#include "engine/backend.hpp"
#include "engine/job.hpp"
#include "engine/runner.hpp"
#include "sim/comm.hpp"
#include "support/common.hpp"
#include "transport/engine_backend.hpp"
#include "transport/programs.hpp"
#include "transport/run.hpp"
#include "transport/tcp.hpp"
#include "transport/wire.hpp"

namespace alge::transport {
namespace {

TEST(ChunkMath, ChunksCoverTheMessageEvenly) {
  for (std::uint64_t words : {1ull, 7ull, 64ull, 100ull, 1023ull}) {
    for (std::uint32_t chunks : {1u, 2u, 3u, 7u, 15u}) {
      if (chunks > words) continue;
      std::uint64_t sum = 0;
      std::uint64_t prev = chunk_words_at(words, chunks, 0);
      for (std::uint32_t i = 0; i < chunks; ++i) {
        const std::uint64_t cw = chunk_words_at(words, chunks, i);
        sum += cw;
        // Leading chunks absorb the remainder: sizes are non-increasing and
        // differ by at most one word.
        EXPECT_LE(cw, prev);
        EXPECT_LE(prev - cw, 1u);
        prev = cw;
      }
      EXPECT_EQ(sum, words) << words << " words in " << chunks << " chunks";
    }
  }
}

TEST(BackendNames, RoundTrip) {
  for (Backend b : {Backend::kSim, Backend::kShm, Backend::kTcp}) {
    EXPECT_EQ(backend_from_string(to_string(b)), b);
  }
  EXPECT_THROW(backend_from_string("mpi"), invalid_argument_error);
}

TEST(RunOptionsValidation, RejectsEmptyWorldAndZeroTimeout) {
  RunOptions opts;
  opts.p = 0;
  const RankProgram noop = [](sim::Comm&, std::vector<double>&) {};
  EXPECT_THROW(run_sim(opts, noop), invalid_argument_error);
  opts.p = 1;
  opts.timeout_s = 0.0;
  EXPECT_THROW(run_sim(opts, noop), invalid_argument_error);
}

// Self-sends are free local copies: no model send costs, no message count,
// but the received words do land in the recv ledger.
TEST(SelfSend, AccountingMatchesTheModelContract) {
  RunOptions opts;
  opts.p = 1;
  opts.params = core::MachineParams::unit();
  const RankProgram program = [](sim::Comm& comm, std::vector<double>& out) {
    std::vector<double> buf = {1.0, 2.0, 3.0};
    comm.send(0, sim::ConstPayload(buf));
    out.resize(3);
    comm.recv(0, sim::Payload(out));
  };
  const RunReport report = run_sim(opts, program);
  const RankReport& r = report.ranks[0];
  EXPECT_EQ(r.output, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(r.model.msgs_sent, 0.0);
  EXPECT_EQ(r.model.words_sent, 0.0);
  EXPECT_EQ(r.model.msgs_recv, 0.0);   // msg_count 0 for self-deliveries
  EXPECT_EQ(r.model.words_recv, 3.0);  // but the words are real
  EXPECT_EQ(r.model.clock, 0.0);       // and no time passes
}

TEST(RunReportMath, TotalsAndEnergyMatchTheMachine) {
  const AlgProgram ap = make_program(conformance_spec("summa"));
  RunOptions opts;
  opts.p = ap.p;
  opts.params = core::MachineParams::unit();
  const RunReport report = run_sim(opts, ap.program);

  sim::MachineConfig cfg;
  cfg.p = ap.p;
  cfg.params = opts.params;
  sim::Machine machine(cfg);
  machine.run([&](sim::Comm& comm) {
    std::vector<double> out;
    ap.program(comm, out);
  });
  EXPECT_EQ(report.makespan(), machine.makespan());
  EXPECT_TRUE(report.totals() == machine.totals());
  const sim::SimEnergy a = report.energy(opts.params);
  const sim::SimEnergy b = machine.energy();
  EXPECT_EQ(a.breakdown.total(), b.breakdown.total());
}

// Both ends of every mesh link run without Nagle: the accepting side as
// well as the connecting one. p = 3 covers both accept paths, rank 0's
// rendezvous listener and rank 1's mesh listener (which rank 2 dials).
TEST(TcpMesh, BothEndsOfEveryLinkSetNodelay) {
  constexpr int kP = 3;
  int port = 0;
  const int listen_fd = serve::listen_tcp(0, kP, &port);
  std::vector<std::vector<int>> fds(kP);
  std::vector<std::string> errors(kP);
  std::vector<std::thread> ranks;
  for (int r = 0; r < kP; ++r) {
    ranks.emplace_back([&, r] {
      try {
        fds[r] = tcp_mesh(r, kP, r == 0 ? listen_fd : -1, "127.0.0.1", port,
                          10.0);
      } catch (const std::exception& e) {
        errors[r] = e.what();
      }
    });
  }
  for (std::thread& t : ranks) t.join();
  ::close(listen_fd);
  for (int r = 0; r < kP; ++r) {
    ASSERT_EQ(errors[r], "") << "rank " << r;
    for (int peer = 0; peer < kP; ++peer) {
      if (peer == r) continue;
      int on = 0;
      socklen_t len = sizeof(on);
      ASSERT_EQ(::getsockopt(fds[r][peer], IPPROTO_TCP, TCP_NODELAY, &on,
                             &len),
                0);
      EXPECT_NE(on, 0) << "rank " << r << " -> " << peer;
    }
  }
  for (const std::vector<int>& row : fds) {
    for (int fd : row) {
      if (fd >= 0) ::close(fd);
    }
  }
}

TEST(Programs, NamesCoverAllSevenAlgorithms) {
  ASSERT_EQ(algs::entries().size(), 7u);
  for (const algs::AlgEntry& e : algs::entries()) {
    const std::string name(e.name());
    const AlgProgram ap = make_program(conformance_spec(name));
    EXPECT_GE(ap.p, 1) << name;
    EXPECT_LE(ap.p, 8) << name;  // the conformance matrix stays small
    EXPECT_TRUE(ap.program != nullptr) << name;
  }
  ProgramSpec unknown;
  unknown.alg = "qrjob";
  EXPECT_THROW(make_program(unknown), invalid_argument_error);
}

// --- engine transport axis ---

engine::ExperimentSpec small_mm_spec() {
  engine::ExperimentSpec spec;
  spec.alg = engine::Alg::kMm25d;
  spec.params = core::MachineParams::unit();
  spec.n = 8;
  spec.q = 2;
  spec.c = 1;
  return spec;
}

TEST(EngineAxis, TransportFieldIsDefaultInertInTheCacheKey) {
  const engine::ExperimentSpec plain = small_mm_spec();
  engine::ExperimentSpec simmed = small_mm_spec();
  simmed.transport = "sim";
  // Unset stays absent from the canonical encoding (cache keys unchanged);
  // set is serialized and round-trips.
  EXPECT_EQ(plain.canonical_json().find("transport"), std::string::npos);
  EXPECT_NE(simmed.canonical_json().find("transport"), std::string::npos);
  const engine::ExperimentSpec back =
      engine::ExperimentSpec::from_json(simmed.to_json());
  EXPECT_EQ(back.transport, "sim");
  EXPECT_TRUE(back == simmed);
}

TEST(EngineAxis, SimTransportNameExecutesIdenticallyToUnset) {
  const engine::ExperimentResult plain = engine::execute(small_mm_spec());
  engine::ExperimentSpec spec = small_mm_spec();
  spec.transport = "sim";
  EXPECT_TRUE(engine::execute(spec) == plain);
}

TEST(EngineAxis, UnknownTransportIsAClearError) {
  engine::ExperimentSpec spec = small_mm_spec();
  spec.transport = "mpi";
  EXPECT_THROW(engine::execute(spec), invalid_argument_error);
}

TEST(EngineAxis, RegistryFindsWhatWasRegistered) {
  EXPECT_EQ(engine::find_backend_executor("never-registered"), nullptr);
  register_engine_backends();
  EXPECT_NE(engine::find_backend_executor("shm"), nullptr);
  EXPECT_NE(engine::find_backend_executor("tcp"), nullptr);
  const std::vector<std::string> names = engine::backend_executor_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "shm"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "tcp"), names.end());
}

TEST(EngineAxis, RealBackendRejectsSimulatorOnlyAxes) {
  register_engine_backends();
  engine::ExperimentSpec spec = small_mm_spec();
  spec.transport = "shm";
  spec.data_mode = sim::DataMode::kGhost;
  EXPECT_THROW(engine::execute(spec), invalid_argument_error);
  spec.data_mode = sim::DataMode::kFull;
  spec.chaos_seed = 17;
  EXPECT_THROW(engine::execute(spec), invalid_argument_error);
  spec.chaos_seed = 0;
  spec.exec_mode = sim::ExecMode::kFolded;
  EXPECT_THROW(engine::execute(spec), invalid_argument_error);
}

// Verification is the registry's, so a real backend checks its gathered
// outputs against the sequential reference exactly as the simulator does.
TEST(EngineAxis, RealBackendVerifiesAgainstTheReference) {
  register_engine_backends();
  engine::ExperimentSpec spec = small_mm_spec();
  spec.verify = true;
  const engine::ExperimentResult simmed = engine::execute(spec);
  ASSERT_TRUE(simmed.verified);
  for (const char* backend : {"shm", "tcp"}) {
    spec.transport = backend;
    const engine::ExperimentResult real = engine::execute(spec);
    EXPECT_TRUE(real.verified) << backend;
    EXPECT_LT(real.max_abs_error, 1e-9) << backend;
    EXPECT_EQ(real.max_abs_error, simmed.max_abs_error) << backend;
    EXPECT_TRUE(real.totals == simmed.totals) << backend;
  }
}

// The real execution path reproduces the simulator's result: same model,
// same aggregation, so the makespan/totals/energy of a shm run equal the
// simulated ones for the same spec.
TEST(EngineAxis, ShmExecutionMatchesSimulatedResult) {
  register_engine_backends();
  const engine::ExperimentResult simmed = engine::execute(small_mm_spec());
  engine::ExperimentSpec spec = small_mm_spec();
  spec.transport = "shm";
  const engine::ExperimentResult real = engine::execute(spec);
  EXPECT_EQ(real.p, simmed.p);
  EXPECT_EQ(real.makespan, simmed.makespan);
  EXPECT_TRUE(real.totals == simmed.totals);
  EXPECT_EQ(real.energy.total(), simmed.energy.total());
}

}  // namespace
}  // namespace alge::transport
