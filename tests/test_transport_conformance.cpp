// Cross-backend conformance suite: every algorithm runs on the simulator,
// on forked shared-memory processes, and on loopback TCP, and the three
// runs must agree exactly —
//
//   * per-rank outputs are bitwise equal,
//   * per-rank model counters (clocks, F/W/S, memory highwater) are
//     bitwise equal, so Eq. (1)/(2) evaluate identically on a real run,
//   * the wire-level traffic each real backend actually moved equals the
//     model's W/S ledger per rank: msgs_sent/words_sent match exactly
//     (self-sends never touch the wire and never touch the send ledger),
//     and wire words_recv plus self-delivered words_recv reproduces the
//     model's words_recv.
//
//   * every backend's gathered outputs pass the registry's verification
//     against the sequential reference.
//
// This is the repo's ground-truth check that the simulator's cost ledger
// describes traffic a real transport would carry, message for message.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algs/registry.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"
#include "transport/run.hpp"

namespace alge::transport {
namespace {

RunOptions options_for(int p) {
  RunOptions opts;
  opts.p = p;
  opts.params = core::MachineParams::unit();
  opts.timeout_s = 20.0;
  return opts;
}

/// The full oracle between a simulator reference run and a real-backend
/// run of the same program.
void expect_conformant(const RunReport& ref, const RunReport& real,
                       const std::string& label) {
  ASSERT_EQ(ref.p, real.p) << label;
  ASSERT_EQ(ref.ranks.size(), real.ranks.size()) << label;
  for (int r = 0; r < ref.p; ++r) {
    SCOPED_TRACE(label + " rank " + std::to_string(r));
    const RankReport& a = ref.ranks[static_cast<std::size_t>(r)];
    const RankReport& b = real.ranks[static_cast<std::size_t>(r)];
    // Outputs bitwise equal (EXPECT_EQ on doubles is exact equality).
    ASSERT_EQ(a.output.size(), b.output.size());
    for (std::size_t i = 0; i < a.output.size(); ++i) {
      ASSERT_EQ(a.output[i], b.output[i]) << "output word " << i;
    }
    // The model travels with the rank: every counter identical.
    EXPECT_TRUE(a.model == b.model)
        << "model counters diverged: sim clock " << a.model.clock
        << " vs real clock " << b.model.clock << ", sim words_sent "
        << a.model.words_sent << " vs " << b.model.words_sent;
    // Measured wire traffic == the model's W/S ledger, exactly. Self-sends
    // are delivered locally (never on the wire): the send ledger excludes
    // them by construction, the recv ledger includes their words.
    EXPECT_EQ(b.wire.msgs_sent, b.model.msgs_sent);
    EXPECT_EQ(b.wire.words_sent, b.model.words_sent);
    EXPECT_EQ(b.wire.msgs_recv, b.model.msgs_recv);
    EXPECT_EQ(b.wire.words_recv + b.self.words_recv, b.model.words_recv);
    // Self-deliveries carry no model message count.
    EXPECT_EQ(b.self.msgs_sent, b.self.msgs_recv);
  }
  // Aggregates derived from identical per-rank models must agree too.
  EXPECT_EQ(ref.makespan(), real.makespan());
  EXPECT_TRUE(ref.totals() == real.totals());
}

/// Simulator reference through the plain Machine::run path, proving
/// run_sim (and thus the interposed Transport seam) changed nothing.
RunReport reference_via_machine(const RunOptions& opts,
                                const RankProgram& program) {
  RunReport report;
  report.backend = Backend::kSim;
  report.p = opts.p;
  report.ranks.resize(static_cast<std::size_t>(opts.p));
  sim::MachineConfig cfg;
  cfg.p = opts.p;
  cfg.params = opts.params;
  sim::Machine machine(cfg);
  machine.run([&](sim::Comm& comm) {
    RankReport& rr = report.ranks[static_cast<std::size_t>(comm.rank())];
    program(comm, rr.output);
    rr.model = comm.counters();
  });
  return report;
}

/// The registry's verification of one backend's gathered outputs.
void expect_verified(const algs::Program& prog, const RunReport& run,
                     const std::string& label) {
  algs::Outputs outputs;
  for (const RankReport& r : run.ranks) outputs.push_back(r.output);
  EXPECT_LT(prog.verify(outputs), 1e-9) << label << " vs the reference";
}

std::vector<std::string> registry_names() {
  std::vector<std::string> names;
  for (const algs::AlgEntry& e : algs::entries()) names.emplace_back(e.name());
  return names;
}

class ConformanceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ConformanceTest, SimShmTcpAgree) {
  const std::string alg = GetParam();
  const algs::Program prog = algs::prepare(algs::entry(alg).conformance());
  const RunOptions opts = options_for(prog.p);

  const RunReport sim_run = run_sim(opts, prog.rank);
  expect_verified(prog, sim_run, alg + "/sim");

  // The refactored simulator is bit-identical to the pre-seam Machine path.
  const RunReport machine_run = reference_via_machine(opts, prog.rank);
  for (int r = 0; r < opts.p; ++r) {
    const auto& a = machine_run.ranks[static_cast<std::size_t>(r)];
    const auto& b = sim_run.ranks[static_cast<std::size_t>(r)];
    ASSERT_EQ(a.output, b.output) << alg << " rank " << r;
    ASSERT_TRUE(a.model == b.model) << alg << " rank " << r;
  }

  const RunReport shm_run = run_shm(opts, prog.rank);
  expect_conformant(sim_run, shm_run, alg + "/shm");
  expect_verified(prog, shm_run, alg + "/shm");

  const RunReport tcp_run = run_tcp_threads(opts, prog.rank);
  expect_conformant(sim_run, tcp_run, alg + "/tcp");
  expect_verified(prog, tcp_run, alg + "/tcp");
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ConformanceTest,
                         ::testing::ValuesIn(registry_names()),
                         [](const auto& info) { return info.param; });

// A send larger than max_msg_words splits into ceil(k/m) model messages;
// the real backends must put exactly that many frames on the wire so the
// measured message count still equals the S ledger.
TEST(ConformanceChunking, SplitSendsMatchLedgerOnEveryBackend) {
  RunOptions opts = options_for(4);
  opts.params.max_msg_words = 7.0;  // 100-word sends -> 15 frames each

  const RankProgram program = [](sim::Comm& comm, std::vector<double>& out) {
    constexpr std::size_t kWords = 100;
    std::vector<double> buf(kWords);
    for (std::size_t i = 0; i < kWords; ++i) {
      buf[i] = static_cast<double>(comm.rank() * 1000 + static_cast<int>(i));
    }
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    std::vector<double> in(kWords);
    comm.sendrecv(next, sim::ConstPayload(buf), prev, sim::Payload(in));
    out = in;
  };

  const RunReport sim_run = run_sim(opts, program);
  // 100 words at m=7 is 15 messages in the ledger.
  EXPECT_EQ(sim_run.ranks[0].model.msgs_sent, 15.0);

  expect_conformant(sim_run, run_shm(opts, program), "chunking/shm");
  expect_conformant(sim_run, run_tcp_threads(opts, program), "chunking/tcp");
}

// Frames larger than one shm ring must stream through in pieces rather
// than deadlock or truncate: ring_bytes is a buffering bound, not a
// message-size cap.
TEST(ConformanceChunking, FramesLargerThanShmRingStreamThrough) {
  RunOptions opts = options_for(2);
  opts.ring_bytes = 1024;  // 128 words of buffer; frames are ~4x that

  const RankProgram program = [](sim::Comm& comm, std::vector<double>& out) {
    constexpr std::size_t kWords = 500;
    if (comm.rank() == 0) {
      std::vector<double> buf(kWords);
      for (std::size_t i = 0; i < kWords; ++i) {
        buf[i] = static_cast<double>(i) * 0.5;
      }
      comm.send(1, sim::ConstPayload(buf));
      out = buf;
    } else {
      out.resize(kWords);
      comm.recv(0, sim::Payload(out));
    }
  };

  const RunReport sim_run = run_sim(opts, program);
  expect_conformant(sim_run, run_shm(opts, program), "bigframe/shm");
}

}  // namespace
}  // namespace alge::transport
