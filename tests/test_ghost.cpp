// Ghost data mode (sim/payload.hpp): payloads carry sizes only, kernels are
// analytic, and every cost the simulator charges — clocks, F/W/S counters,
// message-cap splitting, retry/backoff, trace events, ledger slices,
// Eq. (2) energy — must be bit-identical to the full-data run. These tests
// pin that contract at the layers the big differential gate
// (tools/chaos_explore --ghost=true) exercises only end to end.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <vector>

#include "chaos/differential.hpp"
#include "chaos/fault_plan.hpp"
#include "engine/job.hpp"
#include "engine/runner.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"
#include "support/common.hpp"
#include "support/json.hpp"

namespace alge {
namespace {

sim::MachineConfig make_config(int p, sim::DataMode mode,
                               double max_msg_words = 1e18) {
  sim::MachineConfig cfg;
  cfg.p = p;
  cfg.params = core::MachineParams::unit();
  cfg.params.max_msg_words = max_msg_words;
  cfg.data_mode = mode;
  return cfg;
}

/// Run the same program on a full and a ghost machine (identical configs
/// otherwise) and assert the cost state — per-rank counters, totals,
/// makespan, energy — is bit-identical. The program must be mode-agnostic:
/// allocate with Comm::alloc and pass Buffer::view() to the Comm API.
void expect_cost_parity(int p, double max_msg_words,
                        const std::function<void(sim::Comm&)>& program) {
  sim::Machine full(make_config(p, sim::DataMode::kFull, max_msg_words));
  sim::Machine ghost(make_config(p, sim::DataMode::kGhost, max_msg_words));
  full.run(program);
  ghost.run(program);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(full.rank_counters(r), ghost.rank_counters(r)) << "rank " << r;
  }
  EXPECT_EQ(full.totals(), ghost.totals());
  EXPECT_EQ(full.makespan(), ghost.makespan());
  EXPECT_EQ(full.energy().breakdown, ghost.energy().breakdown);
}

// --- Message-cap splitting at the exact m boundary -----------------------

TEST(GhostP2P, CapBoundaryParity) {
  const double m = 8.0;
  for (const std::size_t k : {7u, 8u, 9u}) {
    expect_cost_parity(2, m, [k](sim::Comm& c) {
      sim::Buffer buf = c.alloc(k);
      if (c.rank() == 0) {
        c.send(1, buf.view(), /*tag=*/3);
      } else {
        c.recv(0, buf.view(), /*tag=*/3);
      }
    });
    // And the split itself is right: ceil(k/m) messages in ghost mode too.
    sim::Machine ghost(make_config(2, sim::DataMode::kGhost, m));
    ghost.run([k](sim::Comm& c) {
      sim::Buffer buf = c.alloc(k);
      if (c.rank() == 0) {
        c.send(1, buf.view());
      } else {
        c.recv(0, buf.view());
      }
    });
    const double msgs = (k + 7) / 8;  // ceil(k/8)
    EXPECT_DOUBLE_EQ(ghost.rank_counters(0).msgs_sent, msgs) << "k=" << k;
    EXPECT_DOUBLE_EQ(ghost.rank_counters(0).words_sent,
                     static_cast<double>(k));
  }
}

TEST(GhostP2P, SendrecvExchangeParity) {
  expect_cost_parity(2, 4.0, [](sim::Comm& c) {
    sim::Buffer out = c.alloc(10);
    sim::Buffer in = c.alloc(10);
    const int peer = 1 - c.rank();
    c.sendrecv(peer, out.view(), peer, in.view());
    c.compute(25.0);
  });
}

TEST(GhostCollectives, CapBoundaryParity) {
  const int p = 4;
  const double m = 8.0;
  for (const std::size_t k : {7u, 8u, 9u}) {
    expect_cost_parity(p, m, [p, k](sim::Comm& c) {
      const sim::Group world = sim::Group::world(p);
      sim::Buffer block = c.alloc(k);
      sim::Buffer gathered = c.alloc(k * p);
      sim::Buffer reduced = c.alloc(k);
      c.bcast(block.view(), 0, world);
      c.reduce_sum(block.view(), reduced.view(), 0, world);
      c.allgather(block.view(), gathered.view(), world);
      sim::Buffer a2a_in = c.alloc(k * p);
      sim::Buffer a2a_out = c.alloc(k * p);
      c.alltoall(a2a_in.view(), a2a_out.view(), world);
      c.alltoall_bruck(a2a_in.view(), a2a_out.view(), world);
    });
  }
}

// --- Ghost storage is poisoned, views are not ----------------------------

TEST(GhostBuffer, DerefTripsPoisonGuard) {
  sim::Machine ghost(make_config(1, sim::DataMode::kGhost));
  ghost.run([](sim::Comm& c) {
    sim::Buffer b = c.alloc(16);
    EXPECT_TRUE(b.is_ghost());
    EXPECT_EQ(b.size(), 16u);
    EXPECT_THROW(b.span(), internal_error);
    EXPECT_THROW(b.data(), internal_error);
    EXPECT_THROW(b[0], internal_error);
    // The size-only views stay usable: that is the whole point.
    EXPECT_EQ(b.view().size(), 16u);
    EXPECT_EQ(b.view().sub(4, 8).size(), 8u);
  });
  // Memory accounting saw the 16 words even though none were allocated.
  EXPECT_EQ(ghost.rank_counters(0).mem_highwater, 16u);
}

TEST(GhostPayload, ViewsArePoisonedStandalone) {
  const sim::ConstPayload cp = sim::ConstPayload::ghost(5);
  EXPECT_THROW(cp.span(), internal_error);
  EXPECT_THROW(cp.data(), internal_error);
  const sim::Payload mp = sim::Payload::ghost(5);
  EXPECT_THROW(mp.span(), internal_error);
  EXPECT_EQ(mp.sub(1, 3).size(), 3u);
  const sim::ConstPayload conv = mp;  // mutable -> const keeps ghostness
  EXPECT_TRUE(conv.is_ghost());
}

TEST(GhostPayload, GhostTrafficRejectedOnFullMachine) {
  sim::Machine full(make_config(2, sim::DataMode::kFull));
  EXPECT_THROW(full.run([](sim::Comm& c) {
    std::vector<double> buf(4);
    if (c.rank() == 0) {
      c.send(1, sim::ConstPayload::ghost(4));
    } else {
      c.recv(0, buf);
    }
  }),
               invalid_argument_error);
}

// --- Chaos parity --------------------------------------------------------

TEST(GhostChaos, AllPlansDegradeIdentically) {
  // The full seven-algorithm sweep: fault-free plus every bundled plan,
  // full vs ghost, cost signatures bit-identical (including the injected
  // fault counts — the flows carry sizes, and sizes are mode-invariant).
  chaos::GhostDiffOptions opts;
  opts.ps = {4};
  opts.seeds = 1;
  const chaos::GhostDiffReport rep = chaos::ghost_explore(opts);
  EXPECT_EQ(rep.mismatches, 0) << rep.summary;
  EXPECT_EQ(rep.failures, 0) << rep.summary;
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.cases, 7);
}

TEST(GhostChaos, RetryExhaustionParity) {
  // Every transmission is dropped up to 8 times but only one retry is
  // allowed: both modes must abort with SimError, after injecting the
  // identical faults.
  chaos::FaultPlanConfig pc;
  pc.name = "exhaust";
  pc.p_drop = 1.0;
  pc.max_drops = 8;
  const chaos::FaultPlan plan(pc);

  chaos::FaultStats stats[2];
  int mode_idx = 0;
  for (const sim::DataMode mode :
       {sim::DataMode::kFull, sim::DataMode::kGhost}) {
    sim::MachineConfig cfg = make_config(2, mode);
    auto injector = plan.make_injector(/*seed=*/7, cfg.params.alpha_t);
    cfg.faults = injector;
    cfg.retry.max_retries = 1;
    sim::Machine m(cfg);
    EXPECT_THROW(m.run([](sim::Comm& c) {
      sim::Buffer buf = c.alloc(10);
      if (c.rank() == 0) {
        c.send(1, buf.view());
      } else {
        c.recv(0, buf.view());
      }
    }),
                 sim::SimError);
    stats[mode_idx++] = injector->stats();
  }
  EXPECT_EQ(stats[0], stats[1]);
  EXPECT_GT(stats[0].drops, 0u);
}

// --- Trace and ledger identity -------------------------------------------

void run_observable(sim::Comm& c) {
  const sim::Group world = sim::Group::world(c.size());
  sim::Buffer block = c.alloc(12);
  {
    auto scope = c.phase("exchange");
    const int peer = c.rank() ^ 1;
    c.sendrecv(peer, block.view(), peer, block.view(), /*tag=*/1);
  }
  {
    auto scope = c.phase("reduce");
    sim::Buffer out = c.alloc(12);
    c.reduce_sum(block.view(), out.view(), 0, world);
    c.compute(36.0);
  }
}

TEST(GhostTrace, EventStreamIdentical) {
  sim::MachineConfig cf = make_config(4, sim::DataMode::kFull, 5.0);
  sim::MachineConfig cg = make_config(4, sim::DataMode::kGhost, 5.0);
  cf.enable_trace = cg.enable_trace = true;
  sim::Machine full(cf);
  sim::Machine ghost(cg);
  full.run(run_observable);
  ghost.run(run_observable);

  const auto& fe = full.trace().events();
  const auto& ge = ghost.trace().events();
  ASSERT_EQ(fe.size(), ge.size());
  ASSERT_GT(fe.size(), 0u);
  for (std::size_t i = 0; i < fe.size(); ++i) {
    const sim::TraceEvent& a = fe[i];
    const sim::TraceEvent& b = ge[i];
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.rank, b.rank) << "event " << i;
    EXPECT_EQ(a.t0, b.t0) << "event " << i;
    EXPECT_EQ(a.t1, b.t1) << "event " << i;
    EXPECT_EQ(a.peer, b.peer) << "event " << i;
    EXPECT_EQ(a.words, b.words) << "event " << i;
    EXPECT_EQ(a.tag, b.tag) << "event " << i;
    EXPECT_EQ(a.flops, b.flops) << "event " << i;
    EXPECT_EQ(a.msgs, b.msgs) << "event " << i;
    const bool labels_match =
        (a.label == nullptr) == (b.label == nullptr) &&
        (a.label == nullptr || std::strcmp(a.label, b.label) == 0);
    EXPECT_TRUE(labels_match) << "event " << i;
  }
}

TEST(GhostLedger, PhaseSlicesIdentical) {
  sim::MachineConfig cf = make_config(4, sim::DataMode::kFull, 5.0);
  sim::MachineConfig cg = make_config(4, sim::DataMode::kGhost, 5.0);
  cf.enable_ledger = cg.enable_ledger = true;
  sim::Machine full(cf);
  sim::Machine ghost(cg);
  full.run(run_observable);
  ghost.run(run_observable);

  ASSERT_EQ(full.phase_names(), ghost.phase_names());
  EXPECT_GE(full.phase_names().size(), 3u);  // (main) + exchange + reduce
  for (int r = 0; r < 4; ++r) {
    const auto& fp = full.phase_counters(r);
    const auto& gp = ghost.phase_counters(r);
    ASSERT_EQ(fp.size(), gp.size()) << "rank " << r;
    for (std::size_t i = 0; i < fp.size(); ++i) {
      EXPECT_EQ(fp[i].flops, gp[i].flops);
      EXPECT_EQ(fp[i].words_sent, gp[i].words_sent);
      EXPECT_EQ(fp[i].msgs_sent, gp[i].msgs_sent);
      EXPECT_EQ(fp[i].words_hops, gp[i].words_hops);
      EXPECT_EQ(fp[i].msgs_hops, gp[i].msgs_hops);
      EXPECT_EQ(fp[i].time, gp[i].time);
      EXPECT_EQ(fp[i].idle, gp[i].idle);
    }
  }
}

// --- Engine integration --------------------------------------------------

engine::ExperimentSpec small_mm_spec() {
  engine::ExperimentSpec s;
  s.alg = engine::Alg::kMm25d;
  s.params = core::MachineParams::unit();
  s.n = 16;
  s.q = 2;
  s.c = 1;
  return s;
}

TEST(GhostEngine, CacheKeysUnchangedForFullMode) {
  const engine::ExperimentSpec full = small_mm_spec();
  EXPECT_EQ(full.canonical_json().find("data_mode"), std::string::npos)
      << "default kFull must stay unserialized or every cached result dies";

  engine::ExperimentSpec ghost = small_mm_spec();
  ghost.data_mode = sim::DataMode::kGhost;
  EXPECT_NE(ghost.canonical_json().find("\"data_mode\":\"ghost\""),
            std::string::npos);
  EXPECT_NE(full.canonical_json(), ghost.canonical_json());

  // Round trip preserves the axis.
  const engine::ExperimentSpec back =
      engine::ExperimentSpec::from_json(json::parse(ghost.canonical_json()));
  EXPECT_EQ(back.canonical_json(), ghost.canonical_json());
  EXPECT_EQ(back.data_mode, sim::DataMode::kGhost);
}

TEST(GhostEngine, ExecuteMatchesFullBitForBit) {
  engine::ExperimentSpec full = small_mm_spec();
  engine::ExperimentSpec ghost = small_mm_spec();
  ghost.data_mode = sim::DataMode::kGhost;
  const engine::ExperimentResult rf = engine::execute(full);
  const engine::ExperimentResult rg = engine::execute(ghost);
  EXPECT_EQ(rf, rg);
}

TEST(GhostEngine, CollectiveBenchMatchesFull) {
  engine::ExperimentSpec s;
  s.alg = engine::Alg::kCollA2aBruck;
  s.params = core::MachineParams::unit();
  s.params.max_msg_words = 8;
  s.p = 8;
  s.payload_words = 9;  // straddles the cap after Bruck's k·g aggregation
  engine::ExperimentSpec g = s;
  g.data_mode = sim::DataMode::kGhost;
  EXPECT_EQ(engine::execute(s), engine::execute(g));
}

// --- Resident memory of per-fiber rows -----------------------------------

/// Resident set size of this process in MiB (/proc/self/statm).
double resident_mib() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ALGE_TEST_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ALGE_TEST_SANITIZED_ALLOCATOR 1
#endif
#endif

TEST(GhostEngine, RepeatedPerFiberRowsKeepResidentMemoryFlat) {
  // A ghost frontier sweep runs one fiber per rank at p in the thousands,
  // row after row. Fiber stacks go back to a shared pool and are reused,
  // so repeating the same mix of rows must leave the resident set where
  // the first pass put it.
#if defined(ALGE_TEST_SANITIZED_ALLOCATOR)
  GTEST_SKIP() << "the sanitizer's allocator keeps freed memory resident "
                  "(quarantine), so the resident set measures it instead";
#endif
  const auto ghost = [](engine::Alg alg) {
    engine::ExperimentSpec s;
    s.alg = alg;
    s.params = core::MachineParams::unit();
    s.data_mode = sim::DataMode::kGhost;
    return s;
  };
  std::vector<engine::ExperimentSpec> rows;
  {
    engine::ExperimentSpec s = ghost(engine::Alg::kMm25d);  // p = 1024
    s.n = 1024;
    s.q = 16;
    s.c = 4;
    rows.push_back(s);
    s = ghost(engine::Alg::kSumma);  // p = 576
    s.n = 1152;
    s.q = 24;
    rows.push_back(s);
    s = ghost(engine::Alg::kNBody);  // p = 1024
    s.n = 4096;
    s.p = 1024;
    s.c = 4;
    rows.push_back(s);
    s = ghost(engine::Alg::kFft);  // p = 256
    s.r_dim = 256;
    s.c_dim = 256;
    s.p = 256;
    rows.push_back(s);
    s = ghost(engine::Alg::kTsqr);  // p = 2048
    s.n = 32;
    s.nb = 4;
    s.p = 2048;
    rows.push_back(s);
  }
  const auto run_all = [&] {
    for (const engine::ExperimentSpec& s : rows) engine::execute(s);
  };
  run_all();
  const double first = resident_mib();
  double peak = first;
  for (int pass = 0; pass < 5; ++pass) {
    run_all();
    peak = std::max(peak, resident_mib());
  }
  EXPECT_LE(peak, first * 1.05 + 1.0)
      << "resident MiB after the first pass: " << first;
}

TEST(GhostEngine, VerifyingAGhostRunIsRejected) {
  engine::ExperimentSpec ghost = small_mm_spec();
  ghost.data_mode = sim::DataMode::kGhost;
  ghost.verify = true;
  EXPECT_THROW(engine::execute(ghost), invalid_argument_error);
}

}  // namespace
}  // namespace alge
