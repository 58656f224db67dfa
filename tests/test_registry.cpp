// The algorithm registry: names, world sizes, the chaos size-class shapes,
// and the proof that there is one program per algorithm — the engine's
// simulator path and the transport layer's simulator backend run the same
// registry program to bit-identical costs.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "algs/harness.hpp"
#include "algs/registry.hpp"
#include "engine/job.hpp"
#include "engine/runner.hpp"
#include "sim/machine.hpp"
#include "support/common.hpp"
#include "transport/run.hpp"

namespace alge::algs {
namespace {

TEST(Registry, EveryNameRoundTrips) {
  for (int i = 0; i <= static_cast<int>(Alg::kCollA2aBruck); ++i) {
    const Alg a = static_cast<Alg>(i);
    EXPECT_EQ(alg_from_string(to_string(a)), a) << to_string(a);
  }
  ASSERT_EQ(entries().size(), 7u);
  for (const AlgEntry& e : entries()) {
    EXPECT_EQ(&entry(e.name()), &e) << e.name();
    EXPECT_EQ(&entry(e.alg), &e) << e.name();
    EXPECT_EQ(find(e.alg), &e) << e.name();
  }
  EXPECT_EQ(find(Alg::kCollBcast), nullptr);
  EXPECT_THROW(entry(Alg::kCollBcast), invalid_argument_error);
  EXPECT_THROW(alg_from_string("no_such_alg"), invalid_argument_error);
}

TEST(Registry, UnknownNameErrorListsAllSevenNames) {
  try {
    entry("qrjob");
    FAIL() << "an unknown name must throw";
  } catch (const invalid_argument_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("qrjob"), std::string::npos) << what;
    for (const char* name :
         {"mm25d", "summa", "caps", "nbody", "lu", "fft", "tsqr"}) {
      EXPECT_NE(what.find(name), std::string::npos) << name << ": " << what;
    }
  }
}

/// Every algorithm's conformance shape and chaos shapes for p = 1..16.
std::vector<Problem> shapes() {
  std::vector<Problem> out;
  for (const AlgEntry& e : entries()) {
    out.push_back(e.conformance());
    for (int p = 1; p <= 16; ++p) out.push_back(e.chaos_shape(p));
  }
  return out;
}

TEST(Registry, WorldSizeEqualsTheRunsP) {
  const core::MachineParams mp = core::MachineParams::unit();
  for (const Problem& pr : shapes()) {
    SCOPED_TRACE(std::string(to_string(pr.alg)));
    const int p = entry(pr.alg).world_size(pr);
    EXPECT_EQ(prepare(pr, /*ghost=*/true).p, p);
    harness::RunObserver ghost;
    ghost.configure = [](sim::MachineConfig& cfg) {
      cfg.data_mode = sim::DataMode::kGhost;
    };
    harness::ScopedRunObserver scope(std::move(ghost));
    EXPECT_EQ(harness::run(pr, mp).p, p);
  }
}

// The rank counts the chaos differentials have always run for size
// classes p = 1..16, per algorithm.
TEST(Registry, ChaosSizeClassesKeepTheirRankCounts) {
  const std::map<std::string, std::vector<int>> want = {
      {"mm25d", {4, 4, 4, 4, 4, 4, 4, 8, 9, 4, 4, 4, 4, 4, 4, 16}},
      {"summa", {1, 1, 1, 4, 4, 4, 4, 4, 9, 9, 9, 9, 9, 9, 9, 16}},
      {"caps", {7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}},
      {"nbody", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}},
      {"lu", {4, 4, 4, 4, 4, 4, 4, 8, 9, 4, 4, 4, 4, 4, 4, 16}},
      {"fft", {1, 2, 2, 4, 4, 4, 4, 8, 8, 8, 8, 8, 8, 8, 8, 16}},
      {"tsqr", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}},
  };
  ASSERT_EQ(want.size(), entries().size());
  for (const AlgEntry& e : entries()) {
    std::vector<int> got;
    for (int p = 1; p <= 16; ++p) got.push_back(e.world_size(e.chaos_shape(p)));
    EXPECT_EQ(got, want.at(std::string(e.name()))) << e.name();
  }
}

// One program per algorithm: engine::execute (the harness's observed
// Machine) and transport::run_sim (the backend-agnostic runner) drive the
// same registry program, so their costs agree bit for bit.
TEST(Registry, EngineAndTransportSimRunTheSameProgram) {
  for (const AlgEntry& e : entries()) {
    SCOPED_TRACE(std::string(e.name()));
    engine::ExperimentSpec spec;
    static_cast<Problem&>(spec) = e.conformance();
    spec.params = core::MachineParams::unit();
    spec.verify = true;
    const engine::ExperimentResult viaengine = engine::execute(spec);

    const Program prog = prepare(spec);
    transport::RunOptions opts;
    opts.p = prog.p;
    opts.params = spec.params;
    const transport::RunReport report = transport::run_sim(opts, prog.rank);

    EXPECT_EQ(viaengine.p, report.p);
    EXPECT_EQ(viaengine.makespan, report.makespan());
    EXPECT_TRUE(viaengine.totals == report.totals());
    EXPECT_TRUE(viaengine.verified);
    Outputs outputs;
    for (const transport::RankReport& r : report.ranks) {
      outputs.push_back(r.output);
    }
    EXPECT_EQ(prog.verify(outputs), viaengine.max_abs_error);
  }
}

TEST(Registry, GhostProgramsCarryNoInputsAndCannotVerify) {
  for (const AlgEntry& e : entries()) {
    const Program ghost = prepare(e.conformance(), /*ghost=*/true);
    EXPECT_EQ(ghost.inputs, nullptr) << e.name();
    EXPECT_THROW(ghost.verify(Outputs(static_cast<std::size_t>(ghost.p))),
                 invalid_argument_error)
        << e.name();
  }
}

}  // namespace
}  // namespace alge::algs
