// Tests for src/serve: wire-protocol framing edge cases (partial reads,
// zero-length / oversized frames, disconnect mid-frame), bit-identity of
// served answers against direct core::Optimizer / engine::execute
// evaluation on both the answer-store miss and hit paths, spec-level
// in-flight coalescing (results and failures), CLOCK eviction of the answer
// store, the concurrent-writer hardening of the engine's on-disk
// result cache, the per-request SpanLog, and graceful server shutdown.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/opt.hpp"
#include "engine/backend.hpp"
#include "engine/cache.hpp"
#include "navigator/navigator.hpp"
#include "engine/runner.hpp"
#include "machines/db.hpp"
#include "obs/span_log.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "support/common.hpp"
#include "support/json.hpp"

namespace alge {
namespace {

using serve::FrameReader;
using Status = serve::FrameReader::Status;

// --- protocol framing ----------------------------------------------------

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST(Protocol, PipelinedFramesInOneWrite) {
  SocketPair sp;
  std::string out;
  serve::append_frame(out, "first");
  serve::append_frame(out, "second");
  serve::append_frame(out, "third");
  ASSERT_TRUE(serve::write_all(sp.a, out));
  FrameReader reader(sp.b);
  std::string_view payload;
  ASSERT_EQ(reader.next(&payload), Status::kFrame);
  EXPECT_EQ(payload, "first");
  EXPECT_TRUE(reader.frame_buffered());
  ASSERT_EQ(reader.next(&payload), Status::kFrame);
  EXPECT_EQ(payload, "second");
  ASSERT_EQ(reader.next(&payload), Status::kFrame);
  EXPECT_EQ(payload, "third");
  EXPECT_FALSE(reader.frame_buffered());
  ::close(sp.a);
  sp.a = -1;
  EXPECT_EQ(reader.next(&payload), Status::kClosed);
}

TEST(Protocol, PartialDeliveryReassembles) {
  SocketPair sp;
  std::string frame;
  serve::append_frame(frame, std::string(1000, 'x'));
  // Drip the frame through the socket a few bytes at a time from another
  // thread; the reader must block and reassemble.
  std::thread writer([&] {
    for (std::size_t i = 0; i < frame.size(); i += 7) {
      const std::size_t len = std::min<std::size_t>(7, frame.size() - i);
      ASSERT_TRUE(serve::write_all(sp.a, {frame.data() + i, len}));
      std::this_thread::yield();
    }
  });
  FrameReader reader(sp.b);
  std::string_view payload;
  ASSERT_EQ(reader.next(&payload), Status::kFrame);
  EXPECT_EQ(payload.size(), 1000u);
  writer.join();
}

TEST(Protocol, ZeroLengthFrameIsErrorButStreamContinues) {
  SocketPair sp;
  std::string out;
  serve::append_frame(out, "");
  serve::append_frame(out, "after");
  ASSERT_TRUE(serve::write_all(sp.a, out));
  FrameReader reader(sp.b);
  std::string_view payload;
  EXPECT_EQ(reader.next(&payload), Status::kEmpty);
  ASSERT_EQ(reader.next(&payload), Status::kFrame);
  EXPECT_EQ(payload, "after");
}

TEST(Protocol, OversizedFrameIsUnrecoverable) {
  SocketPair sp;
  std::string out;
  serve::append_frame(out, "this payload exceeds the tiny cap");
  ASSERT_TRUE(serve::write_all(sp.a, out));
  FrameReader reader(sp.b, /*max_frame_bytes=*/8);
  std::string_view payload;
  EXPECT_EQ(reader.next(&payload), Status::kTooLarge);
}

TEST(Protocol, DisconnectMidFrameIsTruncated) {
  SocketPair sp;
  std::string frame;
  serve::append_frame(frame, "never fully arrives");
  ASSERT_TRUE(serve::write_all(sp.a, {frame.data(), frame.size() - 5}));
  ::close(sp.a);
  sp.a = -1;
  FrameReader reader(sp.b);
  std::string_view payload;
  EXPECT_EQ(reader.next(&payload), Status::kTruncated);
}

// --- service: bit-identity and error handling ----------------------------

std::string handle(serve::QueryService& svc, const std::string& req) {
  return *svc.handle(req);
}

/// Parse a response, require ok, return the answer's dump.
std::string answer_of(const std::string& response) {
  const json::Value v = json::parse(response);
  EXPECT_TRUE(v.at("ok").as_bool()) << response;
  return v.at("answer").dump();
}

/// The service's documented answer encoding for a RunPoint, built here
/// independently so the test checks serve against core, not serve against
/// serve.
std::string run_point_dump(const core::RunPoint& pt) {
  json::Value o = json::Value::object();
  o.set("feasible", pt.feasible)
      .set("p", pt.p)
      .set("M", pt.M)
      .set("T", pt.T)
      .set("E", pt.E)
      .set("total_power", pt.total_power())
      .set("proc_power", pt.proc_power());
  return o.dump();
}

core::MachineParams case_study_no_mem() {
  core::MachineParams mp = machines::CaseStudyMachine{}.params();
  mp.mem_words = 0.0;
  return mp;
}

TEST(QueryService, MalformedJsonGetsStructuredError) {
  serve::QueryService svc;
  const json::Value v = json::parse(handle(svc, "{nonsense"));
  EXPECT_FALSE(v.at("ok").as_bool());
  EXPECT_FALSE(v.at("error").as_string().empty());
  // The service survives; a well-formed request still works.
  EXPECT_EQ(answer_of(handle(svc, R"({"kind":"ping"})")), "\"pong\"");
}

TEST(QueryService, UnknownKindGetsStructuredError) {
  serve::QueryService svc;
  const json::Value v =
      json::parse(handle(svc, R"({"kind":"divine_intervention"})"));
  EXPECT_FALSE(v.at("ok").as_bool());
  EXPECT_NE(v.at("error").as_string().find("divine_intervention"),
            std::string::npos);
}

TEST(QueryService, ClosedFormsBitIdenticalToOptimizerHitAndMiss) {
  serve::QueryService svc;
  const double n = 1e7;
  const core::NBodyModel model(20.0);
  const core::Optimizer solver(model, n, case_study_no_mem());
  const core::OptLimits lim;

  const std::vector<std::pair<std::string, core::RunPoint>> cases = {
      {R"({"kind":"min_energy","model":"nbody","f":20,"n":1e7})",
       solver.minimize_energy(lim)},
      {R"({"kind":"min_time","model":"nbody","f":20,"n":1e7})",
       solver.minimize_time(lim)},
      {R"({"kind":"min_energy_given_time","model":"nbody","f":20,"n":1e7,)"
       R"("t_max":100})",
       solver.min_energy_given_time(100.0, lim)},
      {R"({"kind":"min_time_given_energy","model":"nbody","f":20,"n":1e7,)"
       R"("e_max":1e6})",
       solver.min_time_given_energy(1e6, lim)},
      {R"({"kind":"min_time_given_total_power","model":"nbody","f":20,)"
       R"("n":1e7,"power_max":1e5})",
       solver.min_time_given_total_power(1e5, lim)},
      {R"({"kind":"min_energy_given_total_power","model":"nbody","f":20,)"
       R"("n":1e7,"power_max":1e5})",
       solver.min_energy_given_total_power(1e5, lim)},
      {R"({"kind":"min_time_given_proc_power","model":"nbody","f":20,)"
       R"("n":1e7,"proc_power_max":100})",
       solver.min_time_given_proc_power(100.0, lim)},
      {R"({"kind":"min_energy_given_proc_power","model":"nbody","f":20,)"
       R"("n":1e7,"proc_power_max":100})",
       solver.min_energy_given_proc_power(100.0, lim)},
      {R"({"kind":"evaluate","model":"nbody","f":20,"n":1e7,"p":64,)"
       R"("M":65536})",
       solver.evaluate(64.0, 65536.0)},
  };
  for (const auto& [req, expected] : cases) {
    const std::string miss = handle(svc, req);
    EXPECT_EQ(answer_of(miss), run_point_dump(expected)) << req;
    // Second serve is an answer-store hit and must be the same bytes.
    EXPECT_EQ(handle(svc, req), miss) << req;
  }
}

TEST(QueryService, IdEchoedOnHitAndMiss) {
  serve::QueryService svc;
  const std::string req =
      R"({"id":"req-42","kind":"min_energy","model":"nbody","f":20,"n":1e6})";
  const std::string miss = handle(svc, req);
  EXPECT_EQ(json::parse(miss).at("id").as_string(), "req-42");
  EXPECT_EQ(handle(svc, req), miss);
}

engine::ExperimentSpec ghost_mm_spec(int n = 16) {
  engine::ExperimentSpec s;
  s.alg = engine::Alg::kMm25d;
  s.params = core::MachineParams::unit();
  s.n = n;
  s.q = 2;
  s.c = 1;
  s.data_mode = sim::DataMode::kGhost;
  return s;
}

TEST(QueryService, ExperimentMatchesEngineExecuteHitAndMiss) {
  serve::QueryService svc;
  const engine::ExperimentSpec spec = ghost_mm_spec();
  const std::string req =
      R"({"kind":"experiment","spec":)" + spec.canonical_json() + "}";
  const std::string want = engine::execute(spec).to_json().dump();
  const std::string miss = handle(svc, req);
  EXPECT_EQ(answer_of(miss), want);
  EXPECT_EQ(handle(svc, req), miss);  // answer-store hit, same bytes
  EXPECT_EQ(svc.result_cache().stats().misses, 1u);
}

TEST(QueryService, PartialSpecTakesDefaultsAndGhostMode) {
  serve::QueryService svc;
  // Only the fields that differ from ExperimentSpec defaults; the service
  // fills the rest and defaults data_mode to ghost.
  const std::string req =
      R"({"kind":"experiment","spec":{"alg":"mm25d","n":16,"q":2,"c":1}})";
  EXPECT_EQ(answer_of(handle(svc, req)),
            engine::execute(ghost_mm_spec()).to_json().dump());
}

TEST(QueryService, ConcurrentIdenticalExperimentsSimulateOnce) {
  serve::QueryService svc;
  // Distinct ids → distinct request bytes → the answer store cannot help;
  // the spec-level in-flight table (plus the result cache) must still keep
  // this to a single simulation.
  constexpr int kThreads = 8;
  std::vector<std::string> responses(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const std::string req = R"({"id":"t)" + std::to_string(i) +
                              R"(","kind":"experiment","spec":)" +
                              ghost_mm_spec().canonical_json() + "}";
      responses[static_cast<std::size_t>(i)] = handle(svc, req);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(svc.result_cache().stats().misses, 1u);
  const std::string want = answer_of(responses[0]);
  for (const std::string& r : responses) EXPECT_EQ(answer_of(r), want);
}

TEST(QueryService, ConcurrentFailingExperimentsShareTheError) {
  // A spec that parses but fails inside engine::execute: its transport
  // names a scripted backend that holds the run open until every other
  // thread waits on it, then throws. The owner's exception reaches all
  // eight threads as the same structured error.
  serve::QueryService svc;
  constexpr int kThreads = 8;
  engine::register_backend_executor(
      "scripted-failure",
      [&svc](const engine::ExperimentSpec&) -> engine::ExperimentResult {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (svc.stats_json().at("spec_coalesced").as_double() <
                   kThreads - 1 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        throw std::runtime_error("scripted backend failed mid-run");
      });
  std::vector<std::string> responses(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const std::string req =
          R"({"id":"t)" + std::to_string(i) +
          R"(","kind":"experiment","spec":{"alg":"mm25d","n":16,"q":2,)"
          R"("c":1,"transport":"scripted-failure"}})";
      responses[static_cast<std::size_t>(i)] = handle(svc, req);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& r : responses) {
    const json::Value v = json::parse(r);
    EXPECT_FALSE(v.at("ok").as_bool()) << r;
    EXPECT_EQ(v.at("error").as_string(), "scripted backend failed mid-run");
  }
  // One owner ran (one result-cache lookup, a miss; a failed run stores
  // nothing) and the other seven waited on it.
  const json::Value stats =
      json::parse(answer_of(handle(svc, R"({"kind":"stats"})")));
  EXPECT_EQ(svc.result_cache().stats().misses, 1u);
  EXPECT_EQ(stats.at("spec_coalesced").as_double(), kThreads - 1.0);
  EXPECT_EQ(stats.at("classes").at("experiment").at("errors").as_double(),
            static_cast<double>(kThreads));
  // Drop the executor's reference to this test's service.
  engine::register_backend_executor(
      "scripted-failure",
      [](const engine::ExperimentSpec&) -> engine::ExperimentResult {
        throw std::runtime_error("scripted backend is not armed");
      });
}

TEST(QueryService, FullStoreEvictsOldestColdAnswers) {
  // CLOCK at capacity: with no hits every referenced bit stays clear, so
  // the hand evicts in arrival order and the store keeps the newest
  // answers. Ten distinct misses through a 4-entry store leave the last
  // four resident.
  serve::ServiceOptions opts;
  opts.answer_cache_cap = 4;
  serve::QueryService svc(opts);
  auto req = [](int i) {
    return strfmt(R"({"kind":"min_energy","model":"nbody","n":%d})",
                  1000000 + i);
  };
  for (int i = 0; i < 10; ++i) (void)handle(svc, req(i));
  for (int i = 9; i >= 6; --i) (void)handle(svc, req(i));
  const json::Value stats =
      json::parse(answer_of(handle(svc, R"({"kind":"stats"})")));
  EXPECT_EQ(stats.at("classes").at("min_energy").at("answer_hits").as_double(),
            4.0)
      << "a recent answer was evicted while older ones stayed resident";
  EXPECT_EQ(stats.at("answer_evictions").as_double(), 6.0);
  EXPECT_EQ(stats.at("answer_store_entries").as_double(), 4.0);
}

TEST(QueryService, HotAnswersSurviveOneShotFloods) {
  // Second-chance eviction (ServiceOptions::answer_cache_cap): a hot
  // closed-form answer a dashboard polls must outlive a flood of one-shot
  // experiment queries that each displace an entry. The hot entry's
  // referenced bit is re-set by its hits, so the clock hand passes over it
  // and evicts the never-rehit one-shots instead.
  serve::ServiceOptions opts;
  opts.answer_cache_cap = 4;
  serve::QueryService svc(opts);
  const std::string hot =
      R"({"kind":"min_energy","model":"nbody","f":20,"n":1e6})";
  const std::string want = handle(svc, hot);  // seed the store (a miss)
  int hot_hits = 0;
  for (int i = 1; i <= 24; ++i) {
    const std::string req = strfmt(
        R"({"kind":"experiment","spec":{"alg":"mm25d","n":%d,"q":2,"c":1}})",
        4 * i);
    EXPECT_TRUE(json::parse(handle(svc, req)).at("ok").as_bool());
    if (i % 2 == 0) {
      // Poll the hot query at least once per clock lap (cap − 1 inserts):
      // every poll after the first must be an answer-store hit.
      EXPECT_EQ(handle(svc, hot), want);
      ++hot_hits;
    }
  }
  const json::Value stats =
      json::parse(answer_of(handle(svc, R"({"kind":"stats"})")));
  EXPECT_EQ(stats.at("classes").at("min_energy").at("answer_hits").as_double(),
            static_cast<double>(hot_hits))
      << "a hot-query poll missed: the flood evicted the hot answer";
  EXPECT_GT(stats.at("answer_evictions").as_double(), 0.0);
  EXPECT_LE(stats.at("answer_store_entries").as_double(), 4.0);
}

TEST(QueryService, StatsReportsServedClasses) {
  serve::QueryService svc;
  (void)handle(svc, R"({"kind":"min_energy","model":"nbody","f":20,"n":1e6})");
  (void)handle(svc, R"({"kind":"min_energy","model":"nbody","f":20,"n":1e6})");
  const json::Value stats =
      json::parse(answer_of(handle(svc, R"({"kind":"stats"})")));
  const json::Value& cls = stats.at("classes").at("min_energy");
  EXPECT_EQ(cls.at("count").as_double(), 2.0);
  EXPECT_EQ(cls.at("answer_hits").as_double(), 1.0);
  EXPECT_GT(stats.at("answer_store_entries").as_double(), 0.0);
  // Kept for stats consumers; nothing coalesces at the byte level.
  EXPECT_EQ(stats.at("coalesced").as_double(), 0.0);
}

// --- batch framing: per-spec caching through one frame -------------------

TEST(QueryService, BatchAnswersMatchSinglesInOrder) {
  serve::QueryService svc;
  const std::string q1 =
      R"({"kind":"min_energy","model":"nbody","f":20,"n":1e6})";
  const std::string q2 = R"({"kind":"ping"})";
  const std::string q3 =
      R"({"kind":"evaluate","model":"nbody","f":20,"n":1e6,"p":64,"M":65536})";
  // Batch elements are re-dispatched in re-serialized (canonical) form, so
  // prime the store with that form: the batch's element 0 must then be a
  // per-spec answer-store hit.
  const std::string single1 = handle(svc, json::parse(q1).dump());

  const std::string batch =
      R"({"kind":"batch","queries":[)" + q1 + "," + q2 + "," + q3 + "]}";
  const json::Value v = json::parse(handle(svc, batch));
  ASSERT_TRUE(v.at("ok").as_bool());
  const json::Value::Array& answers = v.at("answer").as_array();
  ASSERT_EQ(answers.size(), 3u);
  // Element 0 repeats q1: it must be the answer-store hit — the exact
  // bytes the single-frame serve produced.
  EXPECT_EQ(answers[0].dump(), single1);
  EXPECT_EQ(answers[1].at("answer").as_string(), "pong");
  EXPECT_TRUE(answers[2].at("ok").as_bool());

  // The ledger saw the elements individually, and q1 hit the store.
  const json::Value stats =
      json::parse(answer_of(handle(svc, R"({"kind":"stats"})")));
  EXPECT_EQ(stats.at("classes").at("min_energy").at("answer_hits")
                .as_double(),
            1.0);
  EXPECT_EQ(stats.at("classes").at("batch").at("count").as_double(), 1.0);
}

TEST(QueryService, BatchFrameNotCachedButElementsAre) {
  serve::QueryService svc;
  const std::string batch =
      R"({"kind":"batch","queries":[)"
      R"({"kind":"min_energy","model":"nbody","f":20,"n":1e6},)"
      R"({"kind":"min_time","model":"nbody","f":20,"n":1e6}]})";
  const std::string first = handle(svc, batch);
  EXPECT_EQ(handle(svc, batch), first);  // same answers, recomputed frame
  const json::Value stats =
      json::parse(answer_of(handle(svc, R"({"kind":"stats"})")));
  // Only the two element answers are resident; the batch frames are not.
  EXPECT_EQ(stats.at("answer_store_entries").as_double(), 2.0);
  // Second batch served both elements from the store.
  EXPECT_EQ(stats.at("classes").at("min_energy").at("answer_hits")
                .as_double(),
            1.0);
  EXPECT_EQ(stats.at("classes").at("min_time").at("answer_hits").as_double(),
            1.0);
}

TEST(QueryService, BatchElementFailuresStayLocal) {
  serve::QueryService svc;
  const std::string batch =
      R"({"kind":"batch","queries":[{"kind":"no_such_kind"},)"
      R"({"kind":"ping"}]})";
  const json::Value v = json::parse(handle(svc, batch));
  ASSERT_TRUE(v.at("ok").as_bool());
  const json::Value::Array& answers = v.at("answer").as_array();
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_FALSE(answers[0].at("ok").as_bool());
  EXPECT_NE(answers[0].at("error").as_string().find("no_such_kind"),
            std::string::npos);
  EXPECT_TRUE(answers[1].at("ok").as_bool());
}

TEST(QueryService, NestedBatchRejected) {
  serve::QueryService svc;
  const std::string batch =
      R"({"kind":"batch","queries":[{"kind":"batch","queries":)"
      R"([{"kind":"ping"}]}]})";
  const json::Value v = json::parse(handle(svc, batch));
  EXPECT_FALSE(v.at("ok").as_bool());
  EXPECT_NE(v.at("error").as_string().find("nest"), std::string::npos);
}

// --- navigate queries ----------------------------------------------------

TEST(QueryService, NavigateMatchesDirectNavigatorHitAndMiss) {
  serve::QueryService svc;
  const std::string req =
      R"({"kind":"navigate","model":"nbody","f":20,"n":1e6,)"
      R"("limits":{"p_available":256},"p_samples":8,"m_samples":4})";

  navigator::NavRequest nr;
  nr.model = "nbody";
  nr.f = 20.0;
  nr.n = 1e6;
  nr.params = case_study_no_mem();
  nr.limits.p_available = 256.0;
  nr.p_samples = 8;
  nr.m_samples = 4;
  const std::string want = navigator::navigate(nr).to_json().dump();

  const std::string miss = handle(svc, req);
  EXPECT_EQ(answer_of(miss), want);
  EXPECT_EQ(handle(svc, req), miss);  // answer-store hit, same bytes
}

// --- engine cache: concurrent writers, torn entries (satellite a) --------

TEST(ResultCacheHardening, ConcurrentWritersSharingOneDir) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "alge_cache_conc_test")
          .string();
  std::filesystem::remove_all(dir);
  {
    // Two cache instances (two "processes") race distinct and identical
    // stores into one directory.
    engine::ResultCache a(dir);
    engine::ResultCache b(dir);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 8; ++i) {
          const engine::ExperimentSpec spec = ghost_mm_spec(16 * (1 + i));
          (t % 2 == 0 ? a : b).store(spec, engine::execute(spec));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  // A fresh cache must read every entry back from disk, and no *.tmp
  // litter may remain.
  engine::ResultCache fresh(dir);
  for (int i = 0; i < 8; ++i) {
    const engine::ExperimentSpec spec = ghost_mm_spec(16 * (1 + i));
    const auto hit = fresh.lookup(spec);
    ASSERT_TRUE(hit.has_value()) << "n=" << spec.n;
    EXPECT_EQ(hit->to_json().dump(), engine::execute(spec).to_json().dump());
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".json") << entry.path();
  }
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheHardening, TornEntryDegradesToMissThenHeals) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "alge_cache_torn_test")
          .string();
  std::filesystem::remove_all(dir);
  const engine::ExperimentSpec spec = ghost_mm_spec();
  {
    engine::ResultCache cache(dir);
    cache.store(spec, engine::execute(spec));
  }
  // Tear the entry: truncate the stored file mid-JSON, as an interrupted
  // writer without atomic rename would have.
  std::filesystem::path stored;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    stored = entry.path();
  }
  ASSERT_FALSE(stored.empty());
  std::filesystem::resize_file(stored, 10);

  engine::ResultCache cache(dir);
  EXPECT_FALSE(cache.lookup(spec).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
  // The miss is repairable: store again, and a fresh instance hits.
  cache.store(spec, engine::execute(spec));
  engine::ResultCache healed(dir);
  EXPECT_TRUE(healed.lookup(spec).has_value());
  std::filesystem::remove_all(dir);
}

// --- SpanLog -------------------------------------------------------------

TEST(SpanLog, RecordsChromeTraceSpans) {
  obs::SpanLog log(/*capacity=*/2);
  const auto t0 = obs::SpanLog::Clock::now();
  const auto t1 = t0 + std::chrono::microseconds(5);
  log.record("min_energy", /*lane=*/1, t0, t1, /*cached=*/false);
  log.record("ping", /*lane=*/0, t0, t1, /*cached=*/true);
  log.record("dropped", /*lane=*/0, t0, t1, /*cached=*/false);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  std::ostringstream out;
  log.write_chrome(out);
  const json::Value doc = json::parse(out.str());
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("name").as_string(), "min_energy");
  EXPECT_EQ(events[0].at("ph").as_string(), "X");
  EXPECT_EQ(events[0].at("tid").as_double(), 1.0);
  EXPECT_EQ(events[1].at("args").at("cached").as_bool(), true);
}

// --- server over TCP -----------------------------------------------------

struct TestServer {
  serve::QueryService service;
  serve::Server server;
  TestServer() : server(service, {}) { server.start(); }
  int connect() { return serve::connect_tcp("127.0.0.1", server.port()); }
};

TEST(Server, PipelinedRequestsAnswerInOrder) {
  TestServer ts;
  const int fd = ts.connect();
  std::string out;
  serve::append_frame(out, R"({"id":"1","kind":"ping"})");
  serve::append_frame(
      out, R"({"id":"2","kind":"min_energy","model":"nbody","f":20,"n":1e6})");
  serve::append_frame(out, R"({"id":"3","kind":"ping"})");
  ASSERT_TRUE(serve::write_all(fd, out));
  FrameReader reader(fd);
  std::string_view payload;
  for (const char* want : {"1", "2", "3"}) {
    ASSERT_EQ(reader.next(&payload), Status::kFrame);
    const json::Value v = json::parse(std::string(payload));
    EXPECT_EQ(v.at("id").as_string(), want);
    EXPECT_TRUE(v.at("ok").as_bool());
  }
  ::close(fd);
  ts.server.stop();
  EXPECT_EQ(ts.server.stats().requests, 3u);
}

TEST(Server, MalformedTrafficGetsErrorsNotCrashes) {
  TestServer ts;
  // Zero-length frame: structured error, connection stays usable.
  {
    const int fd = ts.connect();
    std::string out;
    serve::append_frame(out, "");
    serve::append_frame(out, R"({"kind":"ping"})");
    ASSERT_TRUE(serve::write_all(fd, out));
    FrameReader reader(fd);
    std::string_view payload;
    ASSERT_EQ(reader.next(&payload), Status::kFrame);
    EXPECT_FALSE(json::parse(std::string(payload)).at("ok").as_bool());
    ASSERT_EQ(reader.next(&payload), Status::kFrame);
    EXPECT_TRUE(json::parse(std::string(payload)).at("ok").as_bool());
    ::close(fd);
  }
  // Malformed JSON: structured error, connection stays usable.
  {
    const int fd = ts.connect();
    ASSERT_TRUE(serve::write_frame(fd, "{not json"));
    FrameReader reader(fd);
    std::string_view payload;
    ASSERT_EQ(reader.next(&payload), Status::kFrame);
    EXPECT_FALSE(json::parse(std::string(payload)).at("ok").as_bool());
    ::close(fd);
  }
  // Disconnect mid-frame: the server must just drop the connection.
  {
    const int fd = ts.connect();
    std::string frame;
    serve::append_frame(frame, R"({"kind":"ping"})");
    ASSERT_TRUE(serve::write_all(fd, {frame.data(), frame.size() - 3}));
    ::close(fd);
  }
  // …and keep serving new connections afterwards.
  {
    const int fd = ts.connect();
    ASSERT_TRUE(serve::write_frame(fd, R"({"kind":"ping"})"));
    FrameReader reader(fd);
    std::string_view payload;
    ASSERT_EQ(reader.next(&payload), Status::kFrame);
    EXPECT_TRUE(json::parse(std::string(payload)).at("ok").as_bool());
    ::close(fd);
  }
  ts.server.stop();
}

TEST(Server, OversizedFrameErrorsAndCloses) {
  serve::QueryService service;
  serve::ServerOptions opts;
  opts.max_frame_bytes = 64;
  serve::Server server(service, opts);
  server.start();
  const int fd = serve::connect_tcp("127.0.0.1", server.port());
  ASSERT_TRUE(serve::write_frame(fd, std::string(1000, 'x')));
  FrameReader reader(fd);
  std::string_view payload;
  ASSERT_EQ(reader.next(&payload), Status::kFrame);
  EXPECT_FALSE(json::parse(std::string(payload)).at("ok").as_bool());
  // After the error response the server closes its end.
  EXPECT_EQ(reader.next(&payload), Status::kClosed);
  ::close(fd);
  server.stop();
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

TEST(Server, GracefulStopDrainsAndIsIdempotent) {
  TestServer ts;
  const int fd = ts.connect();
  ASSERT_TRUE(serve::write_frame(fd, R"({"kind":"ping"})"));
  FrameReader reader(fd);
  std::string_view payload;
  ASSERT_EQ(reader.next(&payload), Status::kFrame);
  ts.server.stop();
  ts.server.stop();  // idempotent
  // The server half-closed this connection during drain; reads now see EOF.
  EXPECT_EQ(reader.next(&payload), Status::kClosed);
  ::close(fd);
  EXPECT_EQ(ts.server.stats().connections_open, 0u);
}

}  // namespace
}  // namespace alge
