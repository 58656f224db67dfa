// Tests for the parallel experiment engine: thread pool semantics (bounded
// queue, exception capture, graceful vs discarding shutdown), spec/result
// JSON round-trips, content-addressed caching (memory + disk, corruption
// recovery), and the load-bearing property of the whole subsystem — a sweep
// produces bit-identical results whether it runs on 1 thread or 8.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/cache.hpp"
#include "engine/job.hpp"
#include "engine/pool.hpp"
#include "engine/runner.hpp"
#include "support/common.hpp"
#include "support/json.hpp"

namespace alge::engine {
namespace {

// ---------------------------------------------------------------- pool ----

TEST(Pool, RunsManyTinyJobs) {
  std::atomic<int> sum{0};
  {
    ThreadPool pool(4, 16);  // small queue: exercises submit backpressure
    for (int i = 0; i < 500; ++i) {
      pool.submit([&sum]() { sum.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.drain();
    EXPECT_EQ(pool.jobs_run(), 500u);
  }
  EXPECT_EQ(sum.load(), 500);
}

TEST(Pool, ReturnsValuesThroughFutures) {
  ThreadPool pool(2);
  auto a = pool.submit([]() { return 21 * 2; });
  auto b = pool.submit([]() { return std::string("ok"); });
  EXPECT_EQ(a.get(), 42);
  EXPECT_EQ(b.get(), "ok");
}

TEST(Pool, CapturesJobExceptions) {
  ThreadPool pool(2);
  auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  auto good = pool.submit([]() { return 7; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  EXPECT_EQ(good.get(), 7);  // the pool survives a throwing job
}

TEST(Pool, DrainRunsEverythingQueued) {
  std::atomic<int> ran{0};
  ThreadPool pool(1);
  for (int i = 0; i < 50; ++i) {
    pool.submit([&ran]() {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ran.fetch_add(1);
    });
  }
  pool.drain();  // shutdown with jobs still queued: all must run
  EXPECT_EQ(ran.load(), 50);
}

TEST(Pool, DiscardDropsQueuedJobsAndBreaksTheirPromises) {
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  ThreadPool pool(1, 64);
  auto blocker = pool.submit([&]() {
    started.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ran.fetch_add(1);
  });
  // Make sure the blocker is in flight (not still queued) before queueing
  // the jobs that discard() is supposed to drop.
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<std::future<void>> queued;
  for (int i = 0; i < 8; ++i) {
    queued.push_back(pool.submit([&ran]() { ran.fetch_add(1); }));
  }
  // Let discard() clear the queue, then release the in-flight job so the
  // worker can exit and discard() can join.
  std::thread releaser([&release]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.store(true);
  });
  const std::size_t dropped = pool.discard();
  releaser.join();
  EXPECT_EQ(dropped, 8u);
  EXPECT_EQ(ran.load(), 1);  // only the in-flight job ran
  EXPECT_NO_THROW(blocker.get());
  for (auto& f : queued) {
    EXPECT_THROW(f.get(), std::future_error);
  }
}

TEST(Pool, SubmitAfterShutdownThrows) {
  ThreadPool pool(1);
  pool.drain();
  EXPECT_THROW(pool.submit([]() {}), invalid_argument_error);
}

TEST(Pool, RejectsBadConfig) {
  EXPECT_THROW(ThreadPool(0), invalid_argument_error);
  EXPECT_THROW(ThreadPool(1, 0), invalid_argument_error);
}

// ----------------------------------------------------------------- job ----

ExperimentSpec small_mm_spec() {
  ExperimentSpec s;
  s.alg = Alg::kMm25d;
  s.params = core::MachineParams::unit();
  s.n = 24;
  s.q = 2;
  s.c = 2;
  s.verify = true;
  return s;
}

TEST(Job, SpecJsonRoundTrip) {
  ExperimentSpec s = small_mm_spec();
  s.caps_schedule = "BD";
  s.caps_cutoff = 4;
  s.ring_replication = true;
  s.seed = 0xdeadbeefcafef00dULL;  // does not fit a double exactly
  s.params.beta_t = 1.5625e-2;
  const ExperimentSpec back = ExperimentSpec::from_json(
      json::parse(s.canonical_json()));
  EXPECT_EQ(back, s);
  EXPECT_EQ(back.seed, s.seed);
  EXPECT_EQ(back.canonical_json(), s.canonical_json());
}

TEST(Job, CanonicalJsonDistinguishesEveryField) {
  const ExperimentSpec base = small_mm_spec();
  ExperimentSpec other = base;
  other.seed = 2;
  EXPECT_NE(base.canonical_json(), other.canonical_json());
  other = base;
  other.params.gamma_e = 2.0;
  EXPECT_NE(base.canonical_json(), other.canonical_json());
  other = base;
  other.verify = false;
  EXPECT_NE(base.canonical_json(), other.canonical_json());
}

TEST(Job, ResultJsonRoundTripIsBitExact) {
  const ExperimentResult r = execute(small_mm_spec());
  EXPECT_TRUE(r.verified);
  EXPECT_LT(r.max_abs_error, 1e-9);
  EXPECT_GT(r.totals.flops_total, 0.0);
  const ExperimentResult back =
      ExperimentResult::from_json(json::parse(r.to_json().dump()));
  EXPECT_EQ(back, r);
}

TEST(Job, AlgNamesRoundTrip) {
  for (const Alg a :
       {Alg::kMm25d, Alg::kSumma, Alg::kCaps, Alg::kNBody, Alg::kLu,
        Alg::kFft, Alg::kCollBcast, Alg::kCollReduce, Alg::kCollAllgather,
        Alg::kCollA2aDirect, Alg::kCollA2aBruck}) {
    EXPECT_EQ(alg_from_string(to_string(a)), a);
  }
  EXPECT_THROW(alg_from_string("no_such_alg"), invalid_argument_error);
}

// --------------------------------------------------------------- cache ----

TEST(Cache, Fnv1aMatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Cache, MemoryHitAfterStore) {
  ResultCache cache;
  const ExperimentSpec spec = small_mm_spec();
  EXPECT_FALSE(cache.lookup(spec).has_value());
  const ExperimentResult r = execute(spec);
  cache.store(spec, r);
  const auto hit = cache.lookup(spec);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, r);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, DiskStorePersistsAcrossInstances) {
  const std::string dir =
      testing::TempDir() + "alge_cache_persist_" +
      std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const ExperimentSpec spec = small_mm_spec();
  const ExperimentResult r = execute(spec);
  {
    ResultCache cache(dir);
    cache.store(spec, r);
  }
  ResultCache fresh(dir);
  const auto hit = fresh.lookup(spec);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, r);
  EXPECT_EQ(fresh.stats().disk_hits, 1u);
  std::filesystem::remove_all(dir);
}

TEST(Cache, CorruptedDiskEntryRecoversAsMiss) {
  const std::string dir = testing::TempDir() + "alge_cache_corrupt_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const ExperimentSpec spec = small_mm_spec();
  const ExperimentResult r = execute(spec);
  std::string entry_path;
  {
    ResultCache cache(dir);
    cache.store(spec, r);
    for (const auto& f : std::filesystem::directory_iterator(dir)) {
      entry_path = f.path().string();
    }
  }
  ASSERT_FALSE(entry_path.empty());

  // Truncated JSON.
  { std::ofstream(entry_path, std::ios::trunc) << "{\"spec\":{\"alg\""; }
  {
    ResultCache cache(dir);
    EXPECT_FALSE(cache.lookup(spec).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);
    // store() repairs the entry; the next fresh instance hits again.
    cache.store(spec, r);
  }
  {
    ResultCache cache(dir);
    ASSERT_TRUE(cache.lookup(spec).has_value());
  }

  // Valid JSON but for a different spec (e.g. a hash collision): rejected.
  {
    ExperimentSpec other = spec;
    other.seed = 999;
    json::Value doc = json::Value::object();
    doc.set("spec", other.to_json()).set("result", r.to_json());
    std::ofstream(entry_path, std::ios::trunc) << doc.dump();
  }
  {
    ResultCache cache(dir);
    EXPECT_FALSE(cache.lookup(spec).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);
  }
  std::filesystem::remove_all(dir);
}

// -------------------------------------------------------------- runner ----

std::vector<ExperimentSpec> mixed_sweep() {
  const core::MachineParams mp = core::MachineParams::unit();
  std::vector<ExperimentSpec> specs;
  {
    ExperimentSpec s = small_mm_spec();
    specs.push_back(s);
    s.c = 1;
    specs.push_back(s);
    s.ring_replication = true;
    s.c = 2;
    specs.push_back(s);
  }
  {
    ExperimentSpec s;
    s.alg = Alg::kSumma;
    s.params = mp;
    s.n = 24;
    s.q = 2;
    s.verify = true;
    specs.push_back(s);
  }
  {
    ExperimentSpec s;
    s.alg = Alg::kCaps;
    s.params = mp;
    s.n = 14;
    s.k = 1;
    s.caps_cutoff = 4;
    s.verify = true;
    specs.push_back(s);
  }
  {
    ExperimentSpec s;
    s.alg = Alg::kNBody;
    s.params = mp;
    s.n = 32;
    s.p = 8;
    s.c = 2;
    s.verify = true;
    specs.push_back(s);
  }
  {
    ExperimentSpec s;
    s.alg = Alg::kLu;
    s.params = mp;
    s.n = 16;
    s.nb = 4;
    s.q = 2;
    s.c = 1;
    s.verify = true;
    specs.push_back(s);
  }
  {
    ExperimentSpec s;
    s.alg = Alg::kFft;
    s.params = mp;
    s.r_dim = 16;
    s.c_dim = 16;
    s.p = 4;
    s.verify = true;
    specs.push_back(s);
    s.fft_bruck = true;
    specs.push_back(s);
  }
  for (const Alg a : {Alg::kCollBcast, Alg::kCollAllgather,
                      Alg::kCollA2aBruck}) {
    ExperimentSpec s;
    s.alg = a;
    s.params = mp;
    s.p = 8;
    s.payload_words = 32;
    specs.push_back(s);
  }
  return specs;
}

TEST(Runner, SweepIsDeterministicAcrossThreadCounts) {
  const std::vector<ExperimentSpec> specs = mixed_sweep();

  SweepOptions serial;
  serial.threads = 1;
  SweepRunner r1(serial);
  const auto serial_results = r1.run(specs);

  SweepOptions parallel;
  parallel.threads = 8;
  SweepRunner r8(parallel);
  const auto parallel_results = r8.run(specs);

  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    // Bit-identical results (operator== compares every counter and energy
    // term exactly) and identical content addresses.
    EXPECT_EQ(serial_results[i], parallel_results[i]) << "spec " << i;
    EXPECT_EQ(r1.cache().key_of(specs[i]), r8.cache().key_of(specs[i]));
    if (specs[i].verify) {
      EXPECT_TRUE(serial_results[i].verified);
      EXPECT_LT(serial_results[i].max_abs_error, 1e-8);
    }
  }
  EXPECT_EQ(r8.stats().jobs, static_cast<int>(specs.size()));
  EXPECT_EQ(r8.stats().cache_hits, 0);
}

TEST(Runner, SecondRunIsAllCacheHits) {
  const std::vector<ExperimentSpec> specs = mixed_sweep();
  SweepOptions opts;
  opts.threads = 4;
  SweepRunner runner(opts);
  const auto first = runner.run(specs);
  EXPECT_EQ(runner.stats().cache_hits, 0);
  const auto second = runner.run(specs);
  EXPECT_EQ(runner.stats().cache_hits, static_cast<int>(specs.size()));
  EXPECT_EQ(runner.stats().executed, 0);
  EXPECT_EQ(first, second);
}

TEST(Runner, WarmDiskCacheServesResultsWithoutExecuting) {
  const std::string dir = testing::TempDir() + "alge_runner_disk_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const std::vector<ExperimentSpec> specs = mixed_sweep();
  std::vector<ExperimentResult> cold;
  {
    SweepOptions opts;
    opts.threads = 2;
    opts.cache_dir = dir;
    SweepRunner runner(opts);
    cold = runner.run(specs);
  }
  SweepOptions opts;
  opts.threads = 2;
  opts.cache_dir = dir;
  SweepRunner warm(opts);
  const auto warm_results = warm.run(specs);
  EXPECT_EQ(warm.stats().cache_hits, static_cast<int>(specs.size()));
  EXPECT_EQ(cold, warm_results);
  std::filesystem::remove_all(dir);
}

TEST(Runner, ProgressReportsEveryJobOnce) {
  std::vector<std::pair<int, int>> calls;
  SweepOptions opts;
  opts.threads = 4;
  opts.progress = [&calls](int done, int total) {
    calls.emplace_back(done, total);
  };
  SweepRunner runner(opts);
  std::vector<ExperimentSpec> specs;
  for (int p : {2, 4, 8}) {
    ExperimentSpec s;
    s.alg = Alg::kCollBcast;
    s.params = core::MachineParams::unit();
    s.p = p;
    s.payload_words = 8;
    specs.push_back(s);
  }
  runner.run(specs);
  ASSERT_EQ(calls.size(), specs.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].first, static_cast<int>(i) + 1);
    EXPECT_EQ(calls[i].second, static_cast<int>(specs.size()));
  }
}

TEST(Runner, InvalidSpecSurfacesAsException) {
  ExperimentSpec bad;
  bad.alg = Alg::kCollBcast;
  bad.p = 0;  // invalid
  bad.payload_words = 8;
  SweepOptions opts;
  opts.threads = 2;
  SweepRunner runner(opts);
  EXPECT_THROW(runner.run({bad}), invalid_argument_error);
}

/// The names of the records in the engine bench file at `path`.
std::vector<std::string> bench_record_names(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const json::Value doc = json::parse(buf.str());
  EXPECT_EQ(doc.at("bench").as_string(), "engine");
  std::vector<std::string> names;
  for (const json::Value& r : doc.at("records").as_array()) {
    names.push_back(r.at("name").as_string());
  }
  return names;
}

SweepRunner& one_job_sweep(SweepRunner& runner) {
  ExperimentSpec s;
  s.alg = Alg::kCollBcast;
  s.params = core::MachineParams::unit();
  s.p = 4;
  s.payload_words = 8;
  runner.run({s});
  return runner;
}

TEST(Runner, BenchRecordReplacesSameBench) {
  const std::string path = testing::TempDir() + "alge_bench_record_" +
                           std::to_string(::getpid()) + ".json";
  {
    std::ofstream garbage(path);
    garbage << "[{\"bench\": \"old history\"";  // malformed: start fresh
  }
  SweepRunner runner;
  one_job_sweep(runner);
  append_bench_record("unit_test", runner, path);
  append_bench_record("unit_test", runner, path);
  EXPECT_EQ(bench_record_names(path), std::vector<std::string>{"unit_test"});
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const json::Value rec =
      json::parse(buf.str()).at("records").as_array().at(0);
  EXPECT_EQ(rec.at("metrics").at("jobs").at("value").as_double(), 1.0);
  EXPECT_EQ(rec.at("metrics").at("jobs").at("better").as_string(), "none");
  std::filesystem::remove(path);
}

TEST(Runner, BenchRecordKeepsOtherBenches) {
  const std::string path = testing::TempDir() + "alge_bench_records_" +
                           std::to_string(::getpid()) + ".json";
  std::filesystem::remove(path);
  SweepRunner runner;
  one_job_sweep(runner);
  append_bench_record("sweep_a", runner, path);
  append_bench_record("sweep_b", runner, path);
  append_bench_record("sweep_a", runner, path);
  EXPECT_EQ(bench_record_names(path),
            (std::vector<std::string>{"sweep_b", "sweep_a"}));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace alge::engine
