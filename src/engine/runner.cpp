#include "engine/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <utility>

#include "algs/harness.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/schedule.hpp"
#include "engine/backend.hpp"
#include "engine/pool.hpp"
#include "obs/bench_metrics.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"
#include "support/common.hpp"
#include "support/json.hpp"

namespace alge::engine {

namespace {

ExperimentResult from_run(const algs::harness::RunResult& r) {
  ExperimentResult out;
  out.p = r.p;
  out.makespan = r.makespan;
  out.totals = r.totals;
  out.energy = r.energy.breakdown;
  out.max_abs_error = r.max_abs_error;
  out.verified = r.verified;
  out.fold_slots = r.fold_slots;
  return out;
}

/// The collective microbenches of ablation_collectives as engine jobs: one
/// Machine of spec.p ranks runs the collective once on a payload of
/// spec.payload_words.
ExperimentResult run_collective(const ExperimentSpec& spec) {
  ALGE_REQUIRE(spec.p >= 1, "collective spec needs p >= 1");
  ALGE_REQUIRE(spec.payload_words >= 1,
               "collective spec needs payload_words >= 1");
  const algs::harness::RunObserver& obs = algs::harness::run_observer();
  // Shared config path with the harness run_* entry points, so the
  // observer's trace/ledger flags and configure hook (chaos fault
  // injection, wake policies) apply to collectives too.
  sim::MachineConfig cfg = algs::harness::observed_config(spec.params);
  cfg.p = spec.p;
  const bool ghost = cfg.data_mode == sim::DataMode::kGhost;
  sim::Machine m(cfg);
  const std::size_t k = static_cast<std::size_t>(spec.payload_words);
  const int p = spec.p;
  m.run([&](sim::Comm& c) {
    const sim::Group world = sim::Group::world(p);
    const std::size_t kp = k * static_cast<std::size_t>(p);
    // Ghost runs pass storage-free views of the same sizes; the cost
    // schedule is identical either way.
    std::vector<double> d, out;
    switch (spec.alg) {
      case Alg::kCollBcast:
        if (!ghost) d.assign(k, 1.0);
        c.bcast(ghost ? sim::Payload::ghost(k) : sim::Payload(d), 0, world);
        break;
      case Alg::kCollReduce:
        if (!ghost) {
          d.assign(k, 1.0);
          out.resize(k);
        }
        c.reduce_sum(
            ghost ? sim::ConstPayload::ghost(k) : sim::ConstPayload(d),
            ghost ? sim::Payload::ghost(k) : sim::Payload(out), 0, world);
        break;
      case Alg::kCollAllgather:
        if (!ghost) {
          d.assign(k, 1.0);
          out.resize(kp);
        }
        c.allgather(
            ghost ? sim::ConstPayload::ghost(k) : sim::ConstPayload(d),
            ghost ? sim::Payload::ghost(kp) : sim::Payload(out), world);
        break;
      case Alg::kCollA2aDirect:
        if (!ghost) {
          d.assign(kp, 1.0);
          out.resize(kp);
        }
        c.alltoall(
            ghost ? sim::ConstPayload::ghost(kp) : sim::ConstPayload(d),
            ghost ? sim::Payload::ghost(kp) : sim::Payload(out), world);
        break;
      case Alg::kCollA2aBruck:
        if (!ghost) {
          d.assign(kp, 1.0);
          out.resize(kp);
        }
        c.alltoall_bruck(
            ghost ? sim::ConstPayload::ghost(kp) : sim::ConstPayload(d),
            ghost ? sim::Payload::ghost(kp) : sim::Payload(out), world);
        break;
      default:
        ALGE_CHECK(false, "not a collective alg");
    }
  });
  ExperimentResult out;
  out.p = m.p();
  out.makespan = m.makespan();
  out.totals = m.totals();
  out.energy = m.energy().breakdown;
  if (obs.after_run) obs.after_run(m);
  return out;
}

}  // namespace

ExperimentResult execute(const ExperimentSpec& spec) {
  namespace harness = algs::harness;
  if (!spec.transport.empty()) {
    // Transport axis, resolved before every other axis: a real backend
    // executes the whole spec itself (and rejects incompatible axes), so
    // nothing below should see the field. "sim" is the explicit name of
    // the default path — strip it and run normally (distinct cache key,
    // identical result).
    if (spec.transport == "sim") {
      ExperimentSpec inner = spec;
      inner.transport.clear();
      return execute(inner);
    }
    const BackendExecutor* exec = find_backend_executor(spec.transport);
    ALGE_REQUIRE(exec != nullptr,
                 "no executor registered for transport \"%s\" — link "
                 "alge_transport and call "
                 "transport::register_engine_backends() first",
                 spec.transport.c_str());
    return (*exec)(spec);
  }
  if (spec.exec_mode == sim::ExecMode::kFolded) {
    // Execution-mode axis, resolved before the data-mode axis below so the
    // two configure hooks stack. Folded replay carries costs, not data, so
    // a full-data folded run has nothing to produce — reject it up front
    // rather than deep inside the Machine constructor.
    ALGE_REQUIRE(spec.data_mode == sim::DataMode::kGhost,
                 "exec_mode=folded requires data_mode=ghost (class replay "
                 "moves costs, not data)");
    harness::RunObserver obs = harness::run_observer();
    auto prev = obs.configure;
    obs.configure = [prev](sim::MachineConfig& cfg) {
      if (prev) prev(cfg);
      cfg.exec_mode = sim::ExecMode::kFolded;
    };
    harness::ScopedRunObserver scoped(std::move(obs));
    ExperimentSpec inner = spec;
    inner.exec_mode = sim::ExecMode::kFibers;
    return execute(inner);
  }
  if (spec.data_mode == sim::DataMode::kGhost) {
    // Data-mode axis: like the chaos axes below, chain a configure hook
    // onto the caller's observer, strip the field, and dispatch the plain
    // spec — the harness reads cfg.data_mode via observed_config().
    harness::RunObserver obs = harness::run_observer();
    auto prev = obs.configure;
    obs.configure = [prev](sim::MachineConfig& cfg) {
      if (prev) prev(cfg);
      cfg.data_mode = sim::DataMode::kGhost;
    };
    harness::ScopedRunObserver scoped(std::move(obs));
    ExperimentSpec inner = spec;
    inner.data_mode = sim::DataMode::kFull;
    return execute(inner);
  }
  if (spec.chaos_seed != 0 || !spec.fault_plan.empty()) {
    // Chaos axes: chain a configure hook onto the caller's observer (so
    // tracing/ledger/after_run still work), strip the chaos fields, and
    // dispatch the plain spec under the scoped observer.
    harness::RunObserver obs = harness::run_observer();
    const std::uint64_t seed = spec.chaos_seed;
    const chaos::FaultPlan plan =
        spec.fault_plan.empty() ? chaos::FaultPlan{}
                                : chaos::FaultPlan::bundled(spec.fault_plan);
    auto prev = obs.configure;
    obs.configure = [prev, seed, plan](sim::MachineConfig& cfg) {
      if (prev) prev(cfg);
      if (seed != 0) {
        cfg.wake_policy = std::make_shared<chaos::SchedulePermuter>(seed);
      }
      if (!plan.inert()) {
        cfg.faults =
            plan.make_injector(seed != 0 ? seed : 1, cfg.params.alpha_t);
      }
    };
    harness::ScopedRunObserver scoped(std::move(obs));
    ExperimentSpec inner = spec;
    inner.chaos_seed = 0;
    inner.fault_plan.clear();
    return execute(inner);
  }
  if (algs::find(spec.alg) == nullptr) return run_collective(spec);
  return from_run(harness::run(spec, spec.params, spec.verify));
}

ExperimentResult execute_traced(const ExperimentSpec& spec,
                                sim::Trace* trace) {
  ALGE_REQUIRE(trace != nullptr, "execute_traced needs a trace to fill");
  algs::harness::RunObserver obs;
  obs.enable_trace = true;
  obs.after_run = [trace](const sim::Machine& m) { *trace = m.trace(); };
  algs::harness::ScopedRunObserver scoped(std::move(obs));
  return execute(spec);
}

SweepRunner::SweepRunner(SweepOptions opts)
    : opts_(std::move(opts)),
      cache_(std::make_unique<ResultCache>(opts_.cache_dir)) {}

ExperimentResult SweepRunner::run_one(const ExperimentSpec& spec,
                                      JobTiming* timing) {
  using clock = std::chrono::steady_clock;
  auto seconds_since = [](clock::time_point t0) {
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  const auto t_lookup = clock::now();
  auto hit = cache_->lookup(spec);
  timing->lookup = seconds_since(t_lookup);
  if (hit) {
    timing->hit = true;
    return *hit;
  }
  timing->hit = false;
  const auto t_run = clock::now();
  ExperimentResult r = execute(spec);
  timing->run = seconds_since(t_run);
  const auto t_store = clock::now();
  cache_->store(spec, r);
  timing->store = seconds_since(t_store);
  return r;
}

std::vector<ExperimentResult> SweepRunner::run(
    const std::vector<ExperimentSpec>& specs) {
  const auto t0 = std::chrono::steady_clock::now();
  const int total = static_cast<int>(specs.size());
  stats_ = SweepStats{};
  stats_.jobs = total;
  std::vector<ExperimentResult> out(specs.size());

  std::mutex mu;  // guards done/hits/prof and serializes progress callbacks
  int done = 0;
  int hits = 0;
  SweepProfile prof;
  auto finish_job = [&](const JobTiming& t) {
    std::lock_guard lock(mu);
    ++done;
    if (t.hit) ++hits;
    prof.cache_lookup_seconds += t.lookup;
    prof.run_seconds += t.run;
    prof.run_max_seconds = std::max(prof.run_max_seconds, t.run);
    prof.serialize_seconds += t.store;
    if (opts_.progress) opts_.progress(done, total);
  };

  if (opts_.threads <= 1) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      JobTiming t;
      out[i] = run_one(specs[i], &t);
      finish_job(t);
    }
  } else {
    ThreadPool pool(opts_.threads);
    std::vector<std::future<void>> futures;
    futures.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      futures.push_back(pool.submit([this, &specs, &out, &finish_job, i]() {
        JobTiming t;
        out[i] = run_one(specs[i], &t);
        finish_job(t);
      }));
    }
    pool.drain();
    const PoolProfile pp = pool.profile();
    prof.queue_wait_seconds = pp.queue_wait_total;
    prof.queue_wait_max_seconds = pp.queue_wait_max;
    prof.pool_busy_seconds = pp.busy_total;
    // All jobs finished; surface the first failure (if any) after the
    // sweep so no future is abandoned mid-flight.
    std::exception_ptr first;
    for (auto& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
  }

  stats_.cache_hits = hits;
  stats_.executed = total - hits;
  stats_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stats_.jobs_per_sec =
      stats_.wall_seconds > 0.0 ? total / stats_.wall_seconds : 0.0;
  if (opts_.threads <= 1) {
    // Serial runs have no pool: jobs are "busy" for their whole duration.
    prof.pool_busy_seconds =
        prof.cache_lookup_seconds + prof.run_seconds + prof.serialize_seconds;
  }
  if (stats_.wall_seconds > 0.0) {
    prof.pool_occupancy = prof.pool_busy_seconds /
                          (std::max(opts_.threads, 1) * stats_.wall_seconds);
  }
  stats_.profile = prof;
  return out;
}

void add_engine_flags(CliArgs& cli) {
  cli.add_flag("threads", "1",
               "worker threads for the experiment sweep (1 = serial)");
  cli.add_flag("cache-dir", "",
               "directory for the persistent result cache (empty = off)");
  cli.add_flag("progress", "false", "print sweep progress to stderr");
  cli.add_flag("bench-json", "BENCH_engine.json",
               "append a machine-readable perf record here (empty = off)");
}

SweepOptions sweep_options_from_cli(const CliArgs& cli) {
  SweepOptions opts;
  opts.threads = static_cast<int>(cli.get_int("threads"));
  ALGE_REQUIRE(opts.threads >= 1, "--threads must be >= 1");
  opts.cache_dir = cli.get("cache-dir");
  if (cli.get_bool("progress")) {
    opts.progress = [](int done, int total) {
      std::fprintf(stderr, "[engine] %d/%d jobs done\n", done, total);
    };
  }
  return opts;
}

void append_bench_record(const std::string& bench_name,
                         const SweepRunner& runner, const std::string& path) {
  if (path.empty()) return;
  const SweepStats& s = runner.stats();
  const SweepProfile& p = s.profile;
  using obs::Better;
  obs::BenchRecord rec(bench_name);
  rec.metric("jobs", s.jobs, "count", Better::kNone)
      .metric("cache_hits", s.cache_hits, "count", Better::kHigher)
      .metric("executed", s.executed, "count", Better::kNone)
      .metric("threads", runner.options().threads, "count", Better::kNone)
      .metric("wall_seconds", s.wall_seconds, "s", Better::kLower)
      .metric("jobs_per_sec", s.jobs_per_sec, "1/s", Better::kHigher);
  using Field = std::pair<const char*, double>;
  for (const auto& [key, seconds] :
       {Field{"cache_lookup_seconds", p.cache_lookup_seconds},
        {"serialize_seconds", p.serialize_seconds},
        {"run_seconds", p.run_seconds},
        {"run_max_seconds", p.run_max_seconds},
        {"queue_wait_seconds", p.queue_wait_seconds},
        {"queue_wait_max_seconds", p.queue_wait_max_seconds},
        {"pool_busy_seconds", p.pool_busy_seconds}}) {
    rec.metric(std::string("profile.") + key, seconds, "s", Better::kLower);
  }
  rec.metric("profile.pool_occupancy", p.pool_occupancy, "ratio",
             Better::kHigher)
      .info("unix_time",
            static_cast<double>(
                std::chrono::duration_cast<std::chrono::seconds>(
                    std::chrono::system_clock::now().time_since_epoch())
                    .count()));

  json::Value records = json::Value::array();
  try {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    const json::Value existing = json::parse(buf.str());
    (void)obs::read_bench_metrics(existing);
    if (existing.at("bench").as_string() == "engine") {
      for (const json::Value& r : existing.at("records").as_array()) {
        if (r.at("name").as_string() != bench_name) records.push_back(r);
      }
    }
  } catch (const json::json_error&) {
    // Missing, malformed or not an engine bench file: start fresh rather
    // than failing the bench run.
  }
  records.push_back(rec.to_json());
  obs::write_bench_file(obs::bench_file("engine", std::move(records)), path);
}

}  // namespace alge::engine
