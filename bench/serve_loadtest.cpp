// serve_loadtest: throughput and latency of the optimizer query service
// (src/serve), in-process: the server and the client threads share this
// binary (and, on CI, one core), so the measured queries/s is end-to-end —
// framing, syscalls, hashing, answer-store lookups — not just service code.
//
//   serve_loadtest [--server-threads=2] [--clients=2] [--batch=64]
//                  [--duration=1.0] [--distinct=2048] [--min-qps=100000]
//                  [--json=PATH]
//
// Phases (one record each, written to --json as bench "serve"):
//   closed_form_cold       distinct min_energy queries; every one misses the
//                          answer store and runs the §V closed forms
//   closed_form_hot_rtt    one repeated query, batch=1 closed loop — the
//                          per-request round-trip floor
//   closed_form_pipelined  --clients threads, --batch-deep pipelining over
//                          cached queries; must sustain --min-qps (the
//                          ISSUE's >= 100k/s acceptance bar; per-request
//                          latency is the whole batch's RTT)
//   ghost_miss             distinct ghost-mode mm25d experiments (real
//                          engine simulations behind the service)
//   ghost_hot              one repeated experiment, pipelined (answer-store
//                          hits)
//
// Answers are cross-checked for bit-identity against direct evaluation in
// this process: closed-form responses against core::Optimizer (the exact
// field-order JSON the service emits) and experiment responses against
// engine::execute(spec).to_json(). Any mismatch — cold (miss) or hot (hit)
// path — exits 1, as does missing --min-qps.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/opt.hpp"
#include "engine/runner.hpp"
#include "machines/db.hpp"
#include "obs/bench_metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "support/cli.hpp"
#include "support/common.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace {

using namespace alge;

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One pipelined client connection.
struct Conn {
  int fd;
  serve::FrameReader reader;
  explicit Conn(int port)
      : fd(serve::connect_tcp("127.0.0.1", port)), reader(fd) {}
  ~Conn() { ::close(fd); }

  /// Write all `reqs` as one coalesced send, then read exactly
  /// `reqs.size()` responses (in order). Returns the last response.
  std::string round(const std::vector<std::string>& reqs) {
    std::string out;
    for (const std::string& r : reqs) serve::append_frame(out, r);
    ALGE_REQUIRE(serve::write_all(fd, out), "server closed during write");
    std::string last;
    std::string_view payload;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      ALGE_REQUIRE(reader.next(&payload) ==
                       serve::FrameReader::Status::kFrame,
                   "server closed during read");
      last.assign(payload);
    }
    return last;
  }
};

/// The served envelope is {"ok", "kind", "answer"}; comparisons are on the
/// answer's dump alone so they hold across both cache paths by construction
/// (hit and miss responses are the same bytes).
std::string answer_dump(const std::string& response) {
  const json::Value v = json::parse(response);
  const json::Value* ok = v.find("ok");
  ALGE_REQUIRE(ok != nullptr && ok->is_bool() && ok->as_bool(),
               "query failed: %s", response.c_str());
  return v.at("answer").dump();
}

/// Mirror of the service's answer formatting for a RunPoint — the bench's
/// independent copy, so a served answer is checked against direct
/// core::Optimizer output, not against the service's own code path.
std::string expected_min_energy(double n) {
  core::MachineParams mp = machines::CaseStudyMachine{}.params();
  mp.mem_words = 0.0;
  const core::NBodyModel model(20.0);
  const core::Optimizer solver(model, n, mp);
  const core::RunPoint pt = solver.minimize_energy(core::OptLimits{});
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

std::string min_energy_request(double n) {
  json::Value req = json::Value::object();
  req.set("kind", "min_energy")
      .set("model", "nbody")
      .set("f", 20.0)
      .set("n", n)
      .set("machine", "case-study");
  return req.dump();
}

engine::ExperimentSpec ghost_spec(int n) {
  engine::ExperimentSpec s;
  s.alg = engine::Alg::kMm25d;
  s.params = core::MachineParams::unit();
  s.n = n;
  s.q = 2;
  s.c = 1;
  s.data_mode = sim::DataMode::kGhost;
  return s;
}

std::string experiment_request(const engine::ExperimentSpec& spec) {
  json::Value req = json::Value::object();
  req.set("kind", "experiment").set("spec", spec.to_json());
  return req.dump();
}

struct PhaseResult {
  std::string name;
  std::size_t queries = 0;
  double seconds = 0.0;
  std::vector<double> latency_us;  ///< per request (batch RTT for batches)

  double qps() const { return queries / std::max(seconds, 1e-12); }
  double quantile(double q) {
    ALGE_REQUIRE(!latency_us.empty(), "no latency samples in %s",
                 name.c_str());
    std::sort(latency_us.begin(), latency_us.end());
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(latency_us.size() - 1));
    return latency_us[idx];
  }
};

/// Rates and latency quantiles are compared; the raw query count and the
/// elapsed seconds scale with --duration, not with service performance, so
/// they go under info.
obs::BenchRecord result_record(PhaseResult& r) {
  using obs::Better;
  obs::BenchRecord rec(r.name);
  rec.metric("queries_per_sec", r.qps(), "1/s", Better::kHigher)
      .metric("p50_us", r.quantile(0.50), "us", Better::kLower)
      .metric("p99_us", r.quantile(0.99), "us", Better::kLower)
      .metric("max_us", r.quantile(1.0), "us", Better::kLower)
      .info("queries", static_cast<double>(r.queries))
      .info("seconds", r.seconds);
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alge;
  CliArgs cli;
  cli.add_flag("server-threads", "2", "server worker pool size");
  cli.add_flag("clients", "2", "client threads in the pipelined phase");
  cli.add_flag("batch", "64", "pipelining depth (frames per send)");
  cli.add_flag("duration", "1.0", "seconds per timed phase");
  cli.add_flag("distinct", "2048",
               "distinct queries in the cold (all-miss) phase");
  cli.add_flag("min-qps", "100000",
               "fail unless closed_form_pipelined sustains this many "
               "queries/s (0 = report only)");
  cli.add_flag("json", "", "write {\"bench\": \"serve\"} results here");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "serve_loadtest: " << e.what() << "\n"
              << cli.usage("serve_loadtest");
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage("serve_loadtest");
    return 0;
  }
  const int clients = static_cast<int>(cli.get_int("clients"));
  const auto batch = static_cast<std::size_t>(cli.get_int("batch"));
  const double duration = cli.get_double("duration");
  const auto distinct = static_cast<std::size_t>(cli.get_int("distinct"));
  const double min_qps = cli.get_double("min-qps");

  serve::QueryService service;
  serve::ServerOptions sopts;
  sopts.threads = static_cast<int>(cli.get_int("server-threads"));
  serve::Server server(service, sopts);
  server.start();
  std::printf("serve_loadtest: in-process server on 127.0.0.1:%d, "
              "%d worker(s), %d client(s), batch %zu\n\n",
              server.port(), sopts.threads, clients, batch);

  std::vector<PhaseResult> phases;
  bool identical = true;

  // --- closed_form_cold: distinct queries, all answer-store misses -------
  {
    std::vector<std::string> reqs(distinct);
    for (std::size_t i = 0; i < distinct; ++i) {
      reqs[i] = min_energy_request(1e6 + 1e3 * static_cast<double>(i));
    }
    Conn conn(server.port());
    PhaseResult r;
    r.name = "closed_form_cold";
    const double t0 = now_sec();
    for (std::size_t i = 0; i < distinct; i += batch) {
      const std::size_t hi = std::min(distinct, i + batch);
      const double b0 = now_sec();
      std::vector<std::string> b(reqs.begin() + static_cast<long>(i),
                                 reqs.begin() + static_cast<long>(hi));
      (void)conn.round(b);
      const double us = (now_sec() - b0) * 1e6;
      for (std::size_t k = i; k < hi; ++k) r.latency_us.push_back(us);
    }
    r.seconds = now_sec() - t0;
    r.queries = distinct;
    phases.push_back(std::move(r));

    // Bit-identity, miss path: these first serves all computed fresh.
    for (std::size_t i = 0; i < std::min<std::size_t>(distinct, 16); ++i) {
      const double n = 1e6 + 1e3 * static_cast<double>(i);
      Conn c(server.port());
      const std::string got = answer_dump(c.round({min_energy_request(n)}));
      const std::string want = expected_min_energy(n);
      if (got != want) {
        identical = false;
        std::fprintf(stderr,
                     "MISMATCH (closed form, n=%g):\n  served:   %s\n"
                     "  expected: %s\n",
                     n, got.c_str(), want.c_str());
      }
    }
  }

  // --- closed_form_hot_rtt: batch=1 closed loop, per-request RTT ---------
  {
    const std::vector<std::string> one = {min_energy_request(1e6)};
    Conn conn(server.port());
    (void)conn.round(one);  // warm the answer store
    PhaseResult r;
    r.name = "closed_form_hot_rtt";
    const double t0 = now_sec();
    while (now_sec() - t0 < duration) {
      const double b0 = now_sec();
      (void)conn.round(one);
      r.latency_us.push_back((now_sec() - b0) * 1e6);
      ++r.queries;
    }
    r.seconds = now_sec() - t0;
    phases.push_back(std::move(r));
  }

  // --- closed_form_pipelined: the >= 100k queries/s acceptance phase -----
  {
    PhaseResult r;
    r.name = "closed_form_pipelined";
    std::atomic<std::size_t> total{0};
    std::vector<std::vector<double>> lat(
        static_cast<std::size_t>(clients));
    const std::size_t hot = std::min<std::size_t>(distinct, 256);
    const double t0 = now_sec();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Conn conn(server.port());
        std::vector<std::string> b(batch);
        std::size_t next = static_cast<std::size_t>(c) * 131;
        while (now_sec() - t0 < duration) {
          for (std::size_t i = 0; i < batch; ++i) {
            b[i] = min_energy_request(
                1e6 + 1e3 * static_cast<double>(next++ % hot));
          }
          const double b0 = now_sec();
          (void)conn.round(b);
          const double us = (now_sec() - b0) * 1e6;
          for (std::size_t i = 0; i < batch; ++i) {
            lat[static_cast<std::size_t>(c)].push_back(us);
          }
          total.fetch_add(batch, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    r.seconds = now_sec() - t0;
    r.queries = total.load();
    for (const std::vector<double>& l : lat) {
      r.latency_us.insert(r.latency_us.end(), l.begin(), l.end());
    }
    phases.push_back(std::move(r));

    // Bit-identity, hit path: every one of these is an answer-store hit
    // now; the served bytes must still match direct evaluation.
    for (std::size_t i = 0; i < std::min<std::size_t>(hot, 8); ++i) {
      const double n = 1e6 + 1e3 * static_cast<double>(i);
      Conn c2(server.port());
      const std::string got =
          answer_dump(c2.round({min_energy_request(n)}));
      if (got != expected_min_energy(n)) {
        identical = false;
        std::fprintf(stderr, "MISMATCH (hot closed form, n=%g)\n", n);
      }
    }
  }

  // --- ghost_miss: real engine simulations through the service ----------
  {
    PhaseResult r;
    r.name = "ghost_miss";
    Conn conn(server.port());
    const double t0 = now_sec();
    for (int i = 0; i < 32; ++i) {
      const engine::ExperimentSpec spec = ghost_spec(16 * (1 + i));
      const double b0 = now_sec();
      const std::string resp = conn.round({experiment_request(spec)});
      r.latency_us.push_back((now_sec() - b0) * 1e6);
      ++r.queries;
      if (answer_dump(resp) != engine::execute(spec).to_json().dump()) {
        identical = false;
        std::fprintf(stderr, "MISMATCH (ghost experiment, n=%d)\n", spec.n);
      }
    }
    r.seconds = now_sec() - t0;
    phases.push_back(std::move(r));
  }

  // --- ghost_hot: repeated experiment — answer-store hits, pipelined ----
  {
    const engine::ExperimentSpec spec = ghost_spec(16);
    const std::vector<std::string> b(batch, experiment_request(spec));
    const std::string want = engine::execute(spec).to_json().dump();
    Conn conn(server.port());
    PhaseResult r;
    r.name = "ghost_hot";
    const double t0 = now_sec();
    while (now_sec() - t0 < duration * 0.5) {
      const double b0 = now_sec();
      const std::string last = conn.round(b);
      const double us = (now_sec() - b0) * 1e6;
      for (std::size_t i = 0; i < batch; ++i) r.latency_us.push_back(us);
      r.queries += batch;
      if (answer_dump(last) != want) {
        identical = false;
        std::fprintf(stderr, "MISMATCH (hot ghost experiment)\n");
      }
    }
    r.seconds = now_sec() - t0;
    phases.push_back(std::move(r));
  }

  server.stop();

  Table t({"phase", "queries", "q/s", "p50_us", "p99_us", "max_us"});
  json::Value results = json::Value::array();
  for (PhaseResult& r : phases) {
    t.row()
        .cell(r.name)
        .cell(r.queries)
        .cell(r.qps(), "%.0f")
        .cell(r.quantile(0.50), "%.1f")
        .cell(r.quantile(0.99), "%.1f")
        .cell(r.quantile(1.0), "%.1f");
    results.push_back(result_record(r).to_json());
  }
  t.print(std::cout);
  std::cout << "\nservice ledger: " << service.stats_json().dump() << "\n";

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    obs::write_bench_file(obs::bench_file("serve", std::move(results)),
                          json_path);
    std::fprintf(stderr, "[serve] wrote %s\n", json_path.c_str());
  }

  if (!identical) {
    std::cerr << "\nFAIL: served answers differ from direct evaluation\n";
    return 1;
  }
  double pipelined_qps = 0.0;
  for (PhaseResult& r : phases) {
    if (r.name == "closed_form_pipelined") pipelined_qps = r.qps();
  }
  if (min_qps > 0.0 && pipelined_qps < min_qps) {
    std::fprintf(stderr,
                 "\nFAIL: closed_form_pipelined sustained %.0f q/s "
                 "(target %.0f)\n",
                 pipelined_qps, min_qps);
    return 1;
  }
  std::cout << "\nAll served answers bit-identical to direct evaluation; "
            << strfmt("pipelined throughput %.0f q/s.\n", pipelined_qps);
  return 0;
}
