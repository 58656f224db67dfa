// serve-queries: the §V service (serve::Server over loopback TCP, in this
// process) answering a seeded script from one closed-loop client.
//
// Stages: (1) distinct closed-form questions, one per (kind, model) pair
// of the 10 closed-form kinds and 6 models — all answer-store misses;
// (2) ghost "experiment" specs, each sent twice as differently ordered
// JSON, so the second copy misses the byte-keyed answer store and is
// served from the spec-level result cache; (3) the round's closed-form
// questions replayed, all answer-store hits. Misses write the answer store
// and hits read it, so a gain for one that costs the other shows. A stage's
// time takes each query's fastest round (see fastest_round()).
#include <unistd.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "core/algmodel.hpp"
#include "core/opt.hpp"
#include "engine/runner.hpp"
#include "machines/db.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using namespace alge;

const char* const kKinds[] = {
    "min_energy",
    "min_time",
    "min_energy_given_time",
    "min_time_given_energy",
    "min_time_given_total_power",
    "min_energy_given_total_power",
    "min_time_given_proc_power",
    "min_energy_given_proc_power",
    "evaluate",
    "codesign",
};
const char* const kModels[] = {"nbody",   "classical-mm", "strassen",
                               "lu-2.5d", "fft-naive",    "fft-tree"};
constexpr int kHitReplays = 20;  ///< hits per closed-form question per round

/// The service's "case-study" machine: the optimizer chooses M.
core::MachineParams case_study() {
  core::MachineParams mp = machines::CaseStudyMachine{}.params();
  mp.mem_words = 0.0;
  return mp;
}

struct Closed {
  std::string request;
  checks::Question question;
  std::string model;
  double n = 0;
  core::OptLimits limits;
  double p0 = 0, M0 = 0;  ///< evaluate's point
};

/// One closed-form question with a budget that a random feasible point of
/// the model meets, so every question has an answer.
Closed make_closed(Rng& rng, const char* kind, const char* model_name,
                   const core::MachineParams& mp) {
  const auto model = core::make_model(model_name);
  const std::string m = model_name;
  const bool fft = m.rfind("fft", 0) == 0;
  const double lo = m == "nbody" ? 5.0 : fft ? 6.0 : 3.5;
  Closed c;
  c.model = m;
  for (;;) {
    c.n = std::round(std::pow(10.0, rng.uniform(lo, lo + 2.0)));
    c.limits.p_available = std::round(std::pow(10.0, rng.uniform(3.0, 6.0)));
    c.limits.M_cap = std::round(std::pow(10.0, rng.uniform(9.0, 11.0)));
    if (model->min_memory(c.n, c.limits.p_available) <= c.limits.M_cap) break;
  }
  c.p0 = std::round(c.limits.p_available * std::pow(10.0, -rng.uniform(0, 2)));
  if (c.p0 < 1 || model->min_memory(c.n, c.p0) > c.limits.M_cap) {
    c.p0 = c.limits.p_available;
  }
  const double mlo = model->min_memory(c.n, c.p0);
  const double mhi = std::min(
      c.limits.M_cap, std::max(mlo, model->max_useful_memory(c.n, c.p0)));
  c.M0 = mlo * std::pow(mhi / mlo, rng.uniform(0.0, 1.0));
  const double T0 = model->time(c.n, c.p0, c.M0, mp);
  const double E0 = model->energy(c.n, c.p0, c.M0, mp);

  json::Value req = json::Value::object();
  req.set("kind", kind).set("model", m).set("n", c.n);
  const std::string k = kind;
  const double slack = rng.uniform(1.05, 2.0);
  if (k == "min_energy_given_time") req.set("t_max", T0 * slack);
  if (k == "min_time_given_energy") req.set("e_max", E0 * slack);
  if (k.find("total_power") != std::string::npos) {
    req.set("power_max", E0 / T0 * slack);
  }
  if (k.find("proc_power") != std::string::npos) {
    req.set("proc_power_max", E0 / T0 / c.p0 * slack);
  }
  if (k == "evaluate") req.set("p", c.p0).set("M", c.M0);
  if (k == "codesign") {
    req.set("target_gflops_per_watt", std::round(rng.uniform(10.0, 100.0)));
  }
  json::Value lim = json::Value::object();
  lim.set("p_available", c.limits.p_available).set("M_cap", c.limits.M_cap);
  req.set("limits", std::move(lim));
  c.request = req.dump();
  c.question = checks::question_from_request(req);
  return c;
}

/// The same question answered by a direct core::Optimizer call.
core::RunPoint solve_direct(const Closed& c, const core::MachineParams& mp) {
  const auto model = core::make_model(c.model);
  const core::Optimizer opt(*model, c.n, mp);
  const checks::Question& q = c.question;
  const std::string& k = q.kind;
  if (k == "min_energy" || k == "codesign") return opt.minimize_energy(c.limits);
  if (k == "min_time") return opt.minimize_time(c.limits);
  if (k == "min_energy_given_time") {
    return opt.min_energy_given_time(q.t_max, c.limits);
  }
  if (k == "min_time_given_energy") {
    return opt.min_time_given_energy(q.e_max, c.limits);
  }
  if (k == "min_time_given_total_power") {
    return opt.min_time_given_total_power(q.power_max, c.limits);
  }
  if (k == "min_energy_given_total_power") {
    return opt.min_energy_given_total_power(q.power_max, c.limits);
  }
  if (k == "min_time_given_proc_power") {
    return opt.min_time_given_proc_power(q.proc_power_max, c.limits);
  }
  if (k == "min_energy_given_proc_power") {
    return opt.min_energy_given_proc_power(q.proc_power_max, c.limits);
  }
  return opt.evaluate(c.p0, c.M0);
}

/// Ghost experiment shapes: one per algorithm plus a replicated 2.5D.
std::vector<engine::ExperimentSpec> experiment_shapes() {
  using engine::Alg;
  auto shape = [](Alg alg, int n, int q, int c, int p, int k, int nb) {
    engine::ExperimentSpec s;
    s.alg = alg;
    s.n = n;
    s.q = q;
    s.c = c;
    s.p = p;
    s.k = k;
    s.nb = nb;
    s.data_mode = sim::DataMode::kGhost;
    return s;
  };
  engine::ExperimentSpec fft = shape(Alg::kFft, 0, 0, 0, 64, 0, 0);
  fft.r_dim = fft.c_dim = 256;
  return {
      shape(Alg::kMm25d, 256, 8, 1, 0, 0, 0),
      shape(Alg::kMm25d, 256, 8, 2, 0, 0, 0),
      shape(Alg::kSumma, 256, 8, 0, 0, 0, 0),
      shape(Alg::kCaps, 392, 0, 0, 0, 3, 0),
      shape(Alg::kNBody, 1024, 0, 2, 64, 0, 0),
      shape(Alg::kLu, 256, 8, 1, 0, 0, 8),
      fft,
      shape(Alg::kTsqr, 32, 0, 0, 256, 0, 4),
  };
}

json::Value reversed(const json::Value& obj) {
  json::Value out = json::Value::object();
  const auto& fields = obj.as_object();
  for (auto it = fields.rbegin(); it != fields.rend(); ++it) {
    out.set(it->first, it->second);
  }
  return out;
}

struct Experiment {
  engine::ExperimentSpec spec;
  std::string request[2];  ///< the same spec, fields in opposite orders
};

struct Script {
  std::vector<Closed> closed;
  std::vector<Experiment> experiments;
};

const char* const kStageSpan[kStages] = {"serve.tcp.closed",
                                         "serve.tcp.experiment",
                                         "serve.tcp.hit"};

class ServeQueries final : public Workload {
 public:
  explicit ServeQueries(std::uint64_t seed) : seed_(seed), mp_(case_study()) {}

  ~ServeQueries() override { disconnect(); }

  // Queries last microseconds to milliseconds. On the shared reference
  // host whole stretches of rounds ran up to 1.7x slower while other
  // tenants loaded it, and a run's median followed how much of the run
  // they covered; each query's fastest round did not.
  bool fastest_round() const override { return true; }

  void setup() override {
    disconnect();
    service_ = std::make_unique<serve::QueryService>();
    serve::ServerOptions opts;
    opts.threads = 2;
    server_ = std::make_unique<serve::Server>(*service_, opts);
    server_->start();
    fd_ = serve::connect_tcp("127.0.0.1", server_->port());
    reader_ = std::make_unique<serve::FrameReader>(fd_);
    // Warm-up: a ping and one closed-form question outside every round.
    ask(R"({"kind":"ping"})");
    Rng rng(mix_seed(seed_, 0xfeed));
    ask(make_closed(rng, "min_energy", "nbody", mp_).request);
  }

  Script script(int round) const {
    Script s;
    Rng rng(mix_seed(seed_, static_cast<std::uint64_t>(round)));
    for (const char* model : kModels) {
      for (const char* kind : kKinds) {
        s.closed.push_back(make_closed(rng, kind, model, mp_));
      }
    }
    for (const engine::ExperimentSpec& shape : experiment_shapes()) {
      Experiment e;
      e.spec = shape;
      e.spec.seed = rng.next_u64() | 1;
      json::Value a = json::Value::object();
      a.set("kind", "experiment").set("spec", e.spec.to_json());
      json::Value b = json::Value::object();
      b.set("spec", reversed(e.spec.to_json())).set("kind", "experiment");
      e.request[0] = a.dump();
      e.request[1] = b.dump();
      s.experiments.push_back(std::move(e));
    }
    return s;
  }

  void round(int round, Tracer& tr, RoundTimes& times,
             Outcome& out) override {
    const Script s = script(round);
    // Stage 1: closed-form misses.
    std::vector<std::string> closed_resp(s.closed.size());
    for (std::size_t i = 0; i < s.closed.size(); ++i) {
      closed_resp[i] = query(s.closed[i].request, tr, 0, times, out);
    }
    // Stage 2: every experiment twice, in two field orders.
    std::vector<std::string> exp_resp(2 * s.experiments.size());
    for (std::size_t i = 0; i < s.experiments.size(); ++i) {
      for (int copy = 0; copy < 2; ++copy) {
        exp_resp[2 * i + copy] =
            query(s.experiments[i].request[copy], tr, 1, times, out);
      }
    }
    // Stage 3: replay the closed-form questions; every one is a hit.
    std::vector<std::string> hit_resp(kHitReplays * s.closed.size());
    for (int rep = 0; rep < kHitReplays; ++rep) {
      for (std::size_t i = 0; i < s.closed.size(); ++i) {
        hit_resp[rep * s.closed.size() + i] =
            query(s.closed[i].request, tr, 2, times, out);
      }
    }

    for (std::size_t i = 0; i < s.closed.size(); ++i) {
      check_closed(s.closed[i], closed_resp[i], out);
    }
    for (std::size_t i = 0; i < s.experiments.size(); ++i) {
      check_experiment(s.experiments[i], exp_resp[2 * i], exp_resp[2 * i + 1],
                       tr, out);
      distinct_.insert(s.experiments[i].spec.canonical_json());
    }
    for (std::size_t i = 0; i < hit_resp.size(); ++i) {
      if (hit_resp[i] != closed_resp[i % s.closed.size()]) {
        out.check_failed("hit response differs from the miss response for " +
                         s.closed[i % s.closed.size()].request);
      }
    }
  }

  void layers(Tracer& tr, Metrics& m, Outcome& /*out*/) override {
    auto us = [](double s) { return s * 1e6; };
    m["serve.tcp_closed_p50_us"] = {us(median(tr.samples(kStageSpan[0]))),
                                    "us"};
    m["serve.tcp_experiment_p50_us"] = {
        us(median(tr.samples(kStageSpan[1]))), "us"};
    const double tcp_hit = us(median(tr.samples(kStageSpan[2])));
    m["serve.tcp_hit_p50_us"] = {tcp_hit, "us"};
    m["serve.tcp_hit_p99_us"] = {us(quantile(tr.samples(kStageSpan[2]), 0.99)),
                                 "us"};

    // Direct calls into the layers under the service, on a fresh script.
    const Script s = script(1 << 20);
    std::vector<double> opt_s, parse_s, exec_s;
    for (const Closed& c : s.closed) {
      auto t0 = Clock::now();
      tr.span("core.optimizer", [&] { return solve_direct(c, mp_); });
      opt_s.push_back(seconds_since(t0));
      t0 = Clock::now();
      tr.span("support.json_parse", [&] { return json::parse(c.request); });
      parse_s.push_back(seconds_since(t0));
    }
    for (const Experiment& e : s.experiments) {
      for (const std::string& r : e.request) {
        const auto t0 = Clock::now();
        tr.span("support.json_parse", [&] { return json::parse(r); });
        parse_s.push_back(seconds_since(t0));
      }
      const auto t0 = Clock::now();
      tr.span("engine.execute", [&] { return engine::execute(e.spec); });
      exec_s.push_back(seconds_since(t0));
    }
    m["core.optimizer_us"] = {us(median(opt_s)), "us"};
    m["support.json_parse_us"] = {us(median(parse_s)), "us"};
    m["engine.execute_us"] = {us(median(exec_s)), "us"};

    // QueryService::handle in process, no socket, on a fresh service.
    serve::QueryService local;
    std::vector<double> closed_s, exp_s, hit_s;
    auto handle = [&](const std::string& req, const char* span,
                      std::vector<double>& into) {
      const auto t0 = Clock::now();
      tr.span(span, [&] { return local.handle(req); });
      into.push_back(seconds_since(t0));
    };
    for (const Closed& c : s.closed) {
      handle(c.request, "serve.handle.closed", closed_s);
    }
    for (const Experiment& e : s.experiments) {
      for (const std::string& r : e.request) {
        handle(r, "serve.handle.experiment", exp_s);
      }
    }
    for (int rep = 0; rep < kHitReplays; ++rep) {
      for (const Closed& c : s.closed) {
        handle(c.request, "serve.handle.hit", hit_s);
      }
    }
    m["serve.handle_closed_us"] = {us(median(closed_s)), "us"};
    m["serve.handle_experiment_us"] = {us(median(exp_s)), "us"};
    const double handle_hit = us(median(hit_s));
    m["serve.handle_hit_us"] = {handle_hit, "us"};
    m["serve.wire_hit_us"] = {tcp_hit - handle_hit, "us"};

    // Counters of the served run. engine.cache_misses is the raw result
    // cache counter; it is not a count of simulations run.
    const json::Value st = service_->stats_json();
    double hits = 0;
    for (const auto& [kind, cls] : st.at("classes").as_object()) {
      hits += cls.at("answer_hits").as_double();
    }
    m["serve.answer_hits"] = {hits, "count"};
    m["serve.coalesced"] = {st.at("coalesced").as_double(), "count"};
    m["serve.spec_coalesced"] = {st.at("spec_coalesced").as_double(), "count"};
    m["serve.answer_evictions"] = {st.at("answer_evictions").as_double(),
                                   "count"};
    m["engine.cache_misses"] = {
        static_cast<double>(service_->result_cache().stats().misses), "count"};
    m["serve.experiments_distinct"] = {static_cast<double>(distinct_.size()),
                                       "count"};
  }

 private:
  void disconnect() {
    reader_.reset();
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    server_.reset();
    service_.reset();
  }

  std::string ask(const std::string& request) {
    ALGE_REQUIRE(serve::write_frame(fd_, request), "write to server failed");
    std::string_view payload;
    const auto status = reader_->next(&payload);
    ALGE_REQUIRE(status == serve::FrameReader::Status::kFrame,
                 "server closed the connection");
    return std::string(payload);
  }

  /// One closed-loop query of stage `st`; a transport failure counts as a
  /// failed operation.
  std::string query(const std::string& request, Tracer& tr, int st,
                    RoundTimes& times, Outcome& out) {
    ++out.attempted;
    const auto t0 = Clock::now();
    std::string resp;
    try {
      resp = tr.span(kStageSpan[st], [&] { return ask(request); });
    } catch (const std::exception& e) {
      out.op_failed(e.what());
    }
    times.stage[st].push_back(seconds_since(t0));
    return resp;
  }

  void check_closed(const Closed& c, const std::string& resp, Outcome& out) {
    if (resp.empty()) return;  // failed operation, already counted
    const json::Value v = json::parse(resp);
    if (!v.at("ok").as_bool()) {
      out.check_failed(c.request + " -> " + resp);
      return;
    }
    const json::Value& a = v.at("answer");
    const auto model = core::make_model(c.model);
    core::RunPoint pt;
    pt.p = a.at("p").as_double();
    pt.M = a.at("M").as_double();
    if (c.question.kind == "codesign") {
      pt.feasible = true;
      pt.T = model->time(c.n, pt.p, pt.M, mp_);
      pt.E = model->energy(c.n, pt.p, pt.M, mp_);
    } else {
      pt.feasible = a.at("feasible").as_bool();
      pt.T = a.at("T").as_double();
      pt.E = a.at("E").as_double();
    }
    out.expect(checks::within_budget(c.question, pt, *model, c.n, mp_,
                                     c.limits));
    if (c.question.kind == "evaluate") {
      if (pt.p != c.p0 || pt.M != c.M0) {
        out.check_failed("evaluate answered another point: " + resp);
      }
      return;
    }
    out.expect(checks::no_worse_than_scan(
        c.question, pt,
        checks::coarse_scan(c.question, *model, c.n, mp_, c.limits), *model,
        c.n, c.limits));
  }

  void check_experiment(const Experiment& e, const std::string& first,
                        const std::string& second, Tracer& tr, Outcome& out) {
    if (first.empty() || second.empty()) return;
    const json::Value a = json::parse(first);
    const json::Value b = json::parse(second);
    if (!a.at("ok").as_bool() || !b.at("ok").as_bool()) {
      out.check_failed("experiment failed: " + first + " / " + second);
      return;
    }
    const engine::ExperimentResult direct =
        tr.span("engine.execute", [&] { return engine::execute(e.spec); });
    if (!(engine::ExperimentResult::from_json(a.at("answer")) == direct) ||
        !(engine::ExperimentResult::from_json(b.at("answer")) == direct)) {
      out.check_failed("served experiment differs from engine::execute: " +
                       e.request[0]);
    }
  }

  std::uint64_t seed_;
  core::MachineParams mp_;
  std::unique_ptr<serve::QueryService> service_;
  std::unique_ptr<serve::Server> server_;
  int fd_ = -1;
  std::unique_ptr<serve::FrameReader> reader_;
  std::set<std::string> distinct_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_queries(std::uint64_t seed) {
  return std::make_unique<ServeQueries>(seed);
}

}  // namespace perfbench
