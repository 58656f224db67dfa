// perfbench: one benchmark over the four user-facing paths of alge.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//   perfbench --self-test
//
// --trace 0 measures end to end: whole rounds of the workload run until S
// seconds have passed, with set-up timed for the run and for throwaway
// instances between rounds and its median reported; a stage's time is the
// sum over its operations of each one's median over the rounds (its
// fastest round, for a workload whose fastest_round() is true). --trace 1
// runs every workload (whatever NAME is) through an untraced, a traced and
// another untraced round, with spans around the benchmark's calls into
// each layer, then the direct per-layer measurements; it reports the
// per-layer metrics and the tracing overhead and writes the spans as a
// Chrome trace. The last line of stdout is one
// JSON object: {correct, attempted, failed, metrics}. Exit status 1 if any
// output check failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "support/json.hpp"

namespace {

using namespace perfbench;

constexpr int kSetupsPerRound = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out = "perfbench-trace.json";
  bool self_test = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n"
               "       perfbench --self-test\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed needs an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.trace = v[0] == '1';
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return a;
}

using Factory = std::unique_ptr<Workload> (*)(std::uint64_t);

struct Named {
  const char* name;
  Factory make;
};
const Named kWorkloads[] = {
    {"verified-scaling", make_verified_scaling},
    {"ghost-frontier", make_ghost_frontier},
    {"serve-queries", make_serve_queries},
    {"transport-real", make_transport_real},
};

void print_result(const Outcome& out, const Metrics& metrics) {
  alge::json::Value m = alge::json::Value::object();
  for (const auto& [name, metric] : metrics) {
    alge::json::Value v = alge::json::Value::object();
    v.set("value", metric.value).set("unit", metric.unit);
    m.set(name, std::move(v));
    std::fprintf(stderr, "  %-32s %16.6g %s\n", name.c_str(), metric.value,
                 metric.unit.c_str());
  }
  alge::json::Value doc = alge::json::Value::object();
  doc.set("correct", out.correct)
      .set("attempted", static_cast<double>(out.attempted))
      .set("failed", static_cast<double>(out.failed))
      .set("metrics", std::move(m));
  std::printf("%s\n", doc.dump().c_str());
  std::fflush(stdout);
}

/// End-to-end run of one workload, tracing off.
void run_untraced(Factory make, const Args& a, Outcome& out, Metrics& m) {
  // Set-up is timed for the run's own instance and for throwaway instances
  // before every round, so its samples span the run like the rounds do.
  std::vector<double> setups;
  auto timed_setup = [&] {
    const auto t0 = Clock::now();
    std::unique_ptr<Workload> w = make(a.seed);
    w->setup();
    setups.push_back(seconds_since(t0));
    return w;
  };
  std::unique_ptr<Workload> w = timed_setup();
  Tracer off(false);
  // per_op[st][i]: operation i of stage st, one sample per round.
  std::vector<std::vector<double>> per_op[kStages];
  const long before = out.attempted;
  const auto start = Clock::now();
  int round = 0;
  do {
    for (int i = 0; i < kSetupsPerRound; ++i) timed_setup();
    RoundTimes t;
    w->round(round++, off, t, out);
    for (int st = 0; st < kStages; ++st) {
      per_op[st].resize(t.stage[st].size());
      for (std::size_t i = 0; i < t.stage[st].size(); ++i) {
        per_op[st][i].push_back(t.stage[st][i]);
      }
    }
  } while (seconds_since(start) < a.seconds);
  const long ops = out.attempted - before;
  w->finish(out);
  std::fprintf(stderr, "[perfbench] %d rounds, %ld operations\n", round, ops);

  m["setup_s"] = {median(setups), "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  // A stage's time is the sum of its operations' medians (or fastest
  // rounds) over the rounds, so a round disturbed by the host does not
  // move it.
  const double q = w->fastest_round() ? 0.0 : 0.5;
  double round_s = 0;
  for (int st = 0; st < kStages; ++st) {
    double s = 0;
    for (const std::vector<double>& samples : per_op[st]) {
      s += quantile(samples, q);
    }
    m["stage" + std::to_string(st + 1) + "_s"] = {s, "s"};
    round_s += s;
  }
  m["ops_per_s"] = {static_cast<double>(ops) / round / round_s, "1/s"};
}

/// Per-layer run: every workload through an untraced, a traced and another
/// untraced round, then its direct layer measurements.
void run_traced(const Args& a, Outcome& out, Metrics& m) {
  Tracer off(false);
  Tracer on(true);
  double overhead = 0;
  for (const Named& wl : kWorkloads) {
    std::unique_ptr<Workload> w = wl.make(a.seed);
    w->setup();
    // Tracing overhead: the traced round against the mean of the untraced
    // rounds on either side of it.
    RoundTimes before, traced, after;
    w->round(0, off, before, out);
    w->round(1, on, traced, out);
    w->round(2, off, after, out);
    overhead += traced.total() - 0.5 * (before.total() + after.total());
    w->layers(on, m, out);
  }
  m["trace.overhead_s"] = {overhead, "s"};
  m["trace.spans"] = {static_cast<double>(on.spans()), "count"};
  on.write_chrome(a.trace_out);
  std::fprintf(stderr, "[perfbench] wrote %zu spans to %s\n", on.spans(),
               a.trace_out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.self_test) {
    const int bad = checks::self_test();
    std::printf("self-test: %s\n", bad == 0 ? "all checks behave" : "FAILED");
    return bad == 0 ? 0 : 1;
  }
  Factory make = nullptr;
  for (const Named& wl : kWorkloads) {
    if (a.workload == wl.name) make = wl.make;
  }
  if (make == nullptr) usage(("unknown workload '" + a.workload + "'").c_str());

  Outcome out;
  Metrics m;
  try {
    if (a.trace) {
      run_traced(a, out, m);
    } else {
      run_untraced(make, a, out, m);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] aborted: %s\n", e.what());
    return 1;
  }
  print_result(out, m);
  return out.correct ? 0 : 1;
}
