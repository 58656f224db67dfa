#include "obs/bench_metrics.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <map>

#include "support/common.hpp"

namespace alge::obs {

namespace {

bool contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Keys that change every run by construction and must never be compared.
bool is_timestamp_key(const std::string& key) {
  const std::string k = lower(key);
  return contains(k, "unix_time") || contains(k, "timestamp") || k == "date";
}

void flatten(const std::string& prefix, const json::Value& v,
             std::vector<Metric>& out) {
  switch (v.kind()) {
    case json::Value::Kind::kNumber:
      out.push_back({prefix, v.as_double()});
      break;
    case json::Value::Kind::kObject:
      for (const auto& [key, child] : v.as_object()) {
        if (is_timestamp_key(key)) continue;
        flatten(prefix.empty() ? key : prefix + "." + key, child, out);
      }
      break;
    case json::Value::Kind::kArray: {
      int i = 0;
      for (const json::Value& child : v.as_array()) {
        flatten(strfmt("%s[%d]", prefix.c_str(), i++), child, out);
      }
      break;
    }
    default:
      break;  // strings/bools/null are not metrics
  }
}

double time_unit_to_ns(const json::Value& entry) {
  const json::Value* unit = entry.find("time_unit");
  if (unit == nullptr || !unit->is_string()) return 1.0;
  const std::string& u = unit->as_string();
  if (u == "ns") return 1.0;
  if (u == "us") return 1e3;
  if (u == "ms") return 1e6;
  if (u == "s") return 1e9;
  return 1.0;
}

/// google-benchmark --benchmark_out JSON: {"context":…, "benchmarks":[…]}.
void normalize_google_benchmark(const json::Value& doc,
                                std::vector<Metric>& out) {
  for (const json::Value& entry : doc.at("benchmarks").as_array()) {
    const json::Value* name = entry.find("name");
    if (name == nullptr || !name->is_string()) continue;
    const double to_ns = time_unit_to_ns(entry);
    for (const auto& [key, field] : entry.as_object()) {
      if (!field.is_number() || is_timestamp_key(key)) continue;
      if (key == "real_time" || key == "cpu_time") {
        out.push_back(
            {name->as_string() + "." + key + "_ns",
             field.as_double() * to_ns});
      } else if (key == "items_per_second" || key == "bytes_per_second") {
        out.push_back({name->as_string() + "." + key, field.as_double()});
      }
      // repetition indices, thread counts etc. are configuration, not
      // performance; skip them.
    }
  }
}

/// BENCH_sim.json: {"benchmarks": {"BM_X": {"baseline": {…}, "optimized":
/// {…}, "speedup": s}}}. The "optimized" record is the current performance
/// contract, so its fields are emitted under the bare benchmark name
/// ("BM_X.real_time_ns") — directly comparable with a fresh
/// --benchmark_out run of the same binary. Entries without an "optimized"
/// object are flattened whole (still under the bare name).
void normalize_baseline_table(const json::Value& doc,
                              std::vector<Metric>& out) {
  for (const auto& [name, entry] : doc.at("benchmarks").as_object()) {
    const json::Value* opt =
        entry.is_object() ? entry.find("optimized") : nullptr;
    flatten(name, (opt != nullptr && opt->is_object()) ? *opt : entry, out);
  }
}

/// BENCH_ghost.json: {"bench": "ghost", "results": [{"name": …,
/// "full_seconds": …, "ghost_seconds": …, "speedup": …, …}]}. Raw
/// wall-clock seconds vary with the machine running the bench and are
/// skipped; the speedup ratio (the file's contract) and the deterministic
/// simulation fields (makespan, energy, p) are emitted as
/// "ghost.<name>.<field>".
void normalize_ghost_speedup(const json::Value& doc,
                             std::vector<Metric>& out) {
  for (const json::Value& entry : doc.at("results").as_array()) {
    const json::Value* name = entry.find("name");
    if (name == nullptr || !name->is_string() || !entry.is_object()) continue;
    for (const auto& [key, field] : entry.as_object()) {
      if (!field.is_number() || is_timestamp_key(key)) continue;
      if (key == "full_seconds" || key == "ghost_seconds") continue;
      out.push_back(
          {"ghost." + name->as_string() + "." + key, field.as_double()});
    }
  }
}

/// BENCH_serve.json: {"bench": "serve", "results": [{"name": …,
/// "queries_per_sec": …, "p50_us": …, "p99_us": …, "max_us": …, …}]}.
/// Raw query counts and elapsed seconds scale with the loadtest's
/// --duration flag, not with service performance, and are skipped; the
/// rates and latency quantiles are emitted as "serve.<phase>.<field>".
void normalize_serve_loadtest(const json::Value& doc,
                              std::vector<Metric>& out) {
  for (const json::Value& entry : doc.at("results").as_array()) {
    if (!entry.is_object()) continue;
    const json::Value* name = entry.find("name");
    if (name == nullptr || !name->is_string()) continue;
    for (const auto& [key, field] : entry.as_object()) {
      if (!field.is_number() || is_timestamp_key(key)) continue;
      if (key == "queries" || key == "seconds") continue;
      out.push_back(
          {"serve." + name->as_string() + "." + key, field.as_double()});
    }
  }
}

/// BENCH_frontier.json: {"bench": "frontier", "results": [{"name": …,
/// "p": …, "slots": …, "seconds": …, "makespan": …, "energy": …,
/// "flops_per_rank": …, "words_per_rank": …, "msgs_per_rank": …}]} from
/// bench/frontier_folded. This covers both the static-class rows and the
/// rotor-replay rows (summa/lu/mm25d c>1): "slots" is the executed fiber
/// count (1 for a rotor sweep) and per-rank counters are the folded run's
/// exact values. Wall-clock "seconds" is machine-dependent and skipped;
/// the simulated frontier points themselves are deterministic and emitted
/// as "frontier.<name>.<field>" ("folded"/"anchor_identical" are booleans
/// and fall out of the numeric filter).
void normalize_frontier(const json::Value& doc, std::vector<Metric>& out) {
  for (const json::Value& entry : doc.at("results").as_array()) {
    if (!entry.is_object()) continue;
    const json::Value* name = entry.find("name");
    if (name == nullptr || !name->is_string()) continue;
    for (const auto& [key, field] : entry.as_object()) {
      if (!field.is_number() || is_timestamp_key(key)) continue;
      if (key == "seconds") continue;
      out.push_back(
          {"frontier." + name->as_string() + "." + key, field.as_double()});
    }
  }
}

/// BENCH_navigator.json: {"bench": "navigator", "results": [{"name": …,
/// "frontier_area": …, "crossover_generations": …, "robust_fraction": …,
/// "fault_energy_inflation": …, "folded_scored": …, "fiber_scored": …,
/// …}]} from bench/navigator_sweep (the fold-coverage pair counts scored
/// survivors that took the folded fast path vs per-fiber execution). The
/// frontier metrics are deterministic navigator outputs and are emitted as
/// "navigator.<name>.<field>"; navigate_seconds is wall clock and skipped.
/// Crossover generation counts of -1 mean "target unreachable" — a
/// sentinel, not a small count — so negative values are skipped too (the
/// metric then shows up as removed/added instead of as a fake
/// improvement).
void normalize_navigator(const json::Value& doc, std::vector<Metric>& out) {
  for (const json::Value& entry : doc.at("results").as_array()) {
    if (!entry.is_object()) continue;
    const json::Value* name = entry.find("name");
    if (name == nullptr || !name->is_string()) continue;
    for (const auto& [key, field] : entry.as_object()) {
      if (!field.is_number() || is_timestamp_key(key)) continue;
      if (key == "navigate_seconds") continue;
      if (contains(key, "crossover") && field.as_double() < 0.0) continue;
      out.push_back(
          {"navigator." + name->as_string() + "." + key, field.as_double()});
    }
  }
}

/// BENCH_transport.json: {"bench": "transport", "results": [{"name":
/// "<alg>.<backend>", "p": …, "makespan": …, "ledger_messages_total": …,
/// "ledger_words_total": …, "wall_seconds": …}]} from
/// bench/transport_micro.
/// Everything but wall_seconds is a deterministic model quantity (the real
/// backends carry the simulator's ledger bit-identically), so any move is
/// a real cost-schedule change; wall_seconds is the benching machine's
/// clock and is skipped.
void normalize_transport(const json::Value& doc, std::vector<Metric>& out) {
  for (const json::Value& entry : doc.at("results").as_array()) {
    if (!entry.is_object()) continue;
    const json::Value* name = entry.find("name");
    if (name == nullptr || !name->is_string()) continue;
    for (const auto& [key, field] : entry.as_object()) {
      if (!field.is_number() || is_timestamp_key(key)) continue;
      if (key == "wall_seconds") continue;
      out.push_back(
          {"transport." + name->as_string() + "." + key, field.as_double()});
    }
  }
}

/// BENCH_engine.json: an append-only array of run records; compare the
/// latest record of each bench.
void normalize_engine_history(const json::Value& doc,
                              std::vector<Metric>& out) {
  std::map<std::string, const json::Value*> latest;
  for (const json::Value& rec : doc.as_array()) {
    if (!rec.is_object()) continue;
    const json::Value* bench = rec.find("bench");
    if (bench == nullptr || !bench->is_string()) continue;
    latest[bench->as_string()] = &rec;  // later records overwrite
  }
  for (const auto& [bench, rec] : latest) {
    for (const auto& [key, field] : rec->as_object()) {
      if (key == "bench" || is_timestamp_key(key)) continue;
      flatten("engine." + bench + "." + key, field, out);
    }
  }
}

}  // namespace

int metric_direction(const std::string& name) {
  const std::string n = lower(name);
  // Throughput-like: more is better. Checked first so "items_per_second"
  // is not caught by the time-like rules below.
  if (contains(n, "per_second") || contains(n, "per_sec") ||
      contains(n, "speedup") || contains(n, "occupancy") ||
      contains(n, "hits") || contains(n, "per_watt") ||
      contains(n, "robust")) {
    return 1;
  }
  // Latency-like: less is better. "_us"/"_ms" cover the serve loadtest's
  // quantile fields (p50_us, p99_us, max_us) the way "_ns" covers
  // google-benchmark times.
  if (contains(n, "time") || contains(n, "seconds") || contains(n, "_ns") ||
      contains(n, "_us") || contains(n, "_ms") || contains(n, "latency") ||
      contains(n, "p50") || contains(n, "p99") || contains(n, "wall") ||
      contains(n, "wait") || contains(n, "miss")) {
    return -1;
  }
  // Simulated cost-model outputs: less makespan, energy, or per-rank
  // traffic is better. These never vary with the benching machine, so any
  // move is a real cost-schedule change.
  if (contains(n, "makespan") || contains(n, "energy") ||
      contains(n, "per_proc") || contains(n, "per_rank")) {
    return -1;
  }
  // Navigator frontier metrics: a smaller frontier_area hugs the ideal
  // corner tighter, fewer crossover generations reach the efficiency
  // target sooner, and a smaller fault-energy inflation means faults cost
  // less at the optimum. ("fault_energy_inflation" is already caught by
  // the "energy" rule above; listed here for the name's sake.)
  if (contains(n, "area") || contains(n, "crossover") ||
      contains(n, "inflation")) {
    return -1;
  }
  return 0;
}

std::vector<Metric> normalize_bench_json(const json::Value& doc) {
  std::vector<Metric> out;
  if (doc.is_array()) {
    normalize_engine_history(doc, out);
  } else if (doc.is_object()) {
    const json::Value* bench = doc.find("bench");
    const json::Value* results = doc.find("results");
    const json::Value* benchmarks = doc.find("benchmarks");
    if (bench != nullptr && bench->is_string() &&
        bench->as_string() == "ghost" && results != nullptr &&
        results->is_array()) {
      normalize_ghost_speedup(doc, out);
    } else if (bench != nullptr && bench->is_string() &&
               bench->as_string() == "serve" && results != nullptr &&
               results->is_array()) {
      normalize_serve_loadtest(doc, out);
    } else if (bench != nullptr && bench->is_string() &&
               bench->as_string() == "frontier" && results != nullptr &&
               results->is_array()) {
      normalize_frontier(doc, out);
    } else if (bench != nullptr && bench->is_string() &&
               bench->as_string() == "navigator" && results != nullptr &&
               results->is_array()) {
      normalize_navigator(doc, out);
    } else if (bench != nullptr && bench->is_string() &&
               bench->as_string() == "transport" && results != nullptr &&
               results->is_array()) {
      normalize_transport(doc, out);
    } else if (benchmarks != nullptr && benchmarks->is_array()) {
      normalize_google_benchmark(doc, out);
    } else if (benchmarks != nullptr && benchmarks->is_object()) {
      normalize_baseline_table(doc, out);
    } else {
      flatten("", doc, out);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  return out;
}

BenchDiff diff_bench_json(const json::Value& base, const json::Value& current,
                          double threshold,
                          const std::vector<ThresholdOverride>& overrides) {
  ALGE_REQUIRE(threshold >= 0.0, "threshold must be non-negative");
  for (const ThresholdOverride& o : overrides) {
    ALGE_REQUIRE(!o.substring.empty() && o.threshold >= 0.0,
                 "bad threshold override");
  }
  // Longest matching substring wins; ties break toward later entries
  // (<=), so callers can append more-specific rules last.
  auto effective_threshold = [&](const std::string& name) {
    double best = threshold;
    std::size_t best_len = 0;
    for (const ThresholdOverride& o : overrides) {
      if (o.substring.size() >= best_len &&
          name.find(o.substring) != std::string::npos) {
        best = o.threshold;
        best_len = o.substring.size();
      }
    }
    return best;
  };
  const std::vector<Metric> b = normalize_bench_json(base);
  const std::vector<Metric> c = normalize_bench_json(current);
  BenchDiff diff;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < b.size() || j < c.size()) {
    if (j >= c.size() || (i < b.size() && b[i].name < c[j].name)) {
      diff.only_base.push_back(b[i++].name);
      continue;
    }
    if (i >= b.size() || c[j].name < b[i].name) {
      diff.only_current.push_back(c[j++].name);
      continue;
    }
    MetricDiff m;
    m.name = b[i].name;
    m.base = b[i].value;
    m.current = c[j].value;
    if (m.base != 0.0) {
      m.rel_change = (m.current - m.base) / std::abs(m.base);
    } else if (m.current != 0.0) {
      m.rel_change = m.current > 0.0
                         ? std::numeric_limits<double>::infinity()
                         : -std::numeric_limits<double>::infinity();
    }
    m.direction = metric_direction(m.name);
    m.threshold = effective_threshold(m.name);
    m.regression = (m.direction < 0 && m.rel_change > m.threshold) ||
                   (m.direction > 0 && m.rel_change < -m.threshold);
    if (m.regression) ++diff.regressions;
    diff.metrics.push_back(std::move(m));
    ++i;
    ++j;
  }
  return diff;
}

std::string render_diff(const BenchDiff& diff, double threshold,
                        bool verbose) {
  std::string out;
  int improvements = 0;
  for (const MetricDiff& m : diff.metrics) {
    // Classified at the metric's own (possibly overridden) threshold.
    const bool improved =
        (m.direction < 0 && m.rel_change < -m.threshold) ||
        (m.direction > 0 && m.rel_change > m.threshold);
    if (improved) ++improvements;
    if (m.regression) {
      out += strfmt("REGRESSION  %-60s %14.6g -> %14.6g  (%+.1f%%)\n",
                    m.name.c_str(), m.base, m.current, m.rel_change * 100.0);
    } else if (verbose || improved) {
      out += strfmt("%-11s %-60s %14.6g -> %14.6g  (%+.1f%%)\n",
                    improved ? "improved" : "ok", m.name.c_str(), m.base,
                    m.current, m.rel_change * 100.0);
    }
  }
  for (const std::string& name : diff.only_base) {
    out += strfmt("removed     %s\n", name.c_str());
  }
  for (const std::string& name : diff.only_current) {
    out += strfmt("added       %s\n", name.c_str());
  }
  out += strfmt(
      "%zu metric(s) compared at threshold %.0f%%: %d regression(s), "
      "%d improvement(s), %zu removed, %zu added\n",
      diff.metrics.size(), threshold * 100.0, diff.regressions, improvements,
      diff.only_base.size(), diff.only_current.size());
  return out;
}

}  // namespace alge::obs
