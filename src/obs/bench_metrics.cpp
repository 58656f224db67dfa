#include "obs/bench_metrics.hpp"

#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <thread>

#include "support/common.hpp"

namespace alge::obs {

namespace {

const char* better_name(Better b) {
  switch (b) {
    case Better::kLower:
      return "lower";
    case Better::kHigher:
      return "higher";
    case Better::kNone:
      break;
  }
  return "none";
}

Better parse_better(const std::string& s) {
  for (const Better b : {Better::kLower, Better::kHigher, Better::kNone}) {
    if (s == better_name(b)) return b;
  }
  throw json::json_error("bench: \"better\" is \"" + s +
                         "\", not lower, higher or none");
}

std::string host_description() {
  utsname u{};
  const std::string arch = ::uname(&u) == 0 ? u.machine : "unknown";
  return strfmt("%s, %u cpus", arch.c_str(),
                std::thread::hardware_concurrency());
}

/// google-benchmark --benchmark_out JSON: {"context":…, "benchmarks":[…]},
/// times normalized to ns via each entry's "time_unit". Repetition indices,
/// thread counts etc. are configuration and are skipped.
void import_google_benchmark(const json::Value& doc, std::vector<Metric>& out) {
  for (const json::Value& entry : doc.at("benchmarks").as_array()) {
    const std::string prefix = "gbench." + entry.at("name").as_string() + ".";
    const json::Value* unit = entry.find("time_unit");
    const std::string u = unit != nullptr ? unit->as_string() : "ns";
    const double to_ns = u == "us"   ? 1e3
                         : u == "ms" ? 1e6
                         : u == "s"  ? 1e9
                                     : 1.0;
    for (const auto& [key, field] : entry.as_object()) {
      if (key == "real_time" || key == "cpu_time") {
        out.push_back(
            {prefix + key + "_ns", field.as_double() * to_ns, Better::kLower});
      } else if (key == "items_per_second" || key == "bytes_per_second") {
        out.push_back({prefix + key, field.as_double(), Better::kHigher});
      }
    }
  }
}

}  // namespace

BenchRecord& BenchRecord::metric(const std::string& key, double value,
                                 const std::string& unit, Better better) {
  json::Value m = json::Value::object();
  m.set("value", value).set("unit", unit).set("better", better_name(better));
  metrics_.set(key, std::move(m));
  return *this;
}

BenchRecord& BenchRecord::info(const std::string& key, json::Value value) {
  info_.set(key, std::move(value));
  return *this;
}

json::Value BenchRecord::to_json() const {
  json::Value r = json::Value::object();
  r.set("name", name_).set("metrics", metrics_).set("info", info_);
  return r;
}

json::Value bench_file(const std::string& bench, json::Value records) {
  json::Value doc = json::Value::object();
  doc.set("bench", bench)
      .set("host", host_description())
      .set("records", std::move(records));
  return doc;
}

void write_bench_file(const json::Value& doc, const std::string& path) {
  std::ofstream out(path);
  ALGE_REQUIRE(out.good(), "cannot write %s", path.c_str());
  out << doc.dump() << "\n";
}

std::vector<Metric> read_bench_metrics(const json::Value& doc) {
  std::vector<Metric> out;
  if (doc.is_object() && doc.find("records") != nullptr) {
    const std::string& bench = doc.at("bench").as_string();
    for (const json::Value& rec : doc.at("records").as_array()) {
      const std::string prefix =
          bench + "." + rec.at("name").as_string() + ".";
      for (const auto& [key, m] : rec.at("metrics").as_object()) {
        (void)m.at("unit").as_string();
        out.push_back({prefix + key, m.at("value").as_double(),
                       parse_better(m.at("better").as_string())});
      }
    }
  } else if (doc.is_object() && doc.find("benchmarks") != nullptr &&
             doc.at("benchmarks").is_array()) {
    import_google_benchmark(doc, out);
  } else {
    throw json::json_error(
        "neither a bench record file ({bench, host, records}) nor "
        "google-benchmark output");
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
  const std::vector<Metric> b = read_bench_metrics(base);
  const std::vector<Metric> c = read_bench_metrics(current);
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
    m.better = c[j].better;
    m.threshold = effective_threshold(m.name);
    m.regression =
        (m.better == Better::kLower && m.rel_change > m.threshold) ||
        (m.better == Better::kHigher && m.rel_change < -m.threshold);
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
        (m.better == Better::kLower && m.rel_change < -m.threshold) ||
        (m.better == Better::kHigher && m.rel_change > m.threshold);
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
