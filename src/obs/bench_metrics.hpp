// The one record schema of the repo's benchmark files, with the writer the
// benches use and the reader tools/bench_diff and the CI gate use:
//
//   {"bench": B, "host": H, "info": {...},
//    "records": [{"name": R,
//                 "metrics": {M: {"value": v, "unit": u, "better": d}},
//                 "info": {...}}]}
//
// A metric is named "B.R.M". Its writer declares `better`: "lower",
// "higher", or "none" (reported, never a regression). No reader guesses a
// direction from a name. "info", at file or record level, holds what a run
// records but must never be compared: wall-clock seconds of deterministic
// benches, counts that scale with a run's duration, flags, sentinels. The
// one foreign format read is google-benchmark's --benchmark_out file,
// imported as bench "gbench" (times in ns lower-better, *_per_second
// higher-better), so a fresh micro_sim run compares against the committed
// BENCH_sim.json.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace alge::obs {

enum class Better { kLower, kHigher, kNone };

/// Writer: one record of a bench file.
class BenchRecord {
 public:
  explicit BenchRecord(std::string name) : name_(std::move(name)) {}
  /// Declare a compared metric.
  BenchRecord& metric(const std::string& key, double value,
                      const std::string& unit, Better better);
  /// Record a field that is never compared.
  BenchRecord& info(const std::string& key, json::Value value);
  json::Value to_json() const;

 private:
  std::string name_;
  json::Value metrics_ = json::Value::object();
  json::Value info_ = json::Value::object();
};

/// Writer: a bench file of `records` (an array of BenchRecord::to_json()
/// values). The host is this machine's architecture and CPU count.
json::Value bench_file(const std::string& bench, json::Value records);

/// Write `doc` to `path` (one line); throws when the path is not writable.
void write_bench_file(const json::Value& doc, const std::string& path);

/// A named metric read from a bench file.
struct Metric {
  std::string name;
  double value = 0.0;
  Better better = Better::kNone;
};

/// Read a bench file or google-benchmark output into metrics sorted by
/// name. Throws json::json_error for any other document.
std::vector<Metric> read_bench_metrics(const json::Value& doc);

struct MetricDiff {
  std::string name;
  double base = 0.0;
  double current = 0.0;
  /// Signed relative change (current - base) / |base|; ±inf when base is 0
  /// and current is not.
  double rel_change = 0.0;
  Better better = Better::kNone;  ///< as the current file declares it
  double threshold = 0.0;         ///< the threshold this metric was gated at
  bool regression = false;        ///< worsened beyond the threshold
};

struct BenchDiff {
  std::vector<MetricDiff> metrics;        ///< metrics present in both files
  std::vector<std::string> only_base;     ///< disappeared metrics
  std::vector<std::string> only_current;  ///< new metrics
  int regressions = 0;
};

/// Per-metric threshold override: metrics whose name contains `substring`
/// are gated at `threshold` instead of the default. When several
/// substrings match one metric, the longest match wins (most specific);
/// ties break toward the later entry.
struct ThresholdOverride {
  std::string substring;
  double threshold = 0.0;
};

/// Compare two bench documents. A metric regresses when it moves against
/// its declared direction by more than its threshold (relative, e.g. 0.1 =
/// 10%): the default for most metrics, or the best-matching override. CI
/// uses overrides to gate deterministic simulated metrics tightly (~1e-4)
/// while leaving machine-dependent wall-clock ratios loose.
BenchDiff diff_bench_json(const json::Value& base, const json::Value& current,
                          double threshold,
                          const std::vector<ThresholdOverride>& overrides = {});

/// Human-readable report: regressions first, then improvements and notable
/// changes; `verbose` lists every common metric.
std::string render_diff(const BenchDiff& diff, double threshold,
                        bool verbose = false);

}  // namespace alge::obs
