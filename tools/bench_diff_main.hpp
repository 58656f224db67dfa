// The bench_diff CLI as a callable function, so its exit codes and
// rendering are unit-testable (tests/test_bench_diff.cpp) while the binary
// (bench_diff.cpp) stays a two-line main. Header-only on purpose: tools/
// is not a library, and the one extra TU a test adds is cheaper than a new
// link target.
#pragma once

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_metrics.hpp"
#include "support/json.hpp"

namespace alge::tools {

inline const char* bench_diff_usage_text() {
  return
      "usage: bench_diff BASELINE.json CURRENT.json [--threshold=REL]"
      " [--thresholds=SUBSTR=REL,...] [--verbose]\n"
      "  --threshold=REL  relative change that counts as a regression\n"
      "                   (default 0.10 = 10%)\n"
      "  --thresholds=SUBSTR=REL,...\n"
      "                   per-metric overrides: metrics whose name contains\n"
      "                   SUBSTR gate at REL instead; the longest matching\n"
      "                   SUBSTR wins (CI gates deterministic simulated\n"
      "                   metrics at ~1e-4 and wall-clock ratios loosely)\n"
      "  --verbose        list every compared metric, not just changes\n";
}

/// Run the bench_diff CLI on `args` (argv[1..argc-1]). The report is
/// appended to *out and diagnostics to *err (either may be null).
/// Returns the process exit code: 0 clean, 1 regressions, 2 usage or
/// I/O error, or a file that is not a bench file.
inline int run_bench_diff(const std::vector<std::string>& args,
                          std::string* out, std::string* err) {
  auto say = [](std::string* sink, const std::string& text) {
    if (sink != nullptr) *sink += text;
  };
  auto usage = [&] {
    say(err, bench_diff_usage_text());
    return 2;
  };

  std::string paths[2];
  int npaths = 0;
  double threshold = 0.10;
  std::vector<obs::ThresholdOverride> overrides;
  bool verbose = false;
  for (const std::string& arg : args) {
    if (arg.rfind("--threshold=", 0) == 0) {
      try {
        threshold = std::stod(arg.substr(12));
      } catch (...) {
        say(err, "bench_diff: bad threshold '" + arg + "'\n");
        return usage();
      }
      if (threshold < 0.0) {
        say(err, "bench_diff: threshold must be >= 0\n");
        return usage();
      }
    } else if (arg.rfind("--thresholds=", 0) == 0) {
      // SUBSTR=REL, comma-separated. SUBSTR may not contain '=' or ','.
      std::string rest = arg.substr(13);
      if (rest.empty()) {
        say(err, "bench_diff: empty --thresholds\n");
        return usage();
      }
      while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string item = rest.substr(0, comma);
        rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
        const std::size_t eq = item.find('=');
        obs::ThresholdOverride o;
        if (eq != std::string::npos && eq > 0) {
          o.substring = item.substr(0, eq);
          try {
            o.threshold = std::stod(item.substr(eq + 1));
          } catch (...) {
            o.threshold = -1.0;
          }
        }
        if (o.substring.empty() || o.threshold < 0.0) {
          say(err, "bench_diff: bad threshold override '" + item + "'\n");
          return usage();
        }
        overrides.push_back(std::move(o));
      }
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (!arg.empty() && arg[0] == '-') {
      say(err, "bench_diff: unknown flag '" + arg + "'\n");
      return usage();
    } else if (npaths < 2) {
      paths[npaths++] = arg;
    } else {
      say(err, "bench_diff: too many arguments\n");
      return usage();
    }
  }
  if (npaths != 2) return usage();

  json::Value docs[2];
  for (int i = 0; i < 2; ++i) {
    std::ifstream in(paths[i]);
    if (!in) {
      say(err, "bench_diff: cannot read '" + paths[i] + "'\n");
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
      docs[i] = json::parse(buf.str());
    } catch (const json::json_error& e) {
      say(err, "bench_diff: '" + paths[i] +
                   "' is not valid JSON: " + e.what() + "\n");
      return 2;
    }
    try {
      (void)obs::read_bench_metrics(docs[i]);
    } catch (const json::json_error& e) {
      say(err, "bench_diff: '" + paths[i] +
                   "' is not a bench file: " + e.what() + "\n");
      return 2;
    }
  }

  const obs::BenchDiff diff =
      obs::diff_bench_json(docs[0], docs[1], threshold, overrides);
  say(out, obs::render_diff(diff, threshold, verbose));
  return diff.regressions > 0 ? 1 : 0;
}

}  // namespace alge::tools
