// bench_diff: compare two benchmark JSON files and flag regressions.
//
//   bench_diff BASELINE.json CURRENT.json [--threshold=0.10]
//              [--thresholds=SUBSTR=REL,...] [--verbose]
//
// Reads the repo's one bench record schema (obs/bench_metrics.hpp) and
// google-benchmark --benchmark_out files. Each metric's writer declares
// which direction is better; a metric "regresses" when it moves against
// that direction by more than its relative threshold: the default, or the
// longest-matching --thresholds override. Metrics declared "none" are
// reported but never fail the diff, and "info" fields are never read.
//
// Exit codes: 0 clean, 1 regressions found, 2 usage or I/O error or a
// file in neither format. CI blocks on 1 (deterministic metrics gated
// tightly, wall-clock ratios loosely; the allow-bench-regression PR label
// overrides). The CLI logic lives in bench_diff_main.hpp so tests can
// drive it in-process.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_diff_main.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string out;
  std::string err;
  const int rc = alge::tools::run_bench_diff(args, &out, &err);
  std::fputs(out.c_str(), stdout);
  std::fputs(err.c_str(), stderr);
  return rc;
}
