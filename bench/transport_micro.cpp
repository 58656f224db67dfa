// transport_micro: the 7 algorithms' conformance programs on every
// transport backend (virtual-clock sim, forked shm processes, loopback TCP
// threads), timing each run and cross-checking the real backends against
// the simulator inline — outputs bitwise equal, per-rank model counters
// equal, measured wire traffic equal to the W/S ledger.
//
//   transport_micro [--json=PATH] [--backends=sim,shm,tcp]
//
// The committed BENCH_transport.json is generated with the default flags.
// Every metric in the record is a deterministic model quantity (the ledger
// travels with the rank), so the CI bench_diff gates them tightly;
// wall_seconds is this machine's clock and goes under info. A conformance
// failure exits nonzero.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "algs/registry.hpp"
#include "bench_common.hpp"
#include "obs/bench_metrics.hpp"
#include "support/cli.hpp"
#include "support/common.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "transport/run.hpp"

namespace {

using namespace alge;

/// Ledger totals summed over ranks — deterministic, backend-independent.
struct LedgerTotals {
  double msgs = 0.0;
  double words = 0.0;
};

LedgerTotals ledger_of(const transport::RunReport& report) {
  LedgerTotals t;
  for (const transport::RankReport& r : report.ranks) {
    t.msgs += r.model.msgs_sent;
    t.words += r.model.words_sent;
  }
  return t;
}

/// The conformance oracle, reduced to a yes/no for the bench table; the
/// full per-counter diagnosis lives in tests/test_transport_conformance.
bool conformant(const transport::RunReport& ref,
                const transport::RunReport& real) {
  if (ref.p != real.p) return false;
  for (int r = 0; r < ref.p; ++r) {
    const transport::RankReport& a = ref.ranks[static_cast<std::size_t>(r)];
    const transport::RankReport& b = real.ranks[static_cast<std::size_t>(r)];
    if (a.output != b.output) return false;
    if (!(a.model == b.model)) return false;
    if (b.wire.msgs_sent != b.model.msgs_sent) return false;
    if (b.wire.words_sent != b.model.words_sent) return false;
    if (b.wire.msgs_recv != b.model.msgs_recv) return false;
    if (b.wire.words_recv + b.self.words_recv != b.model.words_recv) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace alge;
  CliArgs cli;
  cli.add_flag("json", "",
               "write the BENCH_transport.json record to this path (empty "
               "= table only)");
  cli.add_flag("backends", "sim,shm,tcp",
               "comma-separated backends to run (sim is always run as the "
               "conformance reference)");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.usage("transport_micro");
    return 0;
  }
  const std::string backends_flag = cli.get("backends");
  auto backend_enabled = [&](const char* name) {
    return backends_flag.find(name) != std::string::npos;
  };

  bench::banner(
      "Transport micro: the 7 algorithms for real on every backend",
      "Each program runs on the virtual-clock simulator, on forked "
      "shared-memory processes, and on loopback TCP threads. 'conforms' "
      "asserts bitwise-equal outputs, bit-identical model counters, and "
      "measured wire traffic equal to the W/S ledger.");

  json::Value results = json::Value::array();
  Table t({"alg", "backend", "p", "makespan", "ledger msgs", "ledger words",
           "wall s", "conforms"});
  bool all_ok = true;

  for (const algs::AlgEntry& entry : algs::entries()) {
    const std::string alg(entry.name());
    const algs::Program prog = algs::prepare(entry.conformance());
    transport::RunOptions opts;
    opts.p = prog.p;
    opts.params = core::MachineParams::unit();
    opts.timeout_s = 30.0;

    const transport::RunReport ref = transport::run_sim(opts, prog.rank);
    const LedgerTotals ledger = ledger_of(ref);

    for (const transport::Backend backend :
         {transport::Backend::kSim, transport::Backend::kShm,
          transport::Backend::kTcp}) {
      const std::string bname(transport::to_string(backend));
      if (!backend_enabled(bname.c_str())) continue;
      const auto t0 = std::chrono::steady_clock::now();
      const transport::RunReport report =
          transport::run(backend, opts, prog.rank);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const bool ok =
          backend == transport::Backend::kSim || conformant(ref, report);
      all_ok = all_ok && ok;
      t.row()
          .cell(alg)
          .cell(bname)
          .cell(report.p)
          .cell(report.makespan(), "%.0f")
          .cell(ledger.msgs, "%.0f")
          .cell(ledger.words, "%.0f")
          .cell(wall, "%.4f")
          .cell(ok ? "yes" : "NO");
      using obs::Better;
      results.push_back(
          obs::BenchRecord(alg + "." + bname)
              .metric("p", report.p, "ranks", Better::kNone)
              .metric("makespan", report.makespan(), "model time",
                      Better::kLower)
              .metric("ledger_messages_total", ledger.msgs, "messages",
                      Better::kLower)
              .metric("ledger_words_total", ledger.words, "words",
                      Better::kLower)
              .info("wall_seconds", wall)
              .to_json());
    }
  }

  t.print(std::cout);
  std::cout << "\nThe ledger columns are identical across backends by "
               "construction (the model travels with the rank); wall "
               "seconds is the only machine-dependent column. See "
               "EXPERIMENTS.md \"Transports\".\n";

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    obs::write_bench_file(obs::bench_file("transport", std::move(results)),
                          json_path);
    std::fprintf(stderr, "[transport] wrote %s\n", json_path.c_str());
  }
  if (!all_ok) {
    std::fprintf(stderr,
                 "[transport] CONFORMANCE FAILURE: at least one real "
                 "backend diverged from the simulator\n");
  }
  return all_ok ? 0 : 1;
}
