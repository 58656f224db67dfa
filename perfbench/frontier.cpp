// ghost-frontier: cost-only (DataMode::kGhost) rows with no kernels, so
// only the simulator machinery (fiber switch, mailbox, cost hooks,
// collectives) and the two fold engines work.
//
// Stages: (1) per-fiber rows at p in the thousands for all 7 algorithms,
// (2) folded rows whose schedules have fixed peers (Cannon c=1, CAPS, FFT,
// TSQR, n-body: class/channel replay today), (3) folded rows whose
// broadcast roots rotate (SUMMA, LU, 2.5D c>1: rotor sweep today). Row
// membership follows the algorithm's schedule, not the mechanism that
// replays it. Ghost costs do not depend on data; the seed only names the
// spec seeds.
#include <map>
#include <string>
#include <vector>

#include "algs/foldmaps.hpp"
#include "algs/strassen/caps.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "engine/runner.hpp"
#include "fiber/fiber.hpp"
#include "sim/comm.hpp"
#include "sim/machine.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using namespace alge;
using engine::Alg;
using engine::ExperimentResult;
using engine::ExperimentSpec;

struct Row {
  std::string name;  ///< metric stem: sim.fiber.<name>_s or fold.<name>_s
  ExperimentSpec spec;
};

ExperimentSpec ghost(Alg alg, const core::MachineParams& mp, bool folded) {
  ExperimentSpec s;
  s.alg = alg;
  s.params = mp;
  s.data_mode = sim::DataMode::kGhost;
  s.exec_mode = folded ? sim::ExecMode::kFolded : sim::ExecMode::kFibers;
  return s;
}

ExperimentSpec mm25d(const core::MachineParams& mp, bool folded, int n, int q,
                     int c) {
  ExperimentSpec s = ghost(Alg::kMm25d, mp, folded);
  s.n = n;
  s.q = q;
  s.c = c;
  return s;
}
ExperimentSpec summa(const core::MachineParams& mp, bool folded, int n,
                     int q) {
  ExperimentSpec s = ghost(Alg::kSumma, mp, folded);
  s.n = n;
  s.q = q;
  return s;
}
ExperimentSpec caps(const core::MachineParams& mp, bool folded, int n,
                    int k) {
  ExperimentSpec s = ghost(Alg::kCaps, mp, folded);
  s.n = n;
  s.k = k;
  return s;
}
ExperimentSpec nbody(const core::MachineParams& mp, bool folded, int n, int p,
                     int c) {
  ExperimentSpec s = ghost(Alg::kNBody, mp, folded);
  s.n = n;
  s.p = p;
  s.c = c;
  return s;
}
ExperimentSpec lu(const core::MachineParams& mp, bool folded, int n, int nb,
                  int q) {
  ExperimentSpec s = ghost(Alg::kLu, mp, folded);
  s.n = n;
  s.nb = nb;
  s.q = q;
  s.c = 1;
  return s;
}
ExperimentSpec fft(const core::MachineParams& mp, bool folded, int r, int c,
                   int p) {
  ExperimentSpec s = ghost(Alg::kFft, mp, folded);
  s.r_dim = r;
  s.c_dim = c;
  s.p = p;
  return s;
}
ExperimentSpec tsqr(const core::MachineParams& mp, bool folded, int rows,
                    int b, int p) {
  ExperimentSpec s = ghost(Alg::kTsqr, mp, folded);
  s.n = rows;
  s.nb = b;
  s.p = p;
  return s;
}

/// The three row groups, each row sized to a comparable share of a round.
std::vector<Row> stage_rows(int stage, const core::MachineParams& mp) {
  if (stage == 0) {
    return {
        {"mm25d", mm25d(mp, false, 2048, 32, 4)},    // p = 4096
        {"summa", summa(mp, false, 2304, 48)},       // p = 2304
        {"caps", caps(mp, false, 1568, 4)},          // p = 2401
        {"nbody", nbody(mp, false, 8192, 2048, 4)},  // p = 2048
        {"lu", lu(mp, false, 1536, 16, 24)},         // p = 576
        {"fft", fft(mp, false, 512, 512, 512)},      // p = 512
        {"tsqr", tsqr(mp, false, 32, 4, 8192)},      // p = 8192
    };
  }
  if (stage == 1) {
    return {
        {"cannon", mm25d(mp, true, 65536, 1024, 1)},      // p = 2^20
        {"caps", caps(mp, true, 307328, 7)},              // p = 7^7 ≈ 2^19.6
        {"fft", fft(mp, true, 32768, 32768, 32768)},      // p = 2^15
        {"tsqr", tsqr(mp, true, 32, 4, 1 << 20)},         // p = 2^20
        {"nbody", nbody(mp, true, 1 << 20, 1 << 20, 4)},  // p = 2^20
    };
  }
  return {
      {"summa", summa(mp, true, 8192, 256)},     // p = 2^16
      {"lu", lu(mp, true, 4096, 16, 256)},       // p = 2^16
      {"mm25d", mm25d(mp, true, 8192, 256, 4)},  // p = 2^18
  };
}

/// Small-p anchors for every folded row: run per-fiber and folded, and the
/// two cost signatures must be bit-identical.
std::vector<Row> anchor_rows(const core::MachineParams& mp) {
  return {
      {"cannon", mm25d(mp, false, 1024, 16, 1)},
      {"caps", caps(mp, false, 392, 3)},
      {"fft", fft(mp, false, 1024, 1024, 256)},
      {"tsqr", tsqr(mp, false, 32, 4, 256)},
      {"nbody", nbody(mp, false, 4096, 256, 4)},
      {"summa", summa(mp, false, 1024, 16)},
      {"lu", lu(mp, false, 512, 8, 16)},
      {"mm25d", mm25d(mp, false, 1024, 16, 4)},
  };
}

bool is_matmul(Alg a) { return a == Alg::kMm25d || a == Alg::kSumma; }

const char* const kStagePrefix[kStages] = {"sim.fiber.", "fold.", "fold."};

class GhostFrontier final : public Workload {
 public:
  explicit GhostFrontier(std::uint64_t seed)
      : seed_(seed), mp_(scaling_machine()) {}

  void setup() override {
    for (int st = 0; st < kStages; ++st) rows_[st] = stage_rows(st, mp_);
    // Warm-up: one small per-fiber and one small folded run.
    engine::execute(summa(mp_, false, 256, 8));
    engine::execute(summa(mp_, true, 256, 8));
  }

  void round(int round, Tracer& tr, RoundTimes& times,
             Outcome& out) override {
    Rng rng(mix_seed(seed_, round));
    for (int st = 0; st < kStages; ++st) {
      const std::size_t n = rows_[st].size();
      std::vector<ExperimentSpec> specs(n);
      std::vector<ExperimentResult> results(n);
      std::vector<bool> ok(n, false);
      for (std::size_t i = 0; i < n; ++i) {
        const Row& row = rows_[st][i];
        specs[i] = row.spec;
        specs[i].seed = rng.next_u64() | 1;
        ++out.attempted;
        const auto t0 = Clock::now();
        try {
          results[i] = tr.span(kStagePrefix[st] + row.name,
                               [&] { return engine::execute(specs[i]); });
          ok[i] = true;
        } catch (const std::exception& e) {
          out.op_failed(row.name + ": " + e.what());
        }
        times.stage[st].push_back(seconds_since(t0));
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (!ok[i]) continue;
        const ExperimentSpec& s = specs[i];
        out.expect(checks::flops_match(results[i], s));
        out.expect(checks::energy_matches(results[i], mp_));
        if (is_matmul(s.alg)) {
          out.expect(checks::above_matmul_bound(results[i], s));
        }
        if (st > 0) {
          out.expect(checks::actually_folded(results[i]));
          if (tr.on()) slots_[rows_[st][i].name] = results[i].fold_slots;
        }
        if (tr.on()) {
          (st == 0 ? fiber_msgs_ : fold_msgs_) += results[i].totals.msgs_total;
          words_ += results[i].totals.words_total;
        }
      }
    }
  }

  void finish(Outcome& out) override {
    for (const Row& row : anchor_rows(mp_)) {
      ExperimentSpec folded = row.spec;
      folded.exec_mode = sim::ExecMode::kFolded;
      out.attempted += 2;
      try {
        const ExperimentResult f = engine::execute(row.spec);
        const ExperimentResult d = engine::execute(folded);
        out.expect(checks::same_cost_signature(f, d));
        out.expect(checks::actually_folded(d));
        out.expect(checks::flops_match(d, folded));
        out.expect(checks::energy_matches(d, mp_));
      } catch (const std::exception& e) {
        out.op_failed("anchor " + row.name + ": " + e.what());
        out.op_failed("anchor " + row.name + " (folded)");
      }
    }
  }

  void layers(Tracer& tr, Metrics& m, Outcome& /*out*/) override {
    double fiber_s = 0;
    for (const Row& row : rows_[0]) {
      const double s = tr.total("sim.fiber." + row.name);
      m["sim.fiber." + row.name + "_s"] = {s, "s"};
      fiber_s += s;
    }
    m["sim.msgs_per_s"] = {fiber_msgs_ / fiber_s, "1/s"};
    m["sim.frontier.msgs"] = {fiber_msgs_ + fold_msgs_, "count"};
    m["sim.frontier.words"] = {words_, "count"};
    for (int st = 1; st < kStages; ++st) {
      for (const Row& row : rows_[st]) {
        m["fold." + row.name + "_s"] = {tr.total("fold." + row.name), "s"};
        m["fold." + row.name + ".slots"] = {double(slots_[row.name]),
                                            "count"};
      }
    }
    m["foldmaps.build_s"] = {build_foldmaps(tr), "s"};
    m["sim.sendrecv_ns"] = {sendrecv_ns(tr), "ns"};
    m["fiber.switch_ns"] = {switch_ns(tr), "ns"};
  }

 private:
  /// Direct algs::foldmap_* calls for the folded frontier rows.
  double build_foldmaps(Tracer& tr) {
    const auto t0 = Clock::now();
    for (int st = 1; st < kStages; ++st) {
      for (const Row& row : rows_[st]) {
        const ExperimentSpec& s = row.spec;
        tr.span("foldmaps." + row.name, [&] {
          switch (s.alg) {
            case Alg::kMm25d:
              return algs::foldmap_mm25d(s.q, s.c, s.n / s.q, false);
            case Alg::kSumma:
              return algs::foldmap_summa(s.n, s.q);
            case Alg::kLu:
              return algs::foldmap_lu(s.n, s.nb, s.q, s.c);
            case Alg::kCaps:
              return algs::foldmap_caps(algs::caps_ranks(s.k));
            case Alg::kFft:
              return algs::foldmap_fft(s.p);
            case Alg::kNBody:
              return algs::foldmap_nbody(s.p, s.c);
            case Alg::kTsqr:
              return algs::foldmap_tsqr(s.p);
            default:
              return std::shared_ptr<const sim::FoldMap>();
          }
        });
      }
    }
    return seconds_since(t0);
  }

  /// Ghost ping-pong between the two ranks of a p=2 Machine: host
  /// nanoseconds per simulated message.
  double sendrecv_ns(Tracer& tr) {
    constexpr int kRounds = 200000;
    sim::MachineConfig cfg;
    cfg.p = 2;
    cfg.params = mp_;
    cfg.data_mode = sim::DataMode::kGhost;
    sim::Machine machine(cfg);
    const auto t0 = Clock::now();
    tr.span("sim.sendrecv", [&] {
      machine.run([](sim::Comm& comm) {
        const sim::ConstPayload out = sim::ConstPayload::ghost(8);
        const sim::Payload in = sim::Payload::ghost(8);
        for (int i = 0; i < kRounds; ++i) {
          if (comm.rank() == 0) {
            comm.send(1, out);
            comm.recv(1, in);
          } else {
            comm.recv(0, in);
            comm.send(0, out);
          }
        }
      });
    });
    return seconds_since(t0) * 1e9 / (2.0 * kRounds);
  }

  /// Two fibers yielding to each other: host nanoseconds per switch.
  static double switch_ns(Tracer& tr) {
    constexpr int kYields = 500000;
    fiber::Scheduler sched;
    for (int f = 0; f < 2; ++f) {
      sched.spawn([&sched] {
        for (int i = 0; i < kYields; ++i) sched.yield();
      });
    }
    const auto t0 = Clock::now();
    tr.span("fiber.switch", [&] { sched.run(); });
    return seconds_since(t0) * 1e9 / (2.0 * kYields);
  }

  std::uint64_t seed_;
  core::MachineParams mp_;
  std::vector<Row> rows_[kStages];
  std::map<std::string, int> slots_;
  double fiber_msgs_ = 0, fold_msgs_ = 0, words_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_ghost_frontier(std::uint64_t seed) {
  return std::make_unique<GhostFrontier>(seed);
}

}  // namespace perfbench
