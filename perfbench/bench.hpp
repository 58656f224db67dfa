// Shared plumbing of the benchmark: timing, medians, the span tracer the
// traced run records through, the metric map the result line prints, and
// the workload interface every path implements.
#pragma once
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "obs/span_log.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/// Linear-interpolated quantile (q in [0, 1]) of a copy of `v`; 0 if empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set of this process (getrusage ru_maxrss), in MB.
double peak_rss_mb();

/// The machine of bench/frontier_folded and bench/scaling_mm_energy, used
/// by the simulated workloads: every Eq. (2) term live, messages uncapped.
alge::core::MachineParams scaling_machine();

/// Mixes a workload seed with a round index into an input-generation seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Spans around the benchmark's own calls into each layer. Off: span()
/// only runs the call. On: each call becomes one obs::SpanLog record
/// (written as a Chrome trace at the end of the run) and its duration is
/// kept under its name for the per-layer metrics.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  template <typename F>
  decltype(auto) span(const std::string& name, F&& f) {
    if (!on_) return f();
    const auto t0 = Clock::now();
    struct Record {
      Tracer* self;
      const std::string& name;
      Clock::time_point t0;
      ~Record() { self->record(name, t0, Clock::now()); }
    } rec{this, name, t0};
    return f();
  }

  /// Summed seconds of every span named `name` (0 if none).
  double total(const std::string& name) const;
  /// Every duration recorded under `name`, in order.
  const std::vector<double>& samples(const std::string& name) const;
  std::size_t spans() const { return log_.size(); }
  void write_chrome(const std::string& path) const;

 private:
  void record(const std::string& name, Clock::time_point t0,
              Clock::time_point t1);
  bool on_;
  alge::obs::SpanLog log_;
  std::map<std::string, std::vector<double>> durations_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Operations attempted and failed, and the output checks' verdict.
struct Outcome {
  long attempted = 0;
  long failed = 0;
  bool correct = true;
  /// A check found a wrong output: marks the run incorrect.
  void check_failed(const std::string& what);
  /// An operation threw: counted in `failed`, not a wrong output.
  void op_failed(const std::string& what);
  /// Record a check result ("" = passed).
  void expect(const std::string& error) {
    if (!error.empty()) check_failed(error);
  }
};

constexpr int kStages = 3;

/// Wall seconds of each timed operation of one round, per stage, in a
/// fixed order: the same operation has the same index in every round, so
/// a run can reduce each operation's samples over its rounds to one time.
struct RoundTimes {
  std::vector<double> stage[kStages];
  double total() const;
};

/// One benchmarked path. A run calls setup() (several times, for setup_s),
/// then whole rounds until the run's time is spent, then finish().
class Workload {
 public:
  virtual ~Workload() = default;
  /// Build everything the rounds need, including one warm-up operation so
  /// lazy initialisation is not timed as work.
  virtual void setup() = 0;
  /// One whole round of the same operations (inputs vary with `round`).
  /// Records each operation's wall seconds; checks outputs after timing.
  virtual void round(int round, Tracer& tr, RoundTimes& times,
                     Outcome& out) = 0;
  /// Checks that run once per run rather than once per round.
  virtual void finish(Outcome& /*out*/) {}
  /// How a run reduces an operation's times over its rounds: the median
  /// (false) or the fastest round (true). Operations of tenths of a second
  /// or more average over the host's slow periods themselves, so their
  /// median is steady; millisecond operations fall whole into those
  /// periods, so only their fastest round is.
  virtual bool fastest_round() const { return false; }
  /// Traced run only: the per-layer metrics of this workload, from the
  /// spans of one traced round plus direct calls into the layers.
  virtual void layers(Tracer& tr, Metrics& m, Outcome& out) = 0;
};

std::unique_ptr<Workload> make_verified_scaling(std::uint64_t seed);
std::unique_ptr<Workload> make_ghost_frontier(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_queries(std::uint64_t seed);
std::unique_ptr<Workload> make_transport_real(std::uint64_t seed);

}  // namespace perfbench
