// QueryService: the optimizer query engine behind the TCP server, usable
// in-process (tests, serve_client --crosscheck, serve_loadtest) without any
// socket.
//
// A request is one JSON object; `kind` selects the query class:
//
//   closed-form (§V, via core::Optimizer — microseconds, no simulation):
//     "min_energy" / "min_time"                         V-A
//     "min_energy_given_time"        (t_max)            V-B: pmin for a
//                                                       deadline
//     "min_time_given_energy"        (e_max)            V-C
//     "min_time_given_total_power" / "min_energy_given_total_power"
//                                    (power_max)        V-D (Eq. 19 space)
//     "min_time_given_proc_power" / "min_energy_given_proc_power"
//                                    (proc_power_max)   V-E (Eq. 20 space)
//     "evaluate"                     (p, M)             one Fig.-4 point
//     "codesign"  (target_gflops_per_watt, scale, …)    V-F / Figs. 6-7
//   sim-backed:
//     "experiment" (spec: partial ExperimentSpec JSON)  ghost-mode engine
//                                                       evaluation; absent
//                                                       spec fields take
//                                                       ExperimentSpec
//                                                       defaults and
//                                                       data_mode defaults
//                                                       to GHOST
//     "navigate"   (p_samples, m_samples, budgets, simulate, fault_plans,
//                  …)                                 full Pareto-frontier
//                                                     report from
//                                                     src/navigator, with
//                                                     optional engine
//                                                     scoring + chaos
//                                                     re-score; shares the
//                                                     service's engine
//                                                     result cache
//   framing: "batch" {"queries": [...]} — every element is re-dispatched
//            through handle() (answer store, spec table and ledger all hit
//            per-spec), responses return as one array in order; element
//            failures stay element-local; batches cannot nest and the
//            batch frame itself is never cached
//   admin (never cached): "ping", "stats"
//
// plus "model" ("nbody" [f] | "classical-mm" | "strassen" [omega0] |
// "lu-2.5d" | "fft-naive" | "fft-tree"), "n", a machine ("machine":
// "case-study" (default; mem_words zeroed so the optimizer chooses M, as in
// bench/sec5_optimizer) | "unit", or explicit "params" in the engine's
// canonical encoding), optional "limits" {p_available, M_cap}, and an
// optional "id" echoed verbatim in the response.
//
// Responses: {"id"?, "ok": true, "kind": …, "answer": {…}} or {"id"?,
// "ok": false, "error": "…"}. The answer object is built by the exact same
// core::Optimizer / engine::execute calls a direct caller would make and is
// serialized with round-trip doubles, so served answers are bit-identical
// to local evaluation — the property the tests and the CI smoke assert.
//
// The answer store is content-addressed, like the engine cache: the FNV-1a
// hash of the raw request bytes keys a response-bytes map, so the steady-
// state hot path is hash → lookup → respond, with no JSON parsing at all
// (that is what makes 100k+ queries/s possible on one core). A miss parses
// and dispatches. Distinct "experiment" requests that reduce to the same
// ExperimentSpec (ids, field order, defaulted fields) share one ghost
// simulation through the spec-level in-flight table and the engine's
// (optionally on-disk, cross-process) result cache. Only the table's owner
// reads or writes that cache, so with no cache_dir, result_cache.misses in
// stats_json counts simulations run. Identical closed-form or "navigate"
// requests that miss at the same instant each compute; both store the same
// bytes.
// Per-class serving cost is metered in a ledger: query counts,
// answer-cache hits, a log-spaced latency histogram (approximate p50/p99),
// and the energy of serving itself, modeled as busy-seconds × host_watts —
// Eq. (2)'s εe·T term applied to the server.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "engine/cache.hpp"
#include "obs/span_log.hpp"
#include "support/json.hpp"

namespace alge::serve {

struct ServiceOptions {
  /// Engine result-cache directory ("" = in-memory only). Safe to share
  /// with other servers and CLIs: the store is atomic-rename, torn entries
  /// read as misses.
  std::string cache_dir;
  /// Answer-store entry cap. At capacity a CLOCK (second-chance) hand
  /// sweeps the ring of resident answers and evicts the first one not hit
  /// since the hand last passed it; the new answer takes that slot, behind
  /// the hand. Hot answers — e.g. the closed-form §V queries a dashboard
  /// polls — survive floods of one-shot experiment queries, and one-shots
  /// leave in arrival order. 0 disables retention entirely.
  std::size_t answer_cache_cap = 1 << 16;
  /// Watts drawn by the host while a worker computes, for the
  /// energy-of-serving ledger. Default: the case-study chip's TDP.
  double host_watts = 150.0;
  /// Optional per-request span recorder (one span per handled request,
  /// lane = caller-supplied worker id).
  obs::SpanLog* spans = nullptr;
};

/// An "experiment" query's partial spec JSON → full ExperimentSpec: absent
/// fields take the default-constructed spec's values, and data_mode
/// defaults to GHOST (the service exists to make sim-backed answers cheap;
/// callers wanting a full-data run say {"data_mode": "full"} explicitly).
/// Throws json::json_error or invalid_argument_error on a bad spec.
engine::ExperimentSpec spec_from_request(const json::Value& spec_json);

/// Per-query-class serving ledger entry (see stats_json for the encoding).
struct ClassStats {
  std::uint64_t count = 0;
  std::uint64_t answer_hits = 0;  ///< served straight from the answer store
  std::uint64_t errors = 0;
  double busy_seconds = 0.0;  ///< wall time inside handle() for this class
  double max_us = 0.0;
  /// Log-spaced latency histogram: bucket i counts requests with latency in
  /// [2^i, 2^(i+1)) ns; quantiles interpolate geometrically.
  std::uint64_t latency_ns_log2[64] = {};

  double quantile_us(double q) const;  ///< approximate, from the histogram
};

class QueryService {
 public:
  explicit QueryService(ServiceOptions opts = {});

  /// Handle one request frame; returns the response bytes (shared so the
  /// hot path never copies a cached answer). Never throws on bad input —
  /// malformed requests get {"ok": false} responses. `lane` labels the span
  /// when tracing is on.
  std::shared_ptr<const std::string> handle(std::string_view request,
                                            int lane = 0);

  /// The serving ledger + cache counters, as the "stats" query returns
  /// them.
  json::Value stats_json() const;

  engine::ResultCache& result_cache() { return result_cache_; }
  const ServiceOptions& options() const { return opts_; }

 private:
  std::shared_ptr<const std::string> compute(std::string_view request,
                                             std::string* kind_label,
                                             bool* cacheable, bool* ok);
  json::Value dispatch(const json::Value& req, const std::string& kind,
                       bool* cacheable);
  json::Value run_experiment(const json::Value& req);
  /// "batch": re-dispatch every element of "queries" through handle() (so
  /// per-spec caching/coalescing still applies) and return the array of
  /// their responses. The batch frame itself is never cached.
  json::Value run_batch(const json::Value& req);
  void note(const std::string& kind, double seconds, bool hit, bool ok);

  ServiceOptions opts_;
  engine::ResultCache result_cache_;

  /// Answer store: FNV-1a(request bytes) → response bytes. The canonical
  /// spec string is kept alongside for the same collision guard the engine
  /// cache uses (a hash collision degrades to a recompute, never to a wrong
  /// answer).
  struct Answer {
    std::string request;  ///< collision guard: full request bytes
    std::string kind;     ///< query class, for the hit-path ledger
    std::shared_ptr<const std::string> response;
    /// Second-chance bit: set on every hit (readers hold only the shared
    /// lock, hence atomic; boxed so the entry stays movable), cleared as
    /// the eviction hand sweeps past.
    std::unique_ptr<std::atomic<bool>> referenced;
  };
  mutable std::shared_mutex answer_mu_;
  std::unordered_map<std::uint64_t, Answer> answers_;
  /// Clock ring over the resident keys + sweep hand (guarded by a unique
  /// answer_mu_ lock, like all structural changes to the store).
  std::vector<std::uint64_t> clock_keys_;
  std::size_t clock_hand_ = 0;

  /// Evict one entry via the CLOCK sweep and return its ring slot, with
  /// the hand already past it; the caller writes the new key there. Caller
  /// holds answer_mu_ exclusively and guarantees the store is full.
  std::size_t evict_one_locked();

  /// Spec-level in-flight table for "experiment" queries that differ as
  /// bytes (ids, field order) but name the same simulation: canonical spec
  /// → the owner's result (or exception), which waiters share.
  std::mutex spec_inflight_mu_;
  std::map<std::string,
           std::shared_future<std::shared_ptr<const engine::ExperimentResult>>>
      spec_inflight_;

  mutable std::mutex ledger_mu_;
  std::map<std::string, ClassStats> ledger_;
  std::uint64_t spec_coalesced_ = 0;  ///< experiments merged at spec level
  std::uint64_t answer_evictions_ = 0;  ///< entries displaced at capacity
};

}  // namespace alge::serve
