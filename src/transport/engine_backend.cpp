#include "transport/engine_backend.hpp"

#include "algs/registry.hpp"
#include "engine/backend.hpp"
#include "support/common.hpp"

namespace alge::transport {

engine::ExperimentResult execute_on(Backend backend,
                                    const engine::ExperimentSpec& spec) {
  ALGE_REQUIRE(backend != Backend::kSim,
               "execute_on is the real-backend path; leave spec.transport "
               "empty (or \"sim\") for the simulator");
  ALGE_REQUIRE(spec.chaos_seed == 0 && spec.fault_plan.empty(),
               "transport \"%s\" runs fault-free: chaos axes apply to the "
               "simulator only",
               std::string(to_string(backend)).c_str());
  ALGE_REQUIRE(spec.data_mode == sim::DataMode::kFull,
               "transport \"%s\" moves real data: ghost mode applies to "
               "the simulator only",
               std::string(to_string(backend)).c_str());
  ALGE_REQUIRE(spec.exec_mode == sim::ExecMode::kFibers,
               "transport \"%s\" cannot fold ranks: folded execution "
               "applies to the simulator only",
               std::string(to_string(backend)).c_str());
  const algs::Program prog = algs::prepare(spec);
  RunOptions opts;
  opts.p = prog.p;
  opts.params = spec.params;
  RunReport report = run(backend, opts, prog.rank);
  engine::ExperimentResult out;
  out.p = report.p;
  out.makespan = report.makespan();
  out.totals = report.totals();
  out.energy = report.energy(spec.params).breakdown;
  if (spec.verify) {
    algs::Outputs outputs;
    for (RankReport& r : report.ranks) outputs.push_back(std::move(r.output));
    out.max_abs_error = prog.verify(outputs);
    out.verified = true;
  }
  return out;
}

void register_engine_backends() {
  engine::register_backend_executor(
      "shm", [](const engine::ExperimentSpec& spec) {
        return execute_on(Backend::kShm, spec);
      });
  engine::register_backend_executor(
      "tcp", [](const engine::ExperimentSpec& spec) {
        return execute_on(Backend::kTcp, spec);
      });
}

}  // namespace alge::transport
