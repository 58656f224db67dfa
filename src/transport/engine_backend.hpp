// The transport side of the engine's backend-executor seam
// (engine/backend.hpp): registers "shm" and "tcp" executors that prepare
// an ExperimentSpec's registry program (algs/registry.hpp), run it for
// real, and rebuild the ExperimentResult from the per-rank model counters
// exactly as the simulator would — verified against the sequential
// reference when the spec asks.
#pragma once

#include "engine/job.hpp"
#include "transport/run.hpp"

namespace alge::transport {

/// Register the "shm" and "tcp" executors with the engine. Idempotent;
/// call once from any binary that wants spec.transport to reach a real
/// backend.
void register_engine_backends();

/// Execute `spec` on `backend` directly (the registered executors call
/// this). Requires the default-inert axes: no chaos, full data, fiber exec
/// mode. spec.verify checks the gathered rank outputs with the registry's
/// verification, as the simulator path does.
engine::ExperimentResult execute_on(Backend backend,
                                    const engine::ExperimentSpec& spec);

}  // namespace alge::transport
