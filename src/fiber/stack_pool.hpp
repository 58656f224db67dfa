// Process-wide pool of fiber stacks.
//
// Every Scheduler::Fiber takes its stack from here and gives it back when
// the fiber is destroyed. Stacks are carved from anonymous mmap slabs of
// kStacksPerSlab stacks each (MAP_NORESERVE), so the number of mappings
// stays far below vm.max_map_count at any fiber count; free stacks wait in
// one LIFO list per stack size, so the next fiber reuses the pages the
// last one already faulted in. The pool never zeroes or touches a stack
// (only the pages a fiber actually uses fault in), and slabs are never
// unmapped: resident memory is bounded by the largest set of fibers alive
// at once, not by how many have come and gone.
//
// Thread-safe: one mutex guards the free lists, so Schedulers on different
// threads (engine pool workers) share the pool. Nothing takes a stack in a
// forked child (the shm transport's rank processes run their program
// directly on the process stack and never call Machine::run), so the mutex
// needs no fork handling. Under ASan free stacks are poisoned, and
// unpoisoned again on acquire.
#pragma once

#include <cstddef>

namespace alge::fiber {

/// Stacks carved from each slab mapping.
inline constexpr std::size_t kStacksPerSlab = 64;

/// A stack of at least `bytes` bytes; the most recently released one of
/// that size if there is one. Throws std::bad_alloc if mmap fails.
char* acquire_stack(std::size_t bytes);

/// Return a stack obtained from acquire_stack(bytes), with the same size.
void release_stack(char* stack, std::size_t bytes) noexcept;

/// Slab mappings made so far by this process (never decreases).
std::size_t stack_slabs_mapped();

}  // namespace alge::fiber
