// Cooperative user-level threads (fibers) on top of POSIX ucontext.
//
// This is the execution substrate for the machine simulator: each simulated
// rank runs its program on its own fiber, so algorithms are written with
// ordinary *blocking* send/recv calls anywhere in their call stack (the way
// MPI programs are written), while the whole simulation executes
// deterministically on one OS thread.
//
// Scheduling is strictly deterministic: runnable fibers are resumed in
// round-robin order, so a given program and seed always produce the same
// interleaving, virtual times, and counter values. The runnable set is a
// cyclic bitmap (ready_set.hpp), so picking the next fiber is O(1) no
// matter how many fibers are blocked. On x86-64 the switch itself skips
// ucontext's per-switch sigprocmask syscall by swapping stacks directly
// (see fiber.cpp); sanitizer builds keep the portable ucontext path.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace alge::fiber {

/// Thrown inside a fiber when the scheduler cancels it (e.g. another fiber
/// failed, or the scheduler detected deadlock). Fiber code must let this
/// propagate so stack objects are destroyed.
class FiberCancelled : public std::runtime_error {
 public:
  FiberCancelled() : std::runtime_error("fiber cancelled") {}
};

/// Thrown by Scheduler::run() when every live fiber is blocked.
class DeadlockError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ReadySet;

/// Pluggable wake-order policy for schedule exploration (src/chaos). The
/// default (no policy) is the strictly deterministic round-robin scan; a
/// policy substitutes any other choice among the *ready* fibers — every
/// pick is a legal interleaving of the cooperative schedule, which is
/// exactly the space the differential determinism harness explores.
class WakePolicy {
 public:
  virtual ~WakePolicy() = default;
  /// Choose the next fiber to resume. `ready` is non-empty and the return
  /// value must be a member of it; `cursor` is the round-robin position
  /// (the id after the previously resumed fiber).
  virtual std::size_t pick(const ReadySet& ready, std::size_t cursor) = 0;
};

class Scheduler {
 public:
  using FiberId = int;
  static constexpr std::size_t kDefaultStackBytes = 512 * 1024;

  Scheduler();
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Create a fiber; it becomes runnable but does not start until run().
  /// Its stack comes from the process-wide pool (stack_pool.hpp) and goes
  /// back when the Scheduler is destroyed.
  FiberId spawn(std::function<void()> fn,
                std::size_t stack_bytes = kDefaultStackBytes);

  /// Drive all fibers to completion. Rethrows the first fiber exception
  /// (after cancelling and unwinding the others). Throws DeadlockError if
  /// all live fibers are blocked; the message includes each fiber's
  /// block-reason string.
  void run();

  // --- Calls made from inside a running fiber ---

  /// Reschedule: stay runnable, let other fibers progress.
  void yield();

  /// Block the current fiber until some other fiber calls unblock(). The
  /// reason string appears in deadlock diagnostics.
  void block(std::string reason);

  /// Lazy-diagnostics variant for hot blocking paths: `describe(arg)` is
  /// invoked only if deadlock is actually detected, so the common
  /// block/unblock cycle never builds a reason string. `arg` must stay
  /// valid while the fiber is blocked (it normally points into the
  /// blocking fiber's own stack, which is alive for exactly that long).
  using BlockDescriber = std::string (*)(const void* arg);
  void block(BlockDescriber describe, const void* arg);

  /// Make a blocked fiber runnable again. May be called from any fiber (or
  /// from outside run(), though that is only useful in tests).
  void unblock(FiberId id);

  /// Id of the fiber currently executing; -1 when called from the scheduler.
  FiberId current() const { return current_; }

  /// The scheduler driving the calling fiber, or nullptr outside run().
  static Scheduler* active();

  /// Install a wake-order policy (nullptr restores round-robin). The
  /// policy must outlive run(); it is consulted once per context switch.
  void set_wake_policy(WakePolicy* policy) { policy_ = policy; }
  WakePolicy* wake_policy() const { return policy_; }

  std::size_t fiber_count() const { return fibers_.size(); }
  std::size_t live_count() const { return live_; }

 private:
  struct Fiber;

  void block_common(Fiber& f);
  void switch_to_scheduler();
  [[noreturn]] static void trampoline();
  void check_cancel() const;
  void cancel_all_live();

  std::vector<std::unique_ptr<Fiber>> fibers_;
  WakePolicy* policy_ = nullptr;
  FiberId current_ = -1;
  std::size_t live_ = 0;
  bool running_ = false;
  // Opaque storage for the scheduler's own ucontext (kept out of the header
  // to avoid leaking <ucontext.h> into every include site).
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace alge::fiber
