// Deterministic schedule exploration for pipeline concurrency.
//
// The chunk pipeline's correctness argument (Section 3, Fig. 2) is all
// about ordering: copy-out of chunk k must complete before its buffer is
// reused, step barriers must join every stage, exceptions must not leak
// buffers.  Real thread pools explore only the schedules the OS happens
// to produce; this header provides a single-threaded executor whose
// schedule is a pure function of a 64-bit seed, so a failing interleaving
// is reproducible forever from one integer.
//
// Model: any number of DeterministicExecutors share one
// DeterministicScheduler.  post()/submit() enqueue tasks into the shared
// runnable set but never run them; tasks execute one at a time, on the
// orchestrating thread, only inside wait()/wait_idle()/step(), and the
// scheduler picks which runnable task goes next by seeded uniform choice
// across *all* executors — the source of schedule permutation.  A virtual
// clock ticks once per executed task and every execution is appended to a
// replayable trace.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mlm/parallel/executor.h"
#include "mlm/support/rng.h"

namespace mlm {

class DeterministicExecutor;

/// One executed task in a deterministic schedule.
struct ScheduleRecord {
  std::uint64_t tick = 0;  ///< virtual time at execution (0-based)
  std::string tag;         ///< "<executor>#<per-executor sequence>"

  friend bool operator==(const ScheduleRecord&,
                         const ScheduleRecord&) = default;
};

/// Seeded single-threaded task scheduler shared by a set of
/// DeterministicExecutors.  Not thread-safe by design: all posting and
/// stepping must happen on one thread (the orchestrating thread), which
/// is what makes schedules replayable.
class DeterministicScheduler {
 public:
  explicit DeterministicScheduler(std::uint64_t seed)
      : seed_(seed), rng_(seed) {}

  DeterministicScheduler(const DeterministicScheduler&) = delete;
  DeterministicScheduler& operator=(const DeterministicScheduler&) = delete;

  std::uint64_t seed() const { return seed_; }

  /// Virtual clock: number of tasks executed so far.
  std::uint64_t now() const { return ticks_; }

  /// Tasks enqueued but not yet executed.
  std::size_t pending() const { return runnable_.size(); }

  /// Execute one seeded-randomly chosen runnable task; false when no
  /// task is runnable.  Reentrant: the executed task may enqueue more
  /// tasks or drive nested step() calls (nested pipeline levels do).
  bool step();

  /// Drain every runnable task (including tasks they enqueue); returns
  /// the number executed.
  std::size_t run_all();

  /// Every task executed so far, in execution order.
  const std::vector<ScheduleRecord>& trace() const { return trace_; }

  /// Human-readable schedule, headed by the seed that reproduces it.
  std::string format_trace() const;

 private:
  friend class DeterministicExecutor;

  struct Task {
    DeterministicExecutor* owner = nullptr;
    std::string tag;
    std::function<void()> fn;
  };

  void enqueue(DeterministicExecutor* owner, std::string tag,
               std::function<void()> fn);
  /// Forget an executor's unexecuted tasks (its destructor calls this so
  /// dead tasks can never touch freed captures on a later step).
  void drop_tasks(const DeterministicExecutor* owner);
  bool has_tasks(const DeterministicExecutor* owner) const;

  std::uint64_t seed_;
  Xoshiro256ss rng_;
  std::uint64_t ticks_ = 0;
  std::vector<Task> runnable_;
  std::vector<ScheduleRecord> trace_;
};

/// Executor whose tasks run single-threaded under a shared
/// DeterministicScheduler.  Drop-in stand-in for a ThreadPool of
/// `size` workers: parallel_for / parallel_memcpy produce the same task
/// decomposition, but execution order is the scheduler's seeded choice.
class DeterministicExecutor : public Executor {
 public:
  DeterministicExecutor(DeterministicScheduler& scheduler, std::size_t size,
                        std::string name = "det");
  /// Unexecuted tasks are dropped (never run after the executor dies).
  ~DeterministicExecutor() override;

  DeterministicExecutor(const DeterministicExecutor&) = delete;
  DeterministicExecutor& operator=(const DeterministicExecutor&) = delete;

  std::size_t size() const override { return size_; }
  const std::string& name() const override { return name_; }

  void post(std::function<void()> task) override;
  std::future<void> submit(std::function<void()> task) override;

  /// Enqueue pre-wrapped non-throwing tasks (see Executor::post_bulk):
  /// each stays an individually schedulable unit with its own
  /// "<name>#<seq>" tag, so submit_slices batches permute under seeded
  /// schedules exactly like per-task submits did.  Tasks this
  /// executor's destructor drops unrun are reported to `on_drop`.
  void post_bulk(std::vector<std::function<void()>> tasks,
                 std::function<void(std::size_t)> on_drop) override;

  /// Drives the scheduler until this executor has no runnable tasks
  /// (other executors' tasks may execute along the way — that is the
  /// overlap being modeled).  Rethrows the first post() task exception.
  void wait_idle() override;

  /// Drives the scheduler until every future is ready; throws Error
  /// (with the formatted schedule trace) if the runnable set empties
  /// first — a lost-wakeup/deadlock in the orchestration under test.
  void wait(std::vector<std::future<void>>& futures) override;

  std::size_t tasks_executed() const override { return executed_; }

  bool deterministic() const override { return true; }

  DeterministicScheduler& scheduler() { return sched_; }

 private:
  /// Tag and hand `fn` to the scheduler.  post()/submit() wrap tasks
  /// with the parallel.task.run fault site inside their own error paths
  /// (first_error_ vs. promise) before calling this, so an injected
  /// failure can never strand a future.
  void enqueue_task(std::function<void()> fn);

  DeterministicScheduler& sched_;
  std::size_t size_;
  std::string name_;
  std::uint64_t posted_ = 0;
  std::uint64_t executed_ = 0;
  std::exception_ptr first_error_;
};

}  // namespace mlm
