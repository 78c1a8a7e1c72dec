// Executor: the task-execution seam between pipeline orchestration and
// the machinery that actually runs tasks.
//
// The paper's buffered chunking scheme (Section 3) overlaps copy-in,
// compute and copy-out on dedicated thread pools, which makes every
// ordering bug (buffer reuse before copy-out, missed step barriers) a
// nondeterministic real-thread race.  All pipeline code is therefore
// written against this interface, with two implementations:
//
//   - ThreadPool            real worker threads, the production fast path
//   - DeterministicExecutor single-threaded seeded schedule exploration
//     (mlm/parallel/deterministic_executor.h) for the tests/sched harness
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <string>
#include <vector>

namespace mlm {

/// Abstract task executor.  Tasks are opaque callables; exceptions from
/// post()ed tasks are captured and rethrown by wait_idle(), exceptions
/// from submit()ed tasks travel through the returned future.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Logical worker count (used by parallel_for / parallel_memcpy to
  /// pick slice counts; a deterministic executor reports the size of the
  /// real pool it stands in for).
  virtual std::size_t size() const = 0;

  /// Diagnostic label ("copy-in", "compute", ...).
  virtual const std::string& name() const = 0;

  /// Enqueue a task without a future (slightly cheaper); exceptions are
  /// stored and rethrown by the next wait_idle().
  virtual void post(std::function<void()> task) = 0;

  /// Enqueue a task; returns a future for its completion/exception.
  virtual std::future<void> submit(std::function<void()> task) = 0;

  /// Enqueue `count` slice tasks sharing one completion future and one
  /// heap allocation: task `i` runs `body(i)`.  This is the bulk-work
  /// fast path for parallel_for / parallel_memcpy — per-slice closures
  /// capture 16 bytes (batch pointer + index), which fits in
  /// std::function's small-buffer storage, and all slices enter the
  /// queue under a single post_bulk call instead of one lock round
  /// trip each.  The first slice exception (including faults injected
  /// at parallel.task.run) travels through the returned future after
  /// every slice has finished; join it with Executor::wait.  Each slice
  /// remains an individually schedulable task, so deterministic
  /// schedule sweeps permute them exactly as before.
  std::future<void> submit_slices(std::size_t count,
                                  std::function<void(std::size_t)> body);

  /// Enqueue pre-wrapped tasks in one queue transaction.  Contract:
  /// the tasks must not throw (submit_slices' wrappers catch
  /// internally, fault sites included) — implementations enqueue them
  /// raw, with no per-task fault-site or error instrumentation, and
  /// count each toward tasks_executed().  An executor that discards
  /// queued tasks unrun (a DeterministicExecutor's destructor) calls
  /// `on_drop(n)` once with the number of this batch's tasks it
  /// discarded, so the batch can release what they would have freed;
  /// `on_drop` may be empty.
  virtual void post_bulk(std::vector<std::function<void()>> tasks,
                         std::function<void(std::size_t)> on_drop) = 0;

  /// Block until the queue is empty and all workers are idle.  Rethrows
  /// the first exception captured from a post()ed task, if any.
  virtual void wait_idle() = 0;

  /// Block until every future is ready, rethrowing the first captured
  /// exception.  This is the only way pipeline code may join futures
  /// returned by submit(): a deterministic executor has no worker
  /// threads, so a bare future.get() would never return — its wait()
  /// drives the schedule instead.
  virtual void wait(std::vector<std::future<void>>& futures) = 0;

  /// Number of tasks executed since construction (tests/diagnostics).
  virtual std::size_t tasks_executed() const = 0;

  /// Whether this executor runs under a seeded deterministic schedule
  /// (mlm/parallel/deterministic_executor.h).  Scheduling layers key off
  /// this to avoid wall-clock-dependent behaviour — the service-layer
  /// JobScheduler disables deadline timers and backoff sleeps when its
  /// driver is deterministic, so multi-job interleavings stay a pure
  /// function of the seed.
  virtual bool deterministic() const { return false; }

  /// Run `body(worker_index)` once for each of size() logical workers
  /// and block until all complete.  The calling thread does not
  /// participate.
  void run_on_all(std::function<void(std::size_t)> body) {
    std::vector<std::future<void>> futs;
    futs.push_back(submit_slices(size(), std::move(body)));
    wait(futs);
  }
};

}  // namespace mlm
