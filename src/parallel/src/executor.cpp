#include "mlm/parallel/executor.h"

#include <atomic>
#include <cstddef>
#include <mutex>
#include <string>

#include "mlm/fault/fault.h"
#include "mlm/support/cache_line.h"
#include "mlm/support/error.h"

namespace mlm {

namespace {

// Same name-keyed site as ThreadPool's / DeterministicExecutor's
// (mlm/fault/fault.h shares plan counters by name), so one armed
// parallel.task.run trigger covers per-task submits and batched slices
// alike.
fault::FaultSite& task_fault_site() {
  static fault::FaultSite site(fault::sites::kTaskRun);
  return site;
}

// Shared state of one submit_slices batch: the single allocation and
// the single promise all slices report to.  Self-deleting — the slice
// that drops `remaining` to zero settles the promise and frees the
// state, so the batch outlives any early caller; slices the executor
// discards unrun count down through drop().  The fault-site check runs
// inside run()'s try, so an injected failure is recorded like any slice
// exception and can never strand the batch future.
struct BatchState {
  std::promise<void> promise;
  std::function<void(std::size_t)> body;
  std::mutex mu;
  std::exception_ptr first_error;
  // Every slice on every worker decrements this; every slice also
  // *reads* `body`.  On its own cache line so the decrement traffic
  // doesn't invalidate the line the read-mostly members live on.
  alignas(kCacheLineBytes) std::atomic<std::size_t> remaining;

  BatchState(std::size_t count, std::function<void(std::size_t)> b)
      : body(std::move(b)), remaining(count) {}

  void run(std::size_t index) {
    try {
      task_fault_site().maybe_throw();
      body(index);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!first_error) first_error = std::current_exception();
    }
    finish(1);
  }

  // `n` slices will never run: their executor discarded them.
  void drop(std::size_t n) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!first_error) {
        first_error = std::make_exception_ptr(
            Error("executor discarded " + std::to_string(n) +
                  " unrun slice(s)"));
      }
    }
    finish(n);
  }

  void finish(std::size_t n) {
    // acq_rel: the final decrement observes every slice's error write.
    if (remaining.fetch_sub(n, std::memory_order_acq_rel) == n) {
      if (first_error) {
        promise.set_exception(first_error);
      } else {
        promise.set_value();
      }
      delete this;
    }
  }
};

}  // namespace

std::future<void> Executor::submit_slices(
    std::size_t count, std::function<void(std::size_t)> body) {
  MLM_REQUIRE(body != nullptr, "cannot submit a null slice body");
  auto* state = new BatchState(count, std::move(body));
  std::future<void> fut = state->promise.get_future();
  if (count == 0) {
    state->promise.set_value();
    delete state;
    return fut;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // 16-byte capture: fits std::function's small-buffer storage, so
    // the batch costs one heap allocation total, not one per slice.
    tasks.emplace_back([state, i] { state->run(i); });
  }
  post_bulk(std::move(tasks), [state](std::size_t n) { state->drop(n); });
  return fut;
}

}  // namespace mlm
