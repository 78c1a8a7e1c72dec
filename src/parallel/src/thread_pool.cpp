#include "mlm/parallel/thread_pool.h"

#include <atomic>

#include "mlm/fault/fault.h"

namespace mlm {

namespace {
// Simulated task failure inside a pool worker; the injected exception
// travels the normal error path (promise for submit(), first_error_ for
// post()), exercising future propagation and wait_idle() rethrow.
fault::FaultSite& task_fault_site() {
  static fault::FaultSite site(fault::sites::kTaskRun);
  return site;
}
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads, std::string name)
    : ThreadPool(num_threads, std::move(name), AffinityPlan{}) {}

ThreadPool::ThreadPool(std::size_t num_threads, std::string name,
                       const AffinityPlan& plan)
    : name_(std::move(name)) {
  MLM_REQUIRE(num_threads >= 1, "thread pool needs at least one thread");
  affinity_.policy = plan.policy;
  affinity_.oversubscribed = plan.oversubscribed;
  affinity_.clamped_nodes = plan.clamped_nodes;
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
    // Pin from here (not from the worker) so the outcome is complete
    // before the constructor returns.  Best-effort: a failed pin leaves
    // the worker where the OS put it and only bumps the counter.
    if (i < plan.worker_cpus.size() && plan.worker_cpus[i] >= 0) {
      ++affinity_.requested;
      if (pin_thread_to_cpu(threads_.back(), plan.worker_cpus[i])) {
        ++affinity_.pinned;
      } else {
        ++affinity_.failed;
      }
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
      // Counted before the task runs: a submit() task completes its
      // future from inside task(), and a caller who has seen the future
      // must also see the count.
      ++executed_;
    }
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  MLM_REQUIRE(task != nullptr, "cannot submit a null task");
  auto promise = std::make_shared<std::promise<void>>();
  std::future<void> fut = promise->get_future();
  // The fault check sits inside the promise's try block: an injected
  // task failure becomes a future exception, never a stranded future.
  enqueue([task = std::move(task), promise] {
    try {
      task_fault_site().maybe_throw();
      task();
      promise->set_value();
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  });
  return fut;
}

void ThreadPool::post(std::function<void()> task) {
  MLM_REQUIRE(task != nullptr, "cannot post a null task");
  // Injected failures propagate to worker_loop's catch and surface from
  // the next wait_idle(), like any other post() task exception.
  enqueue([task = std::move(task)] {
    task_fault_site().maybe_throw();
    task();
  });
}

void ThreadPool::post_bulk(std::vector<std::function<void()>> tasks,
                           std::function<void(std::size_t)> /*on_drop*/) {
  if (tasks.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    MLM_CHECK_MSG(!stop_, "post_bulk() on a stopped pool: " + name_);
    for (auto& task : tasks) {
      MLM_CHECK_MSG(task != nullptr, "cannot post a null task");
      queue_.push_back(std::move(task));
    }
  }
  // One broadcast instead of one notify per task; extra wakeups on a
  // short batch just re-sleep.
  cv_task_.notify_all();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MLM_CHECK_MSG(!stop_, "post() on a stopped pool: " + name_);
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait(std::vector<std::future<void>>& futures) {
  std::exception_ptr err;
  for (auto& f : futures) {
    try {
      if (f.valid()) f.get();
    } catch (...) {
      if (!err) err = std::current_exception();
    }
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

std::size_t ThreadPool::tasks_executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return executed_;
}

}  // namespace mlm
