#include "mlm/parallel/deterministic_executor.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <utility>

#include "mlm/fault/fault.h"
#include "mlm/support/error.h"

namespace mlm {

namespace {
// Same site name as ThreadPool's: the deterministic executor is a
// drop-in stand-in, so one armed trigger covers both execution models.
fault::FaultSite& task_fault_site() {
  static fault::FaultSite site(fault::sites::kTaskRun);
  return site;
}
}  // namespace

bool DeterministicScheduler::step() {
  if (runnable_.empty()) return false;
  const std::size_t pick =
      static_cast<std::size_t>(rng_.bounded(runnable_.size()));
  Task task = std::move(runnable_[pick]);
  runnable_.erase(runnable_.begin() +
                  static_cast<std::ptrdiff_t>(pick));
  // Record before running so a throwing task still appears in the trace.
  trace_.push_back(ScheduleRecord{ticks_, task.tag});
  ++ticks_;
  task.fn();
  return true;
}

std::size_t DeterministicScheduler::run_all() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::string DeterministicScheduler::format_trace() const {
  std::ostringstream os;
  os << "deterministic schedule: seed=" << seed_ << " executed=" << ticks_
     << " pending=" << runnable_.size() << "\n";
  for (const ScheduleRecord& r : trace_) {
    os << "  [" << r.tick << "] " << r.tag << "\n";
  }
  for (const Task& t : runnable_) {
    os << "  [pending] " << t.tag << "\n";
  }
  return os.str();
}

void DeterministicScheduler::enqueue(DeterministicExecutor* owner,
                                     std::string tag,
                                     std::function<void()> fn) {
  runnable_.push_back(Task{owner, std::move(tag), std::move(fn)});
}

void DeterministicScheduler::drop_tasks(const DeterministicExecutor* owner) {
  std::erase_if(runnable_,
                [owner](const Task& t) { return t.owner == owner; });
}

bool DeterministicScheduler::has_tasks(
    const DeterministicExecutor* owner) const {
  return std::any_of(runnable_.begin(), runnable_.end(),
                     [owner](const Task& t) { return t.owner == owner; });
}

DeterministicExecutor::DeterministicExecutor(DeterministicScheduler& scheduler,
                                             std::size_t size,
                                             std::string name)
    : sched_(scheduler), size_(size), name_(std::move(name)) {
  MLM_REQUIRE(size >= 1, "executor needs at least one logical worker");
}

DeterministicExecutor::~DeterministicExecutor() {
  sched_.drop_tasks(this);
}

void DeterministicExecutor::post(std::function<void()> task) {
  MLM_REQUIRE(task != nullptr, "cannot post a null task");
  enqueue_task([this, task = std::move(task)] {
    try {
      task_fault_site().maybe_throw();
      task();
    } catch (...) {
      if (!first_error_) {
        first_error_ = std::current_exception();
      }
    }
    ++executed_;
  });
}

std::future<void> DeterministicExecutor::submit(std::function<void()> task) {
  MLM_REQUIRE(task != nullptr, "cannot submit a null task");
  auto promise = std::make_shared<std::promise<void>>();
  std::future<void> fut = promise->get_future();
  // Fault check inside the promise's try block: an injected task
  // failure becomes a future exception, never a stranded future (which
  // wait() would report as a bogus orchestration deadlock).
  enqueue_task([this, task = std::move(task), promise] {
    try {
      task_fault_site().maybe_throw();
      task();
      promise->set_value();
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
    ++executed_;
  });
  return fut;
}

void DeterministicExecutor::post_bulk(
    std::vector<std::function<void()>> tasks,
    std::function<void(std::size_t)> on_drop) {
  // The batch's tasks that have not run yet.  When the scheduler
  // destroys the last of them unrun (drop_tasks), this reports how many
  // never ran.
  struct Unrun {
    std::size_t count = 0;
    std::function<void(std::size_t)> on_drop;
    ~Unrun() {
      if (count > 0 && on_drop) on_drop(count);
    }
  };
  auto unrun = std::make_shared<Unrun>();
  unrun->count = tasks.size();
  unrun->on_drop = std::move(on_drop);
  for (auto& task : tasks) {
    MLM_REQUIRE(task != nullptr, "cannot post a null task");
    // No fault-site or error wrapper: batch tasks handle both
    // internally (Executor::post_bulk contract).
    enqueue_task([this, task = std::move(task), unrun] {
      --unrun->count;
      task();
      ++executed_;
    });
  }
}

void DeterministicExecutor::enqueue_task(std::function<void()> fn) {
  const std::uint64_t seq = posted_++;
  sched_.enqueue(this, name_ + "#" + std::to_string(seq), std::move(fn));
}

void DeterministicExecutor::wait_idle() {
  while (sched_.has_tasks(this)) {
    sched_.step();
  }
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void DeterministicExecutor::wait(std::vector<std::future<void>>& futures) {
  auto all_ready = [&futures] {
    for (const std::future<void>& f : futures) {
      if (f.valid() && f.wait_for(std::chrono::seconds(0)) !=
                           std::future_status::ready) {
        return false;
      }
    }
    return true;
  };
  while (!all_ready()) {
    if (!sched_.step()) {
      throw Error("deterministic wait deadlocked: futures not ready and "
                  "no runnable tasks\n" +
                  sched_.format_trace());
    }
  }
  std::exception_ptr err;
  for (std::future<void>& f : futures) {
    try {
      if (f.valid()) f.get();
    } catch (...) {
      if (!err) err = std::current_exception();
    }
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace mlm
