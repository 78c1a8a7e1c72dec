// Batched slice dispatch (Executor::submit_slices / post_bulk): every
// slice runs exactly once, completion and errors travel through the
// single batch future, injected parallel.task.run faults can never
// strand it, and slices stay individually schedulable units under the
// deterministic executor.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <stdexcept>
#include <vector>

#include "mlm/fault/fault.h"
#include "mlm/parallel/deterministic_executor.h"
#include "mlm/parallel/executor.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/support/error.h"

namespace mlm {
namespace {

TEST(SubmitSlices, RunsEveryIndexExactlyOnce) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    ThreadPool pool(workers);
    constexpr std::size_t kCount = 64;
    std::vector<std::atomic<int>> hits(kCount);
    std::vector<std::future<void>> futs;
    futs.push_back(pool.submit_slices(
        kCount, [&hits](std::size_t i) { hits[i].fetch_add(1); }));
    pool.wait(futs);
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " workers=" << workers;
    }
  }
}

TEST(SubmitSlices, ZeroCountCompletesImmediately) {
  ThreadPool pool(2);
  auto fut = pool.submit_slices(0, [](std::size_t) { FAIL(); });
  EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_NO_THROW(fut.get());
}

TEST(SubmitSlices, CountsTowardTasksExecuted) {
  ThreadPool pool(2);
  const std::size_t before = pool.tasks_executed();
  std::vector<std::future<void>> futs;
  futs.push_back(pool.submit_slices(10, [](std::size_t) {}));
  pool.wait(futs);
  // The last slice settles the batch future from inside the task body,
  // before the worker's post-task counter increment — the future being
  // ready does not yet imply the count is visible.  wait_idle() is
  // ordered after that increment, so the assertion below is race-free.
  pool.wait_idle();
  EXPECT_EQ(pool.tasks_executed(), before + 10);
}

TEST(SubmitSlices, FirstSliceExceptionTravelsThroughBatchFuture) {
  ThreadPool pool(3);
  constexpr std::size_t kCount = 16;
  std::atomic<std::size_t> ran{0};
  std::vector<std::future<void>> futs;
  futs.push_back(pool.submit_slices(kCount, [&ran](std::size_t i) {
    if (i == 5) throw std::runtime_error("slice 5 boom");
    ran.fetch_add(1);
  }));
  EXPECT_THROW(pool.wait(futs), std::runtime_error);
  // The future settles only after every slice finished: the failing
  // slice must not cancel its siblings.
  EXPECT_EQ(ran.load(), kCount - 1);
}

TEST(SubmitSlices, InjectedTaskFaultPropagatesAndNeverStrands) {
  ThreadPool pool(2);
  constexpr std::size_t kCount = 8;
  std::atomic<std::size_t> ran{0};

  fault::FaultPlan plan;
  plan.arm(fault::sites::kTaskRun, fault::FaultTrigger::nth_call(0));
  fault::ScopedFaultInjector inject(plan);

  std::vector<std::future<void>> futs;
  futs.push_back(pool.submit_slices(
      kCount, [&ran](std::size_t) { ran.fetch_add(1); }));
  // The fault fires inside the batch wrapper's own try, so it reaches
  // the batch future instead of skipping the completion bookkeeping
  // (which would hang this wait forever).
  EXPECT_THROW(pool.wait(futs), fault::InjectedFaultError);

  // The future settles only after remaining==0, so by now every slice
  // queried the site exactly once and all non-faulted bodies ran.
  const auto stats = plan.stats(fault::sites::kTaskRun);
  EXPECT_EQ(stats.hits, kCount);
  EXPECT_EQ(stats.fires, 1u);
  EXPECT_EQ(ran.load(), kCount - 1);
}

TEST(PostBulk, RunsAllTasksInOneTransaction) {
  ThreadPool pool(2);
  constexpr std::size_t kCount = 32;
  std::atomic<std::size_t> ran{0};
  const std::size_t before = pool.tasks_executed();
  std::vector<std::function<void()>> tasks;
  tasks.reserve(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    tasks.emplace_back([&ran] { ran.fetch_add(1); });
  }
  pool.post_bulk(std::move(tasks), nullptr);
  pool.wait_idle();
  EXPECT_EQ(ran.load(), kCount);
  EXPECT_EQ(pool.tasks_executed(), before + kCount);
}

TEST(SubmitSlicesDeterministic, WaitDrivesScheduleAndCoversAllSlices) {
  DeterministicScheduler sched(42);
  DeterministicExecutor exec(sched, 4, "batch");
  constexpr std::size_t kCount = 12;
  std::vector<int> hits(kCount, 0);
  std::vector<std::future<void>> futs;
  futs.push_back(exec.submit_slices(
      kCount, [&hits](std::size_t i) { ++hits[i]; }));
  // No worker threads exist: nothing may run before wait() drives the
  // schedule.
  for (const int h : hits) EXPECT_EQ(h, 0);
  exec.wait(futs);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i], 1) << "i=" << i;
  }
  EXPECT_EQ(exec.tasks_executed(), kCount);
  // Each slice was its own schedulable unit with its own trace tag.
  EXPECT_EQ(sched.trace().size(), kCount);
  EXPECT_EQ(sched.trace().front().tag.rfind("batch#", 0), 0u);
}

// An executor destroyed before all its slices ran discards the rest;
// the batch still settles, with an error, and frees its shared state.
TEST(SubmitSlicesDeterministic, DestroyedExecutorSettlesBatchWithError) {
  DeterministicScheduler sched(7);
  std::future<void> fut;
  int ran = 0;
  {
    DeterministicExecutor exec(sched, 4, "doomed");
    fut = exec.submit_slices(6, [&ran](std::size_t) { ++ran; });
    ASSERT_TRUE(sched.step());  // one slice runs, five stay queued
  }
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sched.pending(), 0u);
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_THROW(fut.get(), Error);
}

TEST(SubmitSlicesDeterministic, SameSeedSameOrderAcrossRuns) {
  auto run_order = [](std::uint64_t seed) {
    DeterministicScheduler sched(seed);
    DeterministicExecutor exec(sched, 4, "det");
    std::vector<std::size_t> order;
    std::vector<std::future<void>> futs;
    futs.push_back(exec.submit_slices(
        10, [&order](std::size_t i) { order.push_back(i); }));
    exec.wait(futs);
    return order;
  };
  EXPECT_EQ(run_order(7), run_order(7));
  // Slices are permuted by the seeded scheduler, not run in submission
  // order for every seed: find a seed pair with different orders.
  const auto base = run_order(7);
  bool permuted = false;
  for (std::uint64_t seed = 8; seed < 40 && !permuted; ++seed) {
    permuted = run_order(seed) != base;
  }
  EXPECT_TRUE(permuted);
}

TEST(SubmitSlicesDeterministic, InjectedFaultPropagatesViaWait) {
  DeterministicScheduler sched(5);
  DeterministicExecutor exec(sched, 2, "faulty");
  fault::FaultPlan plan;
  plan.arm(fault::sites::kTaskRun, fault::FaultTrigger::nth_call(1));
  fault::ScopedFaultInjector inject(plan);

  std::size_t ran = 0;
  std::vector<std::future<void>> futs;
  futs.push_back(exec.submit_slices(6, [&ran](std::size_t) { ++ran; }));
  EXPECT_THROW(exec.wait(futs), fault::InjectedFaultError);
  EXPECT_EQ(ran, 5u);
  EXPECT_EQ(plan.stats(fault::sites::kTaskRun).fires, 1u);
}

TEST(RunOnAll, UsesOneBatchForAllWorkers) {
  ThreadPool pool(3);
  const std::size_t before = pool.tasks_executed();
  std::vector<std::atomic<int>> hits(pool.size());
  pool.run_on_all([&hits](std::size_t w) { hits[w].fetch_add(1); });
  for (std::size_t w = 0; w < pool.size(); ++w) {
    EXPECT_EQ(hits[w].load(), 1) << "w=" << w;
  }
  EXPECT_EQ(pool.tasks_executed(), before + pool.size());
}

}  // namespace
}  // namespace mlm
