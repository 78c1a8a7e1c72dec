// The host pipeline, the external sorter and the merge-bench simulator
// walk the same StepPlan: the steppers' step counts and retirement
// watermarks, and the simulator's step count, must match the plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "mlm/core/chunk_pipeline.h"
#include "mlm/core/external_sort.h"
#include "mlm/knlsim/merge_bench_timeline.h"
#include "mlm/machine/knl_config.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/support/step_plan.h"
#include "mlm/support/units.h"

namespace mlm::core {
namespace {

constexpr Buffering kBufferings[] = {Buffering::Single, Buffering::Double,
                                     Buffering::Triple};

void expect_stepper_follows(McdramMode mode, Buffering buffering,
                            bool write_back, std::size_t plan_depth) {
  SCOPED_TRACE(std::string(to_string(mode)) + " " + to_string(buffering) +
               (write_back ? " write-back" : " read-only"));
  DualSpaceConfig dc;
  dc.mode = mode;
  dc.mcdram_bytes = MiB(1);
  DualSpace space(dc);
  std::vector<std::int64_t> data(5 * KiB(16) / sizeof(std::int64_t));
  std::iota(data.begin(), data.end(), 0);
  PipelineConfig cfg;
  cfg.chunk_bytes = KiB(16);
  cfg.pools = PoolSizes{1, 1, 2};
  cfg.buffering = buffering;
  cfg.write_back = write_back;
  ChunkPipelineStepper stepper(
      space.tier_pair(), std::as_writable_bytes(std::span(data)), cfg,
      [](std::span<std::byte>, Executor&, std::size_t) {});
  const StepPlan plan(plan_depth, stepper.chunks(), write_back);
  ASSERT_EQ(stepper.chunks(), 5u);
  std::size_t steps = 0;
  EXPECT_EQ(stepper.completed_chunks(), plan.retired(0));
  while (!stepper.done()) {
    stepper.step();
    ++steps;
    EXPECT_EQ(stepper.completed_chunks(), plan.retired(steps))
        << "after step " << steps;
  }
  EXPECT_EQ(steps, plan.steps());
  EXPECT_EQ(stepper.finish().steps, plan.steps());
}

TEST(StepPlanAgreement, StepperStepsAndWatermarkFollowThePlan) {
  for (Buffering b : kBufferings) {
    for (bool write_back : {true, false}) {
      expect_stepper_follows(McdramMode::Flat, b, write_back,
                             buffer_count(b));
      // In place there is one virtual buffer: the depth-1 plan.
      expect_stepper_follows(McdramMode::DdrOnly, b, write_back, 1);
    }
  }
}

// One job step per stage of a depth-1 write-back plan (StageIn, InnerSort,
// StageOut), then Merge and MoveHome for several runs; the checkpoint
// watermark counts the StageOuts done, rounding a half-done chunk down.
void expect_sorter_follows(std::size_t outer_chunk, std::size_t rechunk_to,
                           std::size_t expect_chunks) {
  SCOPED_TRACE("outer chunk " + std::to_string(outer_chunk) +
               ", re-chunk to " + std::to_string(rechunk_to));
  HierarchyConfig hc;
  hc.tiers = {TierConfig{"nvm", MemKind::NVM, 0},
              TierConfig{"ddr", MemKind::DDR, MiB(2)},
              TierConfig{"mcdram", MemKind::MCDRAM, KiB(256)}};
  hc.mode = McdramMode::Flat;
  MemoryHierarchy hier(hc);
  ThreadPool pool(2);
  std::vector<std::int64_t> data(2048);
  std::iota(data.rbegin(), data.rend(), 0);

  // The hook runs at the barrier after every StageOut: it counts them,
  // and re-chunks the rest of the run once when asked to.
  std::size_t stage_outs = 0;
  ExternalSortConfig cfg;
  cfg.outer_chunk_elements = outer_chunk;
  cfg.tuning_hook = [&](const StepFeedback&) {
    StepTuning t;
    if (stage_outs++ == 0) t.chunk_bytes = rechunk_to * sizeof(std::int64_t);
    return t;
  };
  ExternalMlmSorter<std::int64_t> sorter(hier, pool, cfg);
  ExternalMlmSorter<std::int64_t>::Stepper stepper(sorter,
                                                   std::span(data));
  std::size_t steps = 0;
  EXPECT_EQ(stepper.checkpoint().next_chunk, 0u);
  while (!stepper.done()) {
    stepper.step();
    ++steps;
    EXPECT_EQ(stepper.checkpoint().next_chunk, stage_outs)
        << "after step " << steps;
  }
  const std::size_t chunks = stepper.finish().outer_chunks;
  EXPECT_EQ(chunks, expect_chunks);
  EXPECT_EQ(stage_outs, chunks);
  EXPECT_EQ(steps, 3 * StepPlan(1, chunks, true).steps() +
                       (chunks > 1 ? 2 : 0));
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST(StepPlanAgreement, ExternalSorterStepsAndWatermarkFollowThePlan) {
  expect_sorter_follows(0, 0, 1);      // the input fits one outer chunk
  expect_sorter_follows(512, 0, 4);    // several chunks, then the merge
  expect_sorter_follows(512, 256, 7);  // 512, then 1536 re-chunked at 256
}

TEST(StepPlanAgreement, MergeBenchStepsFollowThePlan) {
  for (unsigned buffers = 1; buffers <= 3; ++buffers) {
    knlsim::MergeBenchConfig cfg;
    cfg.data_bytes = 7.5e9;
    cfg.buffers = buffers;
    const knlsim::MergeBenchResult r =
        knlsim::simulate_merge_bench(knl7250(), cfg);
    EXPECT_EQ(r.step_seconds.size(),
              StepPlan(buffers, r.chunks, true).steps())
        << "buffers=" << buffers;
  }
}

}  // namespace
}  // namespace mlm::core
