// The host pipeline and the merge-bench simulator walk the same
// StepPlan: the stepper's step count and retirement watermark, and the
// simulator's step count, must match the plan at every depth.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mlm/core/chunk_pipeline.h"
#include "mlm/knlsim/merge_bench_timeline.h"
#include "mlm/machine/knl_config.h"
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
