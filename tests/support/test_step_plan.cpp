// Property test of the pipeline barrier schedule: at every depth, chunk
// count and write-back setting, each chunk passes copy-in -> compute ->
// copy-out exactly once and in order, at most `depth` chunks are
// resident at once, no step idles, and the retirement watermark is
// monotone and reaches the chunk count.
#include "mlm/support/step_plan.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "mlm/support/error.h"

namespace mlm {
namespace {

TEST(StepPlan, EveryChunkPassesEveryStageOnceInOrderWithinDepth) {
  for (std::size_t depth = 1; depth <= 3; ++depth) {
    for (std::size_t n : {0, 1, 2, 3, 7}) {
      for (bool write_back : {true, false}) {
        SCOPED_TRACE("depth=" + std::to_string(depth) +
                     " n=" + std::to_string(n) +
                     " write_back=" + std::to_string(write_back));
        const StepPlan plan(depth, n, write_back);
        const std::size_t stages = write_back ? 3 : 2;
        std::vector<std::size_t> next_stage(n, 0);
        std::vector<std::size_t> first(n, 0), last(n, 0);
        std::size_t next_in = 0;
        for (std::size_t s = 0; s < plan.steps(); ++s) {
          bool active = false;
          // Within a step the stages run in stage order (depths 1-2 pass
          // one chunk through several stages in one step).
          const PlanStep st = plan.step(s);
          const std::optional<std::size_t> stages_of_step[] = {
              st.in, st.compute, st.out};
          for (std::size_t k = 0; k < 3; ++k) {
            const std::optional<std::size_t> c = stages_of_step[k];
            if (!c) continue;
            active = true;
            ASSERT_LT(*c, n);
            ASSERT_EQ(next_stage[*c], k) << "step " << s;
            ++next_stage[*c];
            if (k == 0) {
              ASSERT_EQ(*c, next_in) << "copy-in out of order";
              ++next_in;
              first[*c] = s;
            }
            last[*c] = s;
          }
          EXPECT_TRUE(active) << "dead step " << s;
        }
        for (std::size_t c = 0; c < n; ++c) {
          EXPECT_EQ(next_stage[c], stages) << "chunk " << c;
        }
        for (std::size_t s = 0; s < plan.steps(); ++s) {
          std::size_t resident = 0;
          for (std::size_t c = 0; c < n; ++c) {
            if (first[c] <= s && s <= last[c]) ++resident;
          }
          EXPECT_LE(resident, depth) << "step " << s;
        }
        // retired(s) counts exactly the chunks whose last stage ran in
        // steps [0, s).
        EXPECT_EQ(plan.retired(0), 0u);
        for (std::size_t s = 0; s <= plan.steps(); ++s) {
          std::size_t done = 0;
          for (std::size_t c = 0; c < n; ++c) {
            if (last[c] < s) ++done;
          }
          EXPECT_EQ(plan.retired(s), done) << "step " << s;
          if (s > 0) {
            EXPECT_GE(plan.retired(s), plan.retired(s - 1));
          }
        }
        EXPECT_EQ(plan.retired(plan.steps()), n);
        EXPECT_EQ(plan.retired(plan.steps() + 5), n);
      }
    }
  }
}

TEST(StepPlan, StepCountIsChunksPlusTheLastStageLag) {
  EXPECT_EQ(StepPlan(1, 7, true).steps(), 7u);
  EXPECT_EQ(StepPlan(2, 7, true).steps(), 8u);
  EXPECT_EQ(StepPlan(3, 7, true).steps(), 9u);
  EXPECT_EQ(StepPlan(1, 7, false).steps(), 7u);
  EXPECT_EQ(StepPlan(2, 7, false).steps(), 8u);
  // No dead drain step: without write-back the compute of the last
  // chunk is the last work.
  EXPECT_EQ(StepPlan(3, 7, false).steps(), 8u);
  EXPECT_EQ(StepPlan(3, 0, true).steps(), 0u);
  EXPECT_EQ(StepPlan().steps(), 0u);
}

TEST(StepPlan, OrderingFactsSeparateTheDepths) {
  EXPECT_TRUE(StepPlan(1, 4, true).in_joins_before_compute());
  EXPECT_FALSE(StepPlan(2, 4, true).in_joins_before_compute());
  EXPECT_FALSE(StepPlan(3, 4, true).in_joins_before_compute());
  EXPECT_TRUE(StepPlan(1, 4, true).out_after_compute());
  EXPECT_TRUE(StepPlan(2, 4, true).out_after_compute());
  EXPECT_FALSE(StepPlan(3, 4, true).out_after_compute());
  // Figure 2: step s loads s, computes s-1 and stores s-2.
  const PlanStep fig2 = StepPlan(3, 4, true).step(2);
  EXPECT_EQ(fig2.in, 2u);
  EXPECT_EQ(fig2.compute, 1u);
  EXPECT_EQ(fig2.out, 0u);
  EXPECT_FALSE(StepPlan(3, 4, false).step(2).out.has_value());
}

TEST(StepPlan, RejectsDepthsOutsideOneToThree) {
  EXPECT_THROW(StepPlan(0, 4, true), InvalidArgumentError);
  EXPECT_THROW(StepPlan(4, 4, true), InvalidArgumentError);
}

}  // namespace
}  // namespace mlm
