#include "mlm/sort/parallel_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "mlm/parallel/thread_pool.h"
#include "mlm/sort/input_gen.h"
#include "mlm/support/error.h"
#include "sort/test_inputs.h"

namespace mlm::sort {
namespace {

using Case = std::tuple<std::size_t, TestInput, std::size_t>;

class ParallelSortProperty : public ::testing::TestWithParam<Case> {};

TEST_P(ParallelSortProperty, GnuLikeSortMatchesStdSort) {
  const auto [n, shape, threads] = GetParam();
  ThreadPool pool(threads);
  auto v = make_test_input(n, shape, n * 3 + threads);
  auto expect = v;
  std::stable_sort(expect.begin(), expect.end());
  const auto cs = checksum(v);
  gnu_like_parallel_sort(pool, std::span<std::int64_t>(v));
  EXPECT_EQ(v, expect);
  EXPECT_EQ(checksum(v), cs);
}

TEST_P(ParallelSortProperty, SamplesortMatchesStdSort) {
  const auto [n, shape, threads] = GetParam();
  ThreadPool pool(threads);
  auto v = make_test_input(n, shape, n * 5 + threads);
  auto expect = v;
  std::stable_sort(expect.begin(), expect.end());
  std::vector<std::int64_t> scratch(v.size());
  samplesort(pool, std::span<std::int64_t>(v),
             std::span<std::int64_t>(scratch));
  EXPECT_EQ(v, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelSortProperty,
    ::testing::Combine(
        ::testing::Values(0, 1, 2, 1000, 4096, 100001),
        ::testing::Values(TestInput::Random, TestInput::Reverse,
                          TestInput::FewDistinct),
        ::testing::Values(1, 2, 4, 7)));

INSTANTIATE_TEST_SUITE_P(
    Adversarial, ParallelSortProperty,
    ::testing::Combine(::testing::Values(kAdversarialElements),
                       adversarial_inputs(), ::testing::Values(4)),
    [](const auto& info) {
      return name_of(std::get<1>(info.param)) + "_t" +
             std::to_string(std::get<2>(info.param));
    });

TEST(GnuLikeParallelSort, ScratchTooSmallRejected) {
  ThreadPool pool(2);
  std::vector<std::int64_t> v(100), scratch(50);
  EXPECT_THROW(gnu_like_parallel_sort(pool, std::span<std::int64_t>(v),
                                      std::span<std::int64_t>(scratch)),
               InvalidArgumentError);
}

TEST(GnuLikeParallelSort, CustomComparator) {
  ThreadPool pool(4);
  auto v = make_input(20000, InputOrder::Random, 9);
  gnu_like_parallel_sort(pool, std::span<std::int64_t>(v),
                         std::greater<>{});
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), std::greater<>{}));
}

TEST(GnuLikeParallelSort, SmallInputFallsBackToSerial) {
  ThreadPool pool(8);
  std::vector<std::int64_t> v{5, 3, 1, 4, 2};
  gnu_like_parallel_sort(pool, std::span<std::int64_t>(v));
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(Samplesort, DuplicateHeavyInput) {
  ThreadPool pool(4);
  auto v = make_input(50000, InputOrder::FewDistinct, 2);
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  std::vector<std::int64_t> scratch(v.size());
  samplesort(pool, std::span<std::int64_t>(v),
             std::span<std::int64_t>(scratch));
  EXPECT_EQ(v, expect);
}

TEST(Samplesort, AlreadySortedStaysSorted) {
  ThreadPool pool(4);
  auto v = make_input(30000, InputOrder::Sorted, 0);
  auto expect = v;
  std::vector<std::int64_t> scratch(v.size());
  samplesort(pool, std::span<std::int64_t>(v),
             std::span<std::int64_t>(scratch));
  EXPECT_EQ(v, expect);
}

}  // namespace
}  // namespace mlm::sort
