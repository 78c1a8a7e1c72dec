#include "mlm/sort/funnelsort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "mlm/sort/input_gen.h"
#include "mlm/support/error.h"
#include "sort/test_inputs.h"

namespace mlm::sort {
namespace {

using Case = std::tuple<std::size_t, TestInput>;

class FunnelsortProperty : public ::testing::TestWithParam<Case> {};

TEST_P(FunnelsortProperty, MatchesStdSort) {
  const auto [n, shape] = GetParam();
  auto v = make_test_input(n, shape, n * 11 + 3);
  auto expect = v;
  std::stable_sort(expect.begin(), expect.end());
  const auto cs = checksum(v);
  funnelsort(std::span<std::int64_t>(v));
  EXPECT_EQ(v, expect);
  EXPECT_EQ(checksum(v), cs);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FunnelsortProperty,
    ::testing::Combine(
        // Around the base case (4096) and the k-funnel recursion sizes.
        ::testing::Values(0, 1, 2, 4095, 4096, 4097, 10000, 100000,
                          500000),
        ::testing::Values(TestInput::Random, TestInput::Reverse,
                          TestInput::Sorted, TestInput::FewDistinct)));

INSTANTIATE_TEST_SUITE_P(
    Adversarial, FunnelsortProperty,
    ::testing::Combine(::testing::Values(kAdversarialElements),
                       adversarial_inputs()),
    [](const auto& info) { return name_of(std::get<1>(info.param)); });

TEST(Funnelsort, DescendingComparator) {
  auto v = make_input(50000, InputOrder::Random, 5);
  funnelsort(std::span<std::int64_t>(v), std::greater<>{});
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), std::greater<>{}));
}

TEST(Funnelsort, ScratchTooSmallRejected) {
  std::vector<std::int64_t> v(100), scratch(50);
  EXPECT_THROW(funnelsort(std::span<std::int64_t>(v),
                          std::span<std::int64_t>(scratch)),
               InvalidArgumentError);
}

TEST(FunnelMerge, MergesSortedRuns) {
  std::vector<std::int64_t> a{1, 4, 7}, b{2, 5, 8}, c{3, 6, 9};
  std::vector<std::pair<const std::int64_t*, const std::int64_t*>> runs{
      {a.data(), a.data() + a.size()},
      {b.data(), b.data() + b.size()},
      {c.data(), c.data() + c.size()}};
  std::vector<std::int64_t> out(9);
  funnel_merge(runs, std::span<std::int64_t>(out));
  EXPECT_EQ(out, (std::vector<std::int64_t>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(FunnelMerge, HandlesEmptyAndSkewedRuns) {
  std::vector<std::int64_t> a, b{5}, c;
  for (int i = 0; i < 10000; ++i) c.push_back(i);
  std::vector<std::pair<const std::int64_t*, const std::int64_t*>> runs{
      {a.data(), a.data()},
      {b.data(), b.data() + 1},
      {c.data(), c.data() + c.size()}};
  std::vector<std::int64_t> out(10001);
  funnel_merge(runs, std::span<std::int64_t>(out));
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(std::count(out.begin(), out.end(), 5), 2);
}

TEST(FunnelMerge, SingleRun) {
  std::vector<std::int64_t> a{1, 2, 3};
  std::vector<std::pair<const std::int64_t*, const std::int64_t*>> runs{
      {a.data(), a.data() + 3}};
  std::vector<std::int64_t> out(3);
  funnel_merge(runs, std::span<std::int64_t>(out));
  EXPECT_EQ(out, a);
}

TEST(FunnelMerge, OutputSizeMismatchRejected) {
  std::vector<std::int64_t> a{1};
  std::vector<std::pair<const std::int64_t*, const std::int64_t*>> runs{
      {a.data(), a.data() + 1}};
  std::vector<std::int64_t> out(2);
  EXPECT_THROW(funnel_merge(runs, std::span<std::int64_t>(out)),
               InvalidArgumentError);
}

TEST(Funnelsort, ManyDuplicatesStable) {
  // Not stability in the strict sense (funnelsort isn't stable), but
  // heavy ties must not lose or duplicate elements.
  auto v = make_input(200000, InputOrder::FewDistinct, 9);
  const auto cs = checksum(v);
  funnelsort(std::span<std::int64_t>(v));
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  EXPECT_EQ(checksum(v), cs);
}

}  // namespace
}  // namespace mlm::sort
