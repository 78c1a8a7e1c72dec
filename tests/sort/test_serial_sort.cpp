#include "mlm/sort/serial_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "sort/test_inputs.h"

namespace mlm::sort {
namespace {

using Case = std::tuple<std::size_t, TestInput>;

class SerialSortProperty : public ::testing::TestWithParam<Case> {
 protected:
  std::vector<std::int64_t> input() const {
    const auto [n, shape] = GetParam();
    return make_test_input(n, shape, 42 + n);
  }
};

// serial_sort is std::sort, libstdc++'s introsort; the oracle is a
// different algorithm so the comparison is not tautological.
TEST_P(SerialSortProperty, IntrosortMatchesStdSort) {
  auto v = input();
  auto expect = v;
  std::stable_sort(expect.begin(), expect.end());
  serial_sort(v.begin(), v.end());
  EXPECT_EQ(v, expect);
}

TEST_P(SerialSortProperty, HeapsortMatchesStdSort) {
  auto v = input();
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  heapsort(v.begin(), v.end());
  EXPECT_EQ(v, expect);
}

TEST_P(SerialSortProperty, InsertionSortMatchesStdSort) {
  const std::size_t n = std::get<0>(GetParam());
  if (n > 2000) GTEST_SKIP() << "quadratic sort, keep it small";
  auto v = input();
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  insertion_sort(v.begin(), v.end());
  EXPECT_EQ(v, expect);
}

TEST_P(SerialSortProperty, DescendingComparator) {
  auto v = input();
  auto expect = v;
  std::stable_sort(expect.begin(), expect.end(), std::greater<>{});
  serial_sort(v.begin(), v.end(), std::greater<>{});
  EXPECT_EQ(v, expect);
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return "n" + std::to_string(std::get<0>(info.param)) + "_" +
         name_of(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SerialSortProperty,
    ::testing::Combine(
        ::testing::Values(0, 1, 2, 3, 24, 25, 100, 1000, 100000),
        ::testing::Values(TestInput::Random, TestInput::Reverse,
                          TestInput::Sorted, TestInput::NearlySorted,
                          TestInput::FewDistinct)),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    Adversarial, SerialSortProperty,
    ::testing::Combine(::testing::Values(kAdversarialElements),
                       adversarial_inputs()),
    case_name);

TEST(TestInputs, MedianOf3KillerIsMussersPermutation) {
  EXPECT_EQ(make_test_input(16, TestInput::MedianOf3Killer, 0),
            (std::vector<std::int64_t>{1, 9, 3, 11, 5, 13, 7, 15, 2, 4, 6,
                                       8, 10, 12, 14, 16}));
}

TEST(SerialSort, AllEqualElements) {
  std::vector<int> v(1000, 7);
  serial_sort(v.begin(), v.end());
  EXPECT_TRUE(std::all_of(v.begin(), v.end(),
                          [](int x) { return x == 7; }));
}

TEST(SerialSort, TwoElements) {
  std::vector<int> v{2, 1};
  serial_sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2}));
}

TEST(SerialSort, QuicksortKillerStillNLogN) {
  // Organ-pipe / many-duplicates patterns that degrade naive quicksort;
  // std::sort's depth limit guarantees completion (we just check
  // correctness — a quadratic blowup at this size would time out).
  const std::size_t n = 1 << 17;
  std::vector<std::int64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::int64_t>(std::min(i, n - i));
  }
  serial_sort(v.begin(), v.end());
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(SerialSort, SortsStringsWithMoves) {
  // Copying is deleted, so this only compiles if the sort moves.
  struct MoveOnly {
    std::string s;
    explicit MoveOnly(std::string v) : s(std::move(v)) {}
    MoveOnly(MoveOnly&&) = default;
    MoveOnly& operator=(MoveOnly&&) = default;
    MoveOnly(const MoveOnly&) = delete;
    MoveOnly& operator=(const MoveOnly&) = delete;
  };
  std::vector<MoveOnly> v;
  for (const char* s : {"pear", "apple", "fig", "banana", "date"}) {
    v.emplace_back(s);
  }
  serial_sort(v.begin(), v.end(), [](const MoveOnly& a, const MoveOnly& b) {
    return a.s < b.s;
  });
  std::vector<std::string> got;
  for (const MoveOnly& m : v) got.push_back(m.s);
  EXPECT_EQ(got, (std::vector<std::string>{"apple", "banana", "date",
                                           "fig", "pear"}));
}

TEST(SerialSort, SerialSortAliasWorks) {
  auto v = make_input(5000, InputOrder::Random, 1);
  serial_sort(v.begin(), v.end());
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

}  // namespace
}  // namespace mlm::sort
