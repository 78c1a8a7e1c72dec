#include "mlm/sort/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <tuple>

#include "mlm/sort/input_gen.h"
#include "mlm/support/error.h"
#include "sort/test_inputs.h"

namespace mlm::sort {
namespace {

using Case = std::tuple<std::size_t, TestInput, std::size_t>;

class RadixSortProperty : public ::testing::TestWithParam<Case> {};

TEST_P(RadixSortProperty, SerialMatchesStdSort) {
  const auto [n, shape, threads] = GetParam();
  (void)threads;
  auto v = make_test_input(n, shape, n * 17 + 1);
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  const auto cs = checksum(v);
  std::vector<std::int64_t> scratch(v.size());
  radix_sort(std::span<std::int64_t>(v),
             std::span<std::int64_t>(scratch));
  EXPECT_EQ(v, expect);
  EXPECT_EQ(checksum(v), cs);
}

TEST_P(RadixSortProperty, ParallelMatchesStdSort) {
  const auto [n, shape, threads] = GetParam();
  ThreadPool pool(threads);
  auto v = make_test_input(n, shape, n * 19 + 2);
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  const auto cs = checksum(v);
  std::vector<std::int64_t> scratch(v.size());
  parallel_radix_sort(pool, std::span<std::int64_t>(v),
                      std::span<std::int64_t>(scratch));
  EXPECT_EQ(v, expect);
  EXPECT_EQ(checksum(v), cs);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RadixSortProperty,
    ::testing::Combine(
        ::testing::Values(0, 1, 2, 1000, 65536, 300001),
        ::testing::Values(TestInput::Random, TestInput::Reverse,
                          TestInput::FewDistinct),
        ::testing::Values(1, 3, 4)));

/// Just under, at and just over radix_sort's MSD cutoff, and one
/// thread's chunk of the host benchmark's flat sort.
const std::size_t kCutoffSizes[] = {kRadixCacheElements - 1,
                                    kRadixCacheElements,
                                    kRadixCacheElements + 1,
                                    std::size_t{2} << 20};

INSTANTIATE_TEST_SUITE_P(
    AroundCutoff, RadixSortProperty,
    ::testing::Combine(::testing::ValuesIn(kCutoffSizes),
                       ::testing::Values(TestInput::Random,
                                         TestInput::Reverse,
                                         TestInput::FewDistinct,
                                         TestInput::OrganPipe,
                                         TestInput::MedianOf3Killer),
                       ::testing::Values(4)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_" +
             name_of(std::get<1>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    Adversarial, RadixSortProperty,
    ::testing::Combine(::testing::Values(kAdversarialElements),
                       adversarial_inputs(), ::testing::Values(4)),
    [](const auto& info) { return name_of(std::get<1>(info.param)); });

TEST(RadixSort, NegativeValuesOrderCorrectly) {
  std::vector<std::int64_t> v{5,
                              -3,
                              0,
                              std::numeric_limits<std::int64_t>::min(),
                              std::numeric_limits<std::int64_t>::max(),
                              -1,
                              1};
  std::vector<std::int64_t> scratch(v.size());
  radix_sort(std::span<std::int64_t>(v),
             std::span<std::int64_t>(scratch));
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  EXPECT_EQ(v.front(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(v.back(), std::numeric_limits<std::int64_t>::max());
}

TEST(RadixSort, ScratchTooSmallRejected) {
  std::vector<std::int64_t> v(100), scratch(50);
  EXPECT_THROW(radix_sort(std::span<std::int64_t>(v),
                          std::span<std::int64_t>(scratch)),
               InvalidArgumentError);
  ThreadPool pool(2);
  EXPECT_THROW(parallel_radix_sort(pool, std::span<std::int64_t>(v),
                                   std::span<std::int64_t>(scratch)),
               InvalidArgumentError);
}

TEST(RadixSort, StableAcrossPasses) {
  // Radix sort is stable; keys equal in the low digits must retain
  // their relative order per pass.  With full int64 keys stability is
  // unobservable, so check via a value whose duplicates we can count.
  auto v = make_input(50000, InputOrder::FewDistinct, 5);
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  std::vector<std::int64_t> scratch(v.size());
  radix_sort(std::span<std::int64_t>(v),
             std::span<std::int64_t>(scratch));
  EXPECT_EQ(v, expect);
}

/// Sorts `v` with radix_sort and checks it against a std::sort oracle
/// and the multiset checksum.
void expect_radix_sorts(std::vector<std::int64_t> v) {
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  const auto cs = checksum(v);
  std::vector<std::int64_t> scratch(v.size());
  radix_sort(std::span<std::int64_t>(v), std::span<std::int64_t>(scratch));
  EXPECT_EQ(v, expect);
  EXPECT_EQ(checksum(v), cs);
}

TEST(RadixSort, KeysDifferingOnlyInTheLowestByte) {
  // Every MSD level above the last finds one shared byte: the deepest
  // descent before a scatter.
  for (const std::size_t n : kCutoffSizes) {
    std::vector<std::int64_t> v(n);
    std::mt19937_64 rng(n);
    for (auto& x : v) {
      x = static_cast<std::int64_t>(0x1234'5678'9abc'de00ULL | (rng() & 0xff));
    }
    expect_radix_sorts(std::move(v));
  }
}

TEST(RadixSort, KeysDifferingOnlyInTheTopByte) {
  // The first MSD pass splits on the sign-biased byte; every bucket then
  // shares all of its remaining bytes.
  for (const std::size_t n : kCutoffSizes) {
    std::vector<std::int64_t> v(n);
    std::mt19937_64 rng(n + 1);
    for (auto& x : v) {
      x = static_cast<std::int64_t>(((rng() & 0xff) << 56) | 0x42);
    }
    expect_radix_sorts(std::move(v));
  }
}

TEST(RadixSort, MixOfInt64MinAndMax) {
  constexpr auto lo = std::numeric_limits<std::int64_t>::min();
  constexpr auto hi = std::numeric_limits<std::int64_t>::max();
  for (const std::size_t n : kCutoffSizes) {
    std::vector<std::int64_t> v(n);
    std::mt19937_64 rng(n + 2);
    for (auto& x : v) {
      switch (rng() % 4) {
        case 0: x = lo; break;
        case 1: x = hi; break;
        case 2: x = lo + static_cast<std::int64_t>(rng() % 3); break;
        default: x = hi - static_cast<std::int64_t>(rng() % 3); break;
      }
    }
    expect_radix_sorts(std::move(v));
  }
}

TEST(RadixSort, ScratchLargerThanDataIsFine) {
  auto v = make_input(kRadixCacheElements * 3, InputOrder::Random, 9);
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  std::vector<std::int64_t> scratch(v.size() + 100);
  radix_sort(std::span<std::int64_t>(v), std::span<std::int64_t>(scratch));
  EXPECT_EQ(v, expect);
}

}  // namespace
}  // namespace mlm::sort
