#include "mlm/sort/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "mlm/sort/input_gen.h"
#include "mlm/sort/record.h"
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

// The scalar kernel, called directly, so it stays tested on CPUs where
// radix_sort dispatches to the AVX-512F one.
TEST_P(RadixSortProperty, ScalarKernelMatchesStdSort) {
  const auto [n, shape, threads] = GetParam();
  (void)threads;
  auto v = make_test_input(n, shape, n * 23 + 3);
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  std::vector<std::int64_t> scratch(v.size());
  radix_detail::radix_sort_kernel<false>(std::span<std::int64_t>(v),
                                         std::span<std::int64_t>(scratch));
  EXPECT_EQ(v, expect);
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

// --- radix_sort_records: the stable per-thread sort for Record<N> -----

/// Key shapes for the record kernel: the TestInput ones, plus keys that
/// differ only in their lowest or only in their highest byte (the first
/// or the last LSD pass alone does the sorting).
enum class RecordKeys {
  Random,
  Sorted,
  Reverse,
  FewDistinct,
  AllEqual,
  Byte0Only,
  Byte7Only
};

std::string name_of(RecordKeys keys) {
  switch (keys) {
    case RecordKeys::Random: return "random";
    case RecordKeys::Sorted: return "sorted";
    case RecordKeys::Reverse: return "reverse";
    case RecordKeys::FewDistinct: return "fewdistinct";
    case RecordKeys::AllEqual: return "allequal";
    case RecordKeys::Byte0Only: return "byte0only";
    case RecordKeys::Byte7Only: return "byte7only";
  }
  return "?";
}

template <std::size_t N>
std::vector<Record<N>> records_with(std::size_t n, RecordKeys keys,
                                    std::uint64_t seed) {
  const auto shape = [keys] {
    switch (keys) {
      case RecordKeys::Sorted: return TestInput::Sorted;
      case RecordKeys::Reverse: return TestInput::Reverse;
      case RecordKeys::FewDistinct: return TestInput::FewDistinct;
      case RecordKeys::AllEqual: return TestInput::AllEqual;
      default: return TestInput::Random;
    }
  }();
  auto recs = make_test_records<N>(n, shape, seed);
  for (Record<N>& r : recs) {
    if (keys == RecordKeys::Byte0Only) {
      r.key = 0x0123456789abcd00ULL | (r.key & 0xff);
    } else if (keys == RecordKeys::Byte7Only) {
      r.key = 0x0023456789abcdefULL | (r.key & 0xff) << 56;
    }
  }
  return recs;
}

/// radix_sort_records with a scratch of exactly n records must equal
/// std::stable_sort byte for byte: payloads tell equal keys apart.
template <std::size_t N>
void expect_stable_record_sort(std::size_t n, RecordKeys keys) {
  auto recs = records_with<N>(n, keys, n * 29 + 5);
  auto expect = recs;
  std::stable_sort(expect.begin(), expect.end());
  std::vector<Record<N>> scratch(n);
  radix_sort_records(std::span<Record<N>>(recs),
                     std::span<Record<N>>(scratch));
  EXPECT_TRUE(recs == expect);
}

using RecordCase = std::tuple<std::size_t, RecordKeys>;

class RadixSortRecordsProperty
    : public ::testing::TestWithParam<RecordCase> {};

// The (key, index) pair path.
TEST_P(RadixSortRecordsProperty, Record64MatchesStableSort) {
  const auto [n, keys] = GetParam();
  expect_stable_record_sort<56>(n, keys);
}

// Records under 32 B are radix-sorted directly: Record16 and a 24-byte
// record.
TEST_P(RadixSortRecordsProperty, Record16MatchesStableSort) {
  const auto [n, keys] = GetParam();
  expect_stable_record_sort<8>(n, keys);
}

TEST_P(RadixSortRecordsProperty, Record24MatchesStableSort) {
  const auto [n, keys] = GetParam();
  expect_stable_record_sort<16>(n, keys);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RadixSortRecordsProperty,
    ::testing::Combine(
        ::testing::Values(0, 1, 2, 63, 64, 65, kRadixCacheElements - 1,
                          kRadixCacheElements, kRadixCacheElements + 1),
        ::testing::Values(RecordKeys::Random, RecordKeys::Sorted,
                          RecordKeys::Reverse, RecordKeys::FewDistinct,
                          RecordKeys::AllEqual, RecordKeys::Byte0Only,
                          RecordKeys::Byte7Only)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_" +
             name_of(std::get<1>(info.param));
    });

TEST(RadixSortRecords, ScratchShorterThanDataRejected) {
  std::vector<Record64> wide(100), wide_scratch(99);
  EXPECT_THROW(radix_sort_records(std::span<Record64>(wide),
                                  std::span<Record64>(wide_scratch)),
               InvalidArgumentError);
  std::vector<Record16> narrow(100), narrow_scratch(99);
  EXPECT_THROW(radix_sort_records(std::span<Record16>(narrow),
                                  std::span<Record16>(narrow_scratch)),
               InvalidArgumentError);
}

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

TEST(RadixSort, ScalarKernelRejectsShortScratch) {
  std::vector<std::int64_t> v(100), scratch(50);
  EXPECT_THROW(radix_detail::radix_sort_kernel<false>(
                   std::span<std::int64_t>(v),
                   std::span<std::int64_t>(scratch)),
               InvalidArgumentError);
}

#if defined(__x86_64__)
constexpr std::int64_t kGuard = 0x5eed'5eed'5eed'5eedLL;
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/// n keys of one of the network test's four shapes.
std::vector<std::int64_t> network_keys(std::size_t n, int shape,
                                       std::mt19937_64& rng) {
  std::vector<std::int64_t> v(n);
  for (auto& x : v) {
    switch (shape) {
      case 0: x = static_cast<std::int64_t>(rng()); break;
      case 1: x = -42; break;
      case 2: x = static_cast<std::int64_t>(rng() % 3) - 1; break;
      default: {
        const std::int64_t pick[] = {kMin, kMax, kMin + 1, kMax - 1, 0};
        x = pick[rng() % 5];
      }
    }
  }
  return v;
}

// Every size the network takes, on random, all-equal, few-distinct and
// INT64_MIN/INT64_MAX-mixed keys, out of place and in place.  Guard
// words around the destination catch a store past n or before 0; in
// random keys a missing INT64_MAX pad shows as a foreign key.
TEST(RadixSortKernels, NetworkMatchesStdSortForEverySmallSize) {
  if (!detail::cpu_has_avx512f()) GTEST_SKIP() << "CPU lacks avx512f";
  constexpr std::size_t kPad = 16;
  std::mt19937_64 rng(2024);
  for (int shape = 0; shape < 4; ++shape) {
    for (std::size_t n = 0; n <= kRadixSmallElements; ++n) {
      for (int trial = 0; trial < 4; ++trial) {
        const auto keys = network_keys(n, shape, rng);
        auto expect = keys;
        std::sort(expect.begin(), expect.end());

        std::vector<std::int64_t> out(n + 2 * kPad, kGuard);
        radix_detail::sort_network(keys.data(), out.data() + kPad, n);
        EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                               out.begin() + kPad))
            << "shape=" << shape << " n=" << n;
        EXPECT_TRUE(std::all_of(out.begin(), out.begin() + kPad,
                                [](std::int64_t v) { return v == kGuard; }))
            << "shape=" << shape << " n=" << n;
        EXPECT_TRUE(std::all_of(out.end() - kPad, out.end(),
                                [](std::int64_t v) { return v == kGuard; }))
            << "shape=" << shape << " n=" << n;

        std::vector<std::int64_t> in_place(n + kPad, kGuard);
        std::copy(keys.begin(), keys.end(), in_place.begin());
        radix_detail::sort_network(in_place.data(), in_place.data(), n);
        EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                               in_place.begin()))
            << "in place, shape=" << shape << " n=" << n;
        EXPECT_TRUE(std::all_of(in_place.begin() + n, in_place.end(),
                                [](std::int64_t v) { return v == kGuard; }))
            << "in place, shape=" << shape << " n=" << n;
      }
    }
  }
}

/// For each i < buckets, sizes[i % sizes.size()] keys whose byte `pass`
/// is first + i (one bucket per i), the other bytes random; shuffled.
std::vector<std::int64_t> bucketed_keys(
    const std::vector<std::size_t>& sizes, std::size_t first,
    std::size_t buckets, unsigned pass, std::mt19937_64& rng) {
  std::vector<std::int64_t> keys;
  const unsigned shift = pass * kRadixBits;
  for (std::size_t i = 0; i < buckets; ++i) {
    for (std::size_t k = 0; k < sizes[i % sizes.size()]; ++k) {
      const std::uint64_t other = rng() & ~(std::uint64_t{0xff} << shift);
      keys.push_back(
          static_cast<std::int64_t>(other | ((first + i) << shift)));
    }
  }
  std::shuffle(keys.begin(), keys.end(), rng);
  return keys;
}

/// Runs `scatter` (the scalar or the streaming kernel) of `keys` on
/// digit `pass` into a destination `misalign` int64 past a 64 B
/// boundary, between two lines of guard words.  Returns the guards, the
/// destination and the bucket ends.
template <typename Scatter>
std::pair<std::vector<std::int64_t>, radix_detail::Counts>
scatter_between_guards(const std::vector<std::int64_t>& keys, unsigned pass,
                       std::size_t misalign, Scatter scatter) {
  constexpr std::size_t kPad = 2 * radix_detail::kLineElements;
  radix_detail::Counts start{};
  for (const std::int64_t k : keys) {
    ++start[radix_detail::digit(radix_detail::bias(k), pass)];
  }
  radix_detail::exclusive_prefix_sum(start);
  std::vector<std::int64_t> storage(keys.size() + 2 * kPad + 16, kGuard);
  const auto addr = reinterpret_cast<std::uintptr_t>(storage.data());
  const std::size_t skip = (64 - addr % 64) % 64 / sizeof(std::int64_t);
  std::int64_t* const region = storage.data() + skip;
  scatter(keys.data(), region + kPad + misalign, keys.size(), pass, start);
  std::vector<std::int64_t> seen(region,
                                 region + keys.size() + 2 * kPad + misalign);
  return {seen, start};
}

// The write-combining scatter against the scalar one: destinations
// misaligned by 0..7 int64, bucket sizes 0/1/7/8/9/64, one bucket and
// all 256.  Same bytes, same bucket ends, guards untouched on both
// sides (a partial line written whole would overwrite them).
TEST(RadixSortKernels, StreamingScatterMatchesScalarScatter) {
  if (!detail::cpu_has_avx512f()) GTEST_SKIP() << "CPU lacks avx512f";
  const std::vector<std::size_t> sizes = {0, 1, 7, 8, 9, 64};
  std::mt19937_64 rng(77);
  for (const unsigned pass : {0u, 3u, 7u}) {
    std::vector<std::vector<std::int64_t>> inputs;
    for (const std::size_t size : sizes) {
      inputs.push_back(bucketed_keys({size}, 0x5a, 1, pass, rng));
    }
    inputs.push_back(bucketed_keys({1000}, 0, 1, pass, rng));
    inputs.push_back(bucketed_keys(sizes, 0, kRadixBuckets, pass, rng));
    inputs.push_back(
        bucketed_keys({9, 64, 1, 0, 8, 7}, 0, kRadixBuckets, pass, rng));
    for (const auto& keys : inputs) {
      for (std::size_t misalign = 0; misalign < 8; ++misalign) {
        const auto scalar = scatter_between_guards(
            keys, pass, misalign, radix_detail::scatter);
        const auto streamed = scatter_between_guards(
            keys, pass, misalign, radix_detail::scatter_streaming);
        EXPECT_EQ(streamed.first, scalar.first)
            << "pass=" << pass << " keys=" << keys.size()
            << " misalign=" << misalign;
        EXPECT_EQ(streamed.second, scalar.second)
            << "pass=" << pass << " keys=" << keys.size()
            << " misalign=" << misalign;
        const std::size_t pad = 2 * radix_detail::kLineElements + misalign;
        EXPECT_TRUE(std::all_of(
            streamed.first.begin(), streamed.first.begin() + pad,
            [](std::int64_t v) { return v == kGuard; }));
        EXPECT_TRUE(std::all_of(
            streamed.first.end() - 2 * radix_detail::kLineElements,
            streamed.first.end(),
            [](std::int64_t v) { return v == kGuard; }));
      }
    }
  }
}

// The AVX-512F kernel, called directly, on the sizes around both of its
// cutoffs and one thread's chunk of the host benchmark's flat sort.
TEST(RadixSortKernels, Avx512KernelMatchesStdSort) {
  if (!detail::cpu_has_avx512f()) GTEST_SKIP() << "CPU lacks avx512f";
  for (const std::size_t n :
       {std::size_t{2}, kRadixSmallElements, kRadixSmallElements + 1,
        kRadixCacheElements, kRadixCacheElements + 1, std::size_t{1} << 21}) {
    for (const TestInput shape :
         {TestInput::Random, TestInput::FewDistinct, TestInput::AllEqual}) {
      auto v = make_test_input(n, shape, n + 5);
      auto expect = v;
      std::sort(expect.begin(), expect.end());
      std::vector<std::int64_t> scratch(v.size());
      radix_detail::radix_sort_kernel<true>(
          std::span<std::int64_t>(v), std::span<std::int64_t>(scratch));
      EXPECT_EQ(v, expect) << "n=" << n << " " << name_of(shape);
    }
  }
}
#endif

}  // namespace
}  // namespace mlm::sort
