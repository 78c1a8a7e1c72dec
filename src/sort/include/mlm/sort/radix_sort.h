// Radix sorts for int64 keys.
//
// radix_sort is the per-thread sort MLM-sort runs on int64 keys (see
// serial_sort.h).  Its scratch is the caller's, an array at least as
// large as the data: MlmSorter passes each thread the slice of its DDR
// scratch that the megachunk merge overwrites next, so the sort
// allocates nothing.
//
// A plain LSD radix sort is latency-bound once the data leaves cache:
// each of its 8 passes scatters the whole array into 256 streams through
// DRAM, and a scattered store that misses costs several times a streamed
// one (Peng et al.: scattered traffic cannot use the bandwidth).  So
// radix_sort partitions first and finishes in cache, the blocking Rucci
// et al. apply on KNL:
//
//   1. MSD passes on the highest remaining byte scatter into scratch
//      until a bucket holds at most kRadixCacheElements keys (its data
//      plus scratch then fit in a core's L2);
//   2. each such bucket finishes with LSD passes over its remaining low
//      bytes, inside cache: one read takes every digit's histogram, and
//      a pass whose digit all keys share is skipped;
//   3. buckets of at most kRadixSmallElements keys use std::sort.
//
// parallel_radix_sort keeps the classic parallel LSD scheme; the MLM
// variant in mlm/core/mlm_radix.h runs it inside MCDRAM-resident chunks
// (the Bender/Snir test of §2.3 trivially says "rewrite it for MLM").
//
// Keys are sorted by their biased representation (sign bit flipped) so
// negative int64 values order correctly.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "mlm/parallel/parallel_for.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/support/error.h"

namespace mlm::sort {

/// Digit width in bits; 8 gives 8 passes over int64 with 256-entry
/// histograms (L1-resident counters).
inline constexpr unsigned kRadixBits = 8;
inline constexpr std::size_t kRadixBuckets = 1u << kRadixBits;
inline constexpr unsigned kRadixPasses = 64 / kRadixBits;
/// radix_sort's MSD passes stop at buckets this small: 128 KiB of keys
/// plus 128 KiB of scratch, well inside a 1-2 MiB L2.
inline constexpr std::size_t kRadixCacheElements = std::size_t{1} << 14;
/// Buckets this small skip the radix passes for std::sort.
inline constexpr std::size_t kRadixSmallElements = 64;

namespace radix_detail {
/// Order-preserving bias: flips the sign bit so two's-complement int64
/// order matches unsigned order.
inline std::uint64_t bias(std::int64_t v) {
  return static_cast<std::uint64_t>(v) ^ (1ull << 63);
}
inline std::size_t digit(std::uint64_t biased, unsigned pass) {
  return static_cast<std::size_t>(
      (biased >> (pass * kRadixBits)) & (kRadixBuckets - 1));
}

using Counts = std::array<std::size_t, kRadixBuckets>;

/// Turns bucket counts into bucket start offsets.
inline void exclusive_prefix_sum(Counts& count) {
  std::size_t offset = 0;
  for (std::size_t& c : count) {
    const std::size_t here = c;
    c = offset;
    offset += here;
  }
}

/// Stable scatter of src[0, n) into dst by digit `pass`; `start` holds
/// the bucket offsets and is left at the bucket ends.
inline void scatter(const std::int64_t* src, std::int64_t* dst,
                    std::size_t n, unsigned pass, Counts& start) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[start[digit(bias(src[i]), pass)]++] = src[i];
  }
}

/// Sorts keys[0, n), which agree on every byte at or above `bytes`, on
/// their low `bytes` bytes, for a range that fits in cache.  The result
/// lands in `other` when `into_other`, else in `keys`; both are clobbered.
inline void lsd_in_cache(std::int64_t* keys, std::int64_t* other,
                         std::size_t n, unsigned bytes, bool into_other) {
  std::int64_t* sorted = keys;
  if (n <= kRadixSmallElements) {
    std::sort(keys, keys + n);
  } else {
    std::array<Counts, kRadixPasses> count{};
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t b = bias(keys[i]);
      for (unsigned pass = 0; pass < bytes; ++pass) {
        ++count[pass][digit(b, pass)];
      }
    }
    std::int64_t* src = keys;
    std::int64_t* dst = other;
    for (unsigned pass = 0; pass < bytes; ++pass) {
      if (count[pass][digit(bias(src[0]), pass)] == n) continue;
      exclusive_prefix_sum(count[pass]);
      scatter(src, dst, n, pass, count[pass]);
      std::swap(src, dst);
    }
    sorted = src;
  }
  std::int64_t* const want = into_other ? other : keys;
  if (sorted != want) std::memcpy(want, sorted, n * sizeof(std::int64_t));
}

/// Sorts keys[0, n), which agree on every byte at or above `bytes`, on
/// their low `bytes` bytes.  `other` is an equal-sized scratch range; the
/// result lands in `other` when `into_other`, else in `keys`.
inline void msd(std::int64_t* keys, std::int64_t* other, std::size_t n,
                unsigned bytes, bool into_other) {
  while (bytes > 0 && n > kRadixCacheElements) {
    const unsigned pass = bytes - 1;
    Counts count{};
    std::uint64_t all_and = ~std::uint64_t{0};
    std::uint64_t all_or = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t b = bias(keys[i]);
      ++count[digit(b, pass)];
      all_and &= b;
      all_or |= b;
    }
    if (count[digit(bias(keys[0]), pass)] == n) {
      // Every key shares this byte: go straight to the highest byte in
      // which two keys differ, without reading the bytes between.
      bytes = static_cast<unsigned>(
          (std::bit_width(all_and ^ all_or) + kRadixBits - 1) / kRadixBits);
      continue;
    }
    Counts start = count;
    exclusive_prefix_sum(start);
    scatter(keys, other, n, pass, start);
    // Each bucket now sits in `other`; sorting it back into `keys`
    // leaves the result where the caller wants it when !into_other.
    std::size_t begin = 0;
    for (const std::size_t c : count) {
      if (c != 0) msd(other + begin, keys + begin, c, pass, !into_other);
      begin += c;
    }
    return;
  }
  if (bytes > 0) {
    lsd_in_cache(keys, other, n, bytes, into_other);
  } else if (into_other) {
    std::memcpy(other, keys, n * sizeof(std::int64_t));
  }
}
}  // namespace radix_detail

/// Serial cache-conscious radix sort using a caller-provided scratch
/// buffer of at least the input's size: MSD passes until buckets fit in
/// cache, then in-cache LSD passes (see the file comment).  Result ends
/// in `data`.  Allocates nothing.
template <typename Dummy = void>
void radix_sort(std::span<std::int64_t> data,
                std::span<std::int64_t> scratch) {
  MLM_REQUIRE(scratch.size() >= data.size(),
              "scratch must be at least input size");
  if (data.size() <= 1) return;
  radix_detail::msd(data.data(), scratch.data(), data.size(), kRadixPasses,
                    false);
}

/// Parallel LSD radix sort: each pass computes per-thread histograms,
/// prefix-sums them into disjoint write cursors (stable across threads),
/// then scatters in parallel.
template <typename Dummy = void>
void parallel_radix_sort(ThreadPool& pool, std::span<std::int64_t> data,
                         std::span<std::int64_t> scratch) {
  MLM_REQUIRE(scratch.size() >= data.size(),
              "scratch must be at least input size");
  const std::size_t n = data.size();
  if (n <= 1) return;
  const std::size_t p = std::min(pool.size(), (n + 4095) / 4096);
  if (p <= 1) {
    radix_sort(data, scratch);
    return;
  }
  const std::vector<IndexRange> ranges = partition_all(n, p);

  std::int64_t* src = data.data();
  std::int64_t* dst = scratch.data();
  std::vector<std::array<std::size_t, kRadixBuckets>> hist(p);

  for (unsigned pass = 0; pass < kRadixPasses; ++pass) {
    parallel_for(pool, 0, p, [&](std::size_t t) {
      hist[t].fill(0);
      for (std::size_t i = ranges[t].begin; i < ranges[t].end; ++i) {
        ++hist[t][radix_detail::digit(radix_detail::bias(src[i]), pass)];
      }
    });
    // Column-major prefix sum: bucket b of thread t starts after bucket
    // b of threads < t and all buckets < b — preserving stability.
    std::size_t offset = 0;
    for (std::size_t b = 0; b < kRadixBuckets; ++b) {
      for (std::size_t t = 0; t < p; ++t) {
        const std::size_t c = hist[t][b];
        hist[t][b] = offset;
        offset += c;
      }
    }
    parallel_for(pool, 0, p, [&](std::size_t t) {
      auto cursors = hist[t];
      for (std::size_t i = ranges[t].begin; i < ranges[t].end; ++i) {
        dst[cursors[radix_detail::digit(radix_detail::bias(src[i]),
                                        pass)]++] = src[i];
      }
    });
    std::swap(src, dst);
  }
  MLM_CHECK(src == data.data());
}

}  // namespace mlm::sort
