// Radix sorts for int64 keys and for Record<N>.
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
// et al. apply on KNL.  The CPU picks one of two kernels, as it does for
// merge_two_bounded; both give the same bytes:
//
//   1. MSD passes on the highest remaining byte scatter into scratch
//      until a bucket holds at most kRadixCacheElements keys (its data
//      plus scratch then fit in a core's L2).  With AVX-512F a pass
//      into kStreamingBuckets or more buckets write-combines: it
//      gathers 64 B per bucket in an L1 buffer and writes every full
//      line that lies inside its bucket with one non-temporal store, so
//      the scattered traffic reaches DRAM as whole streamed lines (the
//      software write-combining of Satish et al. and Polychroniou &
//      Ross).
//   2. With AVX-512F, each in-cache bucket is split further by MSD
//      passes on its next byte, with ordinary cached stores, until a
//      bucket holds at most kRadixSmallElements keys; an 8-lane bitonic
//      network in up to 8 registers then sorts it.  Without AVX-512F,
//      the bucket finishes with LSD passes over its remaining low bytes
//      (one read takes every digit's histogram) and buckets of at most
//      kRadixSmallElements keys use std::sort.
//
// Every MSD pass whose byte all keys share is skipped, and jumps
// straight to the highest byte in which two keys differ; so is every
// LSD pass whose digit all keys share.
//
// radix_sort_records is the per-thread sort for Record<N>: a stable LSD
// radix sort on the 8-byte key, so equal keys keep their input order.
// A record of 32 B or more does not travel through the passes: the sort
// builds 16-byte (key, index) pairs in the first 32 B per record of the
// scratch (pairs plus their own scratch), radix-sorts those, and then
// follows the permutation's cycles to move each record once, in place.
// A smaller record (Record16) cannot hold the pairs in its scratch, and
// is already a key plus 8 bytes, so it is radix-sorted directly.  The
// bitonic network is not stable on keys alone, so neither path uses it.
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
#include <limits>
#include <new>
#include <span>
#include <vector>

#include "mlm/parallel/parallel_for.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/sort/avx512_bitonic.h"
#include "mlm/sort/record.h"
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
/// Buckets this small are sorted by the bitonic network (AVX-512F) or
/// std::sort instead of further radix passes.
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

#if defined(__x86_64__)
/// Int64 slots per 64 B cache line.
inline constexpr std::size_t kLineElements = 64 / sizeof(std::int64_t);

/// An out-of-cache MSD pass write-combines only when at least this many
/// buckets receive keys.  Fewer output streams are ones the cache and
/// the hardware prefetchers already serve well: on the 4-core AVX-512F
/// host, a cached scatter of 2 Mi keys into 32 buckets took 1.5 ns per
/// key against the write-combining one's 2.7, and the two met at 64.
inline constexpr std::ptrdiff_t kStreamingBuckets = 64;

/// `scatter` through a write-combining buffer: one 64 B line per bucket
/// (16 KiB on the stack), slotted by the destination's absolute
/// address, so a bucket's line fills exactly when its cursor reaches a
/// 64 B boundary.  A filled line that lies wholly inside its bucket goes
/// out with one non-temporal store; a bucket's partial first and last
/// lines, which share their cache line with a neighbour, are written
/// with ordinary stores to the bucket's own slots only.  Same bytes as
/// `scatter`.
__attribute__((target("avx512f"))) inline void scatter_streaming(
    const std::int64_t* src, std::int64_t* dst, std::size_t n,
    unsigned pass, Counts& start) {
  alignas(64) std::int64_t line[kRadixBuckets][kLineElements];
  const Counts begin = start;
  const std::size_t base =
      reinterpret_cast<std::uintptr_t>(dst) / sizeof(std::int64_t);
  // Writes dst[from, to) of bucket b from its buffered line.
  const auto write_own = [&](std::size_t b, std::size_t from,
                             std::size_t to) {
    for (std::size_t p = from; p < to; ++p) {
      dst[p] = line[b][(base + p) % kLineElements];
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t key = src[i];
    const std::size_t b = digit(bias(key), pass);
    const std::size_t end = ++start[b];
    line[b][(base + end - 1) % kLineElements] = key;
    if ((base + end) % kLineElements != 0) continue;
    if (end - begin[b] >= kLineElements) {
      _mm512_stream_si512(
          reinterpret_cast<__m512i*>(dst + end - kLineElements),
          _mm512_load_si512(line[b]));
    } else {
      write_own(b, begin[b], end);
    }
  }
  for (std::size_t b = 0; b < kRadixBuckets; ++b) {
    const std::size_t end = start[b];
    write_own(b,
              end - std::min(end - begin[b], (base + end) % kLineElements),
              end);
  }
  _mm_sfence();
}

/// Sorts 8 lanes ascending: the bitonic sorter of 8, as six
/// compare-exchange levels.  Each merge stage begins by pairing lanes
/// mirrored within its block, so both halves may enter ascending.
__attribute__((target("avx512f"))) inline __m512i sort8(__m512i v) {
  const __m512i swap1 = _mm512_set_epi64(6, 7, 4, 5, 2, 3, 0, 1);
  v = detail::bitonic_level(v, swap1, 0xAA);
  v = detail::bitonic_level(v, _mm512_set_epi64(4, 5, 6, 7, 0, 1, 2, 3),
                            0xCC);
  v = detail::bitonic_level(v, swap1, 0xAA);
  v = detail::bitonic_level(v, _mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7),
                            0xF0);
  v = detail::bitonic_level(v, _mm512_set_epi64(5, 4, 7, 6, 1, 0, 3, 2),
                            0xCC);
  return detail::bitonic_level(v, swap1, 0xAA);
}

/// Sorts the 8R keys of v[0, R) ascending, register 0 first: sort8 on
/// each register, then bitonic merges of ever wider register blocks.
/// Merging two sorted blocks of w registers pairs key j of the block
/// with key 16w-1-j (a lower register against the reversed mirror
/// register), the smaller staying at j and the larger going to
/// 16w-1-j: each half is then a bitonic sequence, and the lower half is
/// no larger than the upper.  Half-cleaners between registers at
/// distances w/2, ..., 1 and bitonic_sort8 inside each register then
/// sort both.  The loops are unrolled so that v[]
/// stays in registers: left to GCC, it stayed on the stack and the
/// network ran about twice as slow.
template <std::size_t R>
__attribute__((target("avx512f"))) inline void sort_registers(
    __m512i (&v)[R]) {
  const __m512i reverse = _mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7);
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) v[r] = sort8(v[r]);
#pragma GCC unroll 4
  for (std::size_t w = 1; w < R; w *= 2) {
#pragma GCC unroll 4
    for (std::size_t block = 0; block < R; block += 2 * w) {
      __m512i* const x = v + block;
#pragma GCC unroll 4
      for (std::size_t i = 0; i < w; ++i) {
        const __m512i y = x[2 * w - 1 - i];
        const __m512i mirror = _mm512_permutex2var_epi64(y, reverse, y);
        const __m512i hi = detail::max_epi64(x[i], mirror);
        x[i] = detail::min_epi64(x[i], mirror);
        x[2 * w - 1 - i] = _mm512_permutex2var_epi64(hi, reverse, hi);
      }
#pragma GCC unroll 2
      for (std::size_t d = w / 2; d > 0; d /= 2) {
#pragma GCC unroll 8
        for (std::size_t i = 0; i < 2 * w; ++i) {
          if ((i & d) != 0) continue;
          const __m512i a = x[i];
          x[i] = detail::min_epi64(a, x[i + d]);
          x[i + d] = detail::max_epi64(a, x[i + d]);
        }
      }
#pragma GCC unroll 8
      for (std::size_t i = 0; i < 2 * w; ++i) {
        x[i] = detail::bitonic_sort8(x[i]);
      }
    }
  }
}

/// Sorts src[0, n), n <= 8R, into dst[0, n) in R registers: masked
/// loads pad the registers with INT64_MAX, which sorts last, and masked
/// stores write back exactly n keys.
template <std::size_t R>
__attribute__((target("avx512f"))) inline void sort_network_in(
    const std::int64_t* src, std::int64_t* dst, std::size_t n) {
  const __m512i pad =
      _mm512_set1_epi64(std::numeric_limits<std::int64_t>::max());
  const auto mask = [n](std::size_t r) {
    const std::size_t left = n - r * kLineElements;
    return static_cast<__mmask8>(
        left >= kLineElements ? 0xFF : (1u << left) - 1);
  };
  __m512i v[R];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    v[r] = r * kLineElements < n
               ? _mm512_mask_loadu_epi64(pad, mask(r),
                                         src + r * kLineElements)
               : pad;
  }
  sort_registers(v);
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    if (r * kLineElements < n) {
      _mm512_mask_storeu_epi64(dst + r * kLineElements, mask(r), v[r]);
    }
  }
}

/// Sorts src[0, n), n <= kRadixSmallElements, into dst[0, n) with the
/// bitonic network of 1, 2, 4 or 8 registers; src may equal dst.
/// Reads nothing and writes nothing outside [0, n).
__attribute__((target("avx512f"))) inline void sort_network(
    const std::int64_t* src, std::int64_t* dst, std::size_t n) {
  if (n == 0) return;
  if (n <= kLineElements) {
    sort_network_in<1>(src, dst, n);
  } else if (n <= 2 * kLineElements) {
    sort_network_in<2>(src, dst, n);
  } else if (n <= 4 * kLineElements) {
    sort_network_in<4>(src, dst, n);
  } else {
    sort_network_in<8>(src, dst, n);
  }
}
#endif

/// Sorts keys[0, n), which agree on every byte at or above `bytes`, on
/// their low `bytes` bytes.  `other` is an equal-sized scratch range; the
/// result lands in `other` when `into_other`, else in `keys`.
///
/// kWide selects the AVX-512F kernel: MSD passes continue inside cache
/// down to kRadixSmallElements keys and the network finishes; above
/// kRadixCacheElements a scatter into kStreamingBuckets or more buckets
/// write-combines.  Otherwise MSD stops at kRadixCacheElements and
/// lsd_in_cache finishes.
template <bool kWide>
inline void msd(std::int64_t* keys, std::int64_t* other, std::size_t n,
                unsigned bytes, bool into_other) {
  constexpr std::size_t kLeaf =
      kWide ? kRadixSmallElements : kRadixCacheElements;
  while (bytes > 0 && n > kLeaf) {
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
#if defined(__x86_64__)
    if (kWide && n > kRadixCacheElements &&
        std::count_if(count.begin(), count.end(), [](std::size_t c) {
          return c != 0;
        }) >= kStreamingBuckets) {
      scatter_streaming(keys, other, n, pass, start);
    } else {
      scatter(keys, other, n, pass, start);
    }
#else
    scatter(keys, other, n, pass, start);
#endif
    // Each bucket now sits in `other`; sorting it back into `keys`
    // leaves the result where the caller wants it when !into_other.
    std::size_t begin = 0;
    for (const std::size_t c : count) {
      if (c != 0) {
        msd<kWide>(other + begin, keys + begin, c, pass, !into_other);
      }
      begin += c;
    }
    return;
  }
  if (bytes == 0) {
    if (into_other) std::memcpy(other, keys, n * sizeof(std::int64_t));
    return;
  }
#if defined(__x86_64__)
  if constexpr (kWide) {
    sort_network(keys, into_other ? other : keys, n);
    return;
  }
#endif
  lsd_in_cache(keys, other, n, bytes, into_other);
}

/// radix_sort on one kernel, whatever the CPU: kWide = true, the
/// AVX-512F kernel, needs detail::cpu_has_avx512f(); false is the
/// scalar kernel.
template <bool kWide>
void radix_sort_kernel(std::span<std::int64_t> data,
                       std::span<std::int64_t> scratch) {
  MLM_REQUIRE(scratch.size() >= data.size(),
              "scratch must be at least input size");
  if (data.size() <= 1) return;
  msd<kWide>(data.data(), scratch.data(), data.size(), kRadixPasses, false);
}
}  // namespace radix_detail

/// Serial cache-conscious radix sort using a caller-provided scratch
/// buffer of at least the input's size: MSD passes until buckets fit in
/// cache, then an in-cache finish; the CPU picks the AVX-512F or the
/// scalar kernel (see the file comment).  Result ends in `data`.
/// Allocates nothing.
template <typename Dummy = void>
void radix_sort(std::span<std::int64_t> data,
                std::span<std::int64_t> scratch) {
#if defined(__x86_64__)
  if (detail::cpu_has_avx512f()) {
    radix_detail::radix_sort_kernel<true>(data, scratch);
    return;
  }
#endif
  radix_detail::radix_sort_kernel<false>(data, scratch);
}

namespace radix_detail {
/// A record's key and its position in the input: the 16 bytes
/// radix_sort_records sorts in place of a record of 32 B or more.
struct KeyIndex {
  std::uint64_t key;
  std::uint64_t index;
};

/// Stable LSD radix sort of items[0, n) on their unsigned `key` member,
/// with `other` as an equal-sized scratch range: one read takes every
/// digit's histogram, and a pass whose digit all keys share is skipped.
/// Returns whichever of the two ranges holds the result.
template <typename Item>
Item* lsd_stable(Item* items, Item* other, std::size_t n) {
  std::array<Counts, kRadixPasses> count{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = items[i].key;
    for (unsigned pass = 0; pass < kRadixPasses; ++pass) {
      ++count[pass][digit(key, pass)];
    }
  }
  Item* src = items;
  Item* dst = other;
  for (unsigned pass = 0; pass < kRadixPasses; ++pass) {
    Counts& start = count[pass];
    if (start[digit(src[0].key, pass)] == n) continue;
    exclusive_prefix_sum(start);
    for (std::size_t i = 0; i < n; ++i) {
      dst[start[digit(src[i].key, pass)]++] = src[i];
    }
    std::swap(src, dst);
  }
  return src;
}

/// Moves data[order[j].index] to data[j] for every j by following the
/// permutation's cycles: each record moves once, plus one temporary per
/// cycle.  Marks every visited pair as placed, clobbering `order`.
template <typename Rec>
void apply_permutation(Rec* data, KeyIndex* order, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (order[i].index == i) continue;
    const Rec first = data[i];
    std::size_t j = i;
    for (;;) {
      const std::size_t from = order[j].index;
      order[j].index = j;
      if (from == i) break;
      data[j] = data[from];
      j = from;
    }
    data[j] = first;
  }
}
}  // namespace radix_detail

/// Stable radix sort of records by key (see the file comment) with a
/// caller-provided scratch of at least data.size() records.  Result ends
/// in `data`; equal keys keep their input order.  Allocates nothing.
template <std::size_t N>
void radix_sort_records(std::span<Record<N>> data,
                        std::span<Record<N>> scratch) {
  using Rec = Record<N>;
  using radix_detail::KeyIndex;
  MLM_REQUIRE(scratch.size() >= data.size(),
              "scratch must be at least input size");
  const std::size_t n = data.size();
  if (n <= 1) return;
  if constexpr (sizeof(Rec) < 2 * sizeof(KeyIndex)) {
    const Rec* sorted =
        radix_detail::lsd_stable(data.data(), scratch.data(), n);
    if (sorted != data.data()) {
      std::memcpy(data.data(), sorted, n * sizeof(Rec));
    }
  } else {
    // The pairs and their scratch are new objects in the scratch
    // records' storage, which the records' alignment suits.
    static_assert(alignof(Rec) >= alignof(KeyIndex));
    void* const raw = scratch.data();
    auto* const slots = static_cast<KeyIndex*>(raw);
    for (std::size_t i = 0; i < n; ++i) {
      ::new (static_cast<void*>(slots + i)) KeyIndex{data[i].key, i};
      ::new (static_cast<void*>(slots + n + i)) KeyIndex;
    }
    KeyIndex* const pairs = std::launder(slots);
    radix_detail::apply_permutation(
        data.data(), radix_detail::lsd_stable(pairs, pairs + n, n), n);
  }
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
