// Multithreaded sorts built from the serial sort and the parallel
// multiway merge.
//
// gnu_like_parallel_sort reproduces the structure of GNU libstdc++
// parallel mode's default sort (MCSTL "multiway mergesort", Singler et
// al. 2007/2008), which the paper treats as the state of the art for
// multithreaded sorting and uses as its baseline ("GNU-flat" in DDR,
// "GNU-cache" in hardware cache mode): split the input into p equal
// ranges, sort each with the serial sort on its own thread, then run an
// exact-splitting parallel multiway merge.
//
// samplesort is an alternative (splitter-based) parallel sort.  Nothing
// outside its tests calls it; ROADMAP lists it among "the dead sort
// kernels".
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "mlm/parallel/parallel_for.h"
#include "mlm/parallel/executor.h"
#include "mlm/sort/multiway_merge.h"
#include "mlm/sort/serial_sort.h"
#include "mlm/support/rng.h"

namespace mlm::sort {

/// GNU-parallel-style multiway mergesort.  Sorts `data` in place using
/// the pool's workers and a caller-provided scratch buffer of equal size
/// (GNU parallel sort is likewise not in-place).
template <typename T, typename Comp = std::less<>>
void gnu_like_parallel_sort(Executor& pool, std::span<T> data,
                            std::span<T> scratch, Comp comp = {}) {
  MLM_REQUIRE(scratch.size() >= data.size(),
              "scratch must be at least input size");
  const std::size_t n = data.size();
  if (n <= 1) return;

  const std::size_t p = std::min(pool.size(), (n + 1023) / 1024);
  if (p <= 1) {
    serial_sort(data.begin(), data.end(), comp);
    return;
  }

  // Phase 1: serial sort of the same p balanced ranges phase 2 merges.
  const std::vector<IndexRange> ranges = partition_all(n, p);
  parallel_for(pool, 0, p, [&](std::size_t i) {
    serial_sort(data.begin() + ranges[i].begin,
                data.begin() + ranges[i].end, comp);
  });

  // Phase 2: exact-splitting parallel multiway merge into scratch.
  std::vector<Run<T>> runs;
  runs.reserve(p);
  for (const IndexRange& r : ranges) {
    runs.emplace_back(data.data() + r.begin, r.size());
  }
  parallel_multiway_merge(pool, std::span<const Run<T>>(runs),
                          scratch.subspan(0, n), comp);

  // Phase 3: copy back (parallel).
  parallel_for_ranges(pool, 0, n, [&](IndexRange r) {
    std::copy(scratch.begin() + r.begin, scratch.begin() + r.end,
              data.begin() + r.begin);
  });
}

/// Convenience overload that allocates its own scratch from the heap.
template <typename T, typename Comp = std::less<>>
void gnu_like_parallel_sort(Executor& pool, std::span<T> data,
                            Comp comp = {}) {
  std::vector<T> scratch(data.size());
  gnu_like_parallel_sort(pool, data, std::span<T>(scratch), comp);
}

/// Parallel samplesort (PSRS-style): regular sampling chooses p-1
/// splitters, every thread partitions its range by the splitters, and
/// each thread merges one bucket.  Not stable.  MLM-sort itself uses
/// serial sorts per thread.
template <typename T, typename Comp = std::less<>>
void samplesort(Executor& pool, std::span<T> data,
                std::span<T> scratch, Comp comp = {},
                std::uint64_t seed = 0x5a17e5eedULL) {
  MLM_REQUIRE(scratch.size() >= data.size(),
              "scratch must be at least input size");
  const std::size_t n = data.size();
  if (n <= 1) return;
  const std::size_t p = std::min(pool.size(), (n + 4095) / 4096);
  if (p <= 1) {
    serial_sort(data.begin(), data.end(), comp);
    return;
  }

  // Phase 1: sort the same p local ranges the bucket phase partitions.
  const std::vector<IndexRange> ranges = partition_all(n, p);
  parallel_for(pool, 0, p, [&](std::size_t i) {
    serial_sort(data.begin() + ranges[i].begin,
                data.begin() + ranges[i].end, comp);
  });

  // Phase 2: regular sampling — p samples per range, sort the p*p
  // samples, take every p-th as splitter.  (Seed only varies the
  // oversampling jitter; the default is fully deterministic.)
  std::vector<T> samples;
  samples.reserve(p * p);
  Xoshiro256ss rng(seed);
  for (const IndexRange& r : ranges) {
    for (std::size_t s = 0; s < p; ++s) {
      const std::size_t off = r.size() * s / p + (r.size() > p ? 0 : 0);
      samples.push_back(data[r.begin + std::min(off, r.size() - 1)]);
    }
  }
  serial_sort(samples.begin(), samples.end(), comp);
  std::vector<T> splitters;
  splitters.reserve(p - 1);
  for (std::size_t i = 1; i < p; ++i) splitters.push_back(samples[i * p]);

  // Phase 3: per-range splitter positions; bucket b of range r is
  // [pos[r][b], pos[r][b+1]).
  std::vector<std::vector<std::size_t>> pos(p,
                                            std::vector<std::size_t>(p + 1));
  parallel_for(pool, 0, p, [&](std::size_t r) {
    const IndexRange rr = ranges[r];
    pos[r][0] = 0;
    for (std::size_t b = 0; b + 1 < p; ++b) {
      pos[r][b + 1] = static_cast<std::size_t>(
          std::lower_bound(data.begin() + rr.begin + pos[r][b],
                           data.begin() + rr.end, splitters[b], comp) -
          (data.begin() + rr.begin));
    }
    pos[r][p] = rr.size();
  });

  // Bucket output offsets.
  std::vector<std::size_t> bucket_size(p, 0), bucket_off(p + 1, 0);
  for (std::size_t b = 0; b < p; ++b) {
    for (std::size_t r = 0; r < p; ++r) {
      bucket_size[b] += pos[r][b + 1] - pos[r][b];
    }
    bucket_off[b + 1] = bucket_off[b] + bucket_size[b];
  }

  // Phase 4: each thread merges one bucket into scratch.
  parallel_for(pool, 0, p, [&](std::size_t b) {
    std::vector<Run<T>> runs;
    runs.reserve(p);
    for (std::size_t r = 0; r < p; ++r) {
      runs.emplace_back(data.data() + ranges[r].begin + pos[r][b],
                        pos[r][b + 1] - pos[r][b]);
    }
    multiway_merge(std::span<const Run<T>>(runs),
                   scratch.subspan(bucket_off[b], bucket_size[b]), comp);
  });

  // Phase 5: copy back.
  parallel_for_ranges(pool, 0, n, [&](IndexRange r) {
    std::copy(scratch.begin() + r.begin, scratch.begin() + r.end,
              data.begin() + r.begin);
  });
}

}  // namespace mlm::sort
