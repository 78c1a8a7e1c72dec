#include "mlm/core/scatter_bench.h"

#include <algorithm>
#include <cmath>

#include "mlm/parallel/parallel_for.h"
#include "mlm/support/error.h"
#include "mlm/support/rng.h"
#include "mlm/support/stopwatch.h"

namespace mlm::core {

const char* to_string(ScatterStrategy strategy) {
  return strategy == ScatterStrategy::Direct ? "direct" : "partitioned";
}

void scatter_reference(std::span<const std::uint64_t> keys,
                       std::span<std::uint64_t> table) {
  MLM_REQUIRE(!table.empty(), "table must not be empty");
  for (std::uint64_t k : keys) ++table[k % table.size()];
}

namespace {

ScatterStats run_direct(ThreadPool& pool,
                        std::span<const std::uint64_t> keys,
                        std::span<std::uint64_t> table) {
  // Atomic increments into the shared table.  std::atomic_ref would be
  // the C++20 idiom; GCC's __atomic builtins keep the table a plain
  // uint64_t span for the caller.
  ScatterStats stats;
  stats.buckets_used = 1;
  Stopwatch timer;
  const std::size_t w = table.size();
  parallel_for_ranges(pool, 0, keys.size(), [&](IndexRange r) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      __atomic_fetch_add(&table[keys[i] % w], 1, __ATOMIC_RELAXED);
    }
  });
  stats.seconds = timer.elapsed_s();
  return stats;
}

ScatterStats run_partitioned(MemoryHierarchy& hierarchy, ThreadPool& pool,
                             std::span<const std::uint64_t> keys,
                             std::span<std::uint64_t> table,
                             std::size_t buckets) {
  const std::size_t w = table.size();
  if (buckets == 0) {
    // One table slice (plus headroom for bucket cursors) per bucket
    // should fit the nearest tier: its free bytes when addressable (no
    // limit, so one bucket, when unlimited), else its physical size.
    const std::size_t near = hierarchy.tier_count() - 1;
    const std::uint64_t near_free =
        hierarchy.tier_addressable(near)
            ? hierarchy.tier(near).fit_elements(1, 1)
            : hierarchy.tier_config(near).capacity_bytes;
    const std::uint64_t slice_budget = std::max<std::uint64_t>(
        near_free / 2, 64 * sizeof(std::uint64_t));
    // At least one: run_scatter rejects an empty table.
    buckets = (w * sizeof(std::uint64_t) + slice_budget - 1) / slice_budget;
  }
  buckets = std::min(buckets, w);  // at least one slot per slice

  ScatterStats stats;
  stats.buckets_used = buckets;
  Stopwatch timer;

  // Pass 1: each worker partitions its key range into per-worker
  // per-bucket vectors (streaming writes, no sharing).
  const std::size_t workers = pool.size();
  std::vector<std::vector<std::vector<std::uint64_t>>> staged(
      workers, std::vector<std::vector<std::uint64_t>>(buckets));
  const auto ranges = partition_all(keys.size(), workers);
  parallel_for(pool, 0, workers, [&](std::size_t wkr) {
    auto& mine = staged[wkr];
    const std::size_t reserve_hint =
        ranges[wkr].size() / buckets + 16;
    for (auto& v : mine) v.reserve(reserve_hint);
    for (std::size_t i = ranges[wkr].begin; i < ranges[wkr].end; ++i) {
      const std::uint64_t slot = keys[i] % w;
      // Slice b covers slots [b*w/buckets, (b+1)*w/buckets).
      const std::size_t b = static_cast<std::size_t>(
          static_cast<unsigned __int128>(slot) * buckets / w);
      mine[b].push_back(slot);
    }
  });
  for (const auto& per_worker : staged) {
    for (const auto& v : per_worker) {
      stats.bucket_bytes += v.size() * sizeof(std::uint64_t);
    }
  }

  // Pass 2: buckets processed in parallel; each bucket touches only its
  // disjoint table slice, so no atomics are needed and the active slice
  // is near-memory-sized.
  parallel_for(pool, 0, buckets, [&](std::size_t b) {
    for (std::size_t wkr = 0; wkr < workers; ++wkr) {
      for (std::uint64_t slot : staged[wkr][b]) ++table[slot];
    }
  });

  stats.seconds = timer.elapsed_s();
  return stats;
}

}  // namespace

ScatterStats run_scatter(MemoryHierarchy& hierarchy, ThreadPool& pool,
                         std::span<const std::uint64_t> keys,
                         std::span<std::uint64_t> table,
                         const ScatterConfig& config) {
  MLM_REQUIRE(!table.empty(), "table must not be empty");
  switch (config.strategy) {
    case ScatterStrategy::Direct:
      return run_direct(pool, keys, table);
    case ScatterStrategy::Partitioned:
      return run_partitioned(hierarchy, pool, keys, table, config.buckets);
  }
  MLM_CHECK_MSG(false, "unreachable strategy");
  return {};
}

std::vector<std::uint64_t> make_scatter_keys(std::size_t count,
                                             std::uint64_t key_range,
                                             double skew,
                                             std::uint64_t seed) {
  MLM_REQUIRE(key_range >= 1, "key range must be positive");
  MLM_REQUIRE(skew >= 0.0, "skew must be non-negative");
  std::vector<std::uint64_t> keys(count);
  Xoshiro256ss rng(seed);
  for (auto& k : keys) {
    if (skew == 0.0) {
      k = rng.bounded(key_range);
    } else {
      // Exponentiating a uniform sample concentrates mass near zero;
      // skew = 1 is Zipf-like, larger is hotter.
      const double u = rng.uniform01();
      const double x = std::pow(u, 1.0 + skew);
      k = std::min<std::uint64_t>(
          static_cast<std::uint64_t>(x * static_cast<double>(key_range)),
          key_range - 1);
    }
  }
  return keys;
}

}  // namespace mlm::core
