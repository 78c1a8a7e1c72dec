// Key/payload-split (SoA) merging for fixed-size records.
//
// An AoS k-way merge of Record<N> runs drags sizeof(Record) bytes
// through the cache per comparison even though the loser tree reads the
// 8-byte key only.  The split merge extracts a dense key mirror per run
// (one sequential pass), runs the loser tree over the mirrors, and
// moves payloads exactly once: each streak the tree emits is a
// contiguous span of one source run, so the records behind it are
// copied with one copy_bytes call — which can use the non-temporal
// streaming kernel, since merged-out records are dead to the near-tier
// working set.
//
// Byte identity with the AoS path is by construction, not by luck:
// Record orders by key alone, every merge here and in multiway_merge.h
// is stable with run-index tie-breaks, and multiseq_partition's
// (value, run, position) tie-breaking matches.  The layouts can differ
// only in time, never in output — the property the acceptance sweeps
// pin across 100 seeds.
//
// The key mirrors cost 8 bytes per element of transient space, repaid
// by the merge loop touching sizeof(key) instead of sizeof(Record)
// bytes per comparison (8x less for Record64).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mlm/parallel/executor.h"
#include "mlm/parallel/parallel_for.h"
#include "mlm/parallel/stream_copy.h"
#include "mlm/sort/loser_tree.h"
#include "mlm/sort/multiway_merge.h"
#include "mlm/sort/record.h"
#include "mlm/support/error.h"

namespace mlm::sort {

/// Sequential key/payload-split k-way merge.  Byte-identical output to
/// multiway_merge over the same runs (records compare by key; ties by
/// run index).  `payload_mode` selects the record-copy kernel; bytes
/// are identical in every mode.
template <std::size_t N>
void multiway_merge_split(std::span<const Run<Record<N>>> runs,
                          std::span<Record<N>> out,
                          CopyMode payload_mode = CopyMode::Auto) {
  using Rec = Record<N>;
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  MLM_REQUIRE(out.size() == total, "output size must equal total run size");
  if (total == 0) return;

  std::vector<Run<Rec>> live;
  live.reserve(runs.size());
  for (const auto& r : runs) {
    if (!r.empty()) live.push_back(r);
  }
  if (live.size() == 1) {
    copy_bytes(out.data(), live[0].data(), live[0].size() * sizeof(Rec),
               payload_mode);
    return;
  }

  // Dense key mirrors: one sequential extraction pass per run.  After
  // this the merge loop never touches a payload byte.
  std::vector<std::vector<std::uint64_t>> keys(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    keys[i].resize(live[i].size());
    const Rec* src = live[i].data();
    for (std::size_t j = 0; j < live[i].size(); ++j) {
      keys[i][j] = src[j].key;
    }
  }

  LoserTree<const std::uint64_t*> lt(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    lt.set_run(i, keys[i].data(), keys[i].data() + keys[i].size());
  }
  lt.init();

  // Per-run record cursors advance in lockstep with the key mirrors.
  std::vector<const Rec*> cursor(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) cursor[i] = live[i].data();

  // The streak keys themselves are throwaway (the records carry them);
  // a small stack buffer caps each streak without touching the heap.
  constexpr std::size_t kStreakCap = 512;
  std::uint64_t streak[kStreakCap];

  Rec* dst = out.data();
  std::size_t src_run = 0;
  while (!lt.empty()) {
    const std::size_t got = lt.pop_streak(streak, kStreakCap, src_run);
    copy_bytes(dst, cursor[src_run], got * sizeof(Rec), payload_mode);
    cursor[src_run] += got;
    dst += got;
  }
  MLM_CHECK(dst == out.data() + total);
}

/// Parallel key/payload-split merge: the same plan_merge_parts as
/// parallel_multiway_merge (records compare by key, so the part
/// boundaries match the AoS path element for element), each part merged
/// with the sequential split kernel.
template <std::size_t N>
void parallel_multiway_merge_split(Executor& pool,
                                   std::span<const Run<Record<N>>> runs,
                                   std::span<Record<N>> out,
                                   CopyMode payload_mode = CopyMode::Auto) {
  using Rec = Record<N>;
  const std::vector<MergePart<Rec>> parts =
      plan_merge_parts(runs, out.size(), pool.size());
  if (parts.size() <= 1) {
    multiway_merge_split(runs, out, payload_mode);
    return;
  }
  parallel_for(pool, 0, parts.size(), [&](std::size_t p) {
    multiway_merge_split(std::span<const Run<Rec>>(parts[p].slices),
                         out.subspan(parts[p].out_begin, parts[p].out_size),
                         payload_mode);
  });
}

namespace split_detail {

/// Stable local run sort for the SoA layout: sort (key, original index)
/// pairs — a total order, so the unstable std::sort is effectively
/// stable — then gather records through the index column.  The records
/// themselves move once, after all comparisons are done on 16-byte
/// pairs.
template <std::size_t N>
void stable_sort_range_split(std::span<Record<N>> range,
                             std::span<Record<N>> scratch) {
  struct KeyIdx {
    std::uint64_t key;
    std::uint64_t idx;
  };
  std::vector<KeyIdx> pairs(range.size());
  for (std::size_t i = 0; i < range.size(); ++i) {
    pairs[i] = {range[i].key, i};
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const KeyIdx& a, const KeyIdx& b) {
              return a.key != b.key ? a.key < b.key : a.idx < b.idx;
            });
  for (std::size_t i = 0; i < range.size(); ++i) {
    scratch[i] = range[pairs[i].idx];
  }
  std::copy(scratch.begin(), scratch.begin() + range.size(),
            range.begin());
}

}  // namespace split_detail

/// Parallel record sort in either layout.  Stable (equal keys keep
/// input order), so for a given input the two layouts produce
/// byte-identical results; `scratch` must be at least data.size().
///
/// Aos: stable-sorted local runs + the AoS exact-splitting parallel
/// merge — the gnu_like_parallel_sort structure with stability.
/// SoaSplit: local runs sorted via (key, index) pairs, then the
/// key/payload-split parallel merge.
template <std::size_t N>
void sort_records(Executor& pool, std::span<Record<N>> data,
                  std::span<Record<N>> scratch, RecordLayout layout,
                  CopyMode payload_mode = CopyMode::Auto) {
  using Rec = Record<N>;
  MLM_REQUIRE(scratch.size() >= data.size(),
              "scratch must be at least input size");
  const std::size_t n = data.size();
  if (n <= 1) return;

  const std::size_t p = std::min(pool.size(), (n + 1023) / 1024);
  const std::vector<IndexRange> ranges = partition_all(n, std::max<std::size_t>(p, 1));

  // Phase 1: stable local runs (layout decides how).
  parallel_for(pool, 0, ranges.size(), [&](std::size_t i) {
    auto range = data.subspan(ranges[i].begin, ranges[i].size());
    if (layout == RecordLayout::SoaSplit) {
      split_detail::stable_sort_range_split<N>(
          range, scratch.subspan(ranges[i].begin, ranges[i].size()));
    } else {
      std::stable_sort(range.begin(), range.end());
    }
  });
  if (ranges.size() <= 1) return;

  // Phase 2: exact-splitting parallel merge into scratch.
  std::vector<Run<Rec>> runs;
  runs.reserve(ranges.size());
  for (const IndexRange& r : ranges) {
    runs.emplace_back(data.data() + r.begin, r.size());
  }
  if (layout == RecordLayout::SoaSplit) {
    parallel_multiway_merge_split(pool, std::span<const Run<Rec>>(runs),
                                  scratch.subspan(0, n), payload_mode);
  } else {
    parallel_multiway_merge(pool, std::span<const Run<Rec>>(runs),
                            scratch.subspan(0, n));
  }

  // Phase 3: copy back (parallel, line-aligned slices).
  parallel_for_ranges(pool, 0, n, [&](IndexRange r) {
    std::copy(scratch.begin() + static_cast<std::ptrdiff_t>(r.begin),
              scratch.begin() + static_cast<std::ptrdiff_t>(r.end),
              data.begin() + static_cast<std::ptrdiff_t>(r.begin));
  });
}

}  // namespace mlm::sort
