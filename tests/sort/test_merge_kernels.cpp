// Property tests for the merge kernels: pop_batch / pop_streak against
// sequential pop() and std::merge references, the unrolled two-run
// merge against std::merge, the AVX-512 int64 step against the scalar
// step, and the buffered merge tree against a run-by-run reference
// across block boundaries, with seeded dup-heavy inputs, byte-exact
// output checks, and run-order stability.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "mlm/sort/loser_tree.h"
#include "mlm/sort/merge_kernels.h"
#include "mlm/sort/multiway_merge.h"
#include "mlm/support/error.h"
#include "mlm/support/proptest.h"

namespace mlm::sort {
namespace {

// Key + origin tag: comparisons see only the key, so the tag exposes
// stability violations that value comparison would miss.
struct Tagged {
  std::int64_t key = 0;
  std::uint32_t run = 0;
  std::uint32_t pos = 0;

  friend bool operator==(const Tagged&, const Tagged&) = default;
};
struct TaggedKeyLess {
  bool operator()(const Tagged& a, const Tagged& b) const {
    return a.key < b.key;
  }
};

/// Seeded sorted runs; keys drawn from [0, key_bound) — small bounds
/// produce the heavy duplicates that exercise streaks and tie-breaks.
std::vector<std::vector<Tagged>> gen_runs(Gen& g, std::size_t max_k,
                                          std::size_t max_len,
                                          std::int64_t key_bound) {
  const std::size_t k = g.size_in(1, max_k);
  std::vector<std::vector<Tagged>> runs(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    auto keys = g.int_vector(0, max_len, 0, key_bound - 1);
    std::sort(keys.begin(), keys.end());
    runs[i].resize(keys.size());
    for (std::uint32_t p = 0; p < keys.size(); ++p) {
      runs[i][p] = Tagged{keys[p], i, p};
    }
  }
  return runs;
}

template <typename T, typename Comp>
LoserTree<const T*, Comp> seated(const std::vector<std::vector<T>>& runs,
                                 Comp comp) {
  LoserTree<const T*, Comp> lt(runs.size(), comp);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    lt.set_run(i, runs[i].data(), runs[i].data() + runs[i].size());
  }
  lt.init();
  return lt;
}

/// The trusted reference: run-by-run stable merge with std::merge
/// (lower run index wins ties, matching the tree's tie-break).
std::vector<Tagged> reference_merge(
    const std::vector<std::vector<Tagged>>& runs) {
  std::vector<Tagged> out;
  for (const auto& r : runs) {
    std::vector<Tagged> next(out.size() + r.size());
    std::merge(out.begin(), out.end(), r.begin(), r.end(), next.begin(),
               TaggedKeyLess{});
    out = std::move(next);
  }
  return out;
}

TEST(PopBatchProperty, MatchesSequentialPopsAndReference) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Gen g(seed * 7919 + 1);
    // Alternate dup-heavy (8 distinct keys) and wide key spaces.
    const auto runs =
        gen_runs(g, 12, 150, seed % 2 == 0 ? 8 : 1'000'000);
    std::size_t total = 0;
    for (const auto& r : runs) total += r.size();

    auto lt_seq = seated(runs, TaggedKeyLess{});
    std::vector<Tagged> via_pop;
    via_pop.reserve(total);
    while (!lt_seq.empty()) via_pop.push_back(lt_seq.pop());

    auto lt_batch = seated(runs, TaggedKeyLess{});
    std::vector<Tagged> via_batch(total);
    // Odd batch sizes force streaks to split across pop_batch calls.
    std::size_t off = 0;
    const std::size_t step = g.size_in(1, 7);
    while (off < total) {
      const std::size_t got =
          lt_batch.pop_batch(via_batch.data() + off, step);
      ASSERT_GT(got, 0u) << "no progress at off=" << off;
      off += got;
    }
    ASSERT_EQ(off, total);
    EXPECT_TRUE(lt_batch.empty());

    // Byte-exact: tags included, so this asserts stability too.
    EXPECT_EQ(via_batch, via_pop) << "seed=" << seed;
    EXPECT_EQ(via_batch, reference_merge(runs)) << "seed=" << seed;
  }
}

TEST(PopBatchProperty, StabilityUnderAllEqualKeys) {
  Gen g(99);
  auto runs = gen_runs(g, 6, 40, 1);  // every key identical
  auto lt = seated(runs, TaggedKeyLess{});
  std::vector<Tagged> out(lt.remaining());
  EXPECT_EQ(lt.pop_batch(out.data(), out.size()), out.size());
  // All ties: output must be runs 0..k-1 in order, each in position
  // order.
  std::size_t i = 0;
  for (std::uint32_t r = 0; r < runs.size(); ++r) {
    for (std::uint32_t p = 0; p < runs[r].size(); ++p, ++i) {
      ASSERT_EQ(out[i].run, r) << "i=" << i;
      ASSERT_EQ(out[i].pos, p) << "i=" << i;
    }
  }
}

TEST(PopBatch, NLargerThanRemainingDrainsAndStops) {
  std::vector<std::vector<int>> runs{{1, 3, 5}, {2, 4}};
  auto lt = seated(runs, std::less<>{});
  std::vector<int> out(100, -1);
  EXPECT_EQ(lt.pop_batch(out.data(), 100), 5u);
  EXPECT_TRUE(lt.empty());
  EXPECT_EQ(lt.pop_batch(out.data() + 5, 100), 0u);
  EXPECT_EQ((std::vector<int>(out.begin(), out.begin() + 5)),
            (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(out[5], -1);
}

TEST(PopBatch, ZeroBudgetPopsNothing) {
  std::vector<std::vector<int>> runs{{1, 2}};
  auto lt = seated(runs, std::less<>{});
  int sink = 0;
  EXPECT_EQ(lt.pop_batch(&sink, 0), 0u);
  EXPECT_EQ(lt.remaining(), 2u);
}

TEST(PopBatch, SingleRunTreeBulkCopies) {
  // k = 1: no challenger exists; the whole run must stream out in one
  // streak.
  std::vector<std::vector<int>> runs{{1, 1, 2, 3, 5, 8}};
  auto lt = seated(runs, std::less<>{});
  std::vector<int> out(6);
  std::size_t src = 99;
  EXPECT_EQ(lt.pop_streak(out.data(), 6, src), 6u);
  EXPECT_EQ(src, 0u);
  EXPECT_TRUE(lt.empty());
  EXPECT_EQ(out, runs[0]);
}

TEST(PopStreak, StopsAtRunSwitchAndReportsSource) {
  std::vector<std::vector<int>> runs{{1, 1, 7, 8}, {2, 3, 9}};
  auto lt = seated(runs, std::less<>{});
  std::vector<int> out(16, -1);
  std::size_t src = 99;
  // Run 0 leads with 1,1; the challenger head is 2, so the streak must
  // stop after exactly the two 1s.
  EXPECT_EQ(lt.pop_streak(out.data(), 16, src), 2u);
  EXPECT_EQ(src, 0u);
  // Then 2,3 from run 1 (stops when 7 beats it... i.e. 7 > 3 ends it).
  EXPECT_EQ(lt.pop_streak(out.data() + 2, 16, src), 2u);
  EXPECT_EQ(src, 1u);
  EXPECT_EQ(lt.pop_streak(out.data() + 4, 16, src), 2u);  // 7, 8
  EXPECT_EQ(src, 0u);
  EXPECT_EQ(lt.pop_streak(out.data() + 6, 16, src), 1u);  // 9
  EXPECT_EQ(src, 1u);
  EXPECT_TRUE(lt.empty());
  EXPECT_EQ((std::vector<int>(out.begin(), out.begin() + 7)),
            (std::vector<int>{1, 1, 2, 3, 7, 8, 9}));
}

TEST(PopStreak, RespectsSpaceCapMidStreak) {
  std::vector<std::vector<int>> runs{{1, 2, 3, 4}, {10}};
  auto lt = seated(runs, std::less<>{});
  std::vector<int> out(2, -1);
  std::size_t src = 99;
  EXPECT_EQ(lt.pop_streak(out.data(), 2, src), 2u);
  EXPECT_EQ(src, 0u);
  EXPECT_EQ(lt.top(), 3);  // cap, not run switch, ended the streak
  EXPECT_EQ(lt.remaining(), 3u);
}

TEST(MergeTwoRunsProperty, MatchesStdMerge) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Gen g(seed * 131 + 7);
    const std::int64_t bound = seed % 3 == 0 ? 4 : 100'000;
    auto a = g.int_vector(0, 200, 0, bound);
    auto b = g.int_vector(0, 200, 0, bound);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());

    std::vector<std::int64_t> expect(a.size() + b.size());
    std::merge(a.begin(), a.end(), b.begin(), b.end(), expect.begin());
    std::vector<std::int64_t> got(a.size() + b.size(), -1);
    std::int64_t* end = merge_two_runs(
        a.data(), a.data() + a.size(), b.data(), b.data() + b.size(),
        got.data(), std::less<>{});
    EXPECT_EQ(end, got.data() + got.size());
    EXPECT_EQ(got, expect) << "seed=" << seed;
  }
}

TEST(MergeTwoRunsProperty, StableTiesFavorFirstRun) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Gen g(seed + 1000);
    std::vector<std::vector<Tagged>> runs =
        gen_runs(g, 2, 120, 3);  // dup-heavy
    runs.resize(2);
    std::vector<Tagged> got(runs[0].size() + runs[1].size());
    merge_two_runs(runs[0].data(), runs[0].data() + runs[0].size(),
                   runs[1].data(), runs[1].data() + runs[1].size(),
                   got.data(), TaggedKeyLess{});
    std::vector<Tagged> expect(got.size());
    std::merge(runs[0].begin(), runs[0].end(), runs[1].begin(),
               runs[1].end(), expect.begin(), TaggedKeyLess{});
    EXPECT_EQ(got, expect) << "seed=" << seed;
  }
}

TEST(MergeTwoRuns, EmptyRunsAndTails) {
  const std::vector<int> empty;
  std::vector<int> a{1, 2, 3};
  std::vector<int> out(3, -1);
  int* end = merge_two_runs(a.data(), a.data() + a.size(), empty.data(),
                            empty.data(), out.data(), std::less<>{});
  EXPECT_EQ(end, out.data() + 3);
  EXPECT_EQ(out, a);
  end = merge_two_runs(empty.data(), empty.data(), a.data(),
                       a.data() + a.size(), out.data(), std::less<>{});
  EXPECT_EQ(end, out.data() + 3);
  EXPECT_EQ(out, a);
  end = merge_two_runs(empty.data(), empty.data(), empty.data(),
                       empty.data(), out.data(), std::less<>{});
  EXPECT_EQ(end, out.data());
}

TEST(CascadeProperty, MatchesReferenceIncludingStability) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Gen g(seed * 97 + 3);
    // Odd k values included; dup-heavy every third seed.
    const auto runs =
        gen_runs(g, 11, 120, seed % 3 == 0 ? 5 : 1'000'000);
    std::size_t total = 0;
    for (const auto& r : runs) total += r.size();
    std::vector<std::span<const Tagged>> spans(runs.begin(), runs.end());
    std::vector<Tagged> out(total),
        scratch(merge_tree_scratch<Tagged>(spans.size()));
    multiway_merge_cascade(std::span<const std::span<const Tagged>>(spans),
                           std::span<Tagged>(out),
                           std::span<Tagged>(scratch), TaggedKeyLess{});
    EXPECT_EQ(out, reference_merge(runs)) << "seed=" << seed;
  }
}

TEST(Cascade, RejectsUndersizedScratch) {
  // k = 2 needs no scratch, so the smallest tree with blocks is k = 3.
  std::vector<int> a{1, 2}, b{3, 4}, c{5};
  std::vector<std::span<const int>> spans{a, b, c};
  std::vector<int> out(5), scratch(merge_tree_scratch<int>(3) - 1);
  EXPECT_THROW(
      multiway_merge_cascade(std::span<const std::span<const int>>(spans),
                             std::span<int>(out), std::span<int>(scratch),
                             std::less<>{}),
      InvalidArgumentError);
}

TEST(Cascade, SingleAndEmptyRuns) {
  std::vector<int> a{1, 2, 3};
  std::vector<std::span<const int>> one{a};
  std::vector<int> out(3), scratch(3);
  multiway_merge_cascade(std::span<const std::span<const int>>(one),
                         std::span<int>(out), std::span<int>(scratch),
                         std::less<>{});
  EXPECT_EQ(out, a);

  std::vector<std::span<const int>> none;
  std::vector<int> empty_out;
  multiway_merge_cascade(std::span<const std::span<const int>>(none),
                         std::span<int>(empty_out),
                         std::span<int>(scratch), std::less<>{});
}

TEST(HybridMergeProperty, TreeAndCascadeRegimesAgreeWithReference) {
  // Big enough to cross kCascadeMinElements so the probe actually runs:
  // "random" takes the cascade handoff, "dups" stays on streaks.  The
  // output must be identical (stability included) either way.
  for (const std::int64_t bound : {std::int64_t{4}, std::int64_t{1} << 40}) {
    Gen g(static_cast<std::uint64_t>(bound) + 17);
    const std::size_t k = 7;
    std::vector<std::vector<Tagged>> runs(k);
    for (std::uint32_t i = 0; i < k; ++i) {
      auto keys = g.int_vector(1500, 2500, 0, bound - 1);
      std::sort(keys.begin(), keys.end());
      runs[i].resize(keys.size());
      for (std::uint32_t p = 0; p < keys.size(); ++p) {
        runs[i][p] = Tagged{keys[p], i, p};
      }
    }
    std::size_t total = 0;
    for (const auto& r : runs) total += r.size();
    ASSERT_GE(total, kCascadeMinElements);
    std::vector<std::span<const Tagged>> spans(runs.begin(), runs.end());
    std::vector<Tagged> out(total);
    multiway_merge(std::span<const std::span<const Tagged>>(spans),
                   std::span<Tagged>(out), TaggedKeyLess{});
    EXPECT_EQ(out, reference_merge(runs)) << "bound=" << bound;
  }
}

TEST(PopBatchProperty, ByteExactDigestAgainstReference) {
  // digest_of over the raw structs: any byte-level divergence (padding
  // included — Tagged is trivially copyable and fully initialized)
  // fails even if operator== were too lax.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Gen g(seed + 31337);
    const auto runs = gen_runs(g, 9, 100, 6);
    std::size_t total = 0;
    for (const auto& r : runs) total += r.size();
    auto lt = seated(runs, TaggedKeyLess{});
    std::vector<Tagged> out(total);
    EXPECT_EQ(lt.pop_batch(out.data(), total), total);
    const auto expect = reference_merge(runs);
    EXPECT_EQ(digest_of<Tagged>(out), digest_of<Tagged>(expect))
        << "seed=" << seed;
  }
}

/// Merges `runs` through multiway_merge_cascade with exactly the
/// documented scratch, so any block overrun reads past the allocation.
template <typename T, typename Comp>
std::vector<T> tree_merge(const std::vector<std::vector<T>>& runs,
                          Comp comp) {
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  std::vector<std::span<const T>> spans(runs.begin(), runs.end());
  std::vector<T> out(total), scratch(merge_tree_scratch<T>(runs.size()));
  multiway_merge_cascade(std::span<const std::span<const T>>(spans),
                         std::span<T>(out), std::span<T>(scratch), comp);
  return out;
}

/// Run lengths that land on and around the AVX-512 width and the tree
/// block size, where the kernels and the refills change hands.
template <typename T>
std::vector<std::size_t> edge_lengths() {
  return {0, 1, 7, 8, 9, kTreeBlock<T> - 1, kTreeBlock<T> + 1};
}

TEST(MergeTreeProperty, Int64MatchesReference) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const auto lengths = edge_lengths<std::int64_t>();
  for (const std::size_t k : {3, 4, 5, 8, 9, 64}) {
    for (int kind = 0; kind < 4; ++kind) {
      // One pass per uniform run length, then three with mixed lengths.
      for (std::size_t pass = 0; pass < lengths.size() + 3; ++pass) {
        Gen g(k * 1000 + static_cast<std::size_t>(kind) * 100 + pass);
        std::vector<std::vector<std::int64_t>> runs(k);
        std::vector<std::int64_t> expect;
        for (auto& r : runs) {
          r.resize(pass < lengths.size()
                       ? lengths[pass]
                       : lengths[g.below(lengths.size())]);
          for (auto& v : r) {
            switch (kind) {
              case 0: v = static_cast<std::int64_t>(g.u64()); break;
              case 1: v = 42; break;
              case 2: v = g.int_in(-2, 2); break;
              default: v = g.boolean() ? kMin : kMax; break;
            }
          }
          std::sort(r.begin(), r.end());
          expect.insert(expect.end(), r.begin(), r.end());
        }
        std::sort(expect.begin(), expect.end());
        EXPECT_EQ(tree_merge(runs, std::less<>{}), expect)
            << "k=" << k << " kind=" << kind << " pass=" << pass;
      }
    }
  }
}

TEST(MergeTreeProperty, TaggedStableAcrossBlocks) {
  // Tagged takes the scalar kernel; duplicate keys pin the tie order of
  // every node, including across block refills.
  const auto lengths = edge_lengths<Tagged>();
  for (const std::size_t k : {3, 4, 5, 8, 9, 64}) {
    for (const std::int64_t bound : {std::int64_t{1}, std::int64_t{4}}) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        Gen g(k * 100 + static_cast<std::uint64_t>(bound) * 10 + seed);
        std::vector<std::vector<Tagged>> runs(k);
        for (std::uint32_t i = 0; i < k; ++i) {
          runs[i].resize(lengths[g.below(lengths.size())]);
          std::vector<std::int64_t> keys(runs[i].size());
          for (auto& key : keys) key = g.int_in(0, bound - 1);
          std::sort(keys.begin(), keys.end());
          for (std::uint32_t p = 0; p < keys.size(); ++p) {
            runs[i][p] = Tagged{keys[p], i, p};
          }
        }
        EXPECT_EQ(tree_merge(runs, TaggedKeyLess{}), reference_merge(runs))
            << "k=" << k << " bound=" << bound << " seed=" << seed;
      }
    }
  }
}

TEST(MergeTree, ExactScratchSuffices) {
  // 64 Ki elements through a tree whose scratch is (k - 2) blocks —
  // far less than the output.
  EXPECT_EQ(merge_tree_scratch<std::int64_t>(8), 6 * kTreeBlock<std::int64_t>);
  EXPECT_EQ(merge_tree_scratch<std::int64_t>(2), 0u);
  EXPECT_EQ(kTreeBlock<std::int64_t>, kTreeBlockBytes / 8);
  Gen g(64);
  for (const std::size_t k : {3, 8}) {
    std::vector<std::vector<std::int64_t>> runs(k);
    std::vector<std::int64_t> expect;
    for (auto& r : runs) {
      r.resize((std::size_t{64} << 10) / k);
      for (auto& v : r) v = static_cast<std::int64_t>(g.u64());
      std::sort(r.begin(), r.end());
      expect.insert(expect.end(), r.begin(), r.end());
    }
    std::sort(expect.begin(), expect.end());
    ASSERT_LT(merge_tree_scratch<std::int64_t>(k), expect.size());
    EXPECT_EQ(tree_merge(runs, std::less<>{}), expect) << "k=" << k;
  }
}

/// Cursor offsets and output buffer after one bounded two-run merge.
struct BoundedResult {
  std::ptrdiff_t a = 0;
  std::ptrdiff_t b = 0;
  std::ptrdiff_t out = 0;
  std::vector<std::int64_t> buf;

  friend bool operator==(const BoundedResult&,
                         const BoundedResult&) = default;
};

/// Runs `step` over a and b into an output of `capacity` slots followed
/// by a sentinel tail, so a write past the bound shows in `buf`.
template <typename Step>
BoundedResult run_bounded(const std::vector<std::int64_t>& a,
                          const std::vector<std::int64_t>& b,
                          std::size_t capacity, Step step) {
  BoundedResult r;
  r.buf.assign(capacity + 8, -7);
  const std::int64_t* ca = a.data();
  const std::int64_t* cb = b.data();
  std::int64_t* co = r.buf.data();
  step(ca, a.data() + a.size(), cb, b.data() + b.size(), co,
       r.buf.data() + capacity);
  r.a = ca - a.data();
  r.b = cb - b.data();
  r.out = co - r.buf.data();
  return r;
}

/// Seeded sorted int64 input for the bounded-step tests; small value
/// ranges force ties across the two runs.
std::vector<std::int64_t> sorted_int64(Gen& g, std::size_t len,
                                       std::int64_t bound) {
  std::vector<std::int64_t> v(len);
  for (auto& x : v) x = g.int_in(-bound, bound);
  std::sort(v.begin(), v.end());
  return v;
}

const auto kScalarStep = [](const std::int64_t*& a, const std::int64_t* ae,
                            const std::int64_t*& b, const std::int64_t* be,
                            std::int64_t*& o, std::int64_t* oe) {
  detail::merge_two_bounded_scalar(a, ae, b, be, o, oe, std::less<>{});
};

TEST(MergeTwoBounded, Avx512StepMatchesScalarCursorsAndBytes) {
#if defined(__x86_64__)
  if (!detail::cpu_has_avx512f()) GTEST_SKIP() << "CPU lacks avx512f";
  const auto vector_then_scalar =
      [](const std::int64_t*& a, const std::int64_t* ae,
         const std::int64_t*& b, const std::int64_t* be, std::int64_t*& o,
         std::int64_t* oe) {
        detail::merge_two_bounded_avx512(a, ae, b, be, o, oe);
        kScalarStep(a, ae, b, be, o, oe);
      };
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Gen g(seed + 555);
    const std::int64_t bound = seed % 2 == 0 ? 3 : 1'000'000;
    const auto a = sorted_int64(g, g.size_in(0, 70), bound);
    const auto b = sorted_int64(g, g.size_in(0, 70), bound);
    for (const std::size_t capacity : {0, 7, 8, 9, 64}) {
      // The whole bounded merge: vector steps, then the scalar tail.
      EXPECT_EQ(run_bounded(a, b, capacity, vector_then_scalar),
                run_bounded(a, b, capacity, kScalarStep))
          << "seed=" << seed << " capacity=" << capacity;
      // The vector steps alone stop on an 8-element boundary with the
      // cursors the scalar merge reaches after as many outputs.
      const BoundedResult vec = run_bounded(
          a, b, capacity,
          [](const std::int64_t*& ca, const std::int64_t* ae,
             const std::int64_t*& cb, const std::int64_t* be,
             std::int64_t*& o, std::int64_t* oe) {
            detail::merge_two_bounded_avx512(ca, ae, cb, be, o, oe);
          });
      const BoundedResult scalar = run_bounded(
          a, b, static_cast<std::size_t>(vec.out), kScalarStep);
      EXPECT_EQ(vec.out % 8, 0) << "seed=" << seed;
      EXPECT_EQ(vec.a, scalar.a) << "seed=" << seed;
      EXPECT_EQ(vec.b, scalar.b) << "seed=" << seed;
      EXPECT_EQ(vec.out, scalar.out) << "seed=" << seed;
      EXPECT_TRUE(std::equal(vec.buf.begin(), vec.buf.begin() + vec.out,
                             scalar.buf.begin()))
          << "seed=" << seed << " capacity=" << capacity;
      EXPECT_TRUE(std::all_of(vec.buf.begin() + vec.out, vec.buf.end(),
                              [](std::int64_t v) { return v == -7; }))
          << "seed=" << seed << " capacity=" << capacity;
    }
  }
#else
  GTEST_SKIP() << "AVX-512 kernel is x86-64 only";
#endif
}

TEST(MergeTwoBounded, DispatchMatchesScalar) {
  // The dispatching entry point (AVX-512 where the CPU has it) against
  // the scalar kernel alone, extremes and ties included.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Gen g(seed + 9001);
    auto a = sorted_int64(g, g.size_in(0, 100), 5);
    auto b = sorted_int64(g, g.size_in(0, 100), 5);
    if (seed % 3 == 0) {
      for (auto& v : a) v = v < 0 ? kMin : (v > 0 ? kMax : 0);
      for (auto& v : b) v = v < 0 ? kMin : (v > 0 ? kMax : 0);
    }
    for (const std::size_t capacity : {0, 7, 8, 9, 64, 200}) {
      const auto dispatch = [](const std::int64_t*& ca,
                               const std::int64_t* ae,
                               const std::int64_t*& cb,
                               const std::int64_t* be, std::int64_t*& o,
                               std::int64_t* oe) {
        merge_two_bounded(ca, ae, cb, be, o, oe, std::less<>{});
      };
      EXPECT_EQ(run_bounded(a, b, capacity, dispatch),
                run_bounded(a, b, capacity, kScalarStep))
          << "seed=" << seed << " capacity=" << capacity;
    }
  }
}

}  // namespace
}  // namespace mlm::sort
