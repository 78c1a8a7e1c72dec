// Two-run merge kernels and the buffered two-way merge tree.
//
// Two-run merges are the k == 2 fast path of multiway_merge and every
// node of the merge tree; std::merge compiles to an unpredictable
// branch per element, which stalls the in-order-ish KNL cores the paper
// targets.  The scalar kernel instead selects each output element with
// a conditional move (take_b ? *b : *a) and advances the cursors by the
// comparison result, so the inner loop has no data-dependent branch.
// Its main loop is 4-way unrolled and only runs while every cursor has
// at least 4 slots left, which removes the per-element bound checks.
//
// For std::int64_t under std::less, merge_two_bounded first runs an
// AVX-512F kernel (8 lanes, KNL's vector ISA) when the CPU has it; see
// detail::merge_two_bounded_avx512.  The element type, the comparator
// and CPUID are the only dispatch.  Equal int64 values cannot be told
// apart, so both kernels produce the same bytes.
//
// Stability: b is taken only when comp(*b, *a) is strictly true, so
// equal elements come out a-first — same tie-break as std::merge and as
// LoserTree's run-index ordering.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "mlm/sort/avx512_bitonic.h"
#include "mlm/support/error.h"

namespace mlm::sort {

namespace detail {

/// Scalar bounded two-run merge: merges from [a, a_end) and [b, b_end)
/// into [out, out_end) until the output is full or either input is
/// empty, advancing the three cursors.  Stable: ties favor run a.
template <typename T, typename Comp>
void merge_two_bounded_scalar(const T*& a, const T* a_end, const T*& b,
                              const T* b_end, T*& out, T* out_end,
                              Comp comp) {
  // Each unrolled step advances `out` and exactly one input cursor, so
  // four steps stay in bounds while every cursor entered with >= 4.
  while (a_end - a >= 4 && b_end - b >= 4 && out_end - out >= 4) {
    for (int step = 0; step < 4; ++step) {
      const bool take_b = comp(*b, *a);
      *out++ = take_b ? *b : *a;
      a += !take_b;
      b += take_b;
    }
  }
  while (a != a_end && b != b_end && out != out_end) {
    const bool take_b = comp(*b, *a);
    *out++ = take_b ? *b : *a;
    a += !take_b;
    b += take_b;
  }
}

/// The element and comparator the AVX-512 kernel serves: int64 under
/// std::less, the same test serial_sort uses for its radix path.
template <typename T, typename Comp>
inline constexpr bool kInt64Less =
    std::is_same_v<T, std::int64_t> &&
    (std::is_same_v<Comp, std::less<>> ||
     std::is_same_v<Comp, std::less<std::int64_t>>);

#if defined(__x86_64__)
/// AVX-512F bounded int64 merge; runs while each input and the output
/// have at least 8 slots and leaves the tails to the scalar kernel.
/// Each step compares a[0..8) against b[0..8) reversed: a[i] <= b[7-i]
/// holds for exactly the first na lanes, where na is the number of a's
/// elements among the next 8 outputs of the stable merge (the merge
/// path split, ties to a).  min(a, reverse(b)) holds exactly those 8
/// elements as a bitonic sequence, which one bitonic merge sorts.  No
/// register carries over between steps, so the output bound is exact.
__attribute__((target("avx512f"))) inline void merge_two_bounded_avx512(
    const std::int64_t*& a, const std::int64_t* a_end,
    const std::int64_t*& b, const std::int64_t* b_end, std::int64_t*& out,
    std::int64_t* out_end) {
  const __m512i reverse = _mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  while (a_end - a >= 8 && b_end - b >= 8 && out_end - out >= 8) {
    const __m512i va = _mm512_loadu_si512(a);
    const __m512i vb = _mm512_loadu_si512(b);
    const __m512i vb_rev = _mm512_permutex2var_epi64(vb, reverse, vb);
    const __mmask8 take_a = _mm512_cmple_epi64_mask(va, vb_rev);
    // Lanes in take_a hold min = a[i]; the others hold b[7 - i].
    const __m512i lo = _mm512_mask_blend_epi64(take_a, vb_rev, va);
    _mm512_storeu_si512(out, bitonic_sort8(lo));
    const int na = std::popcount(static_cast<unsigned>(take_a));
    a += na;
    b += 8 - na;
    out += 8;
  }
}
#endif

}  // namespace detail

/// Bounded two-run merge: merges from [a, a_end) and [b, b_end) into
/// [out, out_end) until the output is full or either input is empty,
/// advancing the three cursors.  The output may not overlap the inputs.
/// Stable: ties favor run a.
template <typename T, typename Comp>
void merge_two_bounded(const T*& a, const T* a_end, const T*& b,
                       const T* b_end, T*& out, T* out_end, Comp comp) {
#if defined(__x86_64__)
  if constexpr (detail::kInt64Less<T, Comp>) {
    if (detail::cpu_has_avx512f()) {
      detail::merge_two_bounded_avx512(a, a_end, b, b_end, out, out_end);
    }
  }
#endif
  detail::merge_two_bounded_scalar(a, a_end, b, b_end, out, out_end, comp);
}

/// Merge sorted [a, a_end) and [b, b_end) into `out` (which must hold
/// the combined length and may not overlap the inputs) with the scalar
/// kernel; returns the write cursor past the last element.  Stable:
/// ties favor run a.
template <typename T, typename Comp>
T* merge_two_runs(const T* a, const T* a_end, const T* b, const T* b_end,
                  T* out, Comp comp) {
  detail::merge_two_bounded_scalar(a, a_end, b, b_end, out,
                                   out + (a_end - a) + (b_end - b), comp);
  out = std::copy(a, a_end, out);
  return std::copy(b, b_end, out);
}

/// Bytes of one merge-tree node's output block: small enough that the
/// blocks of a k = 8 tree (192 KiB) stay in L2 beside the input streams.
inline constexpr std::size_t kTreeBlockBytes = std::size_t{32} << 10;

/// Elements per merge-tree block (at least 64).
template <typename T>
inline constexpr std::size_t kTreeBlock =
    std::max<std::size_t>(kTreeBlockBytes / sizeof(T), 64);

/// Scratch elements multiway_merge_cascade needs for k runs: one block
/// per internal node except the root, (k - 2) blocks; none for k <= 2.
template <typename T>
constexpr std::size_t merge_tree_scratch(std::size_t k) {
  return k > 2 ? (k - 2) * kTreeBlock<T> : 0;
}

/// k-way merge as a buffered binary tree of two-run merges.  The tree
/// splits the run index range in half at every level, so a left subtree
/// holds lower-indexed runs than its right sibling.  Every internal node
/// but the root owns a kTreeBlock<T> output block in `scratch` (at least
/// merge_tree_scratch<T>(runs.size()) elements) and refills it on
/// demand by merging its two children, which refill theirs when they
/// run dry; once one child is exhausted the other is copied through in
/// bulk.  The root writes straight into `out`.  Each element is read
/// from the runs once and written to `out` once; every level in between
/// stays in cache.  Compared with the loser tree this costs log2(k)
/// branch-free (or SIMD) steps per element instead of log2(k)
/// mispredicted comparisons, which wins when runs interleave finely
/// (few duplicates); the loser tree's streak extraction wins when long
/// same-run streaks exist.  multiway_merge probes and picks at runtime.
///
/// Stable: every node breaks ties toward its left child, which holds
/// the lower-indexed runs, so the output is byte-identical to the
/// loser-tree path.
template <typename T, typename Comp>
void multiway_merge_cascade(std::span<const std::span<const T>> runs,
                            std::span<T> out, std::span<T> scratch,
                            Comp comp) {
  const std::size_t k = runs.size();
  MLM_REQUIRE(scratch.size() >= merge_tree_scratch<T>(k),
              "merge tree needs (k - 2) blocks of scratch");
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  MLM_REQUIRE(out.size() == total, "output size must equal total run size");
  if (total == 0) return;
  if (k == 1) {
    std::copy(runs[0].begin(), runs[0].end(), out.begin());
    return;
  }

  // A node streams [cur, end).  A leaf's stream is its whole run; an
  // internal node's is the unread part of its block, and `done` marks
  // that no refill can add more.
  struct Node {
    const T* cur = nullptr;
    const T* end = nullptr;
    T* block = nullptr;
    std::size_t left = 0;
    std::size_t right = 0;
    bool done = true;
  };
  std::vector<Node> nodes;
  nodes.reserve(2 * k - 1);
  T* next_block = scratch.data();
  // Builds the subtree over runs [lo, hi) and returns its node index;
  // the root (built first, index 0) gets no block.
  auto build = [&](auto& self, std::size_t lo,
                   std::size_t hi) -> std::size_t {
    const std::size_t id = nodes.size();
    nodes.emplace_back();
    if (hi - lo == 1) {
      nodes[id].cur = runs[lo].data();
      nodes[id].end = runs[lo].data() + runs[lo].size();
      return id;
    }
    if (id != 0) {
      nodes[id].block = next_block;
      next_block += kTreeBlock<T>;
      nodes[id].cur = nodes[id].end = nodes[id].block;
      nodes[id].done = false;
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    const std::size_t left = self(self, lo, mid);
    const std::size_t right = self(self, mid, hi);
    nodes[id].left = left;
    nodes[id].right = right;
    return id;
  };
  build(build, 0, k);

  // Merges node n's children into [o, o_end) until it is full or both
  // children are exhausted; returns the write cursor.
  auto fill = [&](auto& self, std::size_t n, T* o, T* o_end) -> T* {
    // Refills child c's block once its reader has drained it.
    auto refill = [&](std::size_t c) {
      Node& child = nodes[c];
      if (child.cur != child.end || child.done) return;
      T* const e =
          self(self, c, child.block, child.block + kTreeBlock<T>);
      child.cur = child.block;
      child.end = e;
      child.done = e != child.block + kTreeBlock<T>;
    };
    Node& l = nodes[nodes[n].left];
    Node& r = nodes[nodes[n].right];
    while (o != o_end) {
      refill(nodes[n].left);
      refill(nodes[n].right);
      // After a refill an empty stream is an exhausted one.
      const bool l_dry = l.cur == l.end;
      const bool r_dry = r.cur == r.end;
      if (l_dry && r_dry) break;
      if (l_dry || r_dry) {
        Node& s = l_dry ? r : l;
        const auto len =
            std::min<std::ptrdiff_t>(s.end - s.cur, o_end - o);
        o = std::copy(s.cur, s.cur + len, o);
        s.cur += len;
      } else {
        merge_two_bounded(l.cur, l.end, r.cur, r.end, o, o_end, comp);
      }
    }
    return o;
  };
  T* const end = fill(fill, 0, out.data(), out.data() + total);
  MLM_CHECK_MSG(end == out.data() + total, "merge tree lost elements");
}

}  // namespace mlm::sort
