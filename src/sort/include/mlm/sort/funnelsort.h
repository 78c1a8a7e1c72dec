// Lazy funnelsort: the cache-oblivious alternative the paper's related
// work points at (§2.1: "cache-oblivious versions of our algorithms
// might eventually perform as well without requiring tuning per
// machine", citing Frigo et al. and Brodal/Fagerberg/Vinther's
// engineered Lazy Funnelsort).
//
// Structure (Brodal & Fagerberg): sort splits the input into
// ceil(n^(1/3)) segments of ~n^(2/3) elements, sorts each recursively,
// and merges them with a k-funnel — a binary tree of mergers whose edge
// buffers grow with subtree size (a subtree over m leaves gets an output
// buffer of ~m^(3/2) elements) and are refilled lazily.  Every level of
// the funnel works on a buffer that fits *some* level of the cache
// hierarchy without knowing its size, which is the cache-oblivious
// property MLM-sort obtains only by explicit MCDRAM-sized chunking.
//
// This is a faithful, testable implementation of the algorithm, not a
// micro-optimized contender; bench_ablation_funnelsort compares it
// against serial_sort and the chunk-tuned sorts.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "mlm/sort/serial_sort.h"
#include "mlm/support/error.h"

namespace mlm::sort {

namespace funnel_detail {

/// A node of the k-funnel: a binary merger with an output buffer.
/// Leaves wrap input runs.
template <typename T, typename Comp>
struct FunnelNode {
  // Leaf state.
  const T* run_begin = nullptr;
  const T* run_end = nullptr;

  // Internal state.
  std::unique_ptr<FunnelNode> left;
  std::unique_ptr<FunnelNode> right;
  std::vector<T> buffer;   // FIFO; `head` indexes the next element
  std::size_t head = 0;
  bool exhausted_ = false;

  bool is_leaf() const { return left == nullptr; }

  std::size_t buffered() const { return buffer.size() - head; }

  bool exhausted() const {
    if (is_leaf()) return run_begin == run_end;
    return exhausted_ && buffered() == 0;
  }

  /// Refill this node's buffer up to its capacity by (recursively)
  /// draining the children — the "lazy" part: work happens only when a
  /// parent actually needs elements.
  void fill(std::size_t capacity, Comp& comp) {
    if (is_leaf()) return;
    // Compact consumed prefix.
    if (head > 0) {
      buffer.erase(buffer.begin(),
                   buffer.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
    while (buffer.size() < capacity) {
      // Ensure both children can be inspected.
      left->ensure_nonempty(comp);
      right->ensure_nonempty(comp);
      const bool l_empty = left->empty_now();
      const bool r_empty = right->empty_now();
      if (l_empty && r_empty) {
        exhausted_ = true;
        return;
      }
      if (l_empty) {
        buffer.push_back(right->pop());
      } else if (r_empty) {
        buffer.push_back(left->pop());
      } else if (comp(right->peek(), left->peek())) {
        buffer.push_back(right->pop());
      } else {
        buffer.push_back(left->pop());
      }
    }
  }

  // --- element access used by the parent merger ---
  bool empty_now() const {
    if (is_leaf()) return run_begin == run_end;
    return buffered() == 0;
  }

  void ensure_nonempty(Comp& comp) {
    if (is_leaf() || buffered() > 0 || exhausted_) return;
    fill(capacity_hint, comp);
  }

  const T& peek() const {
    return is_leaf() ? *run_begin : buffer[head];
  }

  T pop() {
    if (is_leaf()) return *run_begin++;
    return buffer[head++];
  }

  std::size_t capacity_hint = 0;
};

/// Build a funnel over runs[lo, hi); buffer capacities follow the
/// m^(3/2) rule with a small floor.
template <typename T, typename Comp>
std::unique_ptr<FunnelNode<T, Comp>> build_funnel(
    const std::vector<std::pair<const T*, const T*>>& runs, std::size_t lo,
    std::size_t hi) {
  auto node = std::make_unique<FunnelNode<T, Comp>>();
  if (hi - lo == 1) {
    node->run_begin = runs[lo].first;
    node->run_end = runs[lo].second;
    return node;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  node->left = build_funnel<T, Comp>(runs, lo, mid);
  node->right = build_funnel<T, Comp>(runs, mid, hi);
  const double m = static_cast<double>(hi - lo);
  node->capacity_hint = std::max<std::size_t>(
      16, static_cast<std::size_t>(std::ceil(std::pow(m, 1.5))) * 8);
  return node;
}

}  // namespace funnel_detail

/// Merge `runs` (each sorted) into `out` with a lazy k-funnel.
template <typename T, typename Comp = std::less<>>
void funnel_merge(const std::vector<std::pair<const T*, const T*>>& runs,
                  std::span<T> out, Comp comp = {}) {
  std::size_t total = 0;
  for (const auto& [b, e] : runs) {
    total += static_cast<std::size_t>(e - b);
  }
  MLM_REQUIRE(out.size() == total, "output size must equal total runs");
  if (total == 0) return;
  MLM_REQUIRE(!runs.empty(), "need at least one run");

  auto root =
      funnel_detail::build_funnel<T, Comp>(runs, 0, runs.size());
  T* o = out.data();
  if (root->is_leaf()) {
    o = std::copy(root->run_begin, root->run_end, o);
    return;
  }
  // Drain the root: refill its buffer lazily and stream it out.
  while (!root->exhausted()) {
    root->fill(root->capacity_hint, comp);
    while (root->buffered() > 0) *o++ = root->pop();
  }
  MLM_CHECK(o == out.data() + out.size());
}

/// Lazy funnelsort.  Sorts `data` using `scratch` (same size) as the
/// merge target; result ends in `data`.
template <typename T, typename Comp = std::less<>>
void funnelsort(std::span<T> data, std::span<T> scratch, Comp comp = {}) {
  MLM_REQUIRE(scratch.size() >= data.size(),
              "scratch must be at least input size");
  const std::size_t n = data.size();
  // Base case: cache-resident sizes go straight to the serial sort (the
  // engineered Lazy Funnelsort does the same).
  constexpr std::size_t kBase = 4096;
  if (n <= kBase) {
    serial_sort(data.begin(), data.end(), comp);
    return;
  }

  // ceil(n^(1/3)) segments of ~n^(2/3) elements.
  const auto k = static_cast<std::size_t>(
      std::ceil(std::cbrt(static_cast<double>(n))));
  const std::size_t seg = (n + k - 1) / k;

  std::vector<std::pair<const T*, const T*>> runs;
  runs.reserve(k);
  for (std::size_t off = 0; off < n; off += seg) {
    const std::size_t len = std::min(seg, n - off);
    funnelsort(data.subspan(off, len), scratch.subspan(off, len), comp);
    runs.emplace_back(data.data() + off, data.data() + off + len);
  }

  funnel_merge(runs, scratch.subspan(0, n), comp);
  std::copy(scratch.begin(), scratch.begin() + static_cast<std::ptrdiff_t>(n),
            data.begin());
}

/// Convenience overload allocating its own scratch.
template <typename T, typename Comp = std::less<>>
void funnelsort(std::span<T> data, Comp comp = {}) {
  std::vector<T> scratch(data.size());
  funnelsort(data, std::span<T>(scratch), comp);
}

}  // namespace mlm::sort
