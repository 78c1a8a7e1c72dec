// Kernel microbenchmarks: the three hot-path layers PR 5 optimizes,
// each measured as a before/after pair so one artifact shows the win
// and bench_compare can gate regressions.
//
//   kmerge/{before,after}/...   the seed loser tree (index nodes,
//                               comparisons through run cursors, one
//                               replay per pop) vs the shipped
//                               multiway_merge hybrid (cached-key
//                               streak extraction + cascade handoff)
//   two_run/{std,unrolled}      std::merge vs the branch-light 4-way
//                               unrolled two-run merge
//   copy/{cached,streaming}     std::memcpy vs non-temporal stores
//   dispatch/{submit_each,bulk} one promise+lock round trip per task
//                               vs one submit_slices batch
//   radix/{scalar,dispatch}/... the per-thread int64 radix sort on its
//                               scalar kernel vs the kernel radix_sort
//                               picks for this CPU (the write-combining
//                               MSD scatter and the network finish on
//                               AVX-512F), one sort or four at once
//   record/{std_sort,radix}/... the per-thread Record64 sort: std::sort
//                               vs the stable (key, index) radix sort,
//                               one sort or four at once
//
// Every case records a deterministic digest of its output next to the
// wall-clock samples: the before/after variants of one kernel must
// produce identical digests (same bytes, different speed), and the
// digests are seeded-stable so bench_compare's metric check pins them.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <future>
#include <iterator>
#include <limits>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mlm/parallel/parallel_memcpy.h"
#include "mlm/parallel/stream_copy.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/sort/input_gen.h"
#include "mlm/sort/loser_tree.h"
#include "mlm/sort/merge_kernels.h"
#include "mlm/sort/multiway_merge.h"
#include "mlm/sort/radix_sort.h"
#include "mlm/sort/record.h"
#include "mlm/sort/serial_sort.h"
#include "mlm/support/proptest.h"
#include "mlm/support/rng.h"
#include "mlm/support/table.h"
#include "suites.h"

namespace mlm::bench::suites {

namespace {

/// The pre-optimization k-way merge, kept verbatim as the honest
/// "before" side of the kmerge pair: internal nodes hold run *indices*,
/// every comparison re-dereferences both run cursors and re-checks
/// exhaustion, and each element pays a full leaf-to-root replay.
namespace seed {
template <typename It, typename Comp = std::less<>>
class LoserTree {
 public:
  using value_type = typename std::iterator_traits<It>::value_type;
  explicit LoserTree(std::size_t k, Comp comp = {})
      : k_(k), comp_(comp), runs_(k), tree_(std::max<std::size_t>(k, 2)) {}
  void set_run(std::size_t i, It begin, It end) {
    runs_[i] = Run{begin, end};
  }
  void init() { winner_ = build(1); }
  bool empty() const {
    return winner_ == kInvalid || runs_[winner_].exhausted();
  }
  value_type pop() {
    Run& r = runs_[winner_];
    value_type v = *r.cur;
    ++r.cur;
    replay_from(winner_);
    return v;
  }

 private:
  static constexpr std::size_t kInvalid =
      std::numeric_limits<std::size_t>::max();
  struct Run {
    It cur{};
    It end{};
    bool exhausted() const { return cur == end; }
  };
  bool beats(std::size_t a, std::size_t b) const {
    if (a == kInvalid) return false;
    if (b == kInvalid) return true;
    const bool a_done = runs_[a].exhausted();
    const bool b_done = runs_[b].exhausted();
    if (a_done != b_done) return b_done;
    if (a_done && b_done) return a < b;
    if (comp_(*runs_[a].cur, *runs_[b].cur)) return true;
    if (comp_(*runs_[b].cur, *runs_[a].cur)) return false;
    return a < b;
  }
  std::size_t build(std::size_t node) {
    if (node >= k_) return node - k_;
    const std::size_t l = build(2 * node);
    const std::size_t r = build(2 * node + 1);
    if (beats(l, r)) {
      tree_[node] = r;
      return l;
    }
    tree_[node] = l;
    return r;
  }
  void replay_from(std::size_t leaf) {
    std::size_t contender = leaf;
    for (std::size_t node = (leaf + k_) / 2; node >= 1; node /= 2) {
      if (beats(tree_[node], contender)) std::swap(tree_[node], contender);
      if (node == 1) break;
    }
    winner_ = contender;
  }
  std::size_t k_;
  Comp comp_;
  std::vector<Run> runs_;
  std::vector<std::size_t> tree_;
  std::size_t winner_ = kInvalid;
};
}  // namespace seed

std::uint64_t g_merge_elements = 1 << 21;  // 16 MiB of int64
std::uint64_t g_copy_mib = 64;
std::uint64_t g_dispatch_tasks = 4096;
/// Keys per radix sort: one flat_sort thread's chunk.
constexpr std::uint64_t kRadixElements = 1 << 21;
/// Records per record sort: one service_sort thread's chunk.
constexpr std::size_t kRecordElements = 1 << 14;

const char* const kRadixInputs[] = {"uniform", "few"};
const std::size_t kRadixSorts[] = {1, 4};

const std::size_t kKs[] = {8, 64};
const char* const kInputs[] = {"random", "dups"};

/// Sorted runs totalling `total` elements; "dups" draws from 16
/// distinct keys, the streak-friendly shape, "random" from 2^32.
std::vector<std::vector<std::int64_t>> make_runs(std::size_t k,
                                                 std::size_t total,
                                                 const std::string& input,
                                                 std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  const std::uint64_t limit =
      input == "dups" ? 16 : (std::uint64_t{1} << 32);
  std::vector<std::vector<std::int64_t>> runs(k);
  for (std::size_t i = 0; i < k; ++i) {
    runs[i].resize(total / k + (i < total % k ? 1 : 0));
    for (auto& v : runs[i]) {
      v = static_cast<std::int64_t>(rng.bounded(limit));
    }
    std::sort(runs[i].begin(), runs[i].end());
  }
  return runs;
}

void add_kmerge_case(Suite& suite, const char* variant, std::size_t k,
                     const std::string& input) {
  suite.add_case(
      std::string("kmerge/") + variant + "/k" + std::to_string(k) + "/" +
          input,
      [=](BenchContext& ctx) {
        const auto total = static_cast<std::size_t>(
            ctx.scaled(g_merge_elements, 1 << 16));
        ctx.param("k", static_cast<std::uint64_t>(k));
        ctx.param("elements", static_cast<std::uint64_t>(total));
        ctx.param("input", input);
        const auto runs = make_runs(k, total, input, ctx.seed());
        std::vector<std::int64_t> out(total);
        const bool after = std::string(variant) == "after";
        if (after) {
          // The shipped sequential entry point: cached-key streak
          // extraction with the probe-driven cascade handoff.
          std::vector<std::span<const std::int64_t>> spans(runs.begin(),
                                                           runs.end());
          ctx.measure("seconds", [&] {
            sort::multiway_merge(
                std::span<const std::span<const std::int64_t>>(spans),
                std::span<std::int64_t>(out));
          });
        } else {
          ctx.measure("seconds", [&] {
            seed::LoserTree<const std::int64_t*> lt(k);
            for (std::size_t i = 0; i < k; ++i) {
              lt.set_run(i, runs[i].data(),
                         runs[i].data() + runs[i].size());
            }
            lt.init();
            for (std::size_t i = 0; !lt.empty(); ++i) out[i] = lt.pop();
          });
        }
        ctx.metric("digest", static_cast<double>(
                                 digest_of<std::int64_t>(out) >> 32));
      });
}

void add_two_run_case(Suite& suite, const char* variant) {
  suite.add_case(std::string("two_run/") + variant,
                 [=](BenchContext& ctx) {
    const auto total = static_cast<std::size_t>(
        ctx.scaled(g_merge_elements, 1 << 16));
    ctx.param("elements", static_cast<std::uint64_t>(total));
    const auto runs = make_runs(2, total, "random", ctx.seed());
    std::vector<std::int64_t> out(total);
    const bool unrolled = std::string(variant) == "unrolled";
    ctx.measure("seconds", [&] {
      if (unrolled) {
        sort::merge_two_runs(
            runs[0].data(), runs[0].data() + runs[0].size(),
            runs[1].data(), runs[1].data() + runs[1].size(), out.data(),
            std::less<>{});
      } else {
        std::merge(runs[0].begin(), runs[0].end(), runs[1].begin(),
                   runs[1].end(), out.begin());
      }
    });
    ctx.metric("digest", static_cast<double>(
                             digest_of<std::int64_t>(out) >> 32));
  });
}

void add_copy_case(Suite& suite, const char* variant) {
  suite.add_case(std::string("copy/") + variant, [=](BenchContext& ctx) {
    const auto bytes = static_cast<std::size_t>(
        ctx.scaled(g_copy_mib << 20, 1 << 20));
    // Copy slice-at-a-time the way parallel_memcpy issues work: one call
    // per ~1 MiB slice.  A single huge memcpy is the wrong baseline —
    // glibc switches to non-temporal stores itself past ~3/4 of LLC, so
    // the contrast the pipeline actually sees (cache-allocating slice
    // copies paying read-for-ownership vs streaming stores) only shows
    // at slice granularity.
    const std::size_t slice = std::min<std::size_t>(bytes, 1 << 20);
    ctx.param("bytes", static_cast<std::uint64_t>(bytes));
    ctx.param("slice_bytes", static_cast<std::uint64_t>(slice));
    ctx.param("streaming_supported",
              static_cast<std::uint64_t>(stream_copy_supported()));
    Xoshiro256ss rng(ctx.seed());
    std::vector<std::uint64_t> src(bytes / sizeof(std::uint64_t));
    for (auto& v : src) v = rng.next();
    std::vector<std::uint64_t> dst(src.size());
    const bool streaming = std::string(variant) == "streaming";
    auto* s = reinterpret_cast<const unsigned char*>(src.data());
    auto* d = reinterpret_cast<unsigned char*>(dst.data());
    ctx.measure("seconds", [&] {
      for (std::size_t off = 0; off < bytes; off += slice) {
        const std::size_t n = std::min(slice, bytes - off);
        if (streaming) {
          memcpy_streaming(d + off, s + off, n);
        } else {
          std::memcpy(d + off, s + off, n);
        }
      }
    });
    ctx.metric("digest", static_cast<double>(
                             digest_of<std::uint64_t>(dst) >> 32));
  });
}

void add_dispatch_case(Suite& suite, const char* variant) {
  suite.add_case(std::string("dispatch/") + variant,
                 [=](BenchContext& ctx) {
    const auto tasks = static_cast<std::size_t>(
        ctx.scaled(g_dispatch_tasks, 256));
    ctx.param("tasks", static_cast<std::uint64_t>(tasks));
    ThreadPool pool(2, "bench-dispatch");
    std::vector<std::uint64_t> cell(tasks, 0);
    const bool bulk = std::string(variant) == "bulk";
    ctx.measure("seconds", [&] {
      auto* cells = cell.data();
      if (bulk) {
        std::vector<std::future<void>> futs;
        futs.push_back(pool.submit_slices(
            tasks, [cells](std::size_t i) { cells[i] += i; }));
        pool.wait(futs);
      } else {
        std::vector<std::future<void>> futs;
        futs.reserve(tasks);
        for (std::size_t i = 0; i < tasks; ++i) {
          futs.push_back(pool.submit([cells, i] { cells[i] += i; }));
        }
        pool.wait(futs);
      }
    });
    // Every task ran exactly once per repetition: cell[i] is a
    // multiple of i with a deterministic total.
    ctx.metric("tasks_done", static_cast<double>(cell.size()));
  });
}

/// Times `base.size()` sorts run at once on as many threads, sort t on
/// its own copy of base[t] with its own scratch: every repetition first
/// restores the copies untimed.  Records the samples as "seconds" and
/// the XOR of the outputs' digests as "digest".
template <typename T, typename SortOne>
void measure_sorts(BenchContext& ctx,
                   const std::vector<std::vector<T>>& base,
                   const SortOne& sort_one) {
  const std::size_t sorts = base.size();
  std::vector<std::vector<T>> data(sorts);
  std::vector<std::vector<T>> scratch(sorts);
  for (std::size_t t = 0; t < sorts; ++t) scratch[t].resize(base[t].size());
  const auto sort_t = [&](std::size_t t) {
    sort_one(std::span<T>(data[t]), std::span<T>(scratch[t]));
  };
  ThreadPool pool(sorts, "bench-sort");
  ctx.measure("seconds", [&] { data = base; }, [&] {
    if (sorts == 1) {
      sort_t(0);
    } else {
      std::vector<std::future<void>> futs;
      futs.push_back(pool.submit_slices(sorts, sort_t));
      pool.wait(futs);
    }
  });
  std::uint64_t digest = 0;
  for (const auto& d : data) digest ^= digest_of<T>(d);
  ctx.metric("digest", static_cast<double>(digest >> 32));
}

/// `sorts` radix sorts of `elements` int64 each, run at once (see
/// measure_sorts); "uniform" keys are random 64-bit, "few" draws from
/// 16 distinct keys.
void add_radix_case(Suite& suite, const char* variant, std::size_t sorts,
                    const std::string& input) {
  suite.add_case(
      std::string("radix/") + variant + "/x" + std::to_string(sorts) + "/" +
          input,
      [=](BenchContext& ctx) {
        const auto n = static_cast<std::size_t>(
            ctx.scaled(kRadixElements, 1 << 16));
        ctx.param("elements", static_cast<std::uint64_t>(n));
        ctx.param("sorts", static_cast<std::uint64_t>(sorts));
        ctx.param("input", input);
        const sort::InputOrder order = input == "few"
                                           ? sort::InputOrder::FewDistinct
                                           : sort::InputOrder::Random;
        std::vector<std::vector<std::int64_t>> base(sorts);
        for (std::size_t t = 0; t < sorts; ++t) {
          base[t] = sort::make_input(n, order, ctx.seed() + t);
        }
        const bool scalar = std::string(variant) == "scalar";
        measure_sorts(ctx, base,
                      [scalar](std::span<std::int64_t> data,
                               std::span<std::int64_t> tmp) {
                        if (scalar) {
                          sort::radix_detail::radix_sort_kernel<false>(data,
                                                                       tmp);
                        } else {
                          sort::radix_sort(data, tmp);
                        }
                      });
      });
}

/// `sorts` sorts of kRecordElements Record64 each, run at once (see
/// measure_sorts): std::sort, the per-thread record sort before the
/// radix path, against serial_sort's stable radix_sort_records.  The
/// inputs are generate_records' ("few": 16 distinct keys).
void add_record_case(Suite& suite, const char* variant, std::size_t sorts,
                     const std::string& input) {
  suite.add_case(
      std::string("record/") + variant + "/x" + std::to_string(sorts) +
          "/" + input,
      [=](BenchContext& ctx) {
        ctx.param("elements", static_cast<std::uint64_t>(kRecordElements));
        ctx.param("sorts", static_cast<std::uint64_t>(sorts));
        ctx.param("input", input);
        const sort::InputOrder order = input == "few"
                                           ? sort::InputOrder::FewDistinct
                                           : sort::InputOrder::Random;
        std::vector<std::vector<sort::Record64>> base(sorts);
        for (std::size_t t = 0; t < sorts; ++t) {
          base[t].resize(kRecordElements);
          sort::generate_records(std::span<sort::Record64>(base[t]), order,
                                 ctx.seed() + t);
        }
        const bool radix = std::string(variant) == "radix";
        measure_sorts(ctx, base,
                      [radix](std::span<sort::Record64> data,
                              std::span<sort::Record64> tmp) {
                        if (radix) {
                          sort::serial_sort(data, tmp);
                        } else {
                          std::sort(data.begin(), data.end());
                        }
                      });
      });
}

// Min over repetitions: the robust statistic for single-machine
// microbenchmarks — every source of interference (preemption, frequency
// ramps, page faults) only ever adds time, so the minimum is the
// closest observable to the kernel's true cost.  All samples still land
// in the JSON artifact for anyone who wants the distribution.
double best_seconds(const RunReport& report, const std::string& name) {
  const CaseResult* c = report.find("kernel_micro/" + name);
  if (c == nullptr) return 0.0;
  const Metric* m = c->find_metric("seconds");
  return m == nullptr ? 0.0 : m->summary().min;
}

void view(const RunReport& report, std::ostream& out) {
  out << "=== Kernel microbenchmarks (before vs after, best of N) ===\n\n";
  TextTable table({"Kernel", "Before(s)", "After(s)", "Speedup"});
  auto row = [&](const std::string& label, const std::string& before,
                 const std::string& after) {
    const double b = best_seconds(report, before);
    const double a = best_seconds(report, after);
    table.add_row({label, fmt_double(b, 4), fmt_double(a, 4),
                   a > 0.0 ? fmt_double(b / a, 2) + "x" : "-"});
  };
  for (std::size_t k : kKs) {
    for (const char* input : kInputs) {
      const std::string tail =
          "/k" + std::to_string(k) + "/" + input;
      row("kmerge" + tail, "kmerge/before" + tail,
          "kmerge/after" + tail);
    }
  }
  row("two_run", "two_run/std", "two_run/unrolled");
  row("copy", "copy/cached", "copy/streaming");
  row("dispatch", "dispatch/submit_each", "dispatch/bulk");
  for (const std::size_t sorts : kRadixSorts) {
    for (const char* input : kRadixInputs) {
      const std::string tail =
          "/x" + std::to_string(sorts) + "/" + input;
      row("radix" + tail, "radix/scalar" + tail, "radix/dispatch" + tail);
    }
  }
  for (const std::size_t sorts : kRadixSorts) {
    for (const char* input : kRadixInputs) {
      const std::string tail =
          "/x" + std::to_string(sorts) + "/" + input;
      row("record" + tail, "record/std_sort" + tail, "record/radix" + tail);
    }
  }
  table.print(out);
  out << "\nBefore/after variants of one kernel emit identical "
         "digests (same bytes, different speed), except record/*/few: "
         "std::sort leaves equal keys in another order than the stable "
         "radix sort.  Digests are seed-stable, so bench_compare pins "
         "them.\n";
}

}  // namespace

void register_kernel_micro(Harness& h) {
  Suite suite = h.suite(
      "kernel_micro",
      "Merge, copy, and dispatch kernel microbenchmarks: each hot-path "
      "kernel measured against its pre-optimization baseline");
  suite.cli().add_uint("kmicro-merge-elements", &g_merge_elements,
                       "k-way merge size in int64 elements");
  suite.cli().add_uint("kmicro-copy-mib", &g_copy_mib,
                       "large-copy size in MiB");
  suite.cli().add_uint("kmicro-dispatch-tasks", &g_dispatch_tasks,
                       "tasks per dispatch round");

  for (std::size_t k : kKs) {
    for (const char* input : kInputs) {
      add_kmerge_case(suite, "before", k, input);
      add_kmerge_case(suite, "after", k, input);
    }
  }
  add_two_run_case(suite, "std");
  add_two_run_case(suite, "unrolled");
  add_copy_case(suite, "cached");
  add_copy_case(suite, "streaming");
  add_dispatch_case(suite, "submit_each");
  add_dispatch_case(suite, "bulk");
  for (const std::size_t sorts : kRadixSorts) {
    for (const char* input : kRadixInputs) {
      add_radix_case(suite, "scalar", sorts, input);
      add_radix_case(suite, "dispatch", sorts, input);
    }
  }
  for (const std::size_t sorts : kRadixSorts) {
    for (const char* input : kRadixInputs) {
      add_record_case(suite, "std_sort", sorts, input);
      add_record_case(suite, "radix", sorts, input);
    }
  }
  suite.set_view(view);
}

}  // namespace mlm::bench::suites
