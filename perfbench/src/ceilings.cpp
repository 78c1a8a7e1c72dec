// Host Table 2 ceilings and standalone kernel rates.
//
// host.ddr_max_gbps is the best all-core copy bandwidth this process can
// reach with plain threads and no library code (bytes read plus bytes
// written, like STREAM Copy).  The library's copy paths are reported
// against it as *_ceiling_frac.  The sort kernels run on one thread at
// the sizes the calling workload uses.
#include <algorithm>
#include <cstring>
#include <functional>
#include <iterator>
#include <thread>
#include <vector>

#include "bench.h"
#include "mlm/parallel/parallel_memcpy.h"
#include "mlm/parallel/stream_copy.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/sort/merge_kernels.h"
#include "mlm/sort/multiway_merge.h"
#include "mlm/sort/record.h"
#include "mlm/sort/serial_sort.h"

namespace perfbench {

namespace {

constexpr int kTrials = 5;
constexpr std::size_t kHostThreads = 4;
/// The copy rounds span at least this long, so that a stretch in which
/// the host lends this guest fewer cores does not set a ceiling.
constexpr double kCopySpanSeconds = 1.5;

/// Shortest of kTrials runs of `run`, each after an untimed `prepare`.
/// Interference only adds time, so the shortest is the kernel's own.
template <typename Prepare, typename Run>
double best_seconds(Prepare&& prepare, Run&& run) {
  double best = 1e300;
  for (int t = 0; t < kTrials; ++t) {
    prepare();
    mlm::Stopwatch w;
    run();
    best = std::min(best, w.elapsed_s());
  }
  return best;
}

void fill_random(std::span<std::int64_t> v, std::uint64_t seed) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::int64_t>(mix64(seed ^ (i * 0x9e3779b97f4a7c15ULL)));
  }
}

/// `k` sorted runs of `n` elements each, concatenated.
std::vector<std::int64_t> sorted_runs(std::size_t k, std::size_t n,
                                      std::uint64_t seed) {
  std::vector<std::int64_t> v(k * n);
  fill_random(v, seed);
  for (std::size_t r = 0; r < k; ++r) {
    std::sort(v.begin() + static_cast<std::ptrdiff_t>(r * n),
              v.begin() + static_cast<std::ptrdiff_t>((r + 1) * n));
  }
  return v;
}

template <typename T>
double merge_rate(const std::vector<T>& in, std::size_t k, std::size_t n) {
  std::vector<mlm::sort::Run<T>> runs;
  for (std::size_t r = 0; r < k; ++r) runs.emplace_back(in.data() + r * n, n);
  std::vector<T> out(k * n);
  const double s = best_seconds([] {}, [&] {
    mlm::sort::multiway_merge(std::span<const mlm::sort::Run<T>>(runs),
                              std::span<T>(out));
  });
  return static_cast<double>(k * n) / s;
}

}  // namespace

void measure_ceilings(const KernelSizes& sizes, std::uint64_t seed,
                      Report& out) {
  // --- copy ceilings over arrays the size of sizes.ceiling_bytes ---
  const std::size_t half = sizes.ceiling_bytes / 2;
  std::vector<std::uint8_t> src(half, 1);
  std::vector<std::uint8_t> dst(half, 2);
  const double moved = 2.0 * static_cast<double>(half);  // read + write

  // Rounds of the four copies, interleaved so that each sees the same
  // host; each keeps its best round.
  mlm::ThreadPool pool4(kHostThreads, "ceiling");
  mlm::ThreadPool pool1(1, "ceiling-1t");
  const std::function<void()> copies[] = {
      [&] {  // host ceiling: plain threads, no library code
        std::vector<std::thread> ts;
        for (std::size_t p = 0; p < kHostThreads; ++p) {
          ts.emplace_back([&, p] {
            const mlm::IndexRange r =
                mlm::partition_range(half, kHostThreads, p);
            std::memcpy(dst.data() + r.begin, src.data() + r.begin, r.size());
          });
        }
        for (std::thread& t : ts) t.join();
      },
      [&] { mlm::parallel_memcpy(pool4, dst.data(), src.data(), half); },
      [&] {
        mlm::parallel_memcpy(pool4, dst.data(), src.data(), half,
                             kHostThreads, mlm::CopyMode::Streaming);
      },
      [&] { mlm::parallel_memcpy(pool1, dst.data(), src.data(), half); },
  };
  double best[std::size(copies)];
  std::fill(std::begin(best), std::end(best), 1e300);
  mlm::Stopwatch span;
  for (int round = 0; round < kTrials || span.elapsed_s() < kCopySpanSeconds;
       ++round) {
    for (std::size_t i = 0; i < std::size(copies); ++i) {
      mlm::Stopwatch w;
      copies[i]();
      best[i] = std::min(best[i], w.elapsed_s());
    }
  }
  const double ddr_max = moved / best[0] / 1e9;
  const double memcpy_gbps = moved / best[1] / 1e9;
  const double stream_gbps = moved / best[2] / 1e9;
  const double copy_1t_gbps = moved / best[3] / 1e9;
  src = {};
  dst = {};

  out.add("host.ddr_max_gbps", "GB/s", ddr_max);
  out.add("parallel.memcpy_gbps", "GB/s", memcpy_gbps);
  out.add("parallel.memcpy_ceiling_frac", "ratio", memcpy_gbps / ddr_max);
  out.add("parallel.copy_1t_gbps", "GB/s", copy_1t_gbps);
  out.add("parallel.copy_1t_ceiling_frac", "ratio", copy_1t_gbps / ddr_max);
  out.add("parallel.stream_copy_gbps", "GB/s", stream_gbps);
  out.add("parallel.stream_copy_ceiling_frac", "ratio",
          stream_gbps / ddr_max);

  // --- sort kernels, one thread ---
  {
    std::vector<std::int64_t> v(sizes.serial_sort_elements);
    std::uint64_t trial = 0;
    auto prepare = [&] { fill_random(v, seed + ++trial); };
    auto run = [&] { mlm::sort::serial_sort(v.begin(), v.end()); };
    const double s = best_seconds(prepare, run);
    out.add("sort.serial_sort_melem_s", "Melem/s",
            static_cast<double>(v.size()) / s / 1e6);
  }
  {
    const std::size_t n = sizes.merge_run_elements;
    out.add("sort.merge_k4_melem_s", "Melem/s",
            merge_rate(sorted_runs(4, n, seed), 4, n) / 1e6);
    out.add("sort.merge_k8_melem_s", "Melem/s",
            merge_rate(sorted_runs(8, n, seed), 8, n) / 1e6);
  }
  {
    using mlm::sort::Record64;
    const std::size_t n = sizes.record_elements;
    constexpr std::size_t k = 8;
    std::vector<Record64> recs(k * n);
    for (std::size_t i = 0; i < recs.size(); ++i) {
      recs[i].key = mix64(seed ^ i);
      std::memcpy(recs[i].payload.data(), &i, sizeof(i));
    }
    for (std::size_t r = 0; r < k; ++r) {
      std::sort(recs.begin() + static_cast<std::ptrdiff_t>(r * n),
                recs.begin() + static_cast<std::ptrdiff_t>((r + 1) * n));
    }
    const double per_s = merge_rate(recs, k, n);
    out.add("sort.record_merge_mb_s", "MiB/s",
            per_s * sizeof(Record64) / (1024.0 * 1024.0));
  }
  {
    const std::size_t n = sizes.two_run_elements;
    const std::vector<std::int64_t> in = sorted_runs(2, n, seed);
    std::vector<std::int64_t> merged(2 * n);
    const double s = best_seconds([] {}, [&] {
      mlm::sort::merge_two_runs(in.data(), in.data() + n, in.data() + n,
                                in.data() + 2 * n, merged.data(),
                                std::less<>{});
    });
    out.add("sort.merge_two_runs_melem_s", "Melem/s",
            static_cast<double>(2 * n) / s / 1e6);
  }
}

}  // namespace perfbench
