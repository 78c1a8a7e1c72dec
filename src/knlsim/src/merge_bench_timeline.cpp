#include "mlm/knlsim/merge_bench_timeline.h"

#include <algorithm>
#include <limits>

#include "mlm/knlsim/knl_node.h"
#include "mlm/support/error.h"
#include "mlm/support/step_plan.h"

namespace mlm::knlsim {

MergeBenchResult simulate_merge_bench(const KnlConfig& machine,
                                      const MergeBenchConfig& config) {
  MLM_REQUIRE(config.data_bytes > 0.0, "data size must be positive");
  MLM_REQUIRE(config.copy_threads >= 1, "need at least one copy thread");
  MLM_REQUIRE(config.total_threads > 2 * config.copy_threads,
              "thread budget too small for two copy pools plus compute");
  MLM_REQUIRE(config.repeats >= 1, "need at least one repeat");
  MLM_REQUIRE(config.buffers >= 1 && config.buffers <= 3,
              "buffers must be 1, 2, or 3");

  KnlNode node(machine, McdramMode::Flat);

  const double nbuf = static_cast<double>(config.buffers);
  double chunk = config.chunk_bytes;
  if (chunk <= 0.0) {
    // Buffering limits chunks to capacity/buffers; in practice ~1 GB
    // buffers are used (cf. Olivier et al., IWOMP'17, and §6's "chunk
    // sizes of 1-1.5GB are sufficient"), which also amortizes pipeline
    // fill/drain over many steps.
    chunk = std::min(node.scratchpad_bytes() / nbuf, 1e9);
  }
  MLM_CHECK_MSG(nbuf * chunk <= node.scratchpad_bytes() * (1.0 + 1e-9),
                "chunk buffers do not fit in MCDRAM");

  std::vector<double> chunks;
  for (double done = 0.0; done < config.data_bytes;) {
    const double take = std::min(chunk, config.data_bytes - done);
    chunks.push_back(take);
    done += take;
  }

  MergeBenchResult result;
  result.chunks = chunks.size();
  result.compute_threads = config.total_threads - 2 * config.copy_threads;

  // Step-level evaluation with bandwidth *reservation*: a copy pool holds
  // its per-thread port bandwidth (S_copy per thread, shared fairly once
  // DDR saturates) for the full step, whether or not its chunk finishes
  // early — the behaviour the paper's model assumes (Eq. 5 subtracts the
  // copy pools' bandwidth unconditionally) and its empirical runs
  // corroborate (Fig. 8b: large copy pools hurt compute-bound runs).  A
  // step ends when its slowest stage finishes (§3's barrier pipeline).
  const double p_copy = static_cast<double>(config.copy_threads);
  const double p_comp = static_cast<double>(result.compute_threads);

  // Eq. (3): per-thread copy rate with `dirs` directions active.
  auto copy_rate = [&](double dirs) {
    const double demand = dirs * p_copy * machine.s_copy;
    return demand <= machine.ddr_max_bw
               ? machine.s_copy
               : machine.ddr_max_bw / (dirs * p_copy);
  };
  // One pool's time to move `bytes` with `dirs` directions active.
  auto copy_time = [&](double bytes, double dirs) {
    return bytes / (p_copy * copy_rate(dirs));
  };
  // Eq. (5): compute time for one chunk with `reserved` MCDRAM bandwidth
  // held by copy pools.
  auto comp_time = [&](double chunk_bytes, double reserved) {
    const double rate = std::min(p_comp * machine.s_comp,
                                 machine.mcdram_max_bw - reserved);
    MLM_CHECK_MSG(rate > 0.0, "copy pools reserve all MCDRAM bandwidth");
    return 2.0 * chunk_bytes * config.repeats / rate;
  };
  auto account = [&](double t_step, double ddr_bytes,
                     double mcdram_bytes) {
    result.step_seconds.push_back(t_step);
    result.seconds += t_step;
    result.ddr_traffic_bytes += ddr_bytes;
    result.mcdram_traffic_bytes += mcdram_bytes;
  };
  auto comp_payload = [&](std::size_t c) {
    return 2.0 * chunks[c] * config.repeats;
  };

  // Each plan step is priced as concurrent lanes, each running its
  // stages back to back: [in, compute, out] at depth 1, [in] || [compute,
  // out] at depth 2, [in] || [out] || [compute] at depth 3.  Copies on
  // `dirs` distinct lanes share DDR, compute reserves the bandwidth of
  // the copies outside its lane, and the step lasts as long as its
  // longest lane.  Lane 2 is compute's.
  const StepPlan plan(config.buffers, chunks.size(), true);
  const std::size_t in_lane = plan.in_joins_before_compute() ? 2 : 0;
  const std::size_t out_lane = plan.out_after_compute() ? 2 : 1;
  for (std::size_t s = 0; s < plan.steps(); ++s) {
    const auto [in, comp, out] = plan.step(s);
    bool copying[3] = {};
    if (in) copying[in_lane] = true;
    if (out) copying[out_lane] = true;
    const double outside = copying[0] + copying[1];
    const double dirs = outside + copying[2];
    double seconds[3] = {}, copied[3] = {}, payload = 0.0;
    auto copy = [&](std::size_t lane, std::size_t c) {
      seconds[lane] += copy_time(chunks[c], dirs);
      copied[lane] += chunks[c];
    };
    if (in) copy(in_lane, *in);
    if (comp) {
      const double reserved =
          outside > 0.0 ? outside * p_copy * copy_rate(dirs) : 0.0;
      seconds[2] += comp_time(chunks[*comp], reserved);
      payload = comp_payload(*comp);
    }
    if (out) copy(out_lane, *out);
    // Traffic sums lane by lane, copies before compute payload: the
    // floating-point order the pinned simulator outputs assume.
    account(std::max({seconds[0], seconds[1], seconds[2]}),
            copied[0] + copied[1] + copied[2],
            copied[0] + copied[1] + (copied[2] + payload));
  }
  return result;
}

std::vector<MergeBenchResult> sweep_copy_threads(
    const KnlConfig& machine, MergeBenchConfig config,
    const std::vector<std::size_t>& counts) {
  std::vector<MergeBenchResult> out;
  out.reserve(counts.size());
  for (std::size_t c : counts) {
    config.copy_threads = c;
    out.push_back(simulate_merge_bench(machine, config));
  }
  return out;
}

std::size_t best_copy_threads(const KnlConfig& machine,
                              MergeBenchConfig config,
                              const std::vector<std::size_t>& counts) {
  MLM_REQUIRE(!counts.empty(), "need at least one candidate count");
  std::vector<double> times;
  times.reserve(counts.size());
  double best_time = std::numeric_limits<double>::infinity();
  for (std::size_t c : counts) {
    config.copy_threads = c;
    times.push_back(simulate_merge_bench(machine, config).seconds);
    best_time = std::min(best_time, times.back());
  }
  // Plateau ties resolve toward the fewest copy threads.
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (times[i] <= best_time * (1.0 + 1e-9)) return counts[i];
  }
  return counts.front();  // unreachable
}

}  // namespace mlm::knlsim
