#include "mlm/knlsim/nvm_timeline.h"

#include <algorithm>
#include <cmath>

#include "mlm/machine/tier_params.h"
#include "mlm/support/error.h"

namespace mlm::knlsim {

const char* to_string(NvmStrategy strategy) {
  switch (strategy) {
    case NvmStrategy::DoubleChunked: return "double-chunked";
    case NvmStrategy::DirectToMcdram: return "direct-to-mcdram";
    case NvmStrategy::InNvm: return "in-nvm";
  }
  return "?";
}

namespace {

double log2_safe(double x) { return x > 1.0 ? std::log2(x) : 0.0; }

/// Time to move `bytes` between NVM and DDR with `threads` copy threads.
double nvm_copy_time(const KnlConfig& machine, const NvmConfig& nvm,
                     double bytes, std::size_t threads, bool to_ddr) {
  const double media_bw = to_ddr ? nvm.read_bw : nvm.write_bw;
  const double rate = std::min({static_cast<double>(threads) * nvm.s_copy,
                                media_bw, machine.ddr_max_bw});
  return bytes / rate;
}

/// Inner (DDR+MCDRAM) MLM-sort of `elements`, as a sub-simulation.
SortRunResult inner_sort(const KnlConfig& machine,
                         const SortCostParams& params,
                         const NvmSortConfig& cfg, std::uint64_t elements,
                         std::size_t threads) {
  SortRunConfig inner;
  inner.algo = SortAlgo::MlmSort;
  inner.order = cfg.order;
  inner.elements = elements;
  inner.megachunk_elements = cfg.inner_megachunk_elements;
  if (inner.megachunk_elements == 0) {
    // The paper's default megachunk assumes a full-size (16 GB) MCDRAM;
    // on a scaled-down machine clamp it to what the scratchpad holds.
    // An explicit inner_megachunk_elements still validates as-is.
    const auto fits = static_cast<std::uint64_t>(
        static_cast<double>(machine.mcdram_bytes) / params.elem_bytes);
    inner.megachunk_elements =
        std::min(paper_megachunk(SortAlgo::MlmSort, elements), fits);
  }
  inner.threads = threads;
  return simulate_sort(machine, params, inner);
}

}  // namespace

NvmSortResult simulate_nvm_sort(const KnlConfig& machine,
                                const NvmConfig& nvm,
                                const SortCostParams& params,
                                const NvmSortConfig& cfg) {
  machine.validate();
  nvm.validate();
  MLM_REQUIRE(cfg.elements > 0, "need elements > 0");
  MLM_REQUIRE(cfg.threads > cfg.staging_threads,
              "staging pool must leave compute threads");
  MLM_REQUIRE(cfg.nvm_compute_derate > 0.0 && cfg.nvm_compute_derate <= 1.0,
              "NVM compute derate must be in (0,1]");

  const double elem = params.elem_bytes;
  const double total_bytes = static_cast<double>(cfg.elements) * elem;
  NvmSortResult r;

  switch (cfg.strategy) {
    case NvmStrategy::DoubleChunked: {
      std::uint64_t outer = cfg.outer_chunk_elements;
      if (outer == 0) {
        outer = static_cast<std::uint64_t>(
            static_cast<double>(machine.ddr_bytes) / 2.0 / elem);
      }
      MLM_REQUIRE(2.0 * static_cast<double>(outer) * elem <=
                      static_cast<double>(machine.ddr_bytes),
                  "outer chunk plus inner scratch exceed DDR");
      outer = std::min<std::uint64_t>(outer, cfg.elements);

      std::vector<std::uint64_t> chunks;
      for (std::uint64_t done = 0; done < cfg.elements;) {
        const std::uint64_t take =
            std::min<std::uint64_t>(outer, cfg.elements - done);
        chunks.push_back(take);
        done += take;
      }
      r.outer_chunks = chunks.size();

      // Overlap variant: a dedicated staging pool loads outer chunk c+1
      // while the remaining threads sort chunk c and write it back;
      // only the exposed remainder of each staged load costs time.
      const std::size_t sort_threads =
          cfg.overlap_staging ? cfg.threads - cfg.staging_threads
                              : cfg.threads;
      double prev_busy = 0.0;  // chunk c-1's sort + write-back
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        const double bytes = static_cast<double>(chunks[c]) * elem;
        const double t_in = nvm_copy_time(machine, nvm, bytes,
                                          cfg.staging_threads, true);
        const SortRunResult s =
            inner_sort(machine, params, cfg, chunks[c], sort_threads);
        const double t_out = nvm_copy_time(machine, nvm, bytes,
                                           cfg.staging_threads, false);
        const double busy = s.seconds + t_out;

        const double exposed_in = cfg.overlap_staging && c > 0
                                      ? std::max(t_in - prev_busy, 0.0)
                                      : t_in;
        prev_busy = busy;

        r.staging_seconds += exposed_in + t_out;
        r.sorting_seconds += s.seconds;
        r.seconds += exposed_in + busy;
        r.nvm_read_bytes += bytes;
        r.nvm_write_bytes += bytes;
        r.ddr_traffic_bytes += 2.0 * bytes + s.ddr_traffic_bytes;
        r.mcdram_traffic_bytes += s.mcdram_traffic_bytes;
      }

      if (chunks.size() > 1) {
        // Block-buffered external merge: sequential block reads defeat
        // the k-stream thrash, so the only limits are the media
        // bandwidths, the DDR staging traffic, and merge compute.
        const double merge_rate = std::min(
            {static_cast<double>(cfg.threads) * params.r_merge,
             nvm.read_bw, nvm.write_bw, machine.ddr_max_bw / 2.0});
        const double t = total_bytes / merge_rate;
        r.merging_seconds = t;
        r.seconds += t;
        r.nvm_read_bytes += total_bytes;
        r.nvm_write_bytes += total_bytes;
        r.ddr_traffic_bytes += 2.0 * total_bytes;
      }
      return r;
    }

    case NvmStrategy::DirectToMcdram: {
      // Megachunks staged straight from NVM into MCDRAM, sorted there,
      // merged back to NVM; final external merge over many small runs.
      const auto mega = static_cast<std::uint64_t>(
          static_cast<double>(machine.mcdram_bytes) / elem);
      std::vector<std::uint64_t> chunks;
      for (std::uint64_t done = 0; done < cfg.elements;) {
        const std::uint64_t take =
            std::min<std::uint64_t>(mega, cfg.elements - done);
        chunks.push_back(take);
        done += take;
      }
      r.outer_chunks = chunks.size();
      for (std::uint64_t c : chunks) {
        const double bytes = static_cast<double>(c) * elem;
        const double t_in = nvm_copy_time(machine, nvm, bytes,
                                          cfg.staging_threads, true);
        // Sort fully inside MCDRAM (per-thread serial sorts + merge),
        // reusing the two-level timeline with a single megachunk.
        SortRunConfig inner;
        inner.algo = SortAlgo::MlmSort;
        inner.order = cfg.order;
        inner.elements = c;
        inner.megachunk_elements = c;
        inner.threads = cfg.threads;
        const SortRunResult s = simulate_sort(machine, params, inner);
        const double t_out = nvm_copy_time(machine, nvm, bytes,
                                           cfg.staging_threads, false);
        r.staging_seconds += t_in + t_out;
        r.sorting_seconds += s.seconds;
        r.seconds += t_in + s.seconds + t_out;
        r.nvm_read_bytes += bytes;
        r.nvm_write_bytes += bytes;
        r.ddr_traffic_bytes += s.ddr_traffic_bytes;
        r.mcdram_traffic_bytes += s.mcdram_traffic_bytes;
      }
      if (chunks.size() > 1) {
        // External merge over k = N/16GB runs — far more runs than the
        // double-chunked scheme, so merge compute pays the loser-tree
        // depth (blocks still defeat the stream thrash).
        const double k = static_cast<double>(chunks.size());
        const double depth_factor =
            1.0 + 0.10 * std::max(log2_safe(k) - 3.0, 0.0);
        const double merge_rate = std::min(
            {static_cast<double>(cfg.threads) * params.r_merge /
                 depth_factor,
             nvm.read_bw, nvm.write_bw, machine.ddr_max_bw / 2.0});
        const double t = total_bytes / merge_rate;
        r.merging_seconds = t;
        r.seconds += t;
        r.nvm_read_bytes += total_bytes;
        r.nvm_write_bytes += total_bytes;
        r.ddr_traffic_bytes += 2.0 * total_bytes;
      }
      return r;
    }

    case NvmStrategy::InNvm: {
      // GNU-style sort operating directly on NVM-resident data: local
      // sorts at latency-derated rates, capped by media bandwidth, then
      // a k=threads multiway merge with raw-media stream thrash.
      const double n_per_thread =
          static_cast<double>(cfg.elements) / cfg.threads;
      const double levels = std::max(log2_safe(n_per_thread), 1.0);
      const double payload =
          static_cast<double>(cfg.elements) * elem * levels;
      const double reverse =
          cfg.order == SimOrder::Reverse ? params.reverse_speedup_gnu : 1.0;
      const double mem_levels = std::max(
          log2_safe(n_per_thread * elem / params.l2_bytes), 1.0);
      // Compute-bound time at latency-derated rates...
      const double t_compute =
          payload / (static_cast<double>(cfg.threads) * params.r_sort_ddr *
                     cfg.nvm_compute_derate * reverse *
                     params.gnu_efficiency);
      // ...or media-bandwidth-bound time: each memory level reads and
      // writes the data once against the NVM.
      const double t_media = 2.0 * mem_levels * total_bytes /
                             (nvm.read_bw + nvm.write_bw);
      r.sorting_seconds = std::max(t_compute, t_media);

      const double depth = std::max(
          log2_safe(static_cast<double>(cfg.threads)) - 3.0, 0.0);
      const double merge_reverse = cfg.order == SimOrder::Reverse
                                       ? params.reverse_speedup_merge
                                       : 1.0;
      const double merge_rate = std::min(
          {static_cast<double>(cfg.threads) * params.r_merge *
               cfg.nvm_compute_derate * merge_reverse /
               (1.0 + params.merge_ddr_depth_penalty * depth),
           nvm.read_bw, nvm.write_bw});
      r.merging_seconds = total_bytes / merge_rate;
      r.seconds = r.sorting_seconds + r.merging_seconds;
      r.nvm_read_bytes = total_bytes * (mem_levels + 1.0);
      r.nvm_write_bytes = total_bytes * (mem_levels + 1.0);
      return r;
    }
  }
  MLM_CHECK_MSG(false, "unreachable strategy");
  return r;
}

NvmSortResult simulate_nvm_sort(std::span<const TierConfig> tiers,
                                const KnlConfig& compute,
                                const SortCostParams& params,
                                const NvmSortConfig& config) {
  MLM_REQUIRE(tiers.size() == 3,
              "tier overload expects an NVM -> DDR -> MCDRAM list");
  MLM_REQUIRE(tiers[0].kind == MemKind::NVM &&
                  tiers[1].kind == MemKind::DDR &&
                  tiers[2].kind == MemKind::MCDRAM,
              "tiers must be ordered NVM, DDR, MCDRAM");
  const NvmConfig nvm = nvm_config_from_tier(tiers[0]);
  KnlConfig machine = compute;
  machine.ddr_bytes = tiers[1].capacity_bytes;
  machine.mcdram_bytes = tiers[2].capacity_bytes;
  if (tiers[1].read_bw > 0.0) machine.ddr_max_bw = tiers[1].read_bw;
  if (tiers[2].read_bw > 0.0) machine.mcdram_max_bw = tiers[2].read_bw;
  if (tiers[1].s_copy > 0.0) machine.s_copy = tiers[1].s_copy;
  return simulate_nvm_sort(machine, nvm, params, config);
}

}  // namespace mlm::knlsim
