#include "mlm/knlsim/sort_timeline.h"

#include <algorithm>
#include <cmath>

#include "mlm/support/error.h"
#include "mlm/support/step_plan.h"

namespace mlm::knlsim {

const char* to_string(SortAlgo algo) {
  switch (algo) {
    case SortAlgo::GnuFlat: return "GNU-flat";
    case SortAlgo::GnuCache: return "GNU-cache";
    case SortAlgo::MlmDdr: return "MLM-ddr";
    case SortAlgo::MlmSort: return "MLM-sort";
    case SortAlgo::MlmImplicit: return "MLM-implicit";
    case SortAlgo::BasicChunked: return "Basic-chunked";
  }
  return "?";
}

const char* to_string(SimOrder order) {
  return order == SimOrder::Random ? "random" : "reverse";
}

std::uint64_t paper_megachunk(SortAlgo algo, std::uint64_t elements) {
  switch (algo) {
    case SortAlgo::MlmImplicit:
      // "For MLM-implicit, we use megachunk size equal to problem size."
      return elements;
    case SortAlgo::MlmSort:
    case SortAlgo::MlmDdr:
    case SortAlgo::BasicChunked:
      // "megachunk size of 1.5 billion elements for the runs with six
      //  billion elements.  For all other problem sizes we use megachunk
      //  sizes of one billion elements."
      return elements >= 6'000'000'000ull ? 1'500'000'000ull
                                          : std::min<std::uint64_t>(
                                                elements, 1'000'000'000ull);
    case SortAlgo::GnuFlat:
    case SortAlgo::GnuCache:
      return elements;  // unchunked
  }
  return elements;
}

namespace {

double log2_safe(double x) { return x > 1.0 ? std::log2(x) : 0.0; }

/// Timeline builder shared by all algorithms.
class SortSim {
 public:
  SortSim(const KnlConfig& machine, const SortCostParams& p,
          const SortRunConfig& cfg)
      : p_(p), cfg_(cfg), node_(machine, node_mode(cfg),
                                cfg.hybrid_flat_fraction) {
    MLM_REQUIRE(cfg.elements > 0, "sort run needs elements > 0");
    MLM_REQUIRE(cfg.threads >= 1, "sort run needs threads >= 1");
  }

  SortRunResult run() {
    switch (cfg_.algo) {
      case SortAlgo::GnuFlat:
      case SortAlgo::GnuCache:
        run_gnu();
        break;
      case SortAlgo::MlmDdr:
      case SortAlgo::MlmSort:
      case SortAlgo::MlmImplicit:
        run_mlm();
        break;
      case SortAlgo::BasicChunked:
        run_basic_chunked();
        break;
    }
    result_.ddr_traffic_bytes =
        node_.engine().resource_traffic(node_.ddr_resource());
    result_.mcdram_traffic_bytes =
        node_.engine().resource_traffic(node_.mcdram_resource());
    result_.seconds = node_.engine().now();
    return std::move(result_);
  }

 private:
  static McdramMode node_mode(const SortRunConfig& cfg) {
    switch (cfg.algo) {
      case SortAlgo::GnuFlat:
      case SortAlgo::MlmDdr:
        return McdramMode::DdrOnly;
      case SortAlgo::GnuCache:
        return McdramMode::Cache;
      case SortAlgo::MlmImplicit:
        return McdramMode::ImplicitCache;
      case SortAlgo::MlmSort:
      case SortAlgo::BasicChunked:
        return cfg.hybrid ? McdramMode::Hybrid : McdramMode::Flat;
    }
    return McdramMode::Flat;
  }

  bool is_gnu() const {
    return cfg_.algo == SortAlgo::GnuFlat ||
           cfg_.algo == SortAlgo::GnuCache ||
           cfg_.algo == SortAlgo::BasicChunked;
  }

  double efficiency() const {
    return is_gnu() ? p_.gnu_efficiency : 1.0;
  }

  double reverse_sort_speedup() const {
    if (cfg_.order == SimOrder::Random) return 1.0;
    return is_gnu() ? p_.reverse_speedup_gnu : p_.reverse_speedup_mlm;
  }

  double reverse_merge_speedup() const {
    return cfg_.order == SimOrder::Random ? 1.0
                                          : p_.reverse_speedup_merge;
  }

  /// Per-thread merge payload rate for a k-run merge.  Merges sourced
  /// from raw DDR pay the stream-thrash depth penalty; merges sourced
  /// through the hardware cache pay the direct-mapped conflict penalty
  /// (k aliasing streams evict lines early, and the in-order cores
  /// stall on the resulting extra misses).
  double merge_rate(double k, const std::string& src) const {
    double rate = p_.r_merge;
    const double extra_depth = std::max(log2_safe(k) - 3.0, 0.0);
    if (src == "ddr" && !node_.has_hardware_cache()) {
      rate /= 1.0 + p_.merge_ddr_depth_penalty * extra_depth;
    } else if (src == "cached") {
      rate /= 1.0 + p_.cached_merge_conflict * extra_depth;
    }
    return rate * efficiency() * reverse_merge_speedup();
  }

  void add_phase(const std::string& name, double seconds) {
    result_.phases.push_back(PhaseTime{name, seconds});
  }

  /// Sorting work for per-thread subproblems of n elements:
  /// payload per thread, memory-traffic fraction of that payload.
  struct SortWork {
    double payload_per_thread = 0.0;
    double mem_fraction = 0.0;
    double n_bytes = 0.0;  // one thread's working set
  };

  SortWork sort_work(double n_per_thread) const {
    SortWork w;
    const double n_bytes = n_per_thread * p_.elem_bytes;
    const double levels_total = std::max(log2_safe(n_per_thread), 1.0);
    const double levels_mem =
        std::clamp(log2_safe(n_bytes / p_.l2_bytes), 0.0, levels_total);
    w.payload_per_thread = n_bytes * levels_total;
    w.mem_fraction = levels_mem / levels_total;
    w.n_bytes = n_bytes;
    return w;
  }

  /// Flow for `thread_count` threads each serial-sorting an
  /// n_per_thread-element chunk whose data lives in `backing` ("ddr",
  /// "mcdram", or "cached").
  FlowSpec make_sort_flow(const std::string& name, double n_per_thread,
                          const std::string& backing,
                          std::size_t thread_count) {
    const SortWork w = sort_work(n_per_thread);
    const double threads = static_cast<double>(thread_count);
    const double total_payload = w.payload_per_thread * threads;
    const double speed = efficiency() * reverse_sort_speedup();

    double per_thread_rate = 0.0;
    double ddr_w = 0.0, mcdram_w = 0.0;
    if (backing == "ddr") {
      per_thread_rate = p_.r_sort_ddr * speed;
      ddr_w = 2.0 * w.mem_fraction;
    } else if (backing == "mcdram") {
      per_thread_rate = p_.r_sort_mcdram * speed;
      mcdram_w = 2.0 * w.mem_fraction;
    } else {  // "cached": through the hardware cache, dnc hit fraction
      const CacheConfig& cache = node_.cache_config();
      // Per-thread share of the (conflict-derated) cache capacity.
      const double share =
          cache.effective_capacity(static_cast<unsigned>(thread_count)) /
          threads;
      double h = 1.0;
      if (w.n_bytes > share) {
        const double levels_mem_total =
            std::max(log2_safe(w.n_bytes / p_.l2_bytes), 1e-9);
        const double levels_miss = log2_safe(w.n_bytes / share);
        h = std::clamp(1.0 - levels_miss / levels_mem_total, 0.0, 1.0);
      }
      per_thread_rate =
          speed / (h / p_.r_sort_cached + (1.0 - h) / p_.r_sort_ddr);
      const double miss = 1.0 - h;
      ddr_w = 2.0 * w.mem_fraction * miss * (1.0 + cache.dirty_fraction);
      mcdram_w = 2.0 * w.mem_fraction *
                 (h + miss * (1.0 + cache.dirty_fraction));
    }

    return node_.custom_flow(total_payload, threads * per_thread_rate,
                             ddr_w, mcdram_w, name);
  }

  /// Phase: every worker thread serial-sorts one chunk.
  void sort_phase(const std::string& name, double n_per_thread,
                  const std::string& backing) {
    const double t = run_phase(
        node_.engine(),
        {make_sort_flow(name, n_per_thread, backing, cfg_.threads)});
    add_phase(name, t);
  }

  /// Phase: k-run multiway merge of `elements` elements; `src`/`dst` are
  /// "ddr", "mcdram", or "cached" (cached = DDR behind the HW cache).
  void merge_phase(const std::string& name, double elements, double k,
                   const std::string& src, const std::string& dst) {
    const double threads = static_cast<double>(cfg_.threads);
    const double bytes = elements * p_.elem_bytes;
    // Payload = one read + one write of every element.
    const double payload = 2.0 * bytes;

    double ddr_w = 0.0, mcdram_w = 0.0;
    auto add_side = [&](const std::string& side, double streams) {
      if (side == "ddr") {
        ddr_w += 0.5;
      } else if (side == "mcdram") {
        mcdram_w += 0.5;
      } else {  // cached: streaming, no reuse -> all misses, plus
                // conflict-eviction refetches among the k run streams
        const CacheConfig& cache = node_.cache_config();
        const double conflict =
            1.0 + p_.cached_merge_conflict *
                      std::max(log2_safe(streams) - 3.0, 0.0);
        ddr_w += 0.5 * (1.0 + cache.dirty_fraction) * conflict;
        mcdram_w += 0.5 * (1.0 + cache.dirty_fraction) * conflict;
      }
    };
    add_side(src, k);    // the k input run streams
    add_side(dst, 1.0);  // one sequential output stream

    const double t = run_phase(
        node_.engine(),
        {node_.custom_flow(payload, threads * merge_rate(k, src), ddr_w,
                           mcdram_w, name)});
    add_phase(name, t);
  }

  /// Phase: explicit copy of `elements` elements between DDR and the
  /// MCDRAM scratchpad using `threads` copy threads.
  void copy_phase(const std::string& name, double elements,
                  std::size_t threads) {
    const double t = run_phase(
        node_.engine(),
        {node_.copy_flow(elements * p_.elem_bytes, threads, name)});
    add_phase(name, t);
  }

  std::vector<std::uint64_t> megachunks() const {
    std::uint64_t m = cfg_.megachunk_elements != 0
                          ? cfg_.megachunk_elements
                          : paper_megachunk(cfg_.algo, cfg_.elements);
    m = std::min<std::uint64_t>(m, cfg_.elements);
    std::vector<std::uint64_t> out;
    for (std::uint64_t done = 0; done < cfg_.elements;) {
      const std::uint64_t take =
          std::min<std::uint64_t>(m, cfg_.elements - done);
      out.push_back(take);
      done += take;
    }
    return out;
  }

  // ---- algorithm timelines ----

  void run_gnu() {
    // GNU parallel sort: p local sorts, then one k=p multiway merge.
    const double n_per_thread =
        static_cast<double>(cfg_.elements) / cfg_.threads;
    const std::string backing =
        cfg_.algo == SortAlgo::GnuCache ? "cached" : "ddr";
    sort_phase("local-sorts", n_per_thread, backing);
    merge_phase("multiway-merge", static_cast<double>(cfg_.elements),
                static_cast<double>(cfg_.threads), backing, backing);
  }

  /// How DDR-resident data is reached under the node's mode: through
  /// the hardware cache when one is active (hybrid/implicit/cache), raw
  /// otherwise.
  std::string ddr_side() const {
    return node_.has_hardware_cache() ? "cached" : "ddr";
  }

  void run_mlm() {
    const std::vector<std::uint64_t> chunks = megachunks();
    const bool flat = cfg_.algo == SortAlgo::MlmSort;
    const bool implicit = cfg_.algo == SortAlgo::MlmImplicit;
    const std::string sort_backing =
        flat ? "mcdram" : (implicit ? "cached" : "ddr");

    const bool buffered = flat && cfg_.buffered_megachunks &&
                          chunks.size() > 1;
    if (flat) {
      // The megachunk (both of them, when double-buffered) must fit in
      // the scratchpad.
      const double need = static_cast<double>(chunks.front()) *
                          p_.elem_bytes * (buffered ? 2.0 : 1.0);
      MLM_CHECK_MSG(need <= node_.scratchpad_bytes(),
                    "megachunk(s) do not fit in MCDRAM scratchpad");
      MLM_REQUIRE(!buffered || cfg_.threads > cfg_.copy_threads,
                  "buffered MLM-sort needs compute threads besides the "
                  "copy pool");
    }

    if (buffered) {
      // §6 future work: a dedicated copy pool loads megachunk c+1 while
      // the remaining threads sort megachunk c; the megachunk merge
      // still uses all threads (as in the paper's unbuffered design).
      const std::size_t p_sort = cfg_.threads - cfg_.copy_threads;
      copy_phase("mc0/copy-in", static_cast<double>(chunks[0]),
                 cfg_.copy_threads);
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        const double m = static_cast<double>(chunks[c]);
        const std::string tag = "mc" + std::to_string(c);
        std::vector<FlowSpec> flows;
        flows.push_back(make_sort_flow(tag + "/thread-sorts",
                                       m / p_sort, sort_backing, p_sort));
        if (c + 1 < chunks.size()) {
          flows.push_back(node_.copy_flow(
              static_cast<double>(chunks[c + 1]) * p_.elem_bytes,
              cfg_.copy_threads, tag + "/copy-in-next"));
        }
        const double t = run_phase(node_.engine(), std::move(flows));
        add_phase(tag + "/sort+copy", t);
        merge_phase(tag + "/megachunk-merge", m,
                    static_cast<double>(cfg_.threads), sort_backing,
                    ddr_side());
      }
      merge_phase("final-merge", static_cast<double>(cfg_.elements),
                  static_cast<double>(chunks.size()), ddr_side(),
                  ddr_side());
      return;
    }

    for (std::size_t c = 0; c < chunks.size(); ++c) {
      const double m = static_cast<double>(chunks[c]);
      const std::string tag = "mc" + std::to_string(c);
      if (flat) {
        copy_phase(tag + "/copy-in", m, cfg_.threads);
      }
      sort_phase(tag + "/thread-sorts", m / cfg_.threads, sort_backing);
      // Parallel multiway merge of the p per-thread runs; in flat mode it
      // streams MCDRAM->DDR (this is also the copy-out), otherwise it
      // stays on its level.  A single megachunk that is also the whole
      // problem still needs this merge to produce the sorted output.
      const std::string dst = flat ? ddr_side() : sort_backing;
      merge_phase(tag + "/megachunk-merge", m,
                  static_cast<double>(cfg_.threads), sort_backing, dst);
    }

    if (chunks.size() > 1) {
      // Final multiway merge across sorted megachunks in DDR — through
      // the cache portion when the mode has one — "does not use the
      // chunking mechanisms or even explicitly take advantage of the
      // MCDRAM" (§4).
      merge_phase("final-merge", static_cast<double>(cfg_.elements),
                  static_cast<double>(chunks.size()), ddr_side(),
                  ddr_side());
    }
  }

  void run_basic_chunked() {
    // The "basic algorithm" of §4 as a triple-buffered pipeline: the
    // depth-3 StepPlan's chunks, each sorted with the (GNU-efficiency)
    // parallel sort while copy pools stream the next/previous chunk,
    // then a final multiway merge in DDR.
    MLM_REQUIRE(cfg_.copy_threads >= 1, "need at least one copy thread");
    MLM_REQUIRE(cfg_.threads > 2 * cfg_.copy_threads,
                "thread budget too small for copy pools");
    const std::size_t p_comp = cfg_.threads - 2 * cfg_.copy_threads;

    // Three buffers live in MCDRAM simultaneously.
    std::uint64_t chunk_elems = cfg_.megachunk_elements;
    if (chunk_elems == 0) {
      chunk_elems = static_cast<std::uint64_t>(
          node_.scratchpad_bytes() / 3.0 / p_.elem_bytes);
    }
    MLM_CHECK_MSG(3.0 * chunk_elems * p_.elem_bytes <=
                      node_.scratchpad_bytes() * (1.0 + 1e-9),
                  "triple buffers do not fit in MCDRAM");
    std::vector<std::uint64_t> chunks;
    for (std::uint64_t done = 0; done < cfg_.elements;) {
      const std::uint64_t take =
          std::min<std::uint64_t>(chunk_elems, cfg_.elements - done);
      chunks.push_back(take);
      done += take;
    }
    const StepPlan plan(3, chunks.size(), true);

    for (std::size_t s = 0; s < plan.steps(); ++s) {
      const auto [in, compute, out] = plan.step(s);
      std::vector<FlowSpec> flows;
      if (in) {
        flows.push_back(node_.copy_flow(
            static_cast<double>(chunks[*in]) * p_.elem_bytes,
            cfg_.copy_threads, "copy-in"));
      }
      if (compute) {
        // Compute = parallel sort of the chunk inside MCDRAM: local
        // sorts on p_comp threads plus a k=p_comp multiway merge.  Both
        // are folded into one flow of combined payload at the sort rate
        // (the merge part is a small fraction for realistic chunk sizes).
        const double m = static_cast<double>(chunks[*compute]);
        const SortWork w = sort_work(m / p_comp);
        const double payload =
            w.payload_per_thread * p_comp + 2.0 * m * p_.elem_bytes;
        const double rate = p_.r_sort_mcdram * efficiency() *
                            reverse_sort_speedup();
        flows.push_back(node_.custom_flow(
            payload, p_comp * rate, 0.0, 2.0 * w.mem_fraction,
            "chunk-sort"));
      }
      if (out) {
        flows.push_back(node_.copy_flow(
            static_cast<double>(chunks[*out]) * p_.elem_bytes,
            cfg_.copy_threads, "copy-out"));
      }
      const double t = run_phase(node_.engine(), std::move(flows));
      add_phase("step" + std::to_string(s), t);
    }

    merge_phase("final-merge", static_cast<double>(cfg_.elements),
                static_cast<double>(chunks.size()), ddr_side(),
                ddr_side());
  }

  SortCostParams p_;
  SortRunConfig cfg_;
  KnlNode node_;
  SortRunResult result_;
};

}  // namespace

SortRunResult simulate_sort(const KnlConfig& machine,
                            const SortCostParams& params,
                            const SortRunConfig& config) {
  SortSim sim(machine, params, config);
  return sim.run();
}

}  // namespace mlm::knlsim
