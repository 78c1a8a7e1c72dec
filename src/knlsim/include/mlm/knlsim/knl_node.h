// KnlNode: a simulated KNL under a specific MCDRAM usage mode.
//
// Wraps a SimEngine with the node's three shared resources — DDR
// bandwidth, MCDRAM bandwidth, and mesh (NoC) bandwidth — and provides
// flow builders that encode how each kind of memory activity maps onto
// those resources under the configured mode:
//
//   copy_flow           explicit DDR<->MCDRAM transfer (flat/hybrid);
//                       in hybrid mode the DDR side also sweeps through
//                       the cache portion ("cache polluted by the copy-in
//                       and copy-out data", §3.1)
//   ddr_stream_flow     compute streaming DDR-resident data with the
//                       hardware cache inactive (flat/ddr-only modes)
//   mcdram_stream_flow  compute streaming scratchpad-resident data
//   cached_stream_flow  compute streaming DDR-resident data through the
//                       hardware cache (cache/implicit/hybrid modes),
//                       with hit fraction from the analytic cache model
//   dnc_compute_flow    divide-and-conquer compute (serial sorts) whose
//                       hit fraction follows the recursion-level argument
#pragma once

#include <string>

#include "mlm/knlsim/cache_model.h"
#include "mlm/knlsim/engine.h"
#include "mlm/machine/knl_config.h"
#include "mlm/memory/memory_hierarchy.h"

namespace mlm::knlsim {

class KnlNode {
 public:
  KnlNode(const KnlConfig& machine, McdramMode mode,
          double hybrid_flat_fraction = 0.5);

  const KnlConfig& machine() const { return machine_; }
  McdramMode mode() const { return mode_; }
  SimEngine& engine() { return engine_; }
  const SimEngine& engine() const { return engine_; }

  ResourceId ddr_resource() const { return ddr_; }
  ResourceId mcdram_resource() const { return mcdram_; }
  ResourceId noc_resource() const { return noc_; }

  /// Whether the configured mode exposes addressable MCDRAM.
  bool has_scratchpad() const {
    return mode_has_addressable_mcdram(mode_);
  }
  /// Whether the configured mode has an active hardware cache.
  bool has_hardware_cache() const { return mode_has_hardware_cache(mode_); }

  /// Bytes of MCDRAM addressable as scratchpad under this mode.
  double scratchpad_bytes() const;
  /// The cache model for this mode (capacity = cache portion of MCDRAM).
  const CacheConfig& cache_config() const { return cache_; }

  // ---- flow builders (all return specs; caller starts them) ----

  /// Explicit copy of `bytes` between DDR and scratchpad MCDRAM by
  /// `threads` copy threads (each rate-limited to S_copy).
  FlowSpec copy_flow(double bytes, std::size_t threads,
                     std::string label = "copy") const;

  /// Streaming compute over DDR-resident data, hardware cache inactive.
  FlowSpec ddr_stream_flow(double bytes, std::size_t threads,
                           double per_thread_rate,
                           std::string label = "ddr-stream") const;

  /// Streaming compute over scratchpad-resident data.
  FlowSpec mcdram_stream_flow(double bytes, std::size_t threads,
                              double per_thread_rate,
                              std::string label = "mcdram-stream") const;

  /// Streaming compute over DDR-resident data through the hardware
  /// cache: `bytes` of payload over `working_set` bytes swept
  /// `reuse_passes` times by `concurrent_streams` independent streams.
  /// Falls back to ddr_stream_flow when the mode has no hardware cache.
  FlowSpec cached_stream_flow(double bytes, double working_set,
                              double reuse_passes, std::size_t threads,
                              double per_thread_rate,
                              unsigned concurrent_streams,
                              std::string label = "cached-stream") const;

  /// Divide-and-conquer compute (e.g. per-thread serial sorts) over
  /// DDR-resident data through the hardware cache; `working_set` is one
  /// thread's subproblem, `lower_level` the per-core cache below MCDRAM.
  FlowSpec dnc_compute_flow(double bytes, double working_set,
                            double lower_level, std::size_t threads,
                            double per_thread_rate,
                            unsigned concurrent_streams,
                            std::string label = "dnc-compute") const;

  /// Fully custom flow: `bytes` payload at `peak` bytes/s drawing
  /// ddr_weight / mcdram_weight per payload byte on the memory resources
  /// (NoC traffic is derived).  The escape hatch used by the workload
  /// timelines, which compute their own hit fractions and rate blends.
  FlowSpec custom_flow(double bytes, double peak, double ddr_weight,
                       double mcdram_weight, std::string label) const {
    return make_flow(bytes, peak, ddr_weight, mcdram_weight,
                     std::move(label));
  }

 private:
  FlowSpec make_flow(double bytes, double peak, double ddr_w,
                     double mcdram_w, std::string label) const;

  KnlConfig machine_;
  McdramMode mode_;
  double hybrid_flat_fraction_;
  CacheConfig cache_;
  SimEngine engine_;
  ResourceId ddr_ = 0;
  ResourceId mcdram_ = 0;
  ResourceId noc_ = 0;
};

}  // namespace mlm::knlsim
