// TieredKvStore: a record store whose index and value segments live in
// a tier-aware allocator over a (possibly budgeted) MemoryHierarchy.
//
// The paper's pipeline *streams* data across the MCDRAM/DDR split; a
// record store must *place* it.  Records — a 64-bit
// key plus a fixed-size value — are appended into fixed-capacity
// *segments*, the unit of placement and migration.  New segments are
// allocated near-first: while the near tier (MCDRAM) has room they live
// there, after that they spill to the far tier, exactly the
// hbw_malloc-until-ENOMEM discipline of the rest of the library.  The
// open-addressing index that maps keys to (segment, slot) lives in the
// same allocator (near-preferred, far fallback on growth).
//
// When the store is built over a budgeted MemoryHierarchy tenant view,
// the near tier it sees is capped at the budget the service layer
// granted — the same token budgets AdmissionController hands to sort
// jobs bound near-tier use here, and the sum of all tenants still
// honours the real arena.
//
// Concurrency contract (the epoch model of mlm/kvstore/workload.h):
//   - get() may run from many workers concurrently; each worker passes
//     its own heat shard index and no store mutation happens meanwhile.
//   - put() / move_segment() / index growth are orchestrator-only,
//     between parallel epochs.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mlm/kvstore/heat.h"
#include "mlm/memory/memory_hierarchy.h"
#include "mlm/memory/memory_space.h"
#include "mlm/support/error.h"

#include <vector>

namespace mlm::kv {

struct KvConfig {
  /// Value payload bytes per record (the record adds an 8-byte key).
  std::size_t value_bytes = 56;
  /// Records per segment — the placement/migration granule.
  std::size_t records_per_segment = 64;
  /// Initial index capacity in buckets (rounded up to a power of two).
  std::size_t initial_buckets = 256;
  /// Index grows when load exceeds this fraction.
  double index_max_load = 0.7;
  /// Whether the index prefers the near tier (falling back to far when
  /// the budget is exhausted).  The index is the hottest structure in
  /// the store, so near placement is the default.
  bool index_prefers_near = true;
  /// Heat-monitor shards (grow later with monitor().ensure_shards()).
  std::size_t heat_shards = 1;
};

/// Point-in-time placement statistics.
struct KvStoreStats {
  std::size_t records = 0;
  std::size_t segments = 0;
  std::size_t near_segments = 0;
  std::uint64_t near_segment_bytes = 0;
  std::uint64_t far_segment_bytes = 0;
  std::uint64_t index_bytes = 0;
  bool index_near = false;
  /// Addressable capacity of the near tier the store allocates from
  /// (its budget under a tenant view; 0 when the store has no near
  /// tier, e.g. cache-mode hierarchies).
  std::uint64_t near_capacity_bytes = 0;
};

class TieredKvStore {
 public:
  /// `hier` — the hierarchy (or budgeted tenant view) the store places
  /// into.  The far tier is the farthest tier; the near tier is the
  /// nearest *addressable* tier when distinct (under cache-like MCDRAM
  /// modes there is none and every segment lives far).  `hier` must
  /// outlive the store.
  explicit TieredKvStore(MemoryHierarchy& hier, KvConfig config = {});

  TieredKvStore(const TieredKvStore&) = delete;
  TieredKvStore& operator=(const TieredKvStore&) = delete;

  const KvConfig& config() const { return config_; }
  std::size_t record_bytes() const { return record_bytes_; }
  /// Bytes of one segment block (records_per_segment * record_bytes).
  std::size_t segment_bytes() const { return segment_bytes_; }

  std::size_t size() const { return records_; }
  std::size_t segment_count() const { return segments_.size(); }
  std::size_t near_segment_count() const { return near_segments_; }
  bool segment_near(std::size_t segment) const {
    return segments_.at(segment).near;
  }
  /// Records stored in `segment` (only the last segment may be short).
  std::size_t segment_record_count(std::size_t segment) const {
    return segments_.at(segment).count;
  }

  /// True when the hierarchy gives the store a distinct near tier.
  bool has_near_tier() const { return near_ != nullptr; }
  MemorySpace* near_space() { return near_; }
  MemorySpace& far_space() { return far_; }

  /// Insert (`true`) or overwrite (`false`) `key` with `value_bytes`
  /// bytes from `value`.  Orchestrator-only.
  bool put(std::uint64_t key, const void* value);

  /// Copy `key`'s value into `out` (value_bytes bytes) and count the
  /// access in heat shard `shard`.  Returns false (and records nothing)
  /// when the key is absent.  `was_near`, when non-null, reports the
  /// tier that served the hit.  Safe from concurrent workers with
  /// distinct shards.
  bool get(std::uint64_t key, void* out, std::size_t shard = 0,
           bool* was_near = nullptr);

  bool contains(std::uint64_t key) const;

  /// Move `segment`'s block to the near (`to_near`) or far tier: new
  /// block in the target space, records copied, old block freed.  A
  /// no-op when already there.  Throws OutOfMemoryError when the target
  /// cannot hold the block (near budget exhausted) — the migration
  /// engine's degradation ladder catches it.  Orchestrator-only.
  void move_segment(std::size_t segment, bool to_near);

  HeatMonitor& monitor() { return monitor_; }
  const HeatMonitor& monitor() const { return monitor_; }

  KvStoreStats stats() const;

  /// FNV-1a digest of every record (key and value, segments in id
  /// order, slots in insertion order).  Placement-independent by
  /// construction: migration must never change it.
  std::uint64_t contents_digest() const;

 private:
  struct SegmentInfo {
    Allocation block;
    std::size_t count = 0;
    bool near = false;
  };

  struct Bucket {
    std::uint64_t key = 0;
    std::uint32_t segment = kEmpty;
    std::uint32_t slot = 0;
    static constexpr std::uint32_t kEmpty = 0xffffffffu;
  };

  static std::uint64_t hash_key(std::uint64_t key);

  std::uint8_t* record_ptr(const SegmentInfo& seg, std::size_t slot) const {
    return static_cast<std::uint8_t*>(seg.block.get()) +
           slot * record_bytes_;
  }

  /// Tier-aware allocation: near tier first when `prefer_near` and a
  /// near tier exists, far tier otherwise/on exhaustion.
  Allocation allocate_block(std::size_t bytes, bool prefer_near,
                            bool* went_near);

  Bucket* buckets() { return static_cast<Bucket*>(index_.get()); }
  const Bucket* buckets() const {
    return static_cast<const Bucket*>(index_.get());
  }
  const Bucket* find_bucket(std::uint64_t key) const;
  void index_insert(std::uint64_t key, std::uint32_t segment,
                    std::uint32_t slot);
  void grow_index();
  void append_segment();

  MemoryHierarchy& hier_;
  KvConfig config_;
  std::size_t record_bytes_;
  std::size_t segment_bytes_;
  MemorySpace& far_;
  MemorySpace* near_ = nullptr;  ///< null when no distinct near tier

  std::vector<SegmentInfo> segments_;
  std::size_t near_segments_ = 0;
  std::size_t records_ = 0;

  Allocation index_;
  std::size_t bucket_count_ = 0;
  bool index_near_ = false;

  HeatMonitor monitor_;
};

}  // namespace mlm::kv
