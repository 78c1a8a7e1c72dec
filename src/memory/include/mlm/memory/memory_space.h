// Capacity-limited memory spaces standing in for KNL's DDR and MCDRAM.
//
// On a real KNL in flat mode, MCDRAM is a separate NUMA node reached via
// memkind's hbw_malloc(); exhausting its 16 GB makes allocation fail.
// MemorySpace reproduces that discipline on any host: a named arena with
// a hard byte capacity, allocation tracking, high-water statistics, and
// the same failure mode (OutOfMemoryError) an hbw_malloc(HBW_POLICY_BIND)
// failure produces.  On an actual KNL the same interface can be backed by
// memkind; see mlm/memory/memkind_shim.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "mlm/support/error.h"

namespace mlm {

/// The kind of memory a space models.  Mirrors memkind's MEMKIND_DEFAULT /
/// MEMKIND_HBW distinction.
enum class MemKind : std::uint8_t {
  DDR,     ///< conventional DIMM-based DRAM (large, ~90 GB/s on KNL)
  MCDRAM,  ///< on-package high-bandwidth memory (16 GB, ~400 GB/s on KNL)
  NVM,     ///< non-volatile memory below DDR (3D-XPoint class, §6)
};

const char* to_string(MemKind kind);

/// Inverse of to_string(MemKind); throws InvalidArgumentError on an
/// unknown name.  Used when machine descriptions are read back from
/// bench artifacts.
MemKind mem_kind_from_string(const std::string& name);

/// Point-in-time usage statistics for a MemorySpace.
struct SpaceStats {
  std::uint64_t capacity_bytes = 0;
  std::uint64_t used_bytes = 0;
  std::uint64_t high_water_bytes = 0;
  std::uint64_t allocation_count = 0;  ///< live allocations
  std::uint64_t total_allocations = 0; ///< lifetime allocations
};

/// A named, capacity-limited allocation arena.
///
/// Thread-safe: allocate/deallocate may be called concurrently (the copy
/// pools allocate staging buffers while compute threads allocate merge
/// scratch).  Alignment is always at least 64 bytes (one KNL cache line).
class MemorySpace {
 public:
  /// fit_elements()'s answer for an unlimited space: no limit.
  static constexpr std::size_t kNoLimit =
      std::numeric_limits<std::size_t>::max();

  /// `capacity_bytes == 0` means unlimited (used for DDR, which in the
  /// paper's experiments is always big enough to hold the full problem).
  MemorySpace(std::string name, MemKind kind, std::uint64_t capacity_bytes);

  /// Budgeted sub-arena: every allocation is forwarded to (and accounted
  /// in) `parent`, but additionally capped at `budget_bytes`
  /// (0 = no extra cap, pure forwarding).  This is the per-job
  /// near-tier budget primitive of the service layer: a job allocating
  /// through its sub-arena can never exceed its granted budget, and the
  /// parent's own capacity still bounds the sum of all tenants.  The
  /// parent must outlive the sub-arena.
  MemorySpace(std::string name, MemorySpace& parent,
              std::uint64_t budget_bytes);
  ~MemorySpace();

  MemorySpace(const MemorySpace&) = delete;
  MemorySpace& operator=(const MemorySpace&) = delete;

  const std::string& name() const { return name_; }
  MemKind kind() const { return kind_; }
  std::uint64_t capacity_bytes() const { return capacity_; }
  bool unlimited() const { return capacity_ == 0; }

  /// The arena this sub-arena forwards to (nullptr for a root space).
  MemorySpace* parent() const;

  /// Allocate `bytes` (64-byte aligned).  Throws OutOfMemoryError if the
  /// space's remaining capacity is insufficient.
  void* allocate(std::size_t bytes);

  /// Allocate, returning nullptr instead of throwing (memkind-style).
  void* try_allocate(std::size_t bytes) noexcept;

  /// Release a pointer previously returned by (try_)allocate.
  void deallocate(void* p) noexcept;

  /// Whether `buffers` (>= 1) more allocations of `bytes` each would
  /// currently fit.
  bool would_fit(std::size_t bytes, std::size_t buffers = 1) const;

  /// The buffer-fit rule every automatic chunk, megachunk and block size
  /// asks: how many elements of `elem_bytes` bytes can each of `buffers`
  /// equal buffers hold in this space right now?  Exact under the
  /// allocation rounding: `buffers` allocations of the answer fit, and
  /// of one element more do not.  kNoLimit for an unlimited space.
  /// Throws OutOfMemoryError naming the space when not even one element
  /// fits.
  std::size_t fit_elements(std::size_t buffers,
                           std::size_t elem_bytes) const;

  /// Whether `p` is a live allocation owned by this space.
  bool owns(const void* p) const;

  SpaceStats stats() const;

  /// Reset the high-water mark to current usage (between bench repetitions).
  void reset_high_water();

 private:
  struct Impl;
  std::string name_;
  MemKind kind_;
  std::uint64_t capacity_;
  std::unique_ptr<Impl> impl_;
};

/// RAII owner of one MemorySpace allocation.
class Allocation {
 public:
  Allocation() = default;
  Allocation(MemorySpace& space, std::size_t bytes)
      : space_(&space), ptr_(space.allocate(bytes)), bytes_(bytes) {}
  ~Allocation() { reset(); }

  Allocation(Allocation&& other) noexcept { *this = std::move(other); }
  Allocation& operator=(Allocation&& other) noexcept {
    if (this != &other) {
      reset();
      space_ = other.space_;
      ptr_ = other.ptr_;
      bytes_ = other.bytes_;
      other.space_ = nullptr;
      other.ptr_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  Allocation(const Allocation&) = delete;
  Allocation& operator=(const Allocation&) = delete;

  void reset() {
    if (ptr_ != nullptr) {
      space_->deallocate(ptr_);
      ptr_ = nullptr;
      bytes_ = 0;
      space_ = nullptr;
    }
  }

  void* get() const { return ptr_; }
  std::size_t size_bytes() const { return bytes_; }
  bool valid() const { return ptr_ != nullptr; }
  MemorySpace* space() const { return space_; }

 private:
  MemorySpace* space_ = nullptr;
  void* ptr_ = nullptr;
  std::size_t bytes_ = 0;
};

/// Typed array living in a specific MemorySpace.
template <typename T>
class SpaceBuffer {
 public:
  SpaceBuffer() = default;
  SpaceBuffer(MemorySpace& space, std::size_t count)
      : alloc_(space, count * sizeof(T)), count_(count) {}

  SpaceBuffer(SpaceBuffer&&) noexcept = default;
  SpaceBuffer& operator=(SpaceBuffer&&) noexcept = default;

  T* data() { return static_cast<T*>(alloc_.get()); }
  const T* data() const { return static_cast<const T*>(alloc_.get()); }
  std::size_t size() const { return count_; }
  bool valid() const { return alloc_.valid(); }

  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }

  T* begin() { return data(); }
  T* end() { return data() + count_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + count_; }

  void reset() {
    alloc_.reset();
    count_ = 0;
  }

 private:
  Allocation alloc_;
  std::size_t count_ = 0;
};

}  // namespace mlm
