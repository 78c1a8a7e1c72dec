// CheckpointCodec: the crash-consistency seam between resumable
// steppers and the JobJournal (mlm/service/journal.h).
//
// A checkpoint is the serialized resume state of a stepper at a step
// boundary: a `kind` tag naming the stepper family (and payload
// version) plus an opaque payload the matching factory decodes.  The
// contract that makes redo-from-checkpoint digest-safe is *redo
// idempotency*: a checkpoint names the last safe redo point, and every
// step between that point and the crash must be re-executable over the
// surviving far-tier (NVM) data without changing the final bytes.  The
// library's steppers satisfy it structurally:
//
//   - ExternalMlmSorter: re-sorting an already-sorted chunk writes the
//     same bytes, and the external merge over fully-merged output is
//     the identity (slices of a sorted array are sorted runs).
//   - ChunkPipelineStepper: the retired-chunk watermark
//     (completed_chunks) is the checkpoint; recovery restarts the
//     pipeline over the unretired suffix.  Computes must be idempotent
//     at chunk granularity (DESIGN.md §10).
//   - MigrationEngine: TieredKvStore::move_segment is a no-op when the
//     segment already sits in the target tier, so redone moves below
//     the checkpointed index do nothing.
//
// The wire format is deliberately dumb: little-endian fixed-width
// fields, length-prefixed strings and vectors, no alignment, no
// varints.  CheckpointReader bounds-checks every read and throws a
// structured Error on truncation or trailing garbage — a corrupt
// checkpoint must fail recovery loudly, never resume a wrong state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mlm/support/error.h"

namespace mlm::service {

/// Serialized stepper resume state.  `kind` selects the decoder (and
/// versions the payload layout: bump the suffix when the layout
/// changes, e.g. "sort.external.v1" -> ".v2").
struct Checkpoint {
  std::string kind;
  std::vector<std::uint8_t> payload;

  /// Flat encoding (kind + payload) for journal record payloads.
  std::vector<std::uint8_t> encode() const;
  static Checkpoint decode(std::span<const std::uint8_t> bytes);
};

/// Append-only field writer.  All integers are little-endian
/// fixed-width; strings and vectors are u64-length-prefixed.
class CheckpointWriter {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void boolean(bool v) { bytes_.push_back(v ? 1 : 0); }

  void str(const std::string& s) {
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  void blob(std::span<const std::uint8_t> b) {
    u64(b.size());
    bytes_.insert(bytes_.end(), b.begin(), b.end());
  }

  void u64_vec(const std::vector<std::size_t>& v) {
    u64(v.size());
    for (std::size_t x : v) u64(x);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked field reader over an encoded payload.  Throws Error
/// on truncated fields; call expect_done() after the last field so
/// trailing garbage (a layout mismatch) is also an error.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::span<const std::uint8_t> bytes)
      : bytes_(bytes) {}

  std::uint64_t u64() {
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  bool boolean() {
    need(1, "bool");
    const std::uint8_t v = bytes_[pos_++];
    MLM_REQUIRE(v <= 1, "checkpoint bool field holds " + std::to_string(v));
    return v != 0;
  }

  std::string str() {
    const std::uint64_t n = u64();
    need(n, "string body");
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  std::vector<std::uint8_t> blob() {
    const std::uint64_t n = u64();
    need(n, "blob body");
    std::vector<std::uint8_t> b(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                bytes_.begin() +
                                    static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += static_cast<std::size_t>(n);
    return b;
  }

  std::vector<std::size_t> u64_vec() {
    const std::uint64_t n = u64();
    need(n, "u64 vector body", 8);
    std::vector<std::size_t> v;
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      v.push_back(static_cast<std::size_t>(u64()));
    }
    return v;
  }

  bool done() const { return pos_ == bytes_.size(); }

  /// Throws when bytes remain: the payload was written by a different
  /// layout than the one being decoded.
  void expect_done() const {
    MLM_REQUIRE(done(), "checkpoint payload has " +
                            std::to_string(bytes_.size() - pos_) +
                            " trailing byte(s)");
  }

 private:
  /// Throws unless `n` fields of `width` bytes remain (compared as a
  /// count, so a huge n cannot wrap n * width).
  void need(std::uint64_t n, const char* what, std::uint64_t width = 1) const {
    const std::size_t remain = bytes_.size() - pos_;
    if (n > remain / width) {
      Error e("checkpoint payload truncated");
      throw e.with_frame(
          {"checkpoint_decode", -1, "", "service",
           std::string(what) + " needs " + std::to_string(n) +
               (width == 1 ? "" : " x " + std::to_string(width)) +
               " byte(s), " + std::to_string(remain) + " remain"});
    }
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

inline std::vector<std::uint8_t> Checkpoint::encode() const {
  CheckpointWriter w;
  w.str(kind);
  w.blob(payload);
  return w.take();
}

inline Checkpoint Checkpoint::decode(std::span<const std::uint8_t> bytes) {
  CheckpointReader r(bytes);
  Checkpoint c;
  c.kind = r.str();
  c.payload = r.blob();
  r.expect_done();
  return c;
}

}  // namespace mlm::service
