#include "mlm/parallel/stream_copy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mlm/support/rng.h"

namespace mlm {
namespace {

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<unsigned char> v(n);
  Xoshiro256ss rng(seed);
  for (auto& b : v) b = static_cast<unsigned char>(rng.next());
  return v;
}

// Sizes hitting every branch of the streaming kernel: empty, shorter
// than one 64-byte group, exactly the alignment head, odd tails, and
// multi-group bodies.
const std::size_t kSizes[] = {0,  1,   15,  16,  17,   63,   64,
                              65, 127, 128, 255, 4096, 4097, (1u << 20) + 3};

TEST(MemcpyStreaming, ByteExactAcrossSizesAndAlignments) {
  for (const std::size_t n : kSizes) {
    // Offsets walk dst across a 16-byte window so the head-alignment
    // prologue sees every misalignment (src stays unaligned-tolerant by
    // construction: the kernel uses unaligned loads).
    for (std::size_t off = 0; off < 16; off += off < 4 ? 1 : 5) {
      const auto src = random_bytes(n, n * 31 + off + 1);
      std::vector<unsigned char> dst(n + off + 16, 0xEE);
      std::vector<unsigned char> expect = dst;
      std::copy(src.begin(), src.end(), expect.begin() + off);
      memcpy_streaming(dst.data() + off, src.data(), n);
      ASSERT_EQ(dst, expect) << "n=" << n << " off=" << off;
    }
  }
}

TEST(MemcpyStreaming, ZeroBytesTouchesNothing) {
  std::vector<unsigned char> dst(64, 0xAB);
  const std::vector<unsigned char> src(64, 0xCD);
  memcpy_streaming(dst.data(), src.data(), 0);
  EXPECT_EQ(dst, std::vector<unsigned char>(64, 0xAB));
}

TEST(CopyBytes, AllModesAreByteIdentical) {
  const std::size_t kN = (1 << 21) + 17;  // above the Auto threshold
  const auto src = random_bytes(kN, 7);
  for (const CopyMode mode :
       {CopyMode::Cached, CopyMode::Streaming, CopyMode::Auto}) {
    std::vector<unsigned char> dst(kN, 0);
    copy_bytes(dst.data(), src.data(), kN, mode);
    ASSERT_EQ(dst, src) << to_string(mode);
  }
}

TEST(CopyBytes, AutoBelowThresholdStillCopiesExactly) {
  // Below the threshold Auto takes the cached path; the observable
  // contract (bytes) is identical either way, which is exactly why the
  // pipeline can flip modes without perturbing deterministic digests.
  static_assert(kStreamCopyThresholdBytes > 4096);
  const auto src = random_bytes(4096, 11);
  std::vector<unsigned char> dst(src.size(), 0);
  copy_bytes(dst.data(), src.data(), src.size(), CopyMode::Auto);
  EXPECT_EQ(dst, src);
}

TEST(CopyBytes, ZeroBytesAnyMode) {
  unsigned char sink = 9;
  const unsigned char from = 3;
  for (const CopyMode mode :
       {CopyMode::Cached, CopyMode::Streaming, CopyMode::Auto}) {
    copy_bytes(&sink, &from, 0, mode);
    EXPECT_EQ(sink, 9) << to_string(mode);
  }
}

TEST(StreamCopy, SupportMatchesCompileTarget) {
#if defined(__SSE2__)
  EXPECT_TRUE(stream_copy_supported());
#else
  EXPECT_FALSE(stream_copy_supported());
#endif
}

TEST(StreamCopy, ModeNamesAreStable) {
  EXPECT_STREQ(to_string(CopyMode::Cached), "cached");
  EXPECT_STREQ(to_string(CopyMode::Streaming), "streaming");
  EXPECT_STREQ(to_string(CopyMode::Auto), "auto");
}

}  // namespace
}  // namespace mlm
