#include "mlm/memory/memory_space.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "mlm/support/proptest.h"
#include "mlm/support/units.h"

namespace mlm {
namespace {

TEST(MemorySpace, AllocateWithinCapacity) {
  MemorySpace space("mcdram", MemKind::MCDRAM, KiB(64));
  void* p = space.allocate(KiB(32));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(space.stats().used_bytes, KiB(32));
  space.deallocate(p);
  EXPECT_EQ(space.stats().used_bytes, 0u);
}

TEST(MemorySpace, ExhaustionThrowsOutOfMemory) {
  MemorySpace space("mcdram", MemKind::MCDRAM, KiB(64));
  void* p = space.allocate(KiB(48));
  EXPECT_THROW(space.allocate(KiB(32)), OutOfMemoryError);
  space.deallocate(p);
  EXPECT_NO_THROW(space.deallocate(space.allocate(KiB(32))));
}

TEST(MemorySpace, TryAllocateReturnsNullInsteadOfThrowing) {
  MemorySpace space("mcdram", MemKind::MCDRAM, KiB(16));
  void* p = space.try_allocate(KiB(32));
  EXPECT_EQ(p, nullptr);
  EXPECT_EQ(space.stats().used_bytes, 0u);
}

TEST(MemorySpace, UnlimitedCapacity) {
  MemorySpace space("ddr", MemKind::DDR, 0);
  EXPECT_TRUE(space.unlimited());
  EXPECT_TRUE(space.would_fit(GiB(1)));
  void* p = space.allocate(MiB(4));
  EXPECT_NE(p, nullptr);
  space.deallocate(p);
}

TEST(MemorySpace, AlignmentIs64Bytes) {
  MemorySpace space("s", MemKind::DDR, 0);
  for (std::size_t sz : {1u, 7u, 63u, 64u, 100u}) {
    void* p = space.allocate(sz);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u) << sz;
    space.deallocate(p);
  }
}

TEST(MemorySpace, AccountingRoundsUpToAlignment) {
  MemorySpace space("s", MemKind::MCDRAM, 128);
  void* p = space.allocate(1);  // rounds to 64
  EXPECT_EQ(space.stats().used_bytes, 64u);
  void* q = space.try_allocate(65);  // would round to 128 -> exceeds
  EXPECT_EQ(q, nullptr) << "65 bytes rounds to 128, only 64 left";
  space.deallocate(p);
}

// Whether `buffers` allocations of `bytes` each all succeed at once;
// every allocation is released again.
bool all_allocate(MemorySpace& space, std::size_t buffers,
                  std::size_t bytes) {
  std::vector<void*> got;
  bool ok = true;
  for (std::size_t b = 0; b < buffers && ok; ++b) {
    void* p = space.try_allocate(bytes);
    ok = p != nullptr;
    if (ok) got.push_back(p);
  }
  for (void* p : got) space.deallocate(p);
  return ok;
}

// The buffer-fit rule is exact under the allocation rounding: for random
// capacities and prior allocations, k buffers of the answer fit and k
// buffers of one element more do not; when not even one element fits it
// says so with an OutOfMemoryError naming the space.
TEST(MemorySpace, FitElementsIsExactUnderAllocationRounding) {
  constexpr std::size_t kElemBytes[] = {1, 8, 16, 64, 72};
  std::size_t answered = 0;
  std::size_t refused = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    Gen gen(seed);
    MemorySpace space("near", MemKind::MCDRAM, gen.size_in(1, KiB(64)));
    std::vector<void*> prior;
    for (std::size_t a = gen.size_in(0, 4); a > 0; --a) {
      if (void* p = space.try_allocate(gen.size_in(0, KiB(16)))) {
        prior.push_back(p);
      }
    }
    const std::size_t k = gen.size_in(1, 8);
    const std::size_t e = kElemBytes[gen.below(std::size(kElemBytes))];
    const std::string at = "seed " + std::to_string(seed) + ", k " +
                           std::to_string(k) + ", e " + std::to_string(e);
    try {
      const std::size_t n = space.fit_elements(k, e);
      ++answered;
      ASSERT_GE(n, 1u) << at;
      EXPECT_TRUE(all_allocate(space, k, n * e)) << at << ", n " << n;
      EXPECT_FALSE(all_allocate(space, k, (n + 1) * e)) << at << ", n " << n;
    } catch (const OutOfMemoryError& err) {
      ++refused;
      EXPECT_FALSE(all_allocate(space, k, e)) << at;
      EXPECT_NE(std::string(err.what()).find("'near'"), std::string::npos)
          << err.what();
    }
    for (void* p : prior) space.deallocate(p);
  }
  EXPECT_GT(answered, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(MemorySpace, FitElementsOfAnUnlimitedSpaceIsNoLimit) {
  MemorySpace space("ddr", MemKind::DDR, 0);
  EXPECT_EQ(space.fit_elements(1, 8), MemorySpace::kNoLimit);
  // Usage does not turn the answer into a wrapped subtraction.
  void* p = space.allocate(64);
  EXPECT_EQ(space.fit_elements(4, 72), MemorySpace::kNoLimit);
  space.deallocate(p);
}

TEST(MemorySpace, WouldFitCountsEveryBuffer) {
  MemorySpace space("s", MemKind::MCDRAM, 256);
  EXPECT_TRUE(space.would_fit(65, 2));   // two 128-byte allocations
  EXPECT_FALSE(space.would_fit(65, 3));  // a third does not fit
  EXPECT_TRUE(space.would_fit(64, 4));
}

TEST(MemorySpace, ZeroByteAllocationGetsDistinctPointer) {
  MemorySpace space("s", MemKind::DDR, 0);
  void* a = space.allocate(0);
  void* b = space.allocate(0);
  EXPECT_NE(a, nullptr);
  EXPECT_NE(a, b);
  space.deallocate(a);
  space.deallocate(b);
}

TEST(MemorySpace, HighWaterTracksPeak) {
  MemorySpace space("s", MemKind::MCDRAM, KiB(64));
  void* a = space.allocate(KiB(16));
  void* b = space.allocate(KiB(32));
  space.deallocate(b);
  EXPECT_EQ(space.stats().high_water_bytes, KiB(48));
  space.reset_high_water();
  EXPECT_EQ(space.stats().high_water_bytes, KiB(16));
  space.deallocate(a);
}

TEST(MemorySpace, DoubleFreeAndForeignFreeAreNoops) {
  MemorySpace space("s", MemKind::DDR, 0);
  void* p = space.allocate(64);
  space.deallocate(p);
  space.deallocate(p);      // double free: no crash, no accounting change
  int local = 0;
  space.deallocate(&local); // foreign pointer: no-op
  space.deallocate(nullptr);
  EXPECT_EQ(space.stats().used_bytes, 0u);
}

TEST(MemorySpace, StatsCountAllocations) {
  MemorySpace space("s", MemKind::DDR, 0);
  void* a = space.allocate(64);
  void* b = space.allocate(64);
  EXPECT_EQ(space.stats().allocation_count, 2u);
  EXPECT_EQ(space.stats().total_allocations, 2u);
  space.deallocate(a);
  EXPECT_EQ(space.stats().allocation_count, 1u);
  EXPECT_EQ(space.stats().total_allocations, 2u);
  space.deallocate(b);
}

TEST(MemorySpace, ConcurrentAllocateDeallocate) {
  MemorySpace space("s", MemKind::MCDRAM, MiB(64));
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        void* p = space.try_allocate(KiB(16));
        if (p == nullptr) {
          ++failures;
          continue;
        }
        std::memset(p, 0xAB, KiB(16));
        space.deallocate(p);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(space.stats().used_bytes, 0u);
  EXPECT_EQ(failures.load(), 0);  // 4 * 16KiB << 64 MiB
}

TEST(Allocation, RaiiReleases) {
  MemorySpace space("s", MemKind::MCDRAM, KiB(64));
  {
    Allocation a(space, KiB(32));
    EXPECT_TRUE(a.valid());
    EXPECT_EQ(space.stats().used_bytes, KiB(32));
  }
  EXPECT_EQ(space.stats().used_bytes, 0u);
}

TEST(Allocation, MoveTransfersOwnership) {
  MemorySpace space("s", MemKind::MCDRAM, KiB(64));
  Allocation a(space, KiB(16));
  void* p = a.get();
  Allocation b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_EQ(b.get(), p);
  EXPECT_EQ(space.stats().used_bytes, KiB(16));
}

TEST(SpaceBuffer, TypedAccess) {
  MemorySpace space("s", MemKind::DDR, 0);
  SpaceBuffer<int> buf(space, 100);
  ASSERT_TRUE(buf.valid());
  EXPECT_EQ(buf.size(), 100u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<int>(i * i);
  }
  EXPECT_EQ(buf[9], 81);
  int sum = 0;
  for (int v : buf) sum += v;
  EXPECT_EQ(sum, 328350);
  buf.reset();
  EXPECT_FALSE(buf.valid());
  EXPECT_EQ(space.stats().used_bytes, 0u);
}

TEST(MemKind, Names) {
  EXPECT_STREQ(to_string(MemKind::DDR), "DDR");
  EXPECT_STREQ(to_string(MemKind::MCDRAM), "MCDRAM");
}

TEST(SubArena, ForwardsAccountingToParent) {
  MemorySpace parent("mcdram", MemKind::MCDRAM, KiB(64));
  MemorySpace job("job0/mcdram", parent, KiB(32));
  EXPECT_EQ(job.parent(), &parent);
  EXPECT_EQ(parent.parent(), nullptr);
  EXPECT_EQ(job.kind(), MemKind::MCDRAM);

  void* p = job.allocate(KiB(16));
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(job.owns(p));
  EXPECT_TRUE(parent.owns(p));  // backing memory lives in the parent
  EXPECT_EQ(job.stats().used_bytes, KiB(16));
  EXPECT_EQ(parent.stats().used_bytes, KiB(16));

  job.deallocate(p);
  EXPECT_EQ(job.stats().used_bytes, 0u);
  EXPECT_EQ(parent.stats().used_bytes, 0u);
  EXPECT_FALSE(parent.owns(p));
}

TEST(SubArena, BudgetCapsBelowParentCapacity) {
  MemorySpace parent("mcdram", MemKind::MCDRAM, KiB(64));
  MemorySpace job("job0/mcdram", parent, KiB(16));
  EXPECT_EQ(job.try_allocate(KiB(32)), nullptr);  // over budget
  EXPECT_EQ(parent.stats().used_bytes, 0u);       // nothing leaked through
  EXPECT_THROW(job.allocate(KiB(32)), OutOfMemoryError);
  void* p = job.allocate(KiB(16));
  ASSERT_NE(p, nullptr);
  job.deallocate(p);
}

TEST(SubArena, ParentExhaustionRollsBackChildAccounting) {
  MemorySpace parent("mcdram", MemKind::MCDRAM, KiB(32));
  MemorySpace greedy("a/mcdram", parent, 0);  // pure forwarding
  MemorySpace job("b/mcdram", parent, KiB(32));
  void* hog = greedy.allocate(KiB(24));
  // The job's own budget would allow this, but the shared parent can't.
  EXPECT_EQ(job.try_allocate(KiB(16)), nullptr);
  EXPECT_EQ(job.stats().used_bytes, 0u);
  EXPECT_EQ(job.stats().total_allocations, 0u);
  greedy.deallocate(hog);
  void* p = job.allocate(KiB(16));
  ASSERT_NE(p, nullptr);
  job.deallocate(p);
}

TEST(SubArena, TenantsShareTheParentArena) {
  MemorySpace parent("mcdram", MemKind::MCDRAM, KiB(64));
  MemorySpace a("a/mcdram", parent, KiB(48));
  MemorySpace b("b/mcdram", parent, KiB(48));
  void* pa = a.allocate(KiB(40));
  // Each tenant's budget admits 48K, but together they are bounded by
  // the parent's 64K — the over-commit the admission controller must
  // never grant.
  EXPECT_EQ(b.try_allocate(KiB(40)), nullptr);
  void* pb = b.allocate(KiB(16));
  EXPECT_EQ(parent.stats().used_bytes, KiB(56));
  a.deallocate(pa);
  b.deallocate(pb);
  EXPECT_EQ(parent.stats().high_water_bytes, KiB(56));
}

TEST(SubArena, DestructorReturnsLeakedBytesToParent) {
  MemorySpace parent("mcdram", MemKind::MCDRAM, KiB(64));
  {
    MemorySpace job("job0/mcdram", parent, KiB(32));
    (void)job.allocate(KiB(16));  // deliberately leaked by the tenant
  }
  EXPECT_EQ(parent.stats().used_bytes, 0u);
}

TEST(SubArena, ZeroBudgetIsPureForwarding) {
  // Budget 0 adds no cap of its own: the sub-arena reports unlimited
  // and the parent's capacity is the only limit it ever hits.
  MemorySpace parent("mcdram", MemKind::MCDRAM, KiB(64));
  MemorySpace job("job0/mcdram", parent, 0);
  EXPECT_TRUE(job.unlimited());
  EXPECT_EQ(job.parent(), &parent);

  void* p = job.allocate(KiB(64));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(parent.stats().used_bytes, KiB(64));
  EXPECT_EQ(job.try_allocate(64), nullptr);  // parent full, not budget
  EXPECT_THROW(job.allocate(64), OutOfMemoryError);
  job.deallocate(p);
  EXPECT_EQ(parent.stats().used_bytes, 0u);

  // A zero-byte allocation through the forwarding chain still yields a
  // distinct live pointer accounted in both arenas.
  void* z = job.allocate(0);
  ASSERT_NE(z, nullptr);
  EXPECT_TRUE(job.owns(z));
  EXPECT_TRUE(parent.owns(z));
  job.deallocate(z);
}

TEST(SubArena, ReleaseAfterParentHighWaterReset) {
  // reset_high_water() between bench repetitions must not confuse the
  // forwarding accounting: releases after a parent reset still return
  // bytes, and the high-water marks re-track from the reset point.
  MemorySpace parent("mcdram", MemKind::MCDRAM, KiB(64));
  MemorySpace job("job0/mcdram", parent, KiB(48));
  void* a = job.allocate(KiB(32));
  void* b = job.allocate(KiB(16));
  job.deallocate(b);
  EXPECT_EQ(parent.stats().high_water_bytes, KiB(48));

  parent.reset_high_water();
  job.reset_high_water();
  EXPECT_EQ(parent.stats().high_water_bytes, KiB(32));  // = current usage
  EXPECT_EQ(job.stats().high_water_bytes, KiB(32));

  job.deallocate(a);
  EXPECT_EQ(parent.stats().used_bytes, 0u);
  EXPECT_EQ(job.stats().used_bytes, 0u);
  // The mark keeps the post-reset peak, not the pre-reset one.
  EXPECT_EQ(parent.stats().high_water_bytes, KiB(32));

  void* c = job.allocate(KiB(16));
  EXPECT_EQ(parent.stats().high_water_bytes, KiB(32));
  job.deallocate(c);
}

TEST(SubArena, ExhaustionMessageNamesParentArena) {
  MemorySpace parent("mcdram", MemKind::MCDRAM, KiB(64));
  MemorySpace job("job0/mcdram", parent, KiB(16));
  try {
    job.allocate(KiB(32));
    FAIL() << "expected OutOfMemoryError";
  } catch (const OutOfMemoryError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("job0/mcdram"), std::string::npos) << what;
    EXPECT_NE(what.find("sub-arena of 'mcdram'"), std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace mlm
