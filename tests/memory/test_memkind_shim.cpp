#include "mlm/memory/memkind_shim.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "mlm/fault/fault.h"
#include "mlm/memory/memory_space.h"
#include "mlm/support/units.h"

namespace mlm {
namespace {

class MemkindShimTest : public ::testing::Test {
 protected:
  void TearDown() override {
    mlm_hbw_set_space(nullptr);
    mlm_hbw_set_policy(MLM_HBW_POLICY_PREFERRED);
  }
};

TEST_F(MemkindShimTest, UnavailableWithoutInstalledSpace) {
  mlm_hbw_set_space(nullptr);
  EXPECT_EQ(mlm_hbw_check_available(), 0);
  // PREFERRED policy still serves from the heap.
  void* p = mlm_hbw_malloc(128);
  ASSERT_NE(p, nullptr);
  mlm_hbw_free(p);
}

TEST_F(MemkindShimTest, AllocatesFromInstalledSpace) {
  MemorySpace space("hbw", MemKind::MCDRAM, KiB(64));
  mlm_hbw_set_space(&space);
  EXPECT_EQ(mlm_hbw_check_available(), 1);
  void* p = mlm_hbw_malloc(KiB(16));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(space.stats().used_bytes, KiB(16));
  mlm_hbw_free(p);
  EXPECT_EQ(space.stats().used_bytes, 0u);
}

TEST_F(MemkindShimTest, BindPolicyFailsWhenExhausted) {
  MemorySpace space("hbw", MemKind::MCDRAM, KiB(16));
  mlm_hbw_set_space(&space);
  ASSERT_EQ(mlm_hbw_set_policy(MLM_HBW_POLICY_BIND), 0);
  void* p = mlm_hbw_malloc(KiB(16));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(mlm_hbw_malloc(KiB(16)), nullptr);
  mlm_hbw_free(p);
}

TEST_F(MemkindShimTest, PreferredPolicyFallsBackToHeap) {
  MemorySpace space("hbw", MemKind::MCDRAM, KiB(16));
  mlm_hbw_set_space(&space);
  ASSERT_EQ(mlm_hbw_set_policy(MLM_HBW_POLICY_PREFERRED), 0);
  void* a = mlm_hbw_malloc(KiB(16));
  void* b = mlm_hbw_malloc(KiB(16));  // exceeds the space -> heap
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(space.stats().used_bytes, KiB(16));
  mlm_hbw_free(a);
  mlm_hbw_free(b);  // must route to the heap, not the space
  EXPECT_EQ(space.stats().used_bytes, 0u);
}

TEST_F(MemkindShimTest, CallocZeroesMemory) {
  MemorySpace space("hbw", MemKind::MCDRAM, KiB(64));
  mlm_hbw_set_space(&space);
  auto* p = static_cast<unsigned char*>(mlm_hbw_calloc(100, 4));
  ASSERT_NE(p, nullptr);
  for (int i = 0; i < 400; ++i) EXPECT_EQ(p[i], 0);
  mlm_hbw_free(p);
}

TEST_F(MemkindShimTest, CallocOverflowReturnsNull) {
  EXPECT_EQ(mlm_hbw_calloc(static_cast<size_t>(-1), 8), nullptr);
}

TEST_F(MemkindShimTest, FreeNullIsNoop) {
  EXPECT_NO_THROW(mlm_hbw_free(nullptr));
}

TEST_F(MemkindShimTest, PosixMemalignFromSpace) {
  MemorySpace space("hbw", MemKind::MCDRAM, KiB(64));
  mlm_hbw_set_space(&space);
  void* p = nullptr;
  ASSERT_EQ(mlm_hbw_posix_memalign(&p, 64, KiB(16)), 0);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  EXPECT_EQ(space.stats().used_bytes, KiB(16));
  mlm_hbw_free(p);
}

TEST_F(MemkindShimTest, PosixMemalignBadAlignment) {
  void* p = reinterpret_cast<void*>(0x1);
  EXPECT_EQ(mlm_hbw_posix_memalign(&p, 0, 64), EINVAL);
  EXPECT_EQ(mlm_hbw_posix_memalign(&p, 3, 64), EINVAL);
  EXPECT_EQ(mlm_hbw_posix_memalign(&p, 48, 64), EINVAL);
  EXPECT_EQ(p, nullptr);  // cleared on failure
  EXPECT_EQ(mlm_hbw_posix_memalign(nullptr, 64, 64), EINVAL);
}

TEST_F(MemkindShimTest, PosixMemalignBindExhaustion) {
  MemorySpace space("hbw", MemKind::MCDRAM, KiB(16));
  mlm_hbw_set_space(&space);
  mlm_hbw_set_policy(MLM_HBW_POLICY_BIND);
  void* a = nullptr;
  ASSERT_EQ(mlm_hbw_posix_memalign(&a, 64, KiB(16)), 0);
  void* b = nullptr;
  EXPECT_EQ(mlm_hbw_posix_memalign(&b, 64, KiB(16)), ENOMEM);
  mlm_hbw_free(a);
}

TEST_F(MemkindShimTest, LargeAlignmentFallsBackToHeap) {
  MemorySpace space("hbw", MemKind::MCDRAM, KiB(64));
  mlm_hbw_set_space(&space);
  void* p = nullptr;
  ASSERT_EQ(mlm_hbw_posix_memalign(&p, 4096, KiB(8)), 0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 4096, 0u);
  // 4 KiB alignment exceeds the space's 64 B guarantee: heap-served.
  EXPECT_EQ(space.stats().used_bytes, 0u);
  EXPECT_EQ(mlm_hbw_verify(p), 0);
  mlm_hbw_free(p);
}

TEST_F(MemkindShimTest, VerifyDistinguishesSpaceFromHeap) {
  MemorySpace space("hbw", MemKind::MCDRAM, KiB(16));
  mlm_hbw_set_space(&space);
  void* hbw = mlm_hbw_malloc(KiB(8));
  void* heap = mlm_hbw_malloc(KiB(16));  // exceeds remaining -> heap
  ASSERT_NE(hbw, nullptr);
  ASSERT_NE(heap, nullptr);
  EXPECT_EQ(mlm_hbw_verify(hbw), 1);
  EXPECT_EQ(mlm_hbw_verify(heap), 0);
  EXPECT_EQ(mlm_hbw_verify(nullptr), 0);
  int local = 0;
  EXPECT_EQ(mlm_hbw_verify(&local), 0);
  mlm_hbw_free(hbw);
  mlm_hbw_free(heap);
}

// Transient HBW exhaustion (a co-tenant briefly holding MCDRAM): the
// armed site fires a bounded number of times, after which allocation
// succeeds again — under BIND the caller sees the failures, under
// PREFERRED it never does.
TEST_F(MemkindShimTest, InjectedTransientExhaustionClears) {
  MemorySpace space("hbw", MemKind::MCDRAM, KiB(64));
  mlm_hbw_set_space(&space);
  mlm_hbw_set_policy(MLM_HBW_POLICY_BIND);

  fault::FaultPlan plan;
  plan.arm(fault::sites::kHbwMalloc,
           fault::FaultTrigger::after_n(0, 2));  // fail twice, then clear
  fault::ScopedFaultInjector inject(plan);

  EXPECT_EQ(mlm_hbw_malloc(KiB(1)), nullptr);
  EXPECT_EQ(mlm_hbw_malloc(KiB(1)), nullptr);
  void* p = mlm_hbw_malloc(KiB(1));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(mlm_hbw_verify(p), 1);
  mlm_hbw_free(p);
  EXPECT_EQ(plan.stats(fault::sites::kHbwMalloc).fires, 2u);
}

TEST_F(MemkindShimTest, InjectedExhaustionPreferredNeverFailsCaller) {
  MemorySpace space("hbw", MemKind::MCDRAM, KiB(64));
  mlm_hbw_set_space(&space);
  mlm_hbw_set_policy(MLM_HBW_POLICY_PREFERRED);

  fault::FaultPlan plan;
  plan.arm(fault::sites::kHbwPosixMemalign,
           fault::FaultTrigger::after_n(0, 1));
  fault::ScopedFaultInjector inject(plan);

  void* a = nullptr;
  ASSERT_EQ(mlm_hbw_posix_memalign(&a, 64, KiB(1)), 0);
  EXPECT_EQ(mlm_hbw_verify(a), 0);  // heap fallback, like memkind
  void* b = nullptr;
  ASSERT_EQ(mlm_hbw_posix_memalign(&b, 64, KiB(1)), 0);
  EXPECT_EQ(mlm_hbw_verify(b), 1);  // fault cleared: HBW again
  mlm_hbw_free(a);
  mlm_hbw_free(b);
}

// mlm_hbw_set_space is atomic: allocations racing a space swap see the
// old or the new space (never a torn pointer) and every pointer frees
// through the allocator that produced it (run under tsan via `race`
// suites; here we assert the accounting stays exact).
TEST_F(MemkindShimTest, ConcurrentSetSpaceAndMallocStayConsistent) {
  MemorySpace a("hbw-a", MemKind::MCDRAM, MiB(1));
  MemorySpace b("hbw-b", MemKind::MCDRAM, MiB(1));
  std::atomic<bool> stop{false};

  std::thread swapper([&] {
    for (int i = 0; i < 2000; ++i) {
      mlm_hbw_set_space(i % 2 == 0 ? &a : &b);
    }
    stop.store(true);
  });

  std::vector<std::thread> allocators;
  for (int t = 0; t < 3; ++t) {
    allocators.emplace_back([&] {
      while (!stop.load()) {
        void* p = mlm_hbw_malloc(256);
        if (p != nullptr) mlm_hbw_free(p);
      }
    });
  }
  swapper.join();
  for (auto& th : allocators) th.join();

  EXPECT_EQ(a.stats().used_bytes, 0u);
  EXPECT_EQ(b.stats().used_bytes, 0u);
}

// A block leaked into a space that is then destroyed (its destructor
// frees the block) must not pin that address to the dead space: when a
// new space gets the same address back, mlm_hbw_free routes to the new
// space.  64 MiB is above glibc's largest mmap threshold, so the block is
// mmapped and the kernel hands the freed range straight back.
TEST_F(MemkindShimTest, ReusedAddressFreesThroughItsNewSpace) {
  MemorySpace live("hbw-live", MemKind::MCDRAM, MiB(64));
  auto dead =
      std::make_unique<MemorySpace>("hbw-dead", MemKind::MCDRAM, MiB(64));
  mlm_hbw_set_space(dead.get());
  void* leaked = mlm_hbw_malloc(MiB(64));
  ASSERT_NE(leaked, nullptr);
  mlm_hbw_set_space(&live);
  dead.reset();
  void* p = mlm_hbw_malloc(MiB(64));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(live.stats().allocation_count, 1u);
  if (p != leaked) {
    mlm_hbw_free(p);
    GTEST_SKIP() << "the allocator did not hand the leaked address back";
  }
  mlm_hbw_free(p);
  EXPECT_EQ(live.stats().used_bytes, 0u);
  EXPECT_EQ(live.stats().allocation_count, 0u);
}

TEST_F(MemkindShimTest, InvalidPolicyRejected) {
  EXPECT_EQ(mlm_hbw_set_policy(static_cast<mlm_hbw_policy>(42)), -1);
  EXPECT_EQ(mlm_hbw_get_policy(), MLM_HBW_POLICY_PREFERRED);
}

}  // namespace
}  // namespace mlm
