// CheckpointCodec: the wire format (writer/reader primitives, flat
// Checkpoint encoding, loud failures on truncation and trailing
// garbage) and the real restore seams — an ExternalMlmSorter stepper
// and a chunk-pipeline job killed at EVERY step boundary must, when
// rebuilt from their checkpoint over the surviving far-tier data,
// finish byte-identical to the uninterrupted run.  Seeded mutation
// sweeps check that a corrupt sort, pipeline or migration checkpoint
// either restores a job that runs to completion or fails as a
// structured error.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "mlm/core/chunk_pipeline.h"
#include "mlm/core/external_sort.h"
#include "mlm/kvstore/migration_job.h"
#include "mlm/kvstore/store.h"
#include "mlm/memory/memory_hierarchy.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/service/checkpoint.h"
#include "mlm/service/pipeline_job.h"
#include "mlm/service/sort_job.h"
#include "mlm/sort/input_gen.h"
#include "mlm/support/error.h"
#include "mlm/support/proptest.h"
#include "mlm/support/units.h"

namespace mlm::service {
namespace {

TEST(CheckpointCodec, WriterReaderRoundTripAllFieldTypes) {
  CheckpointWriter w;
  w.u64(0);
  w.u64(~0ull);
  w.i64(-123456789);
  w.boolean(true);
  w.boolean(false);
  w.str("sort.external.v1");
  w.str("");
  const std::vector<std::uint8_t> raw = {0xDE, 0xAD, 0xBE, 0xEF};
  w.blob(raw);
  w.u64_vec({0, 512, 1024, 1536});
  w.u64_vec({});

  CheckpointReader r(w.bytes());
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_EQ(r.u64(), ~0ull);
  EXPECT_EQ(r.i64(), -123456789);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "sort.external.v1");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.blob(), raw);
  EXPECT_EQ(r.u64_vec(), (std::vector<std::size_t>{0, 512, 1024, 1536}));
  EXPECT_TRUE(r.u64_vec().empty());
  EXPECT_NO_THROW(r.expect_done());
}

TEST(CheckpointCodec, TruncatedPayloadFailsLoudly) {
  CheckpointWriter w;
  w.u64_vec({1, 2, 3});
  std::vector<std::uint8_t> bytes = w.take();
  bytes.pop_back();  // lose one byte of the last element
  CheckpointReader r(bytes);
  try {
    (void)r.u64_vec();
    FAIL() << "expected a truncation error";
  } catch (const Error& e) {
    ASSERT_FALSE(e.chain().empty());
    EXPECT_EQ(e.chain().front().op, "checkpoint_decode");
  }
}

TEST(CheckpointCodec, TrailingGarbageFailsExpectDone) {
  CheckpointWriter w;
  w.u64(7);
  std::vector<std::uint8_t> bytes = w.take();
  bytes.push_back(0x00);
  CheckpointReader r(bytes);
  EXPECT_EQ(r.u64(), 7u);
  EXPECT_FALSE(r.done());
  EXPECT_THROW(r.expect_done(), Error);
}

TEST(CheckpointCodec, CorruptBooleanIsRejected) {
  const std::vector<std::uint8_t> bytes = {2};
  CheckpointReader r(bytes);
  EXPECT_THROW((void)r.boolean(), Error);
}

// A u64 vector whose length field is 2^61 + 1 used to wrap the length
// check (n * 8 == 8) and reach vector::reserve, which threw
// std::length_error instead of a structured truncation error.
TEST(CheckpointCodec, HugeVectorLengthIsATruncationError) {
  CheckpointWriter w;
  w.u64((std::uint64_t{1} << 61) + 1);
  w.u64(0);
  const Checkpoint ckpt{kSortCheckpointKind, w.take()};
  try {
    (void)decode_sort_checkpoint(ckpt);
    FAIL() << "expected a truncation error";
  } catch (const Error& e) {
    ASSERT_FALSE(e.chain().empty());
    EXPECT_EQ(e.chain().front().op, "checkpoint_decode");
  }
}

TEST(CheckpointCodec, FlatCheckpointEncodingRoundTrips) {
  const Checkpoint c{"pipeline.chunks.v1", {1, 2, 3, 4, 5}};
  const Checkpoint back = Checkpoint::decode(c.encode());
  EXPECT_EQ(back.kind, c.kind);
  EXPECT_EQ(back.payload, c.payload);
}

TEST(CheckpointCodec, SortCheckpointRoundTripsAndChecksKind) {
  core::ExternalSortCheckpoint c;
  c.chunk_begins = {0, 512, 1024, 1536};
  c.next_chunk = 2;
  c.merge_phase = false;
  c.inner_tier_fallback = true;

  const Checkpoint wire = encode_sort_checkpoint(c);
  EXPECT_EQ(wire.kind, kSortCheckpointKind);
  const core::ExternalSortCheckpoint back = decode_sort_checkpoint(wire);
  EXPECT_EQ(back.chunk_begins, c.chunk_begins);
  EXPECT_EQ(back.next_chunk, c.next_chunk);
  EXPECT_EQ(back.merge_phase, c.merge_phase);
  EXPECT_EQ(back.inner_tier_fallback, c.inner_tier_fallback);

  EXPECT_THROW(decode_sort_checkpoint(Checkpoint{"kv.migration.v1", {}}),
               Error);
  Checkpoint truncated = wire;
  truncated.payload.pop_back();
  EXPECT_THROW(decode_sort_checkpoint(truncated), Error);
  Checkpoint bloated = wire;
  bloated.payload.push_back(0);
  EXPECT_THROW(decode_sort_checkpoint(bloated), Error);
}

// ---------------------------------------------------------------------
// Restore seams: kill at every step boundary, rebuild from the
// checkpoint over the surviving far-tier bytes, finish, compare.
// ---------------------------------------------------------------------

HierarchyConfig three_tier() {
  HierarchyConfig cfg;
  cfg.tiers = {TierConfig{"nvm", MemKind::NVM, 0},
               TierConfig{"ddr", MemKind::DDR, MiB(2)},
               TierConfig{"mcdram", MemKind::MCDRAM, KiB(256)}};
  cfg.mode = McdramMode::Flat;
  return cfg;
}

core::ExternalSortConfig sort_config() {
  core::ExternalSortConfig cfg;
  cfg.outer_chunk_elements = 512;
  cfg.inner.variant = core::MlmVariant::Flat;
  return cfg;
}

TEST(SortStepperRestore, KilledAtEveryStepBoundaryFinishesIdentically) {
  constexpr std::size_t kN = 2048;
  const std::vector<std::int64_t> input =
      sort::make_input(kN, sort::InputOrder::Random, 42);
  std::vector<std::int64_t> expected = input;
  std::sort(expected.begin(), expected.end());

  MemoryHierarchy hier(three_tier());
  ThreadPool pool(2, "restore");

  // Total step count of the uninterrupted run.
  std::size_t total_steps = 0;
  {
    std::vector<std::int64_t> data = input;
    core::ExternalMlmSorter<std::int64_t> sorter(hier, pool, sort_config());
    core::ExternalMlmSorter<std::int64_t>::Stepper s(
        sorter, std::span<std::int64_t>(data));
    while (s.step()) ++total_steps;
    s.finish();
    ASSERT_EQ(data, expected);
  }

  for (std::size_t kill = 0; kill <= total_steps; ++kill) {
    std::vector<std::int64_t> data = input;  // the surviving far tier
    core::ExternalSortCheckpoint ckpt;
    {
      core::ExternalMlmSorter<std::int64_t> sorter(hier, pool,
                                                   sort_config());
      core::ExternalMlmSorter<std::int64_t>::Stepper s(
          sorter, std::span<std::int64_t>(data));
      bool more = true;
      for (std::size_t i = 0; i < kill && more; ++i) more = s.step();
      ckpt = s.checkpoint();
      // Crash: stepper and sorter die; `data` survives.
    }
    // Push the checkpoint through the wire format, as the journal would.
    const core::ExternalSortCheckpoint replayed =
        decode_sort_checkpoint(Checkpoint::decode(
            encode_sort_checkpoint(ckpt).encode()));

    core::ExternalMlmSorter<std::int64_t> sorter(hier, pool, sort_config());
    core::ExternalMlmSorter<std::int64_t>::Stepper restored(
        sorter, std::span<std::int64_t>(data), replayed);
    while (restored.step()) {
    }
    restored.finish();
    EXPECT_EQ(data, expected) << "killed at step " << kill;
  }
}

// Flip one to three random bits of `wire`'s payload.
Checkpoint mutate(const Checkpoint& wire, Gen& gen) {
  Checkpoint mutant = wire;
  for (std::size_t f = gen.size_in(1, 3); f > 0; --f) {
    mutant.payload[gen.below(mutant.payload.size())] ^=
        static_cast<std::uint8_t>(1u << gen.below(8));
  }
  return mutant;
}

// Seeded mutation of an encoded sort checkpoint: every mutant either
// decodes into a checkpoint a Stepper restores from, or is rejected
// with a structured mlm::Error — never any other exception.
TEST(CheckpointFuzz, SortCheckpointMutantsRestoreOrFailStructured) {
  constexpr std::size_t kN = 2048;
  constexpr std::size_t kMutants = 2000;
  std::vector<std::int64_t> data =
      sort::make_input(kN, sort::InputOrder::Random, 7);
  MemoryHierarchy hier(three_tier());
  ThreadPool pool(2, "fuzz");
  core::ExternalSortCheckpoint c;
  c.chunk_begins = {0, 512, 1024, 1536, kN};
  c.next_chunk = 2;
  const Checkpoint wire = encode_sort_checkpoint(c);

  Gen gen(21);
  std::size_t restored = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kMutants; ++i) {
    const Checkpoint mutant = mutate(wire, gen);
    try {
      const core::ExternalSortCheckpoint back =
          decode_sort_checkpoint(mutant);
      core::ExternalMlmSorter<std::int64_t> sorter(hier, pool,
                                                   sort_config());
      core::ExternalMlmSorter<std::int64_t>::Stepper stepper(
          sorter, std::span<std::int64_t>(data), back);
      ++restored;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " escaped as " << e.what();
    }
  }
  EXPECT_GT(restored, 0u);
  EXPECT_GT(rejected, 0u);
}

// Seeded mutation of an encoded pipeline checkpoint over an in-place
// pair: every mutant either restores a job that runs to completion over
// exactly the unretired suffix the checkpoint names, or is rejected
// with a structured mlm::Error.  A watermark whose chunks reach past
// the data (completed * chunk_bytes overflowing included) is rejected.
TEST(CheckpointFuzz, PipelineCheckpointMutantsRestoreOrFailStructured) {
  constexpr std::size_t kBytes = KiB(64);
  constexpr std::size_t kMutants = 2000;
  HierarchyConfig hcfg;
  hcfg.tiers = {TierConfig{"ddr", MemKind::DDR, 0},
                TierConfig{"mcdram", MemKind::MCDRAM, KiB(256)}};
  hcfg.mode = McdramMode::ImplicitCache;
  MemoryHierarchy hier(hcfg);
  const TierPair pair = hier.pair(0);  // no addressable near tier
  ASSERT_FALSE(pair.explicit_copies());
  ThreadPool pool(2, "fuzz");

  std::vector<std::byte> data(kBytes);
  std::atomic<std::uint64_t> seen{0};
  const core::ComputeFn count = [&](std::span<std::byte> chunk, Executor&,
                                    std::size_t) {
    seen.fetch_add(chunk.size(), std::memory_order_relaxed);
  };
  core::PipelineConfig pcfg;
  pcfg.chunk_bytes = KiB(8);
  const RecoverableFactory factory = make_recoverable_pipeline_job(
      pair, std::span<std::byte>(data), pcfg, count);

  CheckpointWriter w;
  w.u64(KiB(8));  // chunk_bytes
  w.u64(4);       // completed chunks: half the data
  const Checkpoint wire{kPipelineCheckpointKind, w.take()};

  JobConfig jc;
  JobContext ctx{hier, pool, false};
  Gen gen(22);
  std::size_t restored = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kMutants; ++i) {
    const Checkpoint mutant = mutate(wire, gen);
    CheckpointReader r(mutant.payload);
    const std::uint64_t chunk_bytes = r.u64();
    const std::uint64_t completed = r.u64();
    seen.store(0);
    try {
      std::unique_ptr<JobStepper> job = factory(jc, ctx, &mutant);
      while (job->step()) {
      }
      job->finish();
      ++restored;
      const unsigned __int128 retired =
          static_cast<unsigned __int128>(completed) * chunk_bytes;
      if (retired > kBytes) {
        ADD_FAILURE() << "mutant " << i << " restored a watermark of "
                      << completed << " x " << chunk_bytes
                      << " bytes over " << kBytes << " bytes of data";
        continue;
      }
      EXPECT_EQ(seen.load(), kBytes - static_cast<std::uint64_t>(retired))
          << "mutant " << i;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " escaped as " << e.what();
    }
  }
  EXPECT_GT(restored, 0u);
  EXPECT_GT(rejected, 0u);
}

// Seeded mutation of an encoded migration checkpoint: every mutant
// either restores a job whose moves all run to completion, or is
// rejected with a structured mlm::Error — a plan naming a segment the
// store does not have included.  Moves never change the contents.
TEST(CheckpointFuzz, MigrationCheckpointMutantsRestoreOrFailStructured) {
  constexpr std::size_t kSegments = 16;
  constexpr std::size_t kMutants = 2000;
  HierarchyConfig hcfg;
  hcfg.tiers = {TierConfig{"ddr", MemKind::DDR, 0},
                TierConfig{"mcdram", MemKind::MCDRAM, KiB(4)}};
  MemoryHierarchy hier(hcfg);
  kv::KvConfig kcfg;
  kcfg.value_bytes = 56;
  kcfg.records_per_segment = 16;
  kcfg.index_prefers_near = false;
  kv::TieredKvStore store(hier, kcfg);
  std::vector<std::uint8_t> value(56, 0x5A);
  for (std::uint64_t k = 0; k < kSegments * 16; ++k) {
    store.put(k, value.data());
  }
  ASSERT_EQ(store.segment_count(), kSegments);
  const std::uint64_t digest = store.contents_digest();
  kv::MigrationEngine engine(store);
  kv::MigrationPlan plan;
  plan.demote = {0, 1};
  plan.promote = {9, 10};
  const RecoverableFactory factory =
      kv::make_recoverable_migration_job(engine, plan);

  CheckpointWriter w;
  w.u64_vec(plan.demote);
  w.u64_vec(plan.promote);
  w.u64(1);  // next move
  const Checkpoint wire{kv::kMigrationCheckpointKind, w.take()};

  JobConfig jc;
  ThreadPool pool(1, "fuzz");
  JobContext ctx{hier, pool, false};
  Gen gen(23);
  std::size_t restored = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kMutants; ++i) {
    const Checkpoint mutant = mutate(wire, gen);
    try {
      std::unique_ptr<JobStepper> job = factory(jc, ctx, &mutant);
      while (job->step()) {
      }
      job->finish();
      ++restored;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " escaped as " << e.what();
    }
  }
  EXPECT_GT(restored, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(store.contents_digest(), digest);
}

TEST(PipelineJobRestore, WatermarkResumeNeverReappliesACompute) {
  constexpr std::size_t kN = 8192;  // 64 KiB of int64 over 8 KiB chunks
  std::vector<std::int64_t> input(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    input[i] = static_cast<std::int64_t>(i * 31 % 977);
  }
  // Deliberately NOT idempotent: applying it twice to any chunk moves
  // the digest, so this test also proves the retired-chunk watermark is
  // exact at step boundaries.
  const core::ComputeFn add_thousand = [](std::span<std::byte> chunk,
                                          Executor&, std::size_t) {
    auto* v = reinterpret_cast<std::int64_t*>(chunk.data());
    for (std::size_t i = 0; i < chunk.size() / sizeof(std::int64_t); ++i) {
      v[i] += 1000;
    }
  };
  std::vector<std::int64_t> expected = input;
  for (std::int64_t& v : expected) v += 1000;

  MemoryHierarchy hier(three_tier());
  ThreadPool pool(2, "restore");
  const TierPair pair = hier.pair(1);  // ddr -> mcdram
  core::PipelineConfig pcfg;
  pcfg.chunk_bytes = KiB(8);

  const auto as_bytes = [](std::vector<std::int64_t>& v) {
    return std::span<std::byte>(reinterpret_cast<std::byte*>(v.data()),
                                v.size() * sizeof(std::int64_t));
  };

  std::size_t total_steps = 0;
  {
    std::vector<std::int64_t> data = input;
    PipelineJob job(pair, as_bytes(data), pcfg, add_thousand);
    while (job.step()) ++total_steps;
    job.finish();
    ASSERT_EQ(data, expected);
  }

  JobConfig jc;
  JobContext ctx{hier, pool, false};
  for (std::size_t kill = 0; kill <= total_steps; ++kill) {
    std::vector<std::int64_t> data = input;
    std::optional<Checkpoint> ckpt;
    {
      PipelineJob job(pair, as_bytes(data), pcfg, add_thousand);
      bool more = true;
      for (std::size_t i = 0; i < kill && more; ++i) more = job.step();
      ckpt = job.checkpoint();
    }
    ASSERT_TRUE(ckpt.has_value()) << "killed at step " << kill;

    const RecoverableFactory factory = make_recoverable_pipeline_job(
        pair, as_bytes(data), pcfg, add_thousand);
    std::unique_ptr<JobStepper> resumed = factory(jc, ctx, &*ckpt);
    while (resumed->step()) {
    }
    resumed->finish();
    EXPECT_EQ(data, expected) << "killed at step " << kill;
  }
}

}  // namespace
}  // namespace mlm::service
