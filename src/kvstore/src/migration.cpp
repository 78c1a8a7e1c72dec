#include "mlm/kvstore/migration.h"

#include <algorithm>
#include <string>

#include "mlm/fault/fault.h"
#include "mlm/kvstore/store.h"
#include "mlm/support/error.h"

namespace mlm::kv {

MigrationEngine::MigrationEngine(TieredKvStore& store,
                                 core::DegradePolicy policy)
    : store_(store), policy_(policy) {}

MigrationEngine::Stepper::Stepper(MigrationEngine& engine, MigrationPlan plan)
    : engine_(engine), plan_(std::move(plan)) {}

MigrationEngine::Stepper::Stepper(MigrationEngine& engine,
                                  MigrationPlan plan,
                                  std::size_t resume_next)
    : engine_(engine), plan_(std::move(plan)) {
  MLM_REQUIRE(resume_next <= plan_.moves(),
              "migration resume index beyond the plan");
  // A restored plan comes from journal bytes: check its segment ids.
  const auto known = [&](std::size_t id) {
    return id < engine_.store_.segment_count();
  };
  MLM_REQUIRE(std::ranges::all_of(plan_.demote, known) &&
                  std::ranges::all_of(plan_.promote, known),
              "migration plan names a segment the store lacks");
  next_ = resume_next;
}

void MigrationEngine::Stepper::move_at(std::size_t index) {
  static fault::FaultSite site(fault::sites::kKvMigrateStep);

  const bool demoting = index < plan_.demote.size();
  const std::size_t segment =
      demoting ? plan_.demote[index]
               : plan_.promote[index - plan_.demote.size()];
  const bool to_near = !demoting;

  TieredKvStore& store = engine_.store_;
  const auto chunk = static_cast<std::int64_t>(segment);
  // Injected fault or a real OutOfMemoryError from the target tier.
  // Chunk halving does not apply — the segment is the migration atom; a
  // fallback abandons the move and the segment stays where it is.
  const bool moved = ladder_.run(
      fault::sites::kKvMigrateStep, chunk, {.fall_back = true},
      [&] {
        site.maybe_throw();
        store.move_segment(segment, to_near);
      },
      [&](Error& e, std::size_t retries) {
        e.with_frame(ErrorFrame{
            "kv_migrate_step", chunk, to_near ? "near" : "far",
            "orchestrator",
            std::string(to_near ? "promote" : "demote") + " failed after " +
                std::to_string(retries + 1) + " attempt(s)"});
      });
  if (!moved) return;
  if (to_near) {
    ++stats_.promoted;
  } else {
    ++stats_.demoted;
  }
  stats_.moved_bytes += store.segment_bytes();
}

bool MigrationEngine::Stepper::step() {
  MLM_CHECK_MSG(!finished_, "Stepper::step after finish");
  if (done()) return false;
  move_at(next_);
  ++next_;
  ++stats_.steps;
  return !done();
}

MigrationStats MigrationEngine::Stepper::finish() {
  MLM_CHECK_MSG(done(), "Stepper::finish before done");
  MLM_CHECK_MSG(!finished_, "Stepper::finish called twice");
  finished_ = true;
  return std::move(stats_);
}

MigrationStats MigrationEngine::run(MigrationPlan plan) {
  Stepper stepper(*this, std::move(plan));
  while (stepper.step()) {
  }
  return stepper.finish();
}

}  // namespace mlm::kv
