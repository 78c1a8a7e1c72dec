#include "mlm/core/degrade.h"

#include <chrono>
#include <thread>

#include "mlm/support/cache_line.h"

namespace mlm::core {

bool RecoveryLadder::fall_back(std::string_view site, std::int64_t chunk) {
  if (!policy_.allow_tier_fallback) return false;
  if (fallbacks_ != nullptr) ++*fallbacks_;
  record(site, "tier_fallback", chunk, 0);
  return true;
}

bool RecoveryLadder::retry(std::string_view site, std::int64_t chunk,
                           std::size_t& attempt) {
  if (attempt >= policy_.max_retries) return false;
  ++attempt;
  ++retries_;
  record(site, "retry", chunk, attempt);
  const std::size_t us = may_sleep_ ? policy_.delay_us(attempt) : 0;
  if (us != 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  return true;
}

// The one halving rule: half the chunk's bytes, rounded down to a cache
// line, never below min_chunk_bytes (or a line) nor below one unit.
bool RecoveryLadder::halve(std::string_view site, std::int64_t chunk,
                           std::size_t& units, std::size_t unit_bytes) {
  if (!policy_.allow_chunk_halving) return false;
  const std::size_t floor_bytes =
      std::max<std::size_t>(policy_.min_chunk_bytes, kCacheLineBytes);
  const std::size_t halved =
      round_down(units * unit_bytes / 2, kCacheLineBytes);
  if (halved < floor_bytes || halved < unit_bytes) return false;
  units = halved / unit_bytes;
  if (halvings_ != nullptr) ++*halvings_;
  record(site, "chunk_halved", chunk, 0);
  return true;
}

void RecoveryLadder::record(std::string_view site, const char* action,
                            std::int64_t chunk, std::size_t attempt) {
  events_.push_back(
      DegradationEvent{std::string(site), action, chunk, attempt});
}

void RecoveryLadder::absorb_fires(fault::FaultSite& site, const char* op,
                                  std::int64_t chunk, const std::string& tier) {
  std::size_t attempt = 0;
  do {
    if (!retry(site.name(), chunk, attempt)) {
      fault::InjectedFaultError err("injected fault at site '" +
                                    site.name() + "'");
      err.with_frame({op, chunk, tier, "orchestrator",
                      "retries exhausted after " +
                          std::to_string(attempt) + " attempts"});
      throw err;
    }
  } while (site.should_fire());
}

}  // namespace mlm::core
