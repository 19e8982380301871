// JobPool: a free-list arena for Job records.
//
// A long simulation releases millions of jobs but only a handful are alive
// at any instant; the pool recycles slots so memory stays proportional to
// the number of in-flight jobs.
//
// Header-only: allocate/release/get run several times per simulated
// event, so they must inline into the engine's dispatch loop.
#pragma once

#include <vector>

#include "common/error.h"
#include "sim/job.h"

namespace e2e {

class JobPool {
 public:
  /// Allocates a slot (the most recently freed one, if any) holding `job`.
  JobSlot allocate(const Job& job) {
    JobSlot slot = 0;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      jobs_[slot] = job;
      occupied_[slot] = 1;
    } else {
      slot = static_cast<JobSlot>(jobs_.size());
      jobs_.push_back(job);
      occupied_.push_back(1);
    }
    ++live_;
    return slot;
  }

  /// Releases a slot for reuse.
  void release(JobSlot slot) {
    E2E_ASSERT(slot < jobs_.size() && occupied_[slot] != 0,
               "releasing a dead job slot");
    occupied_[slot] = 0;
    free_.push_back(slot);
    --live_;
  }

  [[nodiscard]] Job& get(JobSlot slot) {
    E2E_ASSERT(slot < jobs_.size() && occupied_[slot] != 0,
               "accessing a dead job slot");
    return jobs_[slot];
  }
  [[nodiscard]] const Job& get(JobSlot slot) const {
    E2E_ASSERT(slot < jobs_.size() && occupied_[slot] != 0,
               "accessing a dead job slot");
    return jobs_[slot];
  }
  [[nodiscard]] bool occupied(JobSlot slot) const noexcept {
    return slot < jobs_.size() && occupied_[slot] != 0;
  }

  /// Number of live jobs.
  [[nodiscard]] std::size_t live_count() const noexcept { return live_; }

  /// Forgets every slot (live or free) but keeps the arena's allocated
  /// storage. A cleared pool is observationally identical to a fresh one
  /// -- slot indices restart from zero -- which is what lets a reused
  /// Engine reproduce a fresh engine's schedule exactly.
  void clear() noexcept {
    jobs_.clear();
    occupied_.clear();
    free_.clear();
    live_ = 0;
  }
  /// Pre-sizes the arena for `capacity` concurrent jobs.
  void reserve(std::size_t capacity) {
    jobs_.reserve(capacity);
    occupied_.reserve(capacity);
    free_.reserve(capacity);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return jobs_.capacity(); }

 private:
  std::vector<Job> jobs_;           // [slot]
  std::vector<std::uint8_t> occupied_;  // [slot]; SoA plane beside jobs_
  std::vector<JobSlot> free_;
  std::size_t live_ = 0;
};

}  // namespace e2e
