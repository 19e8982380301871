#include "core/analysis/cache.h"

#include <bit>

#include "common/hash.h"

namespace e2e {
namespace {

[[nodiscard]] constexpr std::uint64_t mix(std::uint64_t acc, std::int64_t v) noexcept {
  return hash_combine(acc, static_cast<std::uint64_t>(v));
}

}  // namespace

std::uint64_t system_content_hash(const TaskSystem& system) {
  std::uint64_t h = mix(0, static_cast<std::int64_t>(system.processor_count()));
  h = mix(h, static_cast<std::int64_t>(system.task_count()));
  for (const Task& t : system.tasks()) {
    h = mix(h, t.period);
    h = mix(h, t.phase);
    h = mix(h, t.relative_deadline);
    h = mix(h, t.release_jitter);
    h = mix(h, static_cast<std::int64_t>(t.subtasks.size()));
    for (const Subtask& s : t.subtasks) {
      h = mix(h, s.processor.value());
      h = mix(h, s.execution_time);
      h = mix(h, s.priority.level);
      h = mix(h, s.preemptible ? 1 : 0);
    }
  }
  return h;
}

std::shared_ptr<const AnalysisResult> AnalysisCache::sa_pm(const TaskSystem& system,
                                                           const SaPmOptions& options) {
  std::uint64_t key = system_content_hash(system);
  // cap_period_multiplier is SaPmOptions' only field, so the key covers
  // every option.
  key = hash_combine(key, std::bit_cast<std::uint64_t>(options.cap_period_multiplier));
  return table_.get_or_compute(key,
                               [&] { return analyze_sa_pm(system, options); });
}

AnalysisCache& AnalysisCache::shared() {
  static AnalysisCache instance;
  return instance;
}

}  // namespace e2e
