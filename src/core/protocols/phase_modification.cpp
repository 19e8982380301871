#include "core/protocols/phase_modification.h"

#include "common/error.h"

namespace e2e {

PhaseModificationProtocol::PhaseModificationProtocol(const TaskSystem& system,
                                                     const SubtaskTable& response_bounds)
    : phases_(system, 0) {
  for (const Task& t : system.tasks()) {
    Time phase = t.phase;  // f_{i,1} = f_i
    for (const Subtask& s : t.subtasks) {
      phases_.set(s.ref, phase);
      const Duration bound = response_bounds.at(s.ref);
      const bool is_last =
          s.ref.index + 1 == static_cast<std::int32_t>(t.chain_length());
      if (is_infinite(bound) && !is_last) {
        throw InvalidArgument(
            "PM protocol needs a finite response-time bound for every "
            "non-last subtask (task '" +
            t.name + "')");
      }
      if (!is_last) phase += bound;  // f_{i,j+1} = f_{i,j} + R_{i,j}
    }
  }
}

Time PhaseModificationProtocol::phase_of(SubtaskRef ref) const {
  return phases_.at(ref);
}

void PhaseModificationProtocol::initialize(Engine& engine) {
  // First subtasks are arrival-driven; all later subtasks get their own
  // strictly periodic release schedule starting at f_{i,j}.
  for (const Task& t : engine.system().tasks()) {
    for (const Subtask& s : t.subtasks) {
      if (s.ref.index == 0) continue;
      if (phases_.at(s.ref) <= engine.horizon()) {
        engine.schedule_release(s.ref, 0, phases_.at(s.ref));
      }
    }
  }
}

}  // namespace e2e
