// Engine: deterministic discrete-event simulator of a distributed
// fixed-priority preemptive real-time system (paper Section 2 semantics).
//
// Modelling choices, matching the paper's assumptions (each of which the
// optional fault layer, sim/fault/, can selectively relax):
//  * inter-processor synchronization signals cost zero time;
//  * scheduling/interrupt overhead is zero (overheads are *counted* in
//    SimStats so Section 3.3 comparisons can be made, but they consume no
//    simulated time);
//  * subtask instances execute for exactly their worst-case execution
//    time ("variations in the execution times ... are small", Section 6);
//  * each processor schedules released, incomplete instances by fixed
//    priority, preemptively; ties are broken FIFO by release time, then
//    by global release sequence.
//
// Usage:
//   DirectSyncProtocol ds;
//   Engine engine{system, ds, {.horizon = 100'000}};
//   engine.run();
//   engine.schedule_hash();            // fingerprint of the schedule
//   engine.eer_series(TaskId{0});      // EER of every completed instance
//
// Outputs without sinks: the engine itself folds the schedule hash
// (schedule_hash()) and keeps each task's EER series (eer_series()), so
// the Monte-Carlo and fault drivers run on the no-sink fast path. Sinks
// (sim/trace.h) are for observers that need more: jitter and IEER
// statistics (EerCollector), Gantt charts, event logs.
//
// Reuse: experiments that simulate thousands of runs recycle one Engine
// via reset(), which rebinds the (system, protocol, options) triple and
// rewinds all simulation state while keeping every allocation warm (event
// heap and FIFOs, job-slot arena, ready queues, the per-run arena). A
// reset engine is observationally identical to a freshly constructed one
// (same events, same schedule hash), asserted by engine_reuse_test; a
// *warm* reset+run cycle performs zero global-allocator calls, asserted
// by engine_alloc_test.
//
// Memory layout (DESIGN.md section 9): all per-run tables live in a
// MonotonicArena as flat SoA planes indexed by a precomputed
// (task, chain index) -> flat-subtask offset table; reset() rewinds the
// arena cursor instead of clear()ing nested containers. Job completions
// sit in one slot per processor, outside the event queue. The run loop
// advances to the earlier of the heap head and the earliest slot, one
// instant at a time (see run() for the order); events that handlers create
// for the instant being drained -- release_now above all -- wait in the
// queue's per-phase FIFOs and never touch the heap. The engine reaches the
// protocol only through the SyncProtocol interface: one virtual call per
// callback, whatever the protocol.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "sim/arena.h"
#include "sim/arrival.h"
#include "sim/event_queue.h"
#include "sim/execution_model.h"
#include "sim/job.h"
#include "sim/job_pool.h"
#include "sim/protocol.h"
#include "sim/trace.h"
#include "task/system.h"

namespace e2e {

class FaultInjector;
class TimeService;

/// Aggregate counters produced by a run.
struct SimStats {
  std::int64_t jobs_released = 0;
  std::int64_t jobs_completed = 0;
  std::int64_t dispatches = 0;        ///< starts + resumes
  std::int64_t preemptions = 0;
  std::int64_t sync_signals = 0;      ///< transmissions via send_sync_signal
  std::int64_t timer_interrupts = 0;  ///< kTimer events fired
  std::int64_t precedence_violations = 0;
  std::int64_t deadline_misses = 0;   ///< end-to-end deadline misses
  std::int64_t idle_points = 0;
  /// Queued events plus one per dispatch whose completion time falls
  /// within the horizon, whether the job completed then or was preempted.
  std::int64_t events_processed = 0;
  // --- fault-layer counters (all zero under ideal conditions) ---------
  std::int64_t dropped_signals = 0;     ///< no copy of the signal arrived
  std::int64_t late_signals = 0;        ///< deliveries with nonzero delay
  std::int64_t duplicated_signals = 0;  ///< extra copies delivered
  std::int64_t stalls = 0;              ///< jobs hit by a transient stall
  std::int64_t deferred_releases = 0;   ///< releases held by kDeferRelease
};

/// What the engine does when a release would violate its precedence
/// constraint (the matching predecessor instance has not completed).
enum class PrecedencePolicy {
  /// Record it (stats + sinks) and release anyway -- the seed behaviour,
  /// and what a runtime system without completion tracking would do.
  kRecord,
  /// Record it and throw PrecedenceViolationError: for harnesses that
  /// treat any violation as fatal.
  kAbort,
  /// Hold the release until the predecessor instance completes, then
  /// release at the completion instant. Trades lateness for correctness:
  /// precedence_violations stays zero by construction.
  kDeferRelease,
};

/// Thrown by Engine::run under PrecedencePolicy::kAbort.
class PrecedenceViolationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct EngineOptions {
  /// Simulation end time: events strictly after the horizon are not
  /// processed. Must be > 0.
  Time horizon = 0;
  /// Arrival model for first-subtask instances; nullptr = strictly
  /// periodic (the paper's setting). Not owned.
  ArrivalModel* arrivals = nullptr;
  /// Actual execution times; nullptr = exactly the WCET (the paper's
  /// setting). Not owned.
  ExecutionModel* execution = nullptr;
  /// Fault layer; nullptr (or a disabled plan) = ideal conditions, in
  /// which case the engine provably never consults it. Not owned.
  FaultInjector* faults = nullptr;
  /// Per-processor time service (src/sim/timesvc); nullptr = protocols
  /// that ask for it fall back to uncorrected scheduling. The engine
  /// itself never consults it -- it is a lazily-advanced estimator that
  /// clock-aware protocols (PM-E) query through time_service(). Not owned.
  TimeService* timesvc = nullptr;
  PrecedencePolicy precedence_policy = PrecedencePolicy::kRecord;
};

class Engine {
 public:
  /// `system` and `protocol` must outlive the engine (or its next reset).
  Engine(const TaskSystem& system, SyncProtocol& protocol, EngineOptions options);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Re-arms the engine for another run: rebinds system/protocol/options,
  /// rewinds all simulation state (clock, stats, counters, event queue,
  /// job pool, arena cursor), and drops registered sinks -- while keeping
  /// allocated storage for reuse. `system` may differ from the previous
  /// one.
  void reset(const TaskSystem& system, SyncProtocol& protocol, EngineOptions options);
  /// Same-system reuse (new protocol instance and/or options).
  void reset(SyncProtocol& protocol, EngineOptions options) {
    reset(*system_, protocol, options);
  }

  /// Registers an observer (not owned; must outlive run()). Sinks are
  /// cleared by reset(); a run with no sinks skips trace dispatch
  /// entirely (the no-sink fast path).
  void add_sink(TraceSink* sink);

  /// Runs the simulation to the horizon. Call at most once per
  /// construction/reset.
  void run();

  // --- accessors -----------------------------------------------------
  [[nodiscard]] const TaskSystem& system() const noexcept { return *system_; }
  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] Time horizon() const noexcept { return options_.horizon; }
  [[nodiscard]] const SimStats& stats() const noexcept { return stats_; }
  /// The bound time service, or nullptr when the run has none. Protocols
  /// that schedule on estimated clocks (PM-E) query it; everything else
  /// ignores it.
  [[nodiscard]] TimeService* time_service() const noexcept {
    return options_.timesvc;
  }

  /// Number of completed instances of `ref` so far.
  [[nodiscard]] std::int64_t completed_instances(SubtaskRef ref) const noexcept {
    return completed_[flat(ref)];
  }
  /// Number of released instances of `ref` so far.
  [[nodiscard]] std::int64_t released_instances(SubtaskRef ref) const noexcept {
    return released_[flat(ref)];
  }
  /// Release time of T_{i,1}(m); nullopt if not yet arrived. Kept for
  /// every instance (deadline checking & metrics).
  [[nodiscard]] std::optional<Time> first_release_time(TaskId task,
                                                       std::int64_t instance) const {
    const ArenaVec<Time>& times = first_release_[task.index()];
    if (instance < 0 || static_cast<std::uint32_t>(instance) >= times.size()) {
      return std::nullopt;
    }
    return times[static_cast<std::size_t>(instance)];
  }

  /// Fingerprint of the observable schedule so far: the multiset of
  /// (kind, time, subtask, instance) release (kind 1) and completion
  /// (kind 2) events, each mixed through SplitMix64 and summed. Two runs
  /// have the same hash iff every instance was released and completed at
  /// the same times. The sum is commutative on purpose: protocols may
  /// process simultaneous events in different internal orders (PM
  /// pre-schedules releases, MPM fires them from timers) while producing
  /// the identical schedule, and the paper's "PM and MPM produce identical
  /// schedules" claim (Section 3.1) is about the schedule. Starts and
  /// preemptions are left out for the same reason: a zero-length dispatch
  /// is an artifact of intra-instant processing order. 0 before run().
  [[nodiscard]] std::uint64_t schedule_hash() const noexcept { return schedule_hash_; }

  /// EER times of `task` so far, in completion order: for every
  /// completion of T_{i,n_i}(m) whose T_{i,1}(m) has arrived, its
  /// completion time minus that release time (paper Section 1). Valid
  /// until the next reset().
  [[nodiscard]] std::span<const Duration> eer_series(TaskId task) const noexcept {
    const ArenaVec<Duration>& series = eer_series_[task.index()];
    return {series.data(), series.size()};
  }

  /// Total time `processor` spent executing jobs so far (work that is
  /// mid-execution when the simulation ends is included up to `now`).
  [[nodiscard]] Duration busy_time(ProcessorId processor) const;

  /// Bytes of arena-backed per-run state (diagnostics/tests).
  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    return arena_.bytes_reserved();
  }

  // --- protocol-facing API -------------------------------------------
  /// True if `now` is an idle point on `processor`: every instance
  /// released on it strictly before `now` has completed.
  [[nodiscard]] bool is_idle_point(ProcessorId processor) const;

  /// Enqueues the release of (ref, instance) at the current time (release
  /// phase of the current timestamp). Instances of each subtask must be
  /// released in order; under an active fault layer a repeated request for
  /// an already-released instance (duplicated signal) is silently ignored.
  void release_now(SubtaskRef ref, std::int64_t instance);

  /// Enqueues the release of (ref, instance) at absolute time `at` >= now.
  /// Future releases are clock-scheduled: an active fault layer skews them
  /// by the target processor's clock offset/drift (PM's failure mode).
  void schedule_release(SubtaskRef ref, std::int64_t instance, Time at);

  /// Schedules a protocol timer; on firing, SyncProtocol::on_timer is
  /// invoked with (ref, instance) and the timer-interrupt counter is
  /// incremented. An active fault layer applies the owning processor's
  /// clock drift plus U[0, timer_jitter_max] lateness.
  void set_timer(Time at, SubtaskRef ref, std::int64_t instance);

  /// Transmits the synchronization signal that tells (to, instance)'s
  /// release controller its predecessor instance finished (DS/RG) or its
  /// bound elapsed (MPM/MPM-R). Counts one Section 3.3 sync signal per
  /// call -- the single accounting point for all protocols, so retransmits
  /// (extra calls) are charged to the sender while channel duplicates are
  /// not. Under an ideal channel the protocol's on_sync_signal runs
  /// synchronously; under a faulted one each surviving copy is delivered
  /// after its drawn delay, and a lost signal is only counted in
  /// stats().dropped_signals.
  void send_sync_signal(SubtaskRef to, std::int64_t instance);

  /// Counts timer interrupts that are not routed through set_timer
  /// (PM's strictly periodic releases are timer-driven conceptually but
  /// implemented as pre-scheduled release events).
  void count_timer_interrupt() noexcept { ++stats_.timer_interrupts; }

 private:
  struct ProcessorState {
    // Ready queue entry: jobs not currently running, ordered by
    // (priority level, release time, seq).
    struct ReadyEntry {
      std::int32_t priority_level;
      Time release_time;
      std::uint64_t seq;
      JobSlot slot;
      /// The std heap algorithms keep the *largest* element first, so
      /// "a < b" must mean "a is dispatched after b".
      friend bool operator<(const ReadyEntry& a, const ReadyEntry& b) noexcept {
        if (a.priority_level != b.priority_level)
          return a.priority_level > b.priority_level;
        if (a.release_time != b.release_time) return a.release_time > b.release_time;
        return a.seq > b.seq;
      }
    };
    /// Binary heap (std::push_heap/std::pop_heap) rather than a
    /// std::priority_queue so reset() can clear it without freeing its
    /// storage.
    std::vector<ReadyEntry> ready;
    std::int64_t running_slot = -1;  ///< JobSlot or -1
    // Idle-point bookkeeping: incomplete jobs, split by whether they were
    // released strictly before the current timestamp.
    std::int64_t incomplete_total = 0;
    Time last_release_time = -1;
    std::int64_t released_at_last = 0;
    Duration busy_time = 0;  ///< accumulated at completion/preemption

    /// Rewinds to the fresh state, keeping the ready heap's storage.
    void rewind() noexcept {
      ready.clear();
      running_slot = -1;
      incomplete_total = 0;
      last_release_time = -1;
      released_at_last = 0;
      busy_time = 0;
    }
  };

  /// Deferred-release queue node (kDeferRelease): a singly linked FIFO
  /// per subtask, nodes arena-allocated and recycled through an intrusive
  /// free list. Trivially copyable by construction (arena payload).
  struct DeferNode {
    std::int64_t instance;
    DeferNode* next;
  };

  /// Hot per-subtask parameters, copied out of the TaskSystem into one
  /// flat arena plane at bind() time. The release/completion handlers
  /// index this by flat subtask instead of chasing Task::subtasks
  /// vectors -- one contiguous load per event instead of two bounds-
  /// checked indirections.
  struct SubtaskMeta {
    ProcessorId processor;
    Priority priority;
    Duration execution_time;  ///< WCET epsilon_{i,j}
    Duration deadline;        ///< owning task's relative deadline
    std::uint8_t preemptible;
    std::uint8_t is_last;     ///< last subtask in its task's chain
  };

  /// Flat subtask index of `ref` in the SoA planes.
  [[nodiscard]] std::uint32_t flat(SubtaskRef ref) const noexcept {
    return subtask_base_[ref.task.index()] + static_cast<std::uint32_t>(ref.index);
  }

  /// Shared by the constructor and reset(): binds the run's inputs and
  /// (re)initializes all per-run state, recycling allocations.
  void bind(const TaskSystem& system, SyncProtocol& protocol, EngineOptions options);
  static void push_ready(ProcessorState& proc, ProcessorState::ReadyEntry entry);
  /// Removes and returns the dispatch-first ready entry's slot.
  static JobSlot pop_ready(ProcessorState& proc);
  void process(const EventQueue::Packed& packed);
  void handle_arrival(SubtaskRef ref, std::int64_t instance);
  /// Earliest completion slot; kTimeInfinity if every processor is idle.
  [[nodiscard]] Time next_completion_time() const noexcept;
  /// Retires the completions due at now_, in dispatch order.
  void retire_completions();
  void handle_completion(std::size_t processor);
  void do_release(SubtaskRef ref, std::int64_t instance);
  /// The release proper (job allocation, precedence check, dispatch),
  /// after do_release's duplicate filtering and defer-policy gate.
  void activate_release(SubtaskRef ref, std::int64_t instance);
  /// Releases deferred successors of `pred` whose precedence constraint
  /// `completed` completions now satisfy (kDeferRelease only).
  void flush_deferred(SubtaskRef pred, std::int64_t completed);
  void defer_push(std::uint32_t flat_index, std::int64_t instance);
  /// Adds one release (kind 1) or completion (kind 2) to schedule_hash_.
  void fold_schedule_hash(std::uint64_t kind, SubtaskRef ref,
                          std::int64_t instance) noexcept;
  /// Marks a processor as needing a scheduling decision. Decisions are
  /// deferred to the end of the current instant (flush_dispatches) so
  /// that simultaneous releases resolve purely by priority -- in
  /// particular, a non-preemptible job released "together with" a
  /// higher-priority one must not grab the processor just because its
  /// release event was processed first.
  void mark_for_dispatch(ProcessorId processor);
  void flush_dispatches();
  void dispatch(ProcessorState& proc);
  void start_job(ProcessorState& proc, JobSlot slot);
  /// Fires idle-point notifications if `processor` is at an idle point.
  void check_idle_point(ProcessorId processor);
  [[nodiscard]] std::int64_t incomplete_released_before_now(
      const ProcessorState& proc) const;

  const TaskSystem* system_;  // rebindable via reset()
  SyncProtocol* protocol_;
  EngineOptions options_;
  PeriodicArrivals default_arrivals_;
  WcetExecution default_execution_;
  ArrivalModel* arrivals_;    // points at options_.arrivals or default_arrivals_
  ExecutionModel* execution_; // points at options_.execution or default_execution_
  FaultInjector* faults_ = nullptr;  // options_.faults iff its plan is enabled

  EventQueue queue_;
  JobPool pool_;
  Time now_ = 0;
  bool ran_ = false;
  bool initializing_ = false;  ///< inside protocol initialize(); see run()
  std::uint64_t next_job_seq_ = 0;

  std::vector<ProcessorState> processors_;
  std::vector<std::int32_t> dispatch_pending_;  ///< processors awaiting flush
  /// Dedup for dispatch_pending_: processor p is marked iff
  /// dispatch_stamp_[p] == dispatch_epoch_. Bumping the epoch (per flush
  /// and per reset) unmarks every processor in O(1) -- the vector<bool>
  /// assign() this replaces re-touched each element every run.
  std::vector<std::uint64_t> dispatch_stamp_;
  std::uint64_t dispatch_epoch_ = 0;

  /// Completion slots (DESIGN.md section 9): per processor, the running
  /// job's completion time (kTimeInfinity when idle) and dispatch order,
  /// which orders same-instant completions. A preemption overwrites both.
  std::vector<Time> completion_at_;
  std::vector<std::int64_t> completion_order_;
  Time dropped_until_ = 0;  ///< latest preempted completion <= horizon

  // --- arena-backed per-run SoA state (DESIGN.md section 9) -----------
  // All pointers below are into arena_ and are re-established by bind();
  // reset() invalidates them wholesale via arena_.rewind().
  MonotonicArena arena_;
  std::uint32_t subtask_total_ = 0;       ///< flat subtask count
  std::uint32_t* subtask_base_ = nullptr; ///< [task] -> first flat index
  SubtaskMeta* meta_ = nullptr;           // [flat subtask]
  /// Release *requests* per subtask; equals released_ except while
  /// kDeferRelease holds a release back. Filters duplicated requests.
  std::int64_t* requested_ = nullptr;     // [flat subtask]
  std::int64_t* released_ = nullptr;      // [flat subtask]
  std::int64_t* completed_ = nullptr;     // [flat subtask]
  /// Held-back instances per subtask (kDeferRelease), FIFO.
  DeferNode** defer_head_ = nullptr;      // [flat subtask]
  DeferNode** defer_tail_ = nullptr;      // [flat subtask]
  DeferNode* defer_free_ = nullptr;       ///< recycled nodes
  ArenaVec<Time>* first_release_ = nullptr;  // [task][instance]
  ArenaVec<Duration>* eer_series_ = nullptr;  // [task][completion]

  std::vector<TraceSink*> sinks_;
  SimStats stats_;
  std::uint64_t schedule_hash_ = 0;
};

}  // namespace e2e
