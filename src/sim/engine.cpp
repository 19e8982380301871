#include "sim/engine.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/error.h"
#include "sim/fault/fault_injector.h"

namespace e2e {
namespace {

/// SplitMix64 finalizer: mixes one word thoroughly.
std::uint64_t mix(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

Engine::Engine(const TaskSystem& system, SyncProtocol& protocol, EngineOptions options)
    : system_(&system), protocol_(&protocol) {
  bind(system, protocol, options);
}

void Engine::reset(const TaskSystem& system, SyncProtocol& protocol,
                   EngineOptions options) {
  bind(system, protocol, options);
}

void Engine::bind(const TaskSystem& system, SyncProtocol& protocol,
                  EngineOptions options) {
  system_ = &system;
  protocol_ = &protocol;
  options_ = options;
  arrivals_ = options.arrivals != nullptr ? options.arrivals : &default_arrivals_;
  execution_ =
      options.execution != nullptr ? options.execution : &default_execution_;
  E2E_ASSERT(options_.horizon > 0, "simulation horizon must be positive");
  // A disabled plan is dropped here, so every fault hook below reduces to
  // a single null check -- the zero-cost-when-off guarantee.
  faults_ = options_.faults != nullptr && options_.faults->enabled()
                ? options_.faults
                : nullptr;

  // Per-run state: rewind everything, recycle every allocation. The
  // member containers keep their capacity across clear(); the SoA tables
  // are re-carved from the rewound arena, which replays the allocation
  // sequence of the previous run against retained blocks. A warm
  // reset()+run cycle therefore never calls the global allocator
  // (engine_alloc_test).
  queue_.clear();
  pool_.clear();
  now_ = 0;
  ran_ = false;
  initializing_ = false;
  next_job_seq_ = 0;
  stats_ = SimStats{};
  schedule_hash_ = 0;
  sinks_.clear();
  dispatch_pending_.clear();

  processors_.resize(system.processor_count());
  for (ProcessorState& proc : processors_) proc.rewind();
  completion_at_.assign(system.processor_count(), kTimeInfinity);
  completion_order_.assign(system.processor_count(), 0);
  dropped_until_ = 0;
  // Unmark every processor by bumping the epoch; stamps are only ever set
  // to the then-current epoch, so none can collide with the new value.
  ++dispatch_epoch_;
  if (dispatch_stamp_.size() < system.processor_count()) {
    dispatch_stamp_.resize(system.processor_count(), 0);
  }

  arena_.rewind();
  const std::size_t tasks = system.task_count();
  subtask_base_ = arena_.alloc_array<std::uint32_t>(tasks);
  std::uint32_t total = 0;
  for (const Task& t : system.tasks()) {
    subtask_base_[t.id.index()] = total;
    total += static_cast<std::uint32_t>(t.subtasks.size());
  }
  subtask_total_ = total;
  meta_ = arena_.alloc_array<SubtaskMeta>(total);
  for (const Task& t : system.tasks()) {
    std::uint32_t fi = subtask_base_[t.id.index()];
    for (const Subtask& s : t.subtasks) {
      meta_[fi++] = SubtaskMeta{
          .processor = s.processor,
          .priority = s.priority,
          .execution_time = s.execution_time,
          .deadline = t.relative_deadline,
          .preemptible = static_cast<std::uint8_t>(s.preemptible ? 1 : 0),
          .is_last = static_cast<std::uint8_t>(
              s.ref.index + 1 == static_cast<std::int32_t>(t.chain_length()) ? 1
                                                                             : 0)};
    }
  }
  // One allocation, three planes: requested | released | completed.
  std::int64_t* counters = arena_.alloc_array<std::int64_t>(3 * std::size_t{total});
  std::memset(counters, 0, 3 * std::size_t{total} * sizeof(std::int64_t));
  requested_ = counters;
  released_ = counters + total;
  completed_ = counters + 2 * std::size_t{total};
  defer_head_ = arena_.alloc_array<DeferNode*>(total);
  defer_tail_ = arena_.alloc_array<DeferNode*>(total);
  std::memset(static_cast<void*>(defer_head_), 0, total * sizeof(DeferNode*));
  std::memset(static_cast<void*>(defer_tail_), 0, total * sizeof(DeferNode*));
  defer_free_ = nullptr;  // nodes are arena garbage after the rewind
  first_release_ = arena_.alloc_array<ArenaVec<Time>>(tasks);
  eer_series_ = arena_.alloc_array<ArenaVec<Duration>>(tasks);
  for (std::size_t i = 0; i < tasks; ++i) {
    first_release_[i] = ArenaVec<Time>{};
    first_release_[i].bind(arena_, 16);
    eer_series_[i] = ArenaVec<Duration>{};
    eer_series_[i].bind(arena_, 16);
  }
}

void Engine::add_sink(TraceSink* sink) {
  E2E_ASSERT(sink != nullptr, "null trace sink");
  sinks_.push_back(sink);
}

std::int64_t Engine::incomplete_released_before_now(const ProcessorState& proc) const {
  const std::int64_t at_now = proc.last_release_time == now_ ? proc.released_at_last : 0;
  return proc.incomplete_total - at_now;
}

bool Engine::is_idle_point(ProcessorId processor) const {
  return incomplete_released_before_now(processors_[processor.index()]) == 0;
}

Duration Engine::busy_time(ProcessorId processor) const {
  const ProcessorState& proc = processors_[processor.index()];
  Duration total = proc.busy_time;
  if (proc.running_slot >= 0) {
    // Credit the in-flight run up to the current time.
    total += now_ - pool_.get(static_cast<JobSlot>(proc.running_slot)).last_dispatch_time;
  }
  return total;
}

void Engine::release_now(SubtaskRef ref, std::int64_t instance) {
  schedule_release(ref, instance, now_);
}

void Engine::schedule_release(SubtaskRef ref, std::int64_t instance, Time at) {
  E2E_ASSERT(at >= now_, "cannot schedule a release in the past");
  E2E_ASSERT(system_->contains(ref), "release for unknown subtask");
  if (faults_ != nullptr) {
    // Clock-scheduled releases fire on the releasing processor's local
    // clock. Only initialization-time schedules carry the initial clock
    // offset; chained schedules inherit it from the release they chain off.
    at = faults_->perturb_scheduled_release(system_->subtask(ref).processor, now_,
                                            at, /*initial=*/initializing_);
  }
  queue_.push(Event{.time = at,
                    .phase = kReleasePhase,
                    .kind = EventKind::kRelease,
                    .ref = ref,
                    .instance = instance});
}

void Engine::set_timer(Time at, SubtaskRef ref, std::int64_t instance) {
  E2E_ASSERT(at >= now_, "cannot set a timer in the past");
  if (faults_ != nullptr) {
    at = faults_->perturb_timer(system_->subtask(ref).processor, now_, at);
  }
  queue_.push(Event{.time = at,
                    .phase = kTimerPhase,
                    .kind = EventKind::kTimer,
                    .ref = ref,
                    .instance = instance});
}

void Engine::send_sync_signal(SubtaskRef to, std::int64_t instance) {
  E2E_ASSERT(system_->contains(to), "sync signal for unknown subtask");
  ++stats_.sync_signals;
  if (faults_ == nullptr) {
    // Ideal channel: zero-time delivery, exactly once -- semantically the
    // pre-fault-layer direct call, so schedules are bit-identical.
    protocol_->on_sync_signal(*this, to, instance);
    return;
  }
  const FaultInjector::SignalOutcome outcome = faults_->signal_outcome(now_);
  if (outcome.lost()) {
    ++stats_.dropped_signals;
    return;
  }
  stats_.duplicated_signals += outcome.copies - 1;
  for (const Duration delay : outcome.arrivals()) {
    if (delay == 0) {
      protocol_->on_sync_signal(*this, to, instance);
    } else {
      ++stats_.late_signals;
      queue_.push(Event{.time = now_ + delay,
                        .phase = kTimerPhase,
                        .kind = EventKind::kSignal,
                        .ref = to,
                        .instance = instance});
    }
  }
}

void Engine::run() {
  E2E_ASSERT(!ran_, "Engine::run may be called only once");
  ran_ = true;

  for (const Task& t : system_->tasks()) {
    const Time first = arrivals_->first(t);
    E2E_ASSERT(first >= 0, "arrival model produced a negative first arrival");
    if (first <= options_.horizon) {
      queue_.push(Event{.time = first,
                        .phase = kReleasePhase,
                        .kind = EventKind::kArrival,
                        .ref = t.first_subtask().ref,
                        .instance = 0});
    }
  }
  // Schedules made during initialize() are absolute-time alarms armed
  // before the clocks could ever have been synchronized: they (and only
  // they) carry the initial per-processor clock offset.
  initializing_ = true;
  protocol_->initialize(*this);
  initializing_ = false;

  // One iteration per *instant*, the earlier of the heap head and the
  // earliest completion slot. Completions due at the instant retire first,
  // in dispatch order; then every queued event at the instant is drained
  // into batch_ and processed; then scheduling decisions run once.
  // Handlers may enqueue same-instant events; every such event carries a
  // larger seq than the whole batch, so it sorts after the batch entry
  // that created it unless its phase is strictly smaller -- the
  // pop_if_at(key) interleave below merges those in exact (phase, seq)
  // order, keeping the batched loop's event order identical to the
  // one-pop-per-iteration loop it replaced (engine_soa_test pins this
  // against pre-refactor golden hashes).
  while (true) {
    const Time due = next_completion_time();
    const Time t = queue_.empty() ? due : std::min(due, queue_.top_time());
    if (is_infinite(t) || t > options_.horizon) break;
    E2E_ASSERT(t >= now_, "simulation clock went backwards");
    now_ = t;
    if (due == t) retire_completions();
    queue_.pop_batch_at(t, batch_);
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      EventQueue::Packed mid;
      while (queue_.pop_if_at(t, batch_[i].key, mid)) process(mid);
      process(batch_[i]);
    }
    // Same-instant events enqueued after their merge position passed the
    // final batch entry (e.g. releases from the last handler).
    EventQueue::Packed tail;
    while (queue_.pop_if_at(t, ~std::uint64_t{0}, tail)) process(tail);
    // Scheduling decisions fire once per instant, after every simultaneous
    // event has been absorbed. The flush only fills completion slots with
    // future times (executions are >= 1 tick), so it cannot reopen the
    // instant.
    flush_dispatches();
  }
  // A dropped completion within the horizon counts as processed (see
  // SimStats), so the clock ends no earlier than it.
  now_ = std::max(now_, dropped_until_);
}

Time Engine::next_completion_time() const noexcept {
  Time due = kTimeInfinity;
  for (const Time at : completion_at_) due = std::min(due, at);
  return due;
}

void Engine::retire_completions() {
  // No handler can fill a slot with now_ (dispatch waits for the end of
  // the instant and executions are >= 1 tick), so the due set only shrinks.
  const std::size_t count = completion_at_.size();
  while (true) {
    std::size_t next = count;
    for (std::size_t p = 0; p < count; ++p) {
      if (completion_at_[p] == now_ &&
          (next == count || completion_order_[p] < completion_order_[next])) {
        next = p;
      }
    }
    if (next == count) return;
    handle_completion(next);
  }
}

void Engine::process(const EventQueue::Packed& packed) {
  ++stats_.events_processed;
  const Event event = EventQueue::unpack(packed);
  switch (event.kind) {
    case EventKind::kArrival:
      handle_arrival(event.ref, event.instance);
      break;
    case EventKind::kRelease:
      do_release(event.ref, event.instance);
      break;
    case EventKind::kTimer:
      ++stats_.timer_interrupts;
      protocol_->on_timer(*this, event.ref, event.instance);
      break;
    case EventKind::kSignal:
      // Delayed delivery of a faulted sync signal (the ideal path never
      // enqueues these). Accounting happened at send time.
      protocol_->on_sync_signal(*this, event.ref, event.instance);
      break;
  }
}

void Engine::mark_for_dispatch(ProcessorId processor) {
  std::uint64_t& stamp = dispatch_stamp_[processor.index()];
  if (stamp == dispatch_epoch_) return;
  stamp = dispatch_epoch_;
  dispatch_pending_.push_back(processor.value());
}

void Engine::flush_dispatches() {
  if (dispatch_pending_.empty()) return;
  // Bumping the epoch unmarks every pending processor in O(1).
  ++dispatch_epoch_;
  for (const std::int32_t p : dispatch_pending_) {
    dispatch(processors_[static_cast<std::size_t>(p)]);
  }
  dispatch_pending_.clear();
}

void Engine::handle_arrival(SubtaskRef ref, std::int64_t instance) {
  const Task& task = system_->task(ref.task);
  ArenaVec<Time>& first_times = first_release_[task.id.index()];
  E2E_ASSERT(static_cast<std::int64_t>(first_times.size()) == instance,
             "arrival out of order");
  first_times.push_back(arena_, now_);

  do_release(ref, instance);

  const Time next = arrivals_->next(task, now_);
  // Strictly increasing is the only engine-level contract: bounded-jitter
  // models legitimately space arrivals closer than the period.
  E2E_ASSERT(next > now_, "arrival times must strictly increase");
  if (next <= options_.horizon) {
    queue_.push(Event{.time = next,
                      .phase = kReleasePhase,
                      .kind = EventKind::kArrival,
                      .ref = ref,
                      .instance = instance + 1});
  }
}

void Engine::do_release(SubtaskRef ref, std::int64_t instance) {
  const std::uint32_t fi = flat(ref);
  std::int64_t& requested = requested_[fi];
  if (instance < requested) {
    // Re-request of an already-requested instance: a duplicated or
    // retransmitted signal. Only the fault layer can produce these.
    E2E_ASSERT(faults_ != nullptr,
               "subtask instances must be released in order, exactly once");
    return;
  }
  E2E_ASSERT(instance == requested,
             "subtask instances must be released in order, exactly once");
  ++requested;

  if (options_.precedence_policy == PrecedencePolicy::kDeferRelease &&
      ref.index > 0) {
    // The predecessor's flat index is fi - 1 (same task, previous link).
    // FIFO within the subtask: if anything is already held, queue behind
    // it even when this instance's own predecessor has completed.
    if (defer_head_[fi] != nullptr || completed_[fi - 1] <= instance) {
      defer_push(fi, instance);
      ++stats_.deferred_releases;
      return;
    }
  }
  activate_release(ref, instance);
}

void Engine::defer_push(std::uint32_t flat_index, std::int64_t instance) {
  DeferNode* node = defer_free_;
  if (node != nullptr) {
    defer_free_ = node->next;
  } else {
    node = arena_.alloc_array<DeferNode>(1);
  }
  node->instance = instance;
  node->next = nullptr;
  if (defer_tail_[flat_index] != nullptr) {
    defer_tail_[flat_index]->next = node;
  } else {
    defer_head_[flat_index] = node;
  }
  defer_tail_[flat_index] = node;
}

void Engine::fold_schedule_hash(std::uint64_t kind, SubtaskRef ref,
                                std::int64_t instance) noexcept {
  std::uint64_t h = kind;
  h = mix(h ^ static_cast<std::uint64_t>(now_));
  h = mix(h ^ static_cast<std::uint64_t>(ref.task.value()));
  h = mix(h ^ static_cast<std::uint64_t>(ref.index));
  h = mix(h ^ static_cast<std::uint64_t>(instance));
  schedule_hash_ += h;  // commutative: order within/across instants is irrelevant
}

void Engine::activate_release(SubtaskRef ref, std::int64_t instance) {
  const std::uint32_t fi = flat(ref);
  std::int64_t& released = released_[fi];
  E2E_ASSERT(instance == released, "releases activated out of order");
  ++released;

  const SubtaskMeta& meta = meta_[fi];
  Duration actual_execution =
      execution_->sample(ref, instance, meta.execution_time);
  E2E_ASSERT(actual_execution >= 1 && actual_execution <= meta.execution_time,
             "execution model must return a value in [1, WCET]");
  if (faults_ != nullptr) {
    const Duration stall = faults_->stall();
    if (stall > 0) {
      // Transient stalls model demand beyond the analysed WCET, so the
      // execution-model invariant above deliberately does not apply.
      actual_execution += stall;
      ++stats_.stalls;
    }
  }
  Job job{.ref = ref,
          .instance = instance,
          .processor = meta.processor,
          .priority = meta.priority,
          .preemptible = meta.preemptible != 0,
          .release_time = now_,
          .execution_time = actual_execution,
          .remaining = actual_execution,
          .seq = next_job_seq_++};
  const JobSlot slot = pool_.allocate(job);
  const Job& stored = pool_.get(slot);

  ProcessorState& proc = processors_[meta.processor.index()];
  if (proc.last_release_time != now_) {
    proc.last_release_time = now_;
    proc.released_at_last = 0;
  }
  ++proc.released_at_last;
  ++proc.incomplete_total;
  ++stats_.jobs_released;

  // Precedence check: the matching predecessor instance must have completed.
  // Under kDeferRelease this cannot fire: violating releases are held back.
  if (ref.index > 0) {
    if (completed_[fi - 1] <= instance) {
      ++stats_.precedence_violations;
      if (!sinks_.empty()) {
        for (TraceSink* sink : sinks_) sink->on_precedence_violation(stored, now_);
      }
      if (options_.precedence_policy == PrecedencePolicy::kAbort) {
        throw PrecedenceViolationError(
            "precedence violation: T_{" + std::to_string(ref.task.value()) + "," +
            std::to_string(ref.index + 1) + "} instance " +
            std::to_string(instance) + " released at t=" + std::to_string(now_) +
            " before its predecessor completed");
      }
    }
  }

  fold_schedule_hash(1, ref, instance);
  if (!sinks_.empty()) {
    for (TraceSink* sink : sinks_) sink->on_release(stored);
  }
  protocol_->on_job_released(*this, stored);

  push_ready(proc, ProcessorState::ReadyEntry{.priority_level = stored.priority.level,
                                              .release_time = stored.release_time,
                                              .seq = stored.seq,
                                              .slot = slot});
  mark_for_dispatch(meta.processor);
}

void Engine::flush_deferred(SubtaskRef pred, std::int64_t completed) {
  const std::uint32_t fi = flat(pred) + 1;  // the successor's flat index
  // Instance m may activate once completed_instances(pred) > m.
  while (defer_head_[fi] != nullptr && defer_head_[fi]->instance < completed) {
    DeferNode* node = defer_head_[fi];
    const std::int64_t instance = node->instance;
    defer_head_[fi] = node->next;
    if (node->next == nullptr) defer_tail_[fi] = nullptr;
    node->next = defer_free_;
    defer_free_ = node;
    activate_release(SubtaskRef{pred.task, pred.index + 1}, instance);
  }
}

void Engine::handle_completion(std::size_t processor) {
  ++stats_.events_processed;
  completion_at_[processor] = kTimeInfinity;
  ProcessorState& proc = processors_[processor];
  const JobSlot slot = static_cast<JobSlot>(proc.running_slot);
  Job& job = pool_.get(slot);
  E2E_ASSERT(now_ == job.last_dispatch_time + job.remaining,
             "completion at the wrong time");
  job.remaining = 0;
  proc.busy_time += now_ - job.last_dispatch_time;
  proc.running_slot = -1;
  --proc.incomplete_total;

  const std::uint32_t fi = flat(job.ref);
  std::int64_t& completed = completed_[fi];
  E2E_ASSERT(completed == job.instance, "subtask instances completed out of order");
  ++completed;
  ++stats_.jobs_completed;

  const SubtaskMeta& meta = meta_[fi];
  const bool is_last = meta.is_last != 0;
  if (is_last) {
    const std::optional<Time> released = first_release_time(job.ref.task, job.instance);
    // `released` can be empty only under a misused protocol (PM with
    // sporadic arrivals), where the precedence violation was already
    // recorded at release time; there is no meaningful EER then.
    if (released.has_value()) {
      const Duration eer = now_ - *released;
      eer_series_[job.ref.task.index()].push_back(arena_, eer);
      if (eer > meta.deadline) ++stats_.deadline_misses;
    }
  }
  fold_schedule_hash(2, job.ref, job.instance);

  const Job completed_job = job;  // keep a copy past the slot's lifetime
  pool_.release(slot);

  if (!sinks_.empty()) {
    for (TraceSink* sink : sinks_) sink->on_complete(completed_job, now_);
  }
  protocol_->on_job_completed(*this, completed_job);
  if (options_.precedence_policy == PrecedencePolicy::kDeferRelease && !is_last) {
    flush_deferred(completed_job.ref, completed);
  }
  check_idle_point(completed_job.processor);
  mark_for_dispatch(completed_job.processor);
}

void Engine::check_idle_point(ProcessorId processor) {
  if (!is_idle_point(processor)) return;
  ++stats_.idle_points;
  if (!sinks_.empty()) {
    for (TraceSink* sink : sinks_) sink->on_idle_point(processor, now_);
  }
  protocol_->on_idle_point(*this, processor);
}

void Engine::push_ready(ProcessorState& proc, ProcessorState::ReadyEntry entry) {
  proc.ready.push_back(entry);
  std::push_heap(proc.ready.begin(), proc.ready.end());
}

JobSlot Engine::pop_ready(ProcessorState& proc) {
  std::pop_heap(proc.ready.begin(), proc.ready.end());
  const JobSlot slot = proc.ready.back().slot;
  proc.ready.pop_back();
  return slot;
}

void Engine::dispatch(ProcessorState& proc) {
  if (proc.ready.empty()) return;

  if (proc.running_slot < 0) {
    start_job(proc, pop_ready(proc));
    return;
  }

  Job& running = pool_.get(static_cast<JobSlot>(proc.running_slot));
  if (!running.preemptible) return;  // runs to completion once dispatched
  const ProcessorState::ReadyEntry& top = proc.ready.front();
  if (top.priority_level >= running.priority.level) return;  // no strict preemption

  // Preempt: account for the work done since the last dispatch and drop
  // the in-flight completion, charging it to events_processed if it was
  // due within the horizon (see SimStats).
  proc.busy_time += now_ - running.last_dispatch_time;
  running.remaining -= now_ - running.last_dispatch_time;
  E2E_ASSERT(running.remaining > 0,
             "a job with no remaining work must have completed, not preempted");
  ++stats_.preemptions;
  const Time dropped = completion_at_[running.processor.index()];
  if (dropped <= options_.horizon) {
    ++stats_.events_processed;
    dropped_until_ = std::max(dropped_until_, dropped);
  }
  if (!sinks_.empty()) {
    for (TraceSink* sink : sinks_) sink->on_preempt(running, now_);
  }

  push_ready(proc, ProcessorState::ReadyEntry{.priority_level = running.priority.level,
                                              .release_time = running.release_time,
                                              .seq = running.seq,
                                              .slot = static_cast<JobSlot>(
                                                  proc.running_slot)});
  proc.running_slot = -1;
  start_job(proc, pop_ready(proc));
}

void Engine::start_job(ProcessorState& proc, JobSlot slot) {
  Job& job = pool_.get(slot);
  proc.running_slot = static_cast<std::int64_t>(slot);
  job.last_dispatch_time = now_;
  ++stats_.dispatches;
  // The dispatch count doubles as the slot's dispatch order.
  completion_at_[job.processor.index()] = now_ + job.remaining;
  completion_order_[job.processor.index()] = stats_.dispatches;
  if (!sinks_.empty()) {
    for (TraceSink* sink : sinks_) sink->on_start(job, now_);
  }
}

}  // namespace e2e
