// The simulator's event queue: arrivals, releases, protocol timers and
// delayed sync signals. Job completions are not queued; they live in the
// engine's per-processor completion slots (see Engine::run).
//
// Determinism contract: events are processed in ascending (time, phase,
// insertion sequence) order. The phase encodes the paper's idle-point
// semantics at a shared timestamp t, where all work finishing exactly at
// t has already been retired from the completion slots:
//
//   kTimerPhase       -- protocol timers at t see completed predecessors,
//   kReleasePhase     -- instances "released at the instant" come last, so
//                        an idle point at t is observable before them.
//
// Storage: events are packed into 32-byte records (time, an order key
// folding phase|seq|kind into one word, and a per-kind payload) kept in a
// plain-vector 4-ary heap. Packing halves the bytes each sift moves --
// the heap is the simulator's hottest data structure -- and the single
// order key turns the three-way comparator into two integer compares.
// The packed key preserves the contract exactly: phase occupies the top
// bits, seq the middle, and kind the low 3 bits, where it can never
// reorder two events (seq is unique). All hot operations are inline.
//
// Batched drain: Engine::run absorbs one timestamp per iteration through
// pop_batch_at()/pop_if_at(), which lets the run loop hoist the
// per-event "did the instant end?" check out of the handler path. See
// Engine::run for the interleaving rule that keeps handler-enqueued
// same-instant events in exact (phase, seq) order.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/ids.h"
#include "common/time.h"

namespace e2e {

enum class EventKind : std::uint8_t {
  kArrival,     ///< periodic/sporadic arrival of a task instance (releases T_{i,1})
  kRelease,     ///< release of subtask instance (ref, instance)
  kTimer,       ///< protocol timer for (ref, instance) -- MPM bound timer, RG guard
  kSignal,      ///< delayed sync-signal delivery for (ref, instance); only the
                ///< fault layer produces these (ideal signals are synchronous)
};

/// Intra-timestamp ordering phases (see file comment).
enum : std::uint8_t {
  kTimerPhase = 0,
  kReleasePhase = 1,
};

struct Event {
  Time time = 0;
  std::uint8_t phase = 0;
  std::uint64_t seq = 0;  ///< assigned by the queue; insertion order
  EventKind kind = EventKind::kArrival;

  // Payload: the subtask instance the event is about (the first subtask
  // for kArrival).
  SubtaskRef ref;
  std::int64_t instance = 0;
};

/// Min-heap by (time, phase, seq). push() assigns the sequence number.
///
/// Storage is a plain vector managed with std::push_heap/std::pop_heap
/// (rather than std::priority_queue) so that a reused engine can clear()
/// the queue without surrendering its allocation: a reset queue starts
/// from seq 0 with warm capacity, making reuse bit-identical to a fresh
/// queue while skipping the per-run reallocation ramp-up.
class EventQueue {
 public:
  /// The 32-byte stored form. `key` orders same-time events: bits 61..63
  /// carry the phase, bits 3..60 the insertion sequence, bits 0..2 the
  /// kind (below seq, so it never influences ordering between distinct
  /// events -- seq is unique).
  struct Packed {
    Time time = 0;
    std::uint64_t key = 0;
    std::uint64_t a = 0;  ///< ref (task<<32|index)
    std::uint64_t b = 0;  ///< instance

    [[nodiscard]] std::uint8_t phase() const noexcept {
      return static_cast<std::uint8_t>(key >> 61);
    }
  };

  static constexpr std::uint64_t kSeqLimit = 1ull << 58;

  [[nodiscard]] static Packed pack(const Event& event, std::uint64_t seq) noexcept {
    Packed p;
    p.time = event.time;
    p.key = (static_cast<std::uint64_t>(event.phase) << 61) | (seq << 3) |
            static_cast<std::uint64_t>(event.kind);
    p.a = (static_cast<std::uint64_t>(
               static_cast<std::uint32_t>(event.ref.task.value()))
           << 32) |
          static_cast<std::uint32_t>(event.ref.index);
    p.b = static_cast<std::uint64_t>(event.instance);
    return p;
  }

  [[nodiscard]] static Event unpack(const Packed& p) noexcept {
    Event event;
    event.time = p.time;
    event.phase = p.phase();
    event.seq = (p.key << 3) >> 6;
    event.kind = static_cast<EventKind>(p.key & 0x7);
    event.ref = SubtaskRef{TaskId{static_cast<std::int32_t>(p.a >> 32)},
                           static_cast<std::int32_t>(p.a & 0xffffffffu)};
    event.instance = static_cast<std::int64_t>(p.b);
    return event;
  }

  void push(const Event& event) {
    E2E_ASSERT(next_seq_ < kSeqLimit, "event sequence space exhausted");
    heap_.push_back(pack(event, next_seq_++));
    sift_up(heap_.size() - 1);
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] Time top_time() const noexcept { return heap_.front().time; }

  [[nodiscard]] Event top() const {
    E2E_ASSERT(!heap_.empty(), "top of empty event queue");
    return unpack(heap_.front());
  }

  Event pop() {
    E2E_ASSERT(!heap_.empty(), "pop from empty event queue");
    return unpack(pop_packed());
  }

  /// Batched drain: pops every event currently at time `t` (the head
  /// time) into `out` in (phase, seq) order. `out` is cleared first and
  /// keeps its capacity across calls.
  void pop_batch_at(Time t, std::vector<Packed>& out) {
    out.clear();
    while (!heap_.empty() && heap_.front().time == t) {
      out.push_back(pop_packed());
    }
  }

  /// Pops the head iff it is at time `t` with key < `before_key` -- the
  /// interleaving primitive for handler-enqueued same-instant events.
  [[nodiscard]] bool pop_if_at(Time t, std::uint64_t before_key, Packed& out) {
    if (heap_.empty() || heap_.front().time != t ||
        heap_.front().key >= before_key) {
      return false;
    }
    out = pop_packed();
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Drops every pending event and restarts the insertion-sequence
  /// counter at 0. Keeps the heap's allocated storage.
  void clear() noexcept {
    heap_.clear();
    next_seq_ = 0;
  }
  /// Pre-sizes the heap storage for `capacity` concurrent events.
  void reserve(std::size_t capacity) { heap_.reserve(capacity); }
  [[nodiscard]] std::size_t capacity() const noexcept { return heap_.capacity(); }

 private:
  [[nodiscard]] static bool earlier(const Packed& a, const Packed& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  Packed pop_packed() {
    const Packed result = heap_.front();
    const Packed last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
    return result;
  }

  /// Heap arity. Four 32-byte children span exactly two cache lines, so
  /// a sift-down level costs at most two line fills while halving the
  /// tree depth of the binary layout. The pop *order* cannot differ
  /// between arities: (time, key) is a total order (seq is unique), so
  /// every correct priority queue yields the same sequence.
  static constexpr std::size_t kArity = 4;

  void sift_up(std::size_t hole) noexcept {
    const Packed value = heap_[hole];
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (!earlier(value, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = value;
  }

  void sift_down(const Packed& value) noexcept {
    const std::size_t size = heap_.size();
    std::size_t hole = 0;
    while (true) {
      const std::size_t first = kArity * hole + 1;
      if (first >= size) break;
      const std::size_t last = first + kArity < size ? first + kArity : size;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], value)) break;
      heap_[hole] = heap_[best];
      hole = best;
    }
    heap_[hole] = value;
  }

  std::vector<Packed> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace e2e
