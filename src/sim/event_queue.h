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
// plain-vector 4-ary heap, or in a same-instant FIFO (below). Packing
// halves the bytes each sift moves -- the heap is the simulator's hottest
// data structure -- and the single order key turns the three-way
// comparator into two integer compares. The packed key preserves the
// contract exactly: phase occupies the top bits, seq the middle, and kind
// the low 3 bits, where it can never reorder two events (seq is unique).
// All hot operations are inline.
//
// Same-instant FIFOs: while Engine::run drains an instant t (between
// open_instant(t) and pop_instant() returning false), an event pushed for
// time t -- a release_now, a timer or release clamped to t -- skips the
// heap and is appended to a FIFO for its phase. pop_instant() yields
//
//   heap phase-0 events at t, the phase-0 FIFO,
//   heap phase-1 events at t, the phase-1 FIFO,
//
// re-checking from the top after every event. That is exactly (phase,
// seq) order: every FIFO event was pushed during the instant, so its seq
// exceeds that of every heap event at t, and each FIFO is in seq order.
// Outside an instant (before the run, and during protocol initialize())
// every push goes to the heap.
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

/// Min-priority queue by (time, phase, seq). push() assigns the sequence
/// number.
///
/// Storage is plain vectors (a hand-rolled heap rather than a
/// std::priority_queue) so that a reused engine can clear() the queue
/// without surrendering its allocations: a reset queue starts from seq 0
/// with warm capacity, making reuse bit-identical to a fresh queue while
/// skipping the per-run reallocation ramp-up.
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
    const Packed packed = pack(event, next_seq_++);
    if (event.time == instant_) {
      fifo_[event.phase].push_back(packed);
      return;
    }
    heap_.push_back(packed);
    sift_up(heap_.size() - 1);
  }

  /// Pending events, heap and FIFOs together.
  [[nodiscard]] std::size_t size() const noexcept {
    return heap_.size() + (fifo_[0].size() - fifo_head_[0]) +
           (fifo_[1].size() - fifo_head_[1]);
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  /// Time of the earliest heap event; meaningful between instants only.
  [[nodiscard]] Time top_time() const noexcept { return heap_.front().time; }

  [[nodiscard]] Event top() const {
    E2E_ASSERT(!heap_.empty(), "top of empty event queue");
    return unpack(heap_.front());
  }

  /// Pops the earliest heap event (no instant may be open).
  Event pop() {
    E2E_ASSERT(!heap_.empty(), "pop from empty event queue");
    return unpack(pop_packed());
  }

  /// Opens instant `t` (no earlier than every pending event): until
  /// pop_instant() returns false, pushes at `t` go to the phase FIFOs.
  void open_instant(Time t) noexcept { instant_ = t; }

  /// Pops the next event of the open instant in (phase, seq) order (see
  /// the file comment). Returns false, closing the instant, once no event
  /// at the instant is left.
  [[nodiscard]] bool pop_instant(Packed& out) {
    if (heap_at_instant() && heap_.front().phase() == kTimerPhase) {
      out = pop_packed();
      return true;
    }
    if (fifo_head_[kTimerPhase] < fifo_[kTimerPhase].size()) {
      out = fifo_[kTimerPhase][fifo_head_[kTimerPhase]++];
      return true;
    }
    if (heap_at_instant()) {
      out = pop_packed();
      return true;
    }
    if (fifo_head_[kReleasePhase] < fifo_[kReleasePhase].size()) {
      out = fifo_[kReleasePhase][fifo_head_[kReleasePhase]++];
      return true;
    }
    instant_ = kNoInstant;
    clear_fifos();
    return false;
  }

  /// Drops every pending event, closes any open instant and restarts the
  /// insertion-sequence counter at 0. Keeps the heap's and the FIFOs'
  /// allocated storage.
  void clear() noexcept {
    heap_.clear();
    clear_fifos();
    instant_ = kNoInstant;
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

  /// No event time is negative, so no push matches this while closed.
  static constexpr Time kNoInstant = -1;

  [[nodiscard]] bool heap_at_instant() const noexcept {
    return !heap_.empty() && heap_.front().time == instant_;
  }

  void clear_fifos() noexcept {
    for (int phase = 0; phase < 2; ++phase) {
      fifo_[phase].clear();
      fifo_head_[phase] = 0;
    }
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
  /// Same-instant events per phase; fifo_head_ is the next one to pop.
  std::vector<Packed> fifo_[2];
  std::size_t fifo_head_[2] = {0, 0};
  Time instant_ = kNoInstant;
  std::uint64_t next_seq_ = 0;
};

}  // namespace e2e
