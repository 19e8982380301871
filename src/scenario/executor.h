// ScenarioExecutor: the one fan-out engine behind every experiment.
//
// Wraps an exec::ThreadPool with the two resources every experiment
// driver used to manage by hand:
//   * per-worker simulation-engine slots (Engine::reset is
//     observationally identical to fresh construction, so recycling a
//     worker's engine across work items -- and across scenario cells --
//     cannot change any result);
//   * index-ordered RNG stream forking (fork advances the master, so
//     streams must be forked serially in index order before any worker
//     starts).
// Work fans out via map()/for_each(); each index writes only its own
// slot of a pre-sized vector and the caller merges the returned vector
// serially in index order, which keeps every experiment byte-identical
// at every thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <typeinfo>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "sim/engine.h"

namespace e2e {

class ScenarioExecutor {
 public:
  /// Per-worker persistent state. Worker w only ever touches slot w, so
  /// nothing here is synchronized. Besides the engine, experiment
  /// drivers park arbitrary warm scratch here (phase-variant system
  /// clones, collectors) via scratch_as():
  /// steady-state runs then recycle every allocation instead of
  /// rebuilding per work item.
  struct WorkerSlot {
    /// Empty until the worker's first engine_for().
    std::optional<Engine> engine;

    /// The worker's engine bound to (system, protocol, options): reset
    /// when the worker already has one, constructed on its first use.
    Engine& engine_for(const TaskSystem& system, SyncProtocol& protocol,
                       EngineOptions options) {
      if (engine.has_value()) {
        engine->reset(system, protocol, options);
      } else {
        engine.emplace(system, protocol, options);
      }
      return *engine;
    }

    /// The worker's scratch of type T, constructed via `make()` on first
    /// use. A different T than the current occupant (another experiment
    /// reusing the executor) simply replaces it.
    template <typename T, typename Make>
    [[nodiscard]] T& scratch_as(Make&& make) {
      if (scratch_ == nullptr || *scratch_type_ != typeid(T)) {
        scratch_ = std::shared_ptr<void>(new T(make()), [](void* p) {
          delete static_cast<T*>(p);
        });
        scratch_type_ = &typeid(T);
      }
      return *static_cast<T*>(scratch_.get());
    }

   private:
    std::shared_ptr<void> scratch_;
    const std::type_info* scratch_type_ = nullptr;
  };

  /// `threads` as in exec::resolve_threads: > 0 wins, else E2E_THREADS,
  /// else hardware concurrency.
  explicit ScenarioExecutor(int threads = 0)
      : pool_(threads),
        slots_(static_cast<std::size_t>(pool_.thread_count())) {}

  [[nodiscard]] int thread_count() const noexcept { return pool_.thread_count(); }
  [[nodiscard]] exec::ThreadPool& pool() noexcept { return pool_; }

  /// Forks `n` streams from a fresh master seeded with `seed`, serially
  /// in index order (stream i is identical no matter how many streams
  /// are forked after it).
  [[nodiscard]] static std::vector<Rng> fork_streams(std::uint64_t seed,
                                                     std::int64_t n) {
    Rng master{seed};
    return fork_streams(master, n);
  }

  /// Same, continuing from an existing master (which advances).
  [[nodiscard]] static std::vector<Rng> fork_streams(Rng& master, std::int64_t n) {
    std::vector<Rng> streams;
    streams.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      streams.push_back(master.fork(static_cast<std::uint64_t>(i)));
    }
    return streams;
  }

  /// Runs fn(index, WorkerSlot&) for every index in [0, n) over the
  /// pool, passing the running worker's persistent slot. Exceptions
  /// follow ThreadPool: the lowest-index one is rethrown.
  template <typename Fn>
  void for_each(std::int64_t n, Fn&& fn) {
    pool_.parallel_for_indexed(n, [&](std::int64_t index, int worker) {
      fn(index, slots_[static_cast<std::size_t>(worker)]);
    });
  }

  /// for_each that collects fn's return values into an index-ordered
  /// vector (the caller's serial merge then reproduces the single-thread
  /// accumulation order exactly).
  template <typename T, typename Fn>
  [[nodiscard]] std::vector<T> map(std::int64_t n, Fn&& fn) {
    std::vector<T> results(static_cast<std::size_t>(n));
    for_each(n, [&](std::int64_t index, WorkerSlot& slot) {
      results[static_cast<std::size_t>(index)] = fn(index, slot);
    });
    return results;
  }

 private:
  exec::ThreadPool pool_;
  /// One slot per worker, persistent across for_each/map calls and
  /// scenario cells; worker w only ever touches slots_[w].
  std::vector<WorkerSlot> slots_;
};

}  // namespace e2e
