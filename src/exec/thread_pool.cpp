#include "exec/thread_pool.h"

#include <cstdlib>

#include "common/error.h"
#include "common/number.h"

namespace e2e::exec {

int resolve_threads(int requested) noexcept {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("E2E_THREADS");
      env != nullptr && *env != '\0') {
    const ParsedNumber<int> parsed = parse_number<int>(env);
    if (parsed.ok() && parsed.value > 0) return parsed.value;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads) : thread_count_(resolve_threads(threads)) {
  workers_.reserve(static_cast<std::size_t>(thread_count_ - 1));
  for (int w = 1; w < thread_count_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  start_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop(int worker) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
    }
    run_indices(worker);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--running_workers_ == 0) done_.notify_all();
    }
  }
}

void ThreadPool::run_indices(int worker) {
  for (;;) {
    const std::int64_t index = next_.fetch_add(1, std::memory_order_relaxed);
    if (index >= n_) return;
    try {
      (*fn_)(index, worker);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (error_index_ < 0 || index < error_index_) {
        error_ = std::current_exception();
        error_index_ = index;
      }
      // Drain: let in-flight indices finish but start no new ones.
      next_.store(n_, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::parallel_for_indexed(
    std::int64_t n, const std::function<void(std::int64_t, int)>& fn) {
  if (n <= 0) return;
  if (thread_count_ == 1 || n == 1) {
    // Inline path: no synchronization, exceptions propagate directly.
    for (std::int64_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    E2E_ASSERT(running_workers_ == 0,
               "parallel_for_indexed is not reentrant on one pool");
    fn_ = &fn;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    error_index_ = -1;
    running_workers_ = thread_count_ - 1;
    ++generation_;
  }
  start_.notify_all();
  run_indices(/*worker=*/0);
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [&] { return running_workers_ == 0; });
  fn_ = nullptr;
  if (error_ != nullptr) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    error_index_ = -1;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void parallel_for_indexed(std::int64_t n, int threads,
                          const std::function<void(std::int64_t, int)>& fn) {
  ThreadPool pool{threads};
  pool.parallel_for_indexed(n, fn);
}

}  // namespace e2e::exec
