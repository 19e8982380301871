// Bounded, thread-safe, content-addressed memo table.
//
// The map stores immutable shared_ptr values keyed by a caller-computed
// 64-bit content hash. Lookups take a shared lock and bump a per-entry
// last-use stamp (an atomic, so touching it under the shared lock is
// race-free); insertions take a unique lock. When the table is full the
// inserting thread evicts the quarter of entries with the oldest stamps
// (one nth_element over (stamp, key) pairs -- O(n), amortized O(1) per
// insert) instead of clearing wholesale, so a long-running service keeps
// its hot set. Eviction never invalidates returned handles: callers share
// ownership of the value.
//
// Concurrent misses on the same key both compute; the first insert wins
// and both callers get the winning handle. That is only correct when the
// computation is a pure function of the key, which is the contract: key
// equality must imply value equality.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace e2e {

template <typename Value>
class MemoTable {
 public:
  explicit MemoTable(std::size_t capacity)
      : capacity_(std::max<std::size_t>(capacity, 4)) {}

  /// The cached value for `key`, or nullptr. A hit refreshes the entry's
  /// last-use stamp.
  [[nodiscard]] std::shared_ptr<const Value> find(std::uint64_t key) {
    std::shared_lock lock{mutex_};
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    it->second.stamp.store(next_stamp(), std::memory_order_relaxed);
    return it->second.value;
  }

  /// Inserts `value` under `key`, evicting the oldest quarter first if
  /// the table is full. On a lost race the first insert wins and the
  /// already-present value is returned.
  [[nodiscard]] std::shared_ptr<const Value> insert(std::uint64_t key,
                                                    std::shared_ptr<const Value> value) {
    std::unique_lock lock{mutex_};
    if (entries_.size() >= capacity_ && !entries_.contains(key)) evict_oldest_quarter();
    return entries_.try_emplace(key, std::move(value), next_stamp()).first->second.value;
  }

  /// find-or-compute-or-lose-the-race. `compute` runs outside any lock.
  template <typename Fn>
  [[nodiscard]] std::shared_ptr<const Value> get_or_compute(std::uint64_t key,
                                                            Fn&& compute) {
    if (auto hit = find(key)) return hit;
    return insert(key, std::make_shared<const Value>(std::forward<Fn>(compute)()));
  }

  void clear() {
    std::unique_lock lock{mutex_};
    entries_.clear();
  }

  [[nodiscard]] std::size_t size() const {
    std::shared_lock lock{mutex_};
    return entries_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_.load(); }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_.load(); }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_.load(); }

 private:
  struct Entry {
    std::shared_ptr<const Value> value;
    std::atomic<std::uint64_t> stamp;
    Entry(std::shared_ptr<const Value> v, std::uint64_t s)
        : value(std::move(v)), stamp(s) {}
    Entry(Entry&& other) noexcept
        : value(std::move(other.value)),
          stamp(other.stamp.load(std::memory_order_relaxed)) {}
  };

  [[nodiscard]] std::uint64_t next_stamp() noexcept {
    return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Caller holds the unique lock (and the table is full, so non-empty).
  /// Drops the quarter of the entries with the oldest last-use stamps.
  void evict_oldest_quarter() {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> order;  // (stamp, key)
    order.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) {
      order.emplace_back(entry.stamp.load(std::memory_order_relaxed), key);
    }
    const std::size_t drop = std::max<std::size_t>(1, order.size() / 4);
    std::nth_element(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(drop) - 1,
                     order.end());
    for (std::size_t i = 0; i < drop; ++i) entries_.erase(order[i].second);
    evictions_.fetch_add(drop, std::memory_order_relaxed);
  }

  const std::size_t capacity_;
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::atomic<std::uint64_t> clock_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace e2e
