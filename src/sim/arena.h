// MonotonicArena: a per-engine bump allocator for per-run simulation
// state, plus ArenaVec, a growable array that draws its storage from one.
//
// The engine's per-run tables (SoA counters, first-release times, EER
// series, deferred-release nodes) live in a single arena so that
// Engine::reset() rewinds one cursor instead of clear()ing a forest of
// nested containers.
// The allocation discipline that makes reuse deterministic:
//
//   * allocate() only ever bumps a cursor; blocks are chained and kept
//     alive until the arena is destroyed;
//   * rewind() moves the cursor back to the first block without freeing
//     anything, so a rewound arena replays an identical allocation
//     sequence with zero calls into the global allocator;
//   * a request that does not fit the current block advances to the next
//     retained block (or mallocs a new, geometrically larger one -- only
//     ever on the first run at a given high-water mark).
//
// Only trivially copyable payloads belong here: nothing is destroyed on
// rewind. engine_alloc_test pins the zero-allocation property across a
// warm reset()+run() cycle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace e2e {

class MonotonicArena {
 public:
  /// `first_block_bytes` sizes the initial block (allocated lazily on the
  /// first request); later blocks double.
  explicit MonotonicArena(std::size_t first_block_bytes = 1 << 12)
      : first_block_bytes_(first_block_bytes) {}

  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;

  /// Uninitialized storage for `count` Ts, aligned for T. Never fails for
  /// reasonable sizes (allocates a dedicated block when `count` exceeds
  /// every retained block).
  template <typename T>
  [[nodiscard]] T* alloc_array(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "arena payloads are never destroyed");
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align) {
    while (true) {
      if (block_ < blocks_.size()) {
        const std::size_t offset = (offset_ + align - 1) & ~(align - 1);
        if (offset + bytes <= blocks_[block_].size) {
          void* out = blocks_[block_].data.get() + offset;
          offset_ = offset + bytes;
          return out;
        }
        if (block_ + 1 < blocks_.size()) {
          // Walk into the next retained block: a rewound arena replaying
          // the same request sequence traverses the same chain without
          // ever calling the global allocator.
          ++block_;
          offset_ = 0;
          continue;
        }
      }
      std::size_t size =
          blocks_.empty() ? first_block_bytes_ : blocks_.back().size * 2;
      if (size < bytes + align) size = bytes + align;
      blocks_.push_back(Block{std::make_unique<std::byte[]>(size), size});
      block_ = blocks_.size() - 1;
      offset_ = 0;
    }
  }

  /// Rewinds the cursor to the start of the first block. Every pointer
  /// previously handed out becomes garbage; no memory is released.
  void rewind() noexcept {
    block_ = 0;
    offset_ = 0;
  }

  /// Total bytes of retained block storage (diagnostics/tests).
  [[nodiscard]] std::size_t bytes_reserved() const noexcept {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }
  [[nodiscard]] std::size_t block_count() const noexcept { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  std::size_t first_block_bytes_;
  std::vector<Block> blocks_;
  std::size_t block_ = 0;   ///< current block index (may equal blocks_.size())
  std::size_t offset_ = 0;  ///< bump cursor within the current block
};

/// A growable array of trivially copyable Ts whose storage comes from a
/// MonotonicArena. Growth allocates a fresh, larger array and memcpys;
/// the old storage becomes arena garbage reclaimed at the next rewind.
/// The arena is passed into the mutating calls rather than stored so the
/// element footprint stays at one pointer + two counters.
template <typename T>
class ArenaVec {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// (Re)binds to freshly allocated storage for `capacity` elements,
  /// size 0. Call once per engine bind, after the arena rewind.
  void bind(MonotonicArena& arena, std::uint32_t capacity) {
    capacity_ = capacity > 0 ? capacity : 1;
    data_ = arena.alloc_array<T>(capacity_);
    size_ = 0;
  }

  void push_back(MonotonicArena& arena, T value) {
    if (size_ == capacity_) [[unlikely]] grow(arena);
    data_[size_++] = value;
  }

  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] T& back() { return data_[size_ - 1]; }

 private:
  void grow(MonotonicArena& arena) {
    const std::uint32_t new_capacity = capacity_ * 2;
    T* new_data = arena.alloc_array<T>(new_capacity);
    std::memcpy(new_data, data_, static_cast<std::size_t>(size_) * sizeof(T));
    data_ = new_data;
    capacity_ = new_capacity;
  }

  T* data_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;
};

}  // namespace e2e
