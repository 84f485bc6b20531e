#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace lyra::support {

/// Size-class block arena for the simulator's small, high-churn heap
/// objects (message payloads, shared_ptr control blocks, signature
/// buffers). Allocations round up to a 16-byte granule; each class keeps a
/// free list of recycled blocks and carves new ones from 64 KiB slabs, so
/// a steady-state simulation run performs no general-heap allocation on
/// the message path at all. Requests beyond the largest class fall back to
/// operator new.
///
/// Not thread-safe: the simulator runs every experiment on one thread, and
/// the whole process shares one arena.
class Arena {
 public:
  static constexpr std::size_t kGranule = 16;
  static constexpr std::size_t kMaxBlock = 1024;

  /// The process-wide arena. Never destroyed: payloads held by
  /// static-lifetime objects may be released after any static arena
  /// member would have been. The static pointer keeps it reachable, so
  /// leak checkers do not report its slabs.
  static Arena& global() {
    static Arena* const arena = new Arena();
    return *arena;
  }

  void* allocate(std::size_t n) {
    if (n == 0) n = 1;
    if (n > kMaxBlock) return ::operator new(n);
    const std::size_t cls = (n - 1) / kGranule;
    auto& free = free_[cls];
    if (free.empty()) refill(cls);
    void* p = free.back();
    free.pop_back();
    ++live_;
    return p;
  }

  void deallocate(void* p, std::size_t n) {
    if (n == 0) n = 1;
    if (n > kMaxBlock) {
      ::operator delete(p);
      return;
    }
    free_[(n - 1) / kGranule].push_back(p);
    --live_;
  }

  // --- introspection (pool tests and perf diagnostics) ---

  /// Blocks carved from slabs so far (monotone: recycling never carves).
  std::size_t blocks_carved() const { return carved_; }
  /// Pooled blocks handed out minus blocks returned.
  std::int64_t live_blocks() const { return live_; }
  /// Total slab bytes reserved from the general heap.
  std::size_t bytes_reserved() const { return slabs_.size() * kSlabBytes; }

 private:
  static constexpr std::size_t kClasses = kMaxBlock / kGranule;
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  void refill(std::size_t cls) {
    const std::size_t block = (cls + 1) * kGranule;
    // operator new[] aligns to 16 and block is a multiple of 16, so every
    // carved block is 16-aligned.
    slabs_.push_back(std::make_unique<std::byte[]>(kSlabBytes));
    std::byte* base = slabs_.back().get();
    const std::size_t count = kSlabBytes / block;
    auto& free = free_[cls];
    free.reserve(free.size() + count);
    for (std::size_t i = 0; i < count; ++i) free.push_back(base + i * block);
    carved_ += count;
  }

  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::array<std::vector<void*>, kClasses> free_;
  std::size_t carved_ = 0;
  std::int64_t live_ = 0;
};

/// Minimal std allocator over Arena::global(). All instances compare
/// equal (one shared arena), so containers can move between them freely.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) {}  // NOLINT(runtime/explicit)

  T* allocate(std::size_t n) {
    if constexpr (alignof(T) > Arena::kGranule) {
      return static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t(alignof(T))));
    } else {
      return static_cast<T*>(Arena::global().allocate(n * sizeof(T)));
    }
  }

  void deallocate(T* p, std::size_t n) {
    if constexpr (alignof(T) > Arena::kGranule) {
      ::operator delete(p, std::align_val_t(alignof(T)));
    } else {
      Arena::global().deallocate(p, n * sizeof(T));
    }
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
  friend bool operator!=(const PoolAllocator&, const PoolAllocator&) {
    return false;
  }
};

/// make_shared through the arena: object and control block live in one
/// pooled allocation, recycled when the last reference drops.
template <typename T, typename... Args>
std::shared_ptr<T> make_pooled(Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>{},
                                 std::forward<Args>(args)...);
}

/// Byte buffer backed by the arena — for small, short-lived scratch
/// buffers on the signing/hashing path.
using PooledBytes = std::vector<std::uint8_t, PoolAllocator<std::uint8_t>>;

}  // namespace lyra::support
