#ifndef VREC_UTIL_ARENA_H_
#define VREC_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "util/check.h"

namespace vrec::util {

/// Bump allocator for per-query scratch. Allocation is a pointer increment
/// into the current chunk; individual frees are no-ops; `Reset()` reclaims
/// everything at once (keeping the largest chunk so a steady-state query
/// workload reaches zero chunk churn). Not thread-safe — each thread owns
/// its own arena (see ThisThreadArena).
class Arena {
 public:
  explicit Arena(size_t initial_bytes = kDefaultChunkBytes)
      : next_chunk_bytes_(initial_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (power of two). The
  /// storage is valid until the next Reset().
  void* Allocate(size_t bytes, size_t align) {
    VREC_DCHECK(align != 0 && (align & (align - 1)) == 0);
    if (bytes == 0) bytes = 1;
    uintptr_t p = (cursor_ + (align - 1)) & ~uintptr_t{align - 1};
    if (p + bytes > limit_) {
      AddChunk(bytes + align);
      p = (cursor_ + (align - 1)) & ~uintptr_t{align - 1};
    }
    cursor_ = p + bytes;
    allocated_bytes_ += bytes;
    return reinterpret_cast<void*>(p);  // NOLINT(performance-no-int-to-ptr)
  }

  /// Invalidates every outstanding allocation. Keeps only the largest chunk
  /// so repeated Reset/allocate cycles stop touching the system allocator.
  void Reset() {
    if (chunks_.size() > 1) {
      size_t largest = 0;
      for (size_t i = 1; i < chunks_.size(); ++i) {
        if (chunks_[i].size > chunks_[largest].size) largest = i;
      }
      Chunk keep = std::move(chunks_[largest]);
      chunks_.clear();
      chunks_.push_back(std::move(keep));
    }
    if (!chunks_.empty()) {
      cursor_ = reinterpret_cast<uintptr_t>(chunks_.back().data.get());
      limit_ = cursor_ + chunks_.back().size;
    } else {
      cursor_ = 0;
      limit_ = 0;
    }
    allocated_bytes_ = 0;
  }

  /// Bytes handed out since the last Reset (excludes alignment padding).
  size_t allocated_bytes() const { return allocated_bytes_; }
  /// Total bytes owned across all chunks.
  size_t capacity_bytes() const {
    size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }
  size_t chunk_count() const { return chunks_.size(); }

 private:
  static constexpr size_t kDefaultChunkBytes = size_t{16} << 10;

  struct Chunk {
    std::unique_ptr<char[]> data;
    size_t size = 0;
  };

  void AddChunk(size_t min_bytes) {
    size_t size = next_chunk_bytes_;
    if (size < kDefaultChunkBytes) size = kDefaultChunkBytes;
    while (size < min_bytes) size *= 2;
    next_chunk_bytes_ = size * 2;  // geometric growth caps chunk count
    Chunk chunk;
    chunk.data = std::make_unique<char[]>(size);
    chunk.size = size;
    cursor_ = reinterpret_cast<uintptr_t>(chunk.data.get());
    limit_ = cursor_ + size;
    chunks_.push_back(std::move(chunk));
  }

  std::vector<Chunk> chunks_;
  uintptr_t cursor_ = 0;
  uintptr_t limit_ = 0;
  size_t allocated_bytes_ = 0;
  size_t next_chunk_bytes_;
};

/// std::allocator adapter. With a non-null arena, allocations bump-allocate
/// and deallocate is a no-op (memory returns on Arena::Reset). With a null
/// arena it degrades to the global heap, so one container type serves
/// arena-backed query scratch and plain heap callers alike — the allocation
/// strategy can never change computed values, only where the bytes live.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  ArenaAllocator() = default;
  explicit ArenaAllocator(Arena* arena) : arena_(arena) {}
  template <typename U>
  // NOLINTNEXTLINE(google-explicit-constructor): allocator rebind requires it.
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(size_t n) {
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->Allocate(n * sizeof(T), alignof(T)));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, size_t /*n*/) {
    if (arena_ == nullptr) ::operator delete(p);
  }

  Arena* arena() const { return arena_; }

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }
  friend bool operator!=(const ArenaAllocator& a, const ArenaAllocator& b) {
    return !(a == b);
  }

 private:
  Arena* arena_ = nullptr;
};

/// Vector whose backing store lives in an arena (or on the heap when the
/// arena pointer is null).
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

/// The calling thread's arena, created on first use. Each ThreadPool worker
/// (and the caller thread participating in ParallelFor) gets its own, which
/// is what makes per-query Reset() safe under concurrent queries.
inline Arena* ThisThreadArena() {
  thread_local Arena arena;
  return &arena;
}

}  // namespace vrec::util

#endif  // VREC_UTIL_ARENA_H_
