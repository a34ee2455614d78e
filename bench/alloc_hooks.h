#ifndef UNILOG_BENCH_ALLOC_HOOKS_H_
#define UNILOG_BENCH_ALLOC_HOOKS_H_

// Global allocation counter for the allocs/op bench columns. Including
// this header REPLACES the global operator new/delete for the whole
// binary, so it must be included from exactly one translation unit — the
// bench's main .cc — and never from library code. Counting is a relaxed
// atomic increment: cheap enough to leave on for every measured section,
// and exact (not sampled) so allocs/op deltas are stable run to run.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace unilog::bench {

inline std::atomic<uint64_t> g_alloc_count{0};
inline std::atomic<uint64_t> g_alloc_bytes{0};

/// Total operator-new calls since process start.
inline uint64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

/// Total bytes requested from operator new since process start.
inline uint64_t AllocBytes() {
  return g_alloc_bytes.load(std::memory_order_relaxed);
}

/// Measures the allocation count (and bytes requested) across a scope.
class AllocScope {
 public:
  AllocScope() : start_(AllocCount()), start_bytes_(AllocBytes()) {}
  uint64_t Delta() const { return AllocCount() - start_; }
  uint64_t Bytes() const { return AllocBytes() - start_bytes_; }

 private:
  uint64_t start_;
  uint64_t start_bytes_;
};

}  // namespace unilog::bench

void* operator new(std::size_t size) {
  unilog::bench::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  unilog::bench::g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  unilog::bench::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  unilog::bench::g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
#if defined(_WIN32)
  void* p = _aligned_malloc(size ? size : 1, static_cast<std::size_t>(align));
#else
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               (size + static_cast<std::size_t>(align) - 1) /
                                   static_cast<std::size_t>(align) *
                                   static_cast<std::size_t>(align));
#endif
  if (p != nullptr) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // UNILOG_BENCH_ALLOC_HOOKS_H_
