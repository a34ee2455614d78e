// Bench-local allocation counter: replaces the global operator new/delete
// for the whole binary, so per-layer allocs/event come from exact counts.
// Kept in its own translation unit so no call site inlines the pair.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace unilog::e2e {
namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace unilog::e2e

void* operator new(std::size_t size) {
  unilog::e2e::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
