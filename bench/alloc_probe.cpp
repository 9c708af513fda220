#include "alloc_probe.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_live_bytes{0};

// Every block carries its requested size in the word below the pointer handed
// out, off() bytes into the underlying block (at least the alignment), so
// delete subtracts exactly what new added, whatever malloc rounded up to.
std::size_t off(std::align_val_t a = std::align_val_t{alignof(std::max_align_t)}) {
  return std::max(static_cast<std::size_t>(a), alignof(std::max_align_t));
}

void* take(std::size_t n, std::size_t at, bool nothrow = false) {
  auto* raw = static_cast<char*>(std::aligned_alloc(at, (n + 2 * at - 1) / at * at));
  if (raw == nullptr && nothrow) return nullptr;
  if (raw == nullptr) throw std::bad_alloc();
  reinterpret_cast<std::size_t*>(raw + at)[-1] = n;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  return raw + at;
}

void give(void* p, std::size_t at) noexcept {
  if (p == nullptr) return;
  const std::size_t n = reinterpret_cast<std::size_t*>(p)[-1];
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  std::free(static_cast<char*>(p) - at);
}

}  // namespace

std::uint64_t mtp::bench::heap_allocs() { return g_allocs.load(std::memory_order_relaxed); }
std::int64_t mtp::bench::heap_live_bytes() { return g_live_bytes.load(std::memory_order_relaxed); }

// Every replaceable form, so that no allocation bypasses the counters and no
// block is freed by a different family than the one that made it.
using std::align_val_t, std::nothrow_t, std::size_t;
void* operator new(size_t n) { return take(n, off()); }
void* operator new[](size_t n) { return take(n, off()); }
void* operator new(size_t n, const nothrow_t&) noexcept { return take(n, off(), true); }
void* operator new[](size_t n, const nothrow_t&) noexcept { return take(n, off(), true); }
void* operator new(size_t n, align_val_t a) { return take(n, off(a)); }
void* operator new[](size_t n, align_val_t a) { return take(n, off(a)); }
void* operator new(size_t n, align_val_t a, const nothrow_t&) noexcept {
  return take(n, off(a), true);
}
void* operator new[](size_t n, align_val_t a, const nothrow_t&) noexcept {
  return take(n, off(a), true);
}
void operator delete(void* p) noexcept { give(p, off()); }
void operator delete[](void* p) noexcept { give(p, off()); }
void operator delete(void* p, size_t) noexcept { give(p, off()); }
void operator delete[](void* p, size_t) noexcept { give(p, off()); }
void operator delete(void* p, const nothrow_t&) noexcept { give(p, off()); }
void operator delete[](void* p, const nothrow_t&) noexcept { give(p, off()); }
void operator delete(void* p, align_val_t a) noexcept { give(p, off(a)); }
void operator delete[](void* p, align_val_t a) noexcept { give(p, off(a)); }
void operator delete(void* p, size_t, align_val_t a) noexcept { give(p, off(a)); }
void operator delete[](void* p, size_t, align_val_t a) noexcept { give(p, off(a)); }
void operator delete(void* p, align_val_t a, const nothrow_t&) noexcept { give(p, off(a)); }
void operator delete[](void* p, align_val_t a, const nothrow_t&) noexcept { give(p, off(a)); }
