#include "alloc_probe.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace simbench::alloc {
namespace {

// One cacheline per thread. Threads past kMaxThreads share the last slot,
// which stays correct because every update is an atomic add.
struct alignas(64) Slot {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::int64_t> bytes{0};
};
constexpr unsigned kMaxThreads = 128;
Slot g_slots[kMaxThreads];
std::atomic<unsigned> g_used{0};
thread_local Slot* t_slot = nullptr;

Slot& slot() {
  if (t_slot == nullptr) {
    const unsigned i = g_used.fetch_add(1, std::memory_order_relaxed);
    t_slot = &g_slots[i < kMaxThreads ? i : kMaxThreads - 1];
  }
  return *t_slot;
}

void* note(void* p) noexcept {
  if (p == nullptr) return p;
  Slot& s = slot();
  s.allocs.fetch_add(1, std::memory_order_relaxed);
  s.bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                    std::memory_order_relaxed);
  return p;
}

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return note(p);
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  slot().bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

void* aligned_raw(std::size_t n, std::align_val_t al) noexcept {
  const std::size_t a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

}  // namespace

Totals totals() {
  Totals t;
  const unsigned n = g_used.load(std::memory_order_relaxed);
  for (unsigned i = 0; i < n && i < kMaxThreads; ++i) {
    t.allocs += g_slots[i].allocs.load(std::memory_order_relaxed);
    t.live_bytes += g_slots[i].bytes.load(std::memory_order_relaxed);
  }
  return t;
}

std::uint64_t thread_allocs() { return slot().allocs.load(std::memory_order_relaxed); }

}  // namespace simbench::alloc

using simbench::alloc::aligned_raw;
using simbench::alloc::counted;
using simbench::alloc::note;
using simbench::alloc::release;

// Every replaceable form, so that no allocation bypasses the counters and no
// block is freed by a different family than the one that made it.
void* operator new(std::size_t n) { return counted(std::malloc(n ? n : 1)); }
void* operator new[](std::size_t n) { return counted(std::malloc(n ? n : 1)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return note(std::malloc(n ? n : 1));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return note(std::malloc(n ? n : 1));
}
void* operator new(std::size_t n, std::align_val_t al) { return counted(aligned_raw(n, al)); }
void* operator new[](std::size_t n, std::align_val_t al) { return counted(aligned_raw(n, al)); }
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return note(aligned_raw(n, al));
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return note(aligned_raw(n, al));
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  release(p);
}
