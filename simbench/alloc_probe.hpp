// Heap probe: this binary's own global operator new/delete overrides count
// allocations and live bytes per thread (sharded runs allocate on worker
// threads), and the readers below sum the per-thread slots.
#pragma once

#include <cstdint>

namespace simbench::alloc {

struct Totals {
  std::uint64_t allocs = 0;     ///< operator new calls so far, all threads
  std::int64_t live_bytes = 0;  ///< usable bytes allocated minus freed
};

/// Process-wide totals (sum over every thread that ever allocated).
Totals totals();

/// Allocations made by the calling thread so far: a cheap before/after
/// delta around one call.
std::uint64_t thread_allocs();

}  // namespace simbench::alloc
