// Heap probe for the benches: linking alloc_probe.cpp replaces every form of
// the global operator new/delete with one that counts calls and requested
// bytes, so a probe reads deltas around the code it measures.
#pragma once

#include <cstdint>

namespace mtp::bench {

std::uint64_t heap_allocs();      ///< operator new calls so far, all threads
std::int64_t heap_live_bytes();  ///< requested bytes allocated and not yet freed

}  // namespace mtp::bench
