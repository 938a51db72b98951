// Heap-allocation counter for tests: the test binary that links
// alloc_count.cpp replaces the global operator new/delete with malloc/free
// wrappers that count allocations, on every thread, while counting is on.
#pragma once

#include <cstdint>

namespace vafs::test {

void count_allocations(bool on);
/// Allocations counted so far (monotonic).
std::uint64_t allocations();

}  // namespace vafs::test
