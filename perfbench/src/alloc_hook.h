#pragma once

#include <cstdint>

namespace perfbench {

// Heap allocations made by the whole process so far (operator new hook).
[[nodiscard]] std::uint64_t heap_alloc_count();

}  // namespace perfbench
