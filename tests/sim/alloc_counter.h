// Counts calls into the global allocator. alloc_counter.cpp replaces the
// global operator new/delete for the test binary that links it; the
// replacements live in their own translation unit so no test code is
// compiled against their bodies (inlining a replacement delete next to a
// new-expression makes GCC pair malloc-family calls with operator new and
// warn -Wmismatched-new-delete).
#pragma once

#include <cstdint>

namespace e2e {

/// Calls into the global allocator (every operator new form) so far.
[[nodiscard]] std::uint64_t global_allocations() noexcept;

}  // namespace e2e
