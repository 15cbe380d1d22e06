// Global allocation counters for the steady-state allocation tests.
//
// alloc_hook.cc overrides the global operator new/delete to bump these
// counters.  Linked ONLY into the allocation-count tests (see CMakeLists) so
// no other binary pays for or depends on the override.

#pragma once

#include <cstdint>

namespace ispn::testhook {

/// Number of global operator new calls so far.
std::uint64_t allocation_count();

/// Number of global operator delete calls so far.
std::uint64_t deallocation_count();

}  // namespace ispn::testhook
