// Process-wide heap-allocation counter for the zero-allocation gates
// (tests/alloc_test.cc, bench_simcore, bench_hotpath).
//
// alloc_counter.cc replaces the global operator new/delete with counting
// versions. It is built as the OBJECT library mitt_alloc_counter and linked
// only into those three binaries: every other binary keeps the default
// allocator and pays no atomic increment per allocation.
//
// Sanitizer interceptors own operator new, so under ASan/TSan/MSan the
// replacement is compiled out, MITT_ALLOC_HOOKS is 0 and both counters stay
// at 0; gates must skip rather than pass vacuously.

#ifndef MITTOS_COMMON_ALLOC_COUNTER_H_
#define MITTOS_COMMON_ALLOC_COUNTER_H_

#include <cstdint>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MITT_ALLOC_HOOKS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define MITT_ALLOC_HOOKS 0
#endif
#endif
#ifndef MITT_ALLOC_HOOKS
#define MITT_ALLOC_HOOKS 1
#endif

namespace mitt {

// Allocations (and bytes requested) through global operator new since start.
uint64_t AllocCount();
uint64_t AllocBytes();

}  // namespace mitt

#endif  // MITTOS_COMMON_ALLOC_COUNTER_H_
