// Replaces the global operator new and delete with versions that count
// the heap bytes the program holds (each block's malloc_usable_size), for
// the heap_peak_kib metric. The system under test is linked into this
// program, so every allocation it makes through new is counted.
//
// The benchmark runs on one thread, so the counters are updated with a
// relaxed load and store (plain moves) rather than a locked
// read-modify-write: the counting then costs a few ns per allocation. A
// second thread could lose counts, but not corrupt memory.
#include <atomic>
#include <cstdlib>
#include <malloc.h>
#include <new>

#include "harness.h"

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void* counted(void* p) noexcept {
  if (p == nullptr) return nullptr;
  const auto live = g_live.load(std::memory_order_relaxed) +
                    static_cast<std::int64_t>(malloc_usable_size(p));
  g_live.store(live, std::memory_order_relaxed);
  if (live > g_peak.load(std::memory_order_relaxed)) {
    g_peak.store(live, std::memory_order_relaxed);
  }
  return p;
}

void* allocate(std::size_t n, std::size_t align) noexcept {
  if (n == 0) n = 1;
  if (align <= __STDCPP_DEFAULT_NEW_ALIGNMENT__) return counted(std::malloc(n));
  void* p = nullptr;
  return posix_memalign(&p, align, n) == 0 ? counted(p) : nullptr;
}

void* allocate_or_throw(std::size_t n, std::size_t align) {
  void* p = allocate(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.store(g_live.load(std::memory_order_relaxed) -
                   static_cast<std::int64_t>(malloc_usable_size(p)),
               std::memory_order_relaxed);
  std::free(p);
}

std::size_t align_of(std::align_val_t a) { return static_cast<std::size_t>(a); }

}  // namespace

namespace dds::bench {

std::int64_t heap_restart_peak() {
  const auto live = g_live.load(std::memory_order_relaxed);
  g_peak.store(live, std::memory_order_relaxed);
  return live;
}

std::int64_t heap_peak() { return g_peak.load(std::memory_order_relaxed); }

}  // namespace dds::bench

void* operator new(std::size_t n) { return allocate_or_throw(n, 0); }
void* operator new[](std::size_t n) { return allocate_or_throw(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return allocate_or_throw(n, align_of(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate_or_throw(n, align_of(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return allocate(n, align_of(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return allocate(n, align_of(a));
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  release(p);
}
