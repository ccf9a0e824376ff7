// Counts every heap allocation the benchmark process makes by replacing the
// global allocation functions for this binary only (the library code is
// untouched). A relaxed atomic increment per allocation; the data plane is
// meant to be allocation-free, so the count per request is the signal.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "alloc_hook.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc();
}

void* counted_nothrow(std::size_t size) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}

}  // namespace

namespace perfbench {
std::uint64_t heap_alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}
}  // namespace perfbench

void* operator new(std::size_t size) { return counted(size); }
void* operator new[](std::size_t size) { return counted(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_nothrow(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
