#include "alloc_count.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace studybench {

namespace {

struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};

// Threads claim a slot on their first allocation and keep it for life.
// Transient pools start new threads on every sweep, so the table is sized
// for a whole run; threads beyond it share the overflow slot.
constexpr std::size_t kSlots = 1 << 14;
Slot g_slots[kSlots];
Slot g_overflow;
std::atomic<std::size_t> g_claimed{0};

// Plain thread-locals with constant initializers: no TLS guard, no
// destructor registration (which would itself allocate).
constinit thread_local Slot* tl_slot = nullptr;
constinit thread_local std::uint64_t* tl_sink = nullptr;
constinit thread_local bool tl_uncounted = false;

void count_allocation() noexcept {
  if (tl_uncounted) return;
  Slot* slot = tl_slot;
  if (slot == nullptr) {
    const std::size_t i = g_claimed.fetch_add(1, std::memory_order_relaxed);
    slot = i < kSlots ? &g_slots[i] : &g_overflow;
    tl_slot = slot;
  }
  if (slot == &g_overflow) {
    slot->count.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Only the owning thread writes its slot.
    slot->count.store(slot->count.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  }
  if (tl_sink != nullptr) ++*tl_sink;
}

void* allocate(std::size_t size) {
  count_allocation();
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  count_allocation();
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  for (;;) {
    if (void* p = std::aligned_alloc(a, rounded)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

std::uint64_t total_allocs() noexcept {
  std::size_t claimed = g_claimed.load(std::memory_order_relaxed);
  if (claimed > kSlots) claimed = kSlots;
  std::uint64_t total = g_overflow.count.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < claimed; ++i) {
    total += g_slots[i].count.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t* exchange_alloc_sink(std::uint64_t* sink) noexcept {
  std::uint64_t* previous = tl_sink;
  tl_sink = sink;
  return previous;
}

UncountedScope::UncountedScope() noexcept : previous_(tl_uncounted) {
  tl_uncounted = true;
}

UncountedScope::~UncountedScope() { tl_uncounted = previous_; }

}  // namespace studybench

void* operator new(std::size_t size) { return studybench::allocate(size); }
void* operator new[](std::size_t size) { return studybench::allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return studybench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return studybench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return studybench::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return studybench::allocate_aligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return studybench::allocate_aligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return studybench::allocate_aligned(size, align);
  } catch (...) {
    return nullptr;
  }
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
