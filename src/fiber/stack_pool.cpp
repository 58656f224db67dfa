#include "fiber/stack_pool.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <mutex>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define ALGE_STACK_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ALGE_STACK_POOL_ASAN 1
#endif
#endif
#if defined(ALGE_STACK_POOL_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace alge::fiber {

namespace {

void poison([[maybe_unused]] char* p, [[maybe_unused]] std::size_t n) {
#if defined(ALGE_STACK_POOL_ASAN)
  ASAN_POISON_MEMORY_REGION(p, n);
#endif
}

void unpoison([[maybe_unused]] char* p, [[maybe_unused]] std::size_t n) {
#if defined(ALGE_STACK_POOL_ASAN)
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
}

/// The free stacks of one size; back() is the next to reuse.
struct FreeList {
  std::size_t bytes;
  std::size_t carved = 0;  ///< stacks of this size ever carved
  std::vector<char*> stacks;
};

struct Pool {
  std::mutex mu;
  /// Programs use one or two stack sizes, so a linear scan beats a map.
  std::vector<FreeList> lists;
  std::size_t slabs = 0;

  FreeList& list(std::size_t bytes) {
    for (FreeList& l : lists) {
      if (l.bytes == bytes) return l;
    }
    return lists.emplace_back(FreeList{bytes, 0, {}});
  }
};

/// Never destroyed, so a Scheduler torn down during static destruction can
/// still return its stacks.
Pool& pool() {
  static Pool* const p = new Pool;
  return *p;
}

std::size_t round_to_pages(std::size_t bytes) {
  static const std::size_t page =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

}  // namespace

char* acquire_stack(std::size_t bytes) {
  Pool& p = pool();
  std::lock_guard<std::mutex> lock(p.mu);
  FreeList& l = p.list(bytes);
  if (l.stacks.empty()) {
    const std::size_t stride = round_to_pages(bytes);
    // Room for every stack of this size, so release never allocates.
    l.stacks.reserve(l.carved + kStacksPerSlab);
    void* slab = ::mmap(nullptr, stride * kStacksPerSlab,
                        PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (slab == MAP_FAILED) throw std::bad_alloc();
    ++p.slabs;
    char* base = static_cast<char*>(slab);
    poison(base, stride * kStacksPerSlab);
    l.carved += kStacksPerSlab;
    // Highest address first, so the slab is handed out from its start.
    for (std::size_t i = kStacksPerSlab; i-- > 0;) {
      l.stacks.push_back(base + i * stride);
    }
  }
  char* stack = l.stacks.back();
  l.stacks.pop_back();
  unpoison(stack, bytes);
  return stack;
}

void release_stack(char* stack, std::size_t bytes) noexcept {
  Pool& p = pool();
  poison(stack, bytes);
  std::lock_guard<std::mutex> lock(p.mu);
  // acquire made this list and reserved room for all its stacks, so
  // neither the lookup nor the push allocates.
  p.list(bytes).stacks.push_back(stack);
}

std::size_t stack_slabs_mapped() {
  Pool& p = pool();
  std::lock_guard<std::mutex> lock(p.mu);
  return p.slabs;
}

}  // namespace alge::fiber
