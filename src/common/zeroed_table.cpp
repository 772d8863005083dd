#include "common/zeroed_table.h"

#include <sys/mman.h>

#include "common/check.h"

namespace pas {

void UnmapDeleter::operator()(void* p) const noexcept { ::munmap(p, bytes); }

namespace detail {

void* map_zeroed_pages(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  PAS_CHECK_MSG(p != MAP_FAILED, "out of memory for a zeroed table");
  return p;
}

}  // namespace detail
}  // namespace pas
