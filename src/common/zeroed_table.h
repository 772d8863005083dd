// Zero-initialised, lazily faulted flat tables.
//
// A ZeroedTable<T> is an array of n T's backed by a fresh anonymous mapping:
// every element reads as zero, and a page of the table costs no memory (and
// no clearing) until it is first written. Tables sized by a drive's capacity
// (FTL maps, write-buffer bitmaps) therefore cost what the simulation touches,
// not what the drive could hold, and a freed table goes straight back to the
// OS — independent of the allocator's mmap threshold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

namespace pas {

// Releases a mapping made by make_zeroed_table (the deleter carries its size).
struct UnmapDeleter {
  std::size_t bytes = 0;
  void operator()(void* p) const noexcept;
};

template <class T>
using ZeroedTable = std::unique_ptr<T[], UnmapDeleter>;

namespace detail {
// Maps `bytes` (> 0) of zero pages; aborts when the mapping fails.
void* map_zeroed_pages(std::size_t bytes);
}  // namespace detail

// Returns a table of `n` zero-valued elements (empty when n == 0).
template <class T>
ZeroedTable<T> make_zeroed_table(std::uint64_t n) {
  static_assert(std::is_trivial_v<T>, "zero pages must be a valid T");
  if (n == 0) return ZeroedTable<T>();
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(T);
  return ZeroedTable<T>(static_cast<T*>(detail::map_zeroed_pages(bytes)),
                        UnmapDeleter{bytes});
}

}  // namespace pas
