// Run-length structures for the SSD write-buffer bookkeeping.
//
// Buffered data is queued as runs of logical mapping units, not unit by
// unit: a host write is one RunFifo append and one BufferedRanges update of a
// few bitmap words, and a destage hands the FTL a handful of runs.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/zeroed_table.h"
#include "sim/ring_queue.h"

namespace pas::ssd {

// One contiguous run of logical mapping units: [first, first + len).
struct Run {
  std::uint64_t first = 0;
  std::uint32_t len = 0;
};

// FIFO of buffered logical units awaiting destage, stored as coalesced runs.
// Invariant: expanding the runs popped by pop_units, in order, yields the
// per-unit arrival sequence of the host writes, duplicates included — the
// lpn order the FTL programs and the parity baselines pin. Duplicate lpns
// from overlapping writes never coalesce, because a merge requires strict
// first+len == next contiguity.
class RunFifo {
 public:
  bool empty() const { return runs_.empty(); }
  std::uint64_t units() const { return units_; }

  void push(std::uint64_t first, std::uint32_t len) {
    PAS_CHECK(len > 0);
    units_ += len;
    if (!runs_.empty()) {
      Run& back = runs_.back();
      if (back.first + back.len == first) {
        back.len += len;
        return;
      }
    }
    runs_.push_back(Run{first, len});
  }

  // Pops exactly `n` units off the front, appending them to `out` as runs.
  void pop_units(std::uint32_t n, std::vector<Run>& out) {
    PAS_CHECK(n <= units_);
    units_ -= n;
    while (n > 0) {
      Run& front = runs_.front();
      if (front.len <= n) {
        n -= front.len;
        out.push_back(front);
        runs_.pop_front();
      } else {
        out.push_back(Run{front.first, n});
        front.first += n;
        front.len -= n;
        n = 0;
      }
    }
  }

 private:
  sim::RingQueue<Run> runs_;
  std::uint64_t units_ = 0;
};

// Write-buffer occupancy per logical unit: how many buffered copies of each
// unit await destage (overlapping writes in flight buffer a unit more than
// once). Two bitmaps over the drive's logical units carry the common case:
// a unit's bit in `once_` is set while its count is at least one, in
// `multi_` while it is at least two. The excess (count - 1) of the units in
// `multi_` lives in a flat table keyed by bitmap word, one slot of 64
// counters per word. add and remove are mask operations per 64-unit word;
// for_each_unbuffered scans words with ctz.
//
// The bitmaps are zero pages mapped on the first add, so a drive that is
// never written costs no memory (a campaign builds dozens of probe drives)
// and a written one only the pages under its written LBA ranges. The count
// table grows to its peak once and is reused: steady-state traffic
// allocates nothing.
class BufferedRanges {
 public:
  explicit BufferedRanges(std::uint64_t total_units) : total_units_(total_units) {}

  bool empty() const { return buffered_ == 0; }

  // Raises the occupancy count of [first, first + n) by one.
  void add(std::uint64_t first, std::uint64_t n) {
    PAS_CHECK(n > 0 && first + n <= total_units_);
    if (!once_) {
      once_ = make_zeroed_table<std::uint64_t>(words());
      multi_ = make_zeroed_table<std::uint64_t>(words());
    }
    buffered_ += n;
    for_each_word(first, n, [this](std::uint64_t w, std::uint64_t mask) {
      const std::uint64_t again = once_[w] & mask;  // already buffered
      once_[w] |= mask;
      if (again != 0) raise_excess(w, again);
    });
  }

  // Lowers the occupancy count of [first, first + n) by one. The range must
  // currently be fully buffered.
  void remove(std::uint64_t first, std::uint64_t n) {
    PAS_CHECK(n > 0 && first + n <= total_units_);
    PAS_CHECK(n <= buffered_);
    buffered_ -= n;
    for_each_word(first, n, [this](std::uint64_t w, std::uint64_t mask) {
      PAS_CHECK((mask & ~once_[w]) == 0);  // must be covered
      const std::uint64_t many = mask & multi_[w];
      once_[w] &= ~(mask & ~many);  // units buffered exactly once leave
      if (many != 0) lower_excess(w, many);
    });
  }

  // Invokes emit(first, len) for each maximal sub-run of [first, first + n)
  // with zero occupancy, in ascending order. The device uses this to route
  // the unbuffered part of a host read to NAND.
  template <typename Emit>
  void for_each_unbuffered(std::uint64_t first, std::uint64_t n, Emit&& emit) const {
    PAS_DCHECK(first + n <= total_units_);
    const std::uint64_t end = first + n;
    if (!once_) {
      if (n > 0) emit(first, n);
      return;
    }
    std::uint64_t pos = first;
    while (pos < end) {
      pos = next_with(pos, end, false);
      if (pos == end) return;
      const std::uint64_t stop = next_with(pos, end, true);
      emit(pos, stop - pos);
      pos = stop;
    }
  }

 private:
  static constexpr std::uint64_t kNoWord = ~0ULL;
  using Counters = std::array<std::uint32_t, 64>;  // count - 1 per unit of a word
  struct Entry {
    std::uint64_t word = kNoWord;  // bitmap word index; kNoWord = empty
    std::uint32_t slot = 0;        // index into slots_
  };

  std::uint64_t words() const { return (total_units_ + 63) / 64; }

  // Calls fn(word, mask) for each bitmap word [first, first + n) touches, in
  // ascending order, with the mask of the range's units in that word.
  template <typename Fn>
  static void for_each_word(std::uint64_t first, std::uint64_t n, Fn&& fn) {
    std::uint64_t w = first / 64;
    const std::uint64_t last = (first + n - 1) / 64;
    std::uint64_t mask = ~0ULL << (first % 64);
    for (; w < last; ++w, mask = ~0ULL) fn(w, mask);
    const unsigned tail = static_cast<unsigned>((first + n) % 64);
    if (tail != 0) mask &= ~0ULL >> (64 - tail);
    fn(w, mask);
  }

  // The first unit in [pos, end) whose once_ bit equals `set`, or end.
  std::uint64_t next_with(std::uint64_t pos, std::uint64_t end, bool set) const {
    const std::uint64_t flip = set ? 0 : ~0ULL;
    std::uint64_t w = pos / 64;
    std::uint64_t bits = (once_[w] ^ flip) & (~0ULL << (pos % 64));
    while (bits == 0) {
      if (++w * 64 >= end) return end;
      bits = once_[w] ^ flip;
    }
    return std::min(end, w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits)));
  }

  // Adds one to the excess of every unit in `bits` (all already buffered).
  void raise_excess(std::uint64_t w, std::uint64_t bits) {
    Counters& c = slots_[multi_[w] != 0 ? index_[find(w)].slot : insert(w)];
    multi_[w] |= bits;
    for (; bits != 0; bits &= bits - 1) ++c[static_cast<std::size_t>(std::countr_zero(bits))];
  }

  // Subtracts one from the excess of every unit in `bits` (all in multi_).
  void lower_excess(std::uint64_t w, std::uint64_t bits) {
    const std::size_t at = find(w);
    Counters& c = slots_[index_[at].slot];
    std::uint64_t single = 0;  // units now buffered exactly once
    for (; bits != 0; bits &= bits - 1) {
      const int i = std::countr_zero(bits);
      if (--c[static_cast<std::size_t>(i)] == 0) single |= 1ULL << i;
    }
    multi_[w] &= ~single;
    if (multi_[w] == 0) erase(at);
  }

  // Open addressing with linear probing over a power-of-two index_, at most
  // half full; erase shifts the probe chain back, so there are no
  // tombstones. A word has an entry exactly while its multi_ word is nonzero.
  std::size_t home(std::uint64_t w) const {
    return static_cast<std::size_t>((w * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  std::size_t find(std::uint64_t w) const {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = home(w);
    while (index_[i].word != w) {
      PAS_CHECK(index_[i].word != kNoWord);  // every caller knows w is present
      i = (i + 1) & mask;
    }
    return i;
  }
  // Adds an entry for w (absent) with an all-zero slot; returns the slot.
  std::uint32_t insert(std::uint64_t w) {
    const std::size_t live = slots_.size() - free_slots_.size();
    if (2 * (live + 1) > index_.size()) grow();
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    place(Entry{w, slot});
    return slot;
  }
  void place(Entry e) {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = home(e.word);
    while (index_[i].word != kNoWord) i = (i + 1) & mask;
    index_[i] = e;
  }
  void erase(std::size_t at) {
    free_slots_.push_back(index_[at].slot);  // its counters are all zero again
    const std::size_t mask = index_.size() - 1;
    for (std::size_t j = (at + 1) & mask; index_[j].word != kNoWord; j = (j + 1) & mask) {
      // Move j back into the hole unless its home lies cyclically in (at, j].
      const std::size_t h = home(index_[j].word);
      const bool stays = at < j ? (at < h && h <= j) : (at < h || h <= j);
      if (!stays) {
        index_[at] = index_[j];
        at = j;
      }
    }
    index_[at] = Entry{};
  }
  void grow() {
    std::vector<Entry> old = std::move(index_);
    const std::size_t cap = old.empty() ? 16 : old.size() * 2;
    index_.assign(cap, Entry{});
    shift_ = 64 - std::countr_zero(cap);
    for (const Entry& e : old) {
      if (e.word != kNoWord) place(e);
    }
  }

  std::uint64_t total_units_;
  std::uint64_t buffered_ = 0;  // sum of all counts
  ZeroedTable<std::uint64_t> once_;   // count >= 1, one bit per unit
  ZeroedTable<std::uint64_t> multi_;  // count >= 2, one bit per unit
  std::vector<Entry> index_;          // word -> slot; see find()
  std::vector<Counters> slots_;       // per-word excess counters, reused
  std::vector<std::uint32_t> free_slots_;  // slots_ not held by an entry
  int shift_ = 64;                         // 64 - log2(index_.size())
};

}  // namespace pas::ssd
