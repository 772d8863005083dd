// Run-length structures for the SSD write-buffer bookkeeping.
//
// Buffered data is tracked as runs of logical mapping units, not unit by
// unit: a host write is one RunFifo append and one BufferedRanges interval
// op regardless of its size, and a destage hands the FTL a handful of runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/check.h"
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

// Interval map: logical unit -> write-buffer occupancy count, stored as
// maximal spans of equal count (a unit can be buffered more than once when
// overlapping writes are in flight). One ordered-map operation per run
// replaces one hash operation per unit. Nodes freed by merges and removals
// are stashed and re-inserted with their keys rewritten (C++17 node
// handles), so steady-state traffic performs no allocation.
class BufferedRanges {
 public:
  bool empty() const { return spans_.empty(); }

  // Raises the occupancy count of [first, first + n) by one.
  void add(std::uint64_t first, std::uint64_t n) {
    PAS_CHECK(n > 0);
    const std::uint64_t end = first + n;
    auto it = spans_.lower_bound(first);
    if (it != spans_.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end > first) it = split_at(prev, first);
    }
    std::uint64_t pos = first;
    while (pos < end) {
      if (it == spans_.end() || it->first >= end) {
        emplace_span(it, pos, end, 1);  // trailing gap
        break;
      }
      if (it->first > pos) {
        emplace_span(it, pos, it->first, 1);  // gap up to the next span
        pos = it->first;
        continue;
      }
      // it->first == pos: overlap (pre-split guarantees alignment).
      if (it->second.end > end) split_at(it, end);
      ++it->second.count;
      pos = it->second.end;
      ++it;
    }
    merge_range(first, end);
  }

  // Lowers the occupancy count of [first, first + n) by one; spans reaching
  // zero disappear. The range must currently be fully buffered.
  void remove(std::uint64_t first, std::uint64_t n) {
    PAS_CHECK(n > 0);
    const std::uint64_t end = first + n;
    auto it = spans_.lower_bound(first);
    if (it != spans_.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end > first) it = split_at(prev, first);
    }
    std::uint64_t pos = first;
    while (pos < end) {
      PAS_CHECK(it != spans_.end() && it->first == pos);  // must be covered
      if (it->second.end > end) split_at(it, end);
      pos = it->second.end;
      if (--it->second.count == 0) {
        auto next = std::next(it);
        spare_.push_back(spans_.extract(it));
        it = next;
      } else {
        ++it;
      }
    }
    merge_range(first, end);
  }

  // Invokes emit(first, len) for each maximal sub-run of [first, first + n)
  // with zero occupancy, in ascending order. The device uses this to route
  // the unbuffered part of a host read to NAND.
  template <typename Emit>
  void for_each_unbuffered(std::uint64_t first, std::uint64_t n, Emit&& emit) const {
    std::uint64_t pos = first;
    const std::uint64_t end = first + n;
    auto it = spans_.lower_bound(first);
    if (it != spans_.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end > pos) pos = std::min(end, prev->second.end);
    }
    while (pos < end) {
      if (it == spans_.end() || it->first >= end) {
        emit(pos, end - pos);
        return;
      }
      if (it->first > pos) emit(pos, it->first - pos);
      pos = std::min(end, it->second.end);
      ++it;
    }
  }

 private:
  struct Span {
    std::uint64_t end;  // exclusive
    int count;
  };
  using Map = std::map<std::uint64_t, Span>;

  // Splits *it at `at`, truncating it to [start, at) and inserting
  // [at, old_end) with the same count. Returns the new (right) span.
  Map::iterator split_at(Map::iterator it, std::uint64_t at) {
    PAS_DCHECK(it->first < at && at < it->second.end);
    const std::uint64_t old_end = it->second.end;
    it->second.end = at;
    return emplace_span(std::next(it), at, old_end, it->second.count);
  }

  Map::iterator emplace_span(Map::const_iterator hint, std::uint64_t start,
                             std::uint64_t end, int count) {
    if (!spare_.empty()) {
      auto nh = std::move(spare_.back());
      spare_.pop_back();
      nh.key() = start;
      nh.mapped() = Span{end, count};
      return spans_.insert(hint, std::move(nh));
    }
    return spans_.emplace_hint(hint, start, Span{end, count});
  }

  // Coalesces adjacent equal-count spans in the neighbourhood of [first, end].
  void merge_range(std::uint64_t first, std::uint64_t end) {
    auto it = spans_.lower_bound(first);
    if (it != spans_.begin()) --it;  // predecessor may now abut the first span
    while (it != spans_.end() && it->first <= end) {
      auto next = std::next(it);
      if (next == spans_.end()) break;
      if (it->second.end == next->first && it->second.count == next->second.count) {
        it->second.end = next->second.end;
        spare_.push_back(spans_.extract(next));
      } else {
        it = next;
      }
    }
  }

  Map spans_;
  std::vector<Map::node_type> spare_;  // recycled nodes: zero-alloc steady state
};

}  // namespace pas::ssd
