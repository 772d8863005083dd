// Discrete-event simulation kernel.
//
// The whole library runs on simulated time: devices, workload generators, and
// the measurement rig all schedule callbacks here. Events with equal
// timestamps fire in scheduling order (a monotonically increasing sequence
// number breaks ties), which makes every run deterministic.
//
// Internals (see DESIGN.md "Event-kernel internals"): callbacks live in a
// paged slab of fixed-size slots recycled through a free list, EventIds carry
// a generation tag so cancel() is an O(1) slot probe and a stale id from a
// reused slot safely returns false, and the ready queue is one index-based
// 4-ary min-heap whose entries are either plain events or the front of a
// *delay lane*. A delay lane is a FIFO ring of the events scheduled with one
// delay d = t - now(); it is sorted by construction (now() never decreases
// and the sequence number always grows), so a schedule behind a live front
// of the same delay is an O(1) append and popping a lane front is one
// replace-top sift. Lanes live in a fixed direct-mapped table keyed by d; a
// delay whose slot is held by another live delay becomes a plain heap entry.
// Cancelled entries are deleted lazily in both places. The schedule and fire
// paths are header-inline on purpose: schedule_at() constructs the caller's
// capture directly into its slab slot, and fire_next() runs the callback in
// place, so the hot loop does no callback moves and no heap allocation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "sim/callback.h"

namespace pas::sim {

class Simulator {
 public:
  using Callback = UniqueCallback;
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs now() const { return now_; }

  // Schedules `cb` to run at absolute simulated time `t` (>= now). The
  // callable is constructed directly into its event slot.
  template <typename F, typename = std::enable_if_t<
                            std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_at(TimeNs t, F&& cb) {
    PAS_CHECK_MSG(t >= now_, "cannot schedule into the past");
    // Reject empty std::functions / null function pointers up front, like the
    // kernel always has; plain lambdas are never null and skip the branch.
    if constexpr (std::is_constructible_v<bool, std::decay_t<F>&>) {
      PAS_CHECK_MSG(static_cast<bool>(cb), "null callback");
    }
    std::uint32_t idx;
    Slot& s = alloc_slot(idx);
    s.cb.construct(std::forward<F>(cb));  // slot callbacks are always empty here
    const EventId id = make_id(idx, s.gen);
    const std::uint64_t key = next_seq_++ << kTagBits;
    // Route by delay: behind a live front of the same delay the entry is an
    // O(1) lane append; an idle slot is claimed and its front enters the
    // heap; a slot held by another delay leaves this one a plain entry.
    const TimeNs delay = t - now_;
    const std::uint32_t li = lane_index(delay);
    Lane& lane = lanes_[li];
    if (!lane.live) {
      lane.live = true;
      lane.delay = delay;
      heap_push(t, Meta{key | (li + 1), id});
    } else if (lane.delay == delay) {
      lane_push(lane, LaneEntry{t, Meta{key | (li + 1), id}});
    } else {
      heap_push(t, Meta{key, id});
    }
    ++live_;
    return id;
  }

  // Schedules `cb` to run `delay` nanoseconds from now (>= 0).
  template <typename F, typename = std::enable_if_t<
                            std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_after(TimeNs delay, F&& cb) {
    return schedule_at(now_ + delay, std::forward<F>(cb));
  }

  // Cancels a pending event. Returns false if it already ran or was cancelled.
  bool cancel(EventId id) {
    const std::uint32_t idx = slot_of(id);
    // kInvalidEvent decodes to idx 0xFFFFFFFF, which always fails the range
    // check; a stale id from a recycled slot fails the generation check.
    if (idx >= slot_count_) return false;
    Slot& s = slot(idx);
    if (s.gen != gen_of(id)) return false;
    s.cb.reset();
    release_slot(idx);
    --live_;
    ++stale_;  // the queue entry stays behind as a tombstone
    // Compact once tombstones make up half of the queued entries.
    if (stale_ >= 64 && stale_ >= live_) prune();
    return true;
  }

  // Runs the next pending event, advancing time to it. Returns false if none.
  bool step() { return fire_next(std::numeric_limits<TimeNs>::max()); }

  // Runs all events with timestamp <= t, then sets now() to exactly t.
  void run_until(TimeNs t) {
    PAS_CHECK(t >= now_);
    while (fire_next(t)) {
    }
    now_ = t;
  }

  // Runs until the event queue drains.
  void run_to_completion() {
    while (fire_next(std::numeric_limits<TimeNs>::max())) {
    }
  }

  std::size_t pending_events() const { return live_; }
  std::uint64_t executed_events() const { return executed_; }

 private:
  // A scheduled (or free) event slot. `gen` is bumped every time the slot's
  // occupancy ends, so an EventId minted for an earlier occupancy can never
  // match again; `next_free` threads the free list while the slot is vacant.
  // `gen` leads so the cancel/fire probe and the callback's dispatch pointer
  // share the slot's first cache line; `next_free` is only meaningful while
  // the slot sits on the free list, so it starts uninitialized.
  struct Slot {
    std::uint32_t gen = 0;
    std::uint32_t next_free;
    Callback cb;
  };

  // The ready queue orders by (t, key). `key` is the schedule sequence
  // number shifted left by kTagBits, with the low bits naming the delay lane
  // the entry fronts (lane index + 1; 0 for a plain entry). The sequence
  // number is unique and increments per schedule, so comparing keys compares
  // sequence numbers: same-timestamp events fire FIFO, and (t, seq) is a
  // total order whichever queue an entry sits in. The shift leaves 2^56
  // sequence numbers, 22 years at 10^8 schedules per second. The heap is
  // stored structure-of-arrays — timestamps in `heap_t_`, (key, id) in
  // `heap_meta_` — so the child scans of the 4-ary sift read one contiguous
  // 32-byte run of timestamps; the key tie-break is only loaded on equal
  // stamps.
  struct Meta {
    std::uint64_t key;
    EventId id;
  };

  // One event queued behind a lane's front, in (t, key) order.
  struct LaneEntry {
    TimeNs t;
    Meta m;
  };

  // A delay lane: while `live`, its front entry sits in the heap and `ring`
  // (a power-of-two ring, allocated on the lane's first append) holds the
  // events scheduled behind it with the same delay. An idle lane has an
  // empty ring and may be claimed by any delay. `ring` points into
  // `rings_`, which owns it.
  struct Lane {
    TimeNs delay = 0;
    bool live = false;
    std::uint32_t head = 0;
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
    LaneEntry* ring = nullptr;
  };

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  // The lane table: 128 direct-mapped slots. Campaign and fleet traffic uses
  // 15-24 distinct constant delays for ~96 % of its events; a one-off delay
  // (Poisson arrival, HDD seek, exponential timer) claims an idle slot or
  // becomes a plain entry, and costs what a heap entry costs either way.
  // Only the slots in use are touched, so the table size sets the collision
  // rate, not the cache footprint (64 slots left 5.5 % of fleet's schedules
  // plain, 128 leave 3.5 %).
  static constexpr std::uint32_t kLaneBits = 7;
  static constexpr std::uint32_t kLanes = 1u << kLaneBits;
  static constexpr std::uint32_t kTagBits = kLaneBits + 1;  // lane index + 1
  static constexpr std::uint64_t kTagMask = (std::uint64_t{1} << kTagBits) - 1;

  // Heap arity: 4 children per node halves the depth of a binary heap while
  // a full node's timestamps still fit one 32-byte scan; 8-ary measured
  // slower here (more compares per level than the depth saving pays for).
  static constexpr std::size_t kArityShift = 2;
  static constexpr std::size_t kArity = std::size_t{1} << kArityShift;

  // Slots live in fixed-size pages so their addresses are stable: the kernel
  // can run a callback in place (no per-fire move of the 80-byte callback)
  // while that callback schedules new events, and page growth never touches
  // existing slots.
  static constexpr std::uint32_t kPageShift = 8;
  static constexpr std::uint32_t kPageSize = 1u << kPageShift;  // slots per page
  static constexpr std::uint32_t kPageMask = kPageSize - 1;

  // EventId layout: generation in the high 32 bits, slot index + 1 in the low
  // 32 (the +1 keeps kInvalidEvent = 0 unreachable).
  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | (slot + 1);
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFu) - 1;
  }
  static std::uint32_t gen_of(EventId id) { return static_cast<std::uint32_t>(id >> 32); }

  // Fibonacci hashing: the top kLaneBits of delay * 2^64/phi.
  static std::uint32_t lane_index(TimeNs delay) {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(delay) * 0x9E3779B97F4A7C15ull) >> (64 - kLaneBits));
  }

  bool entry_before(std::size_t a, std::size_t b) const {
    if (heap_t_[a] != heap_t_[b]) return heap_t_[a] < heap_t_[b];
    return heap_meta_[a].key < heap_meta_[b].key;
  }
  bool key_before(TimeNs t, std::uint64_t key, std::size_t b) const {
    if (t != heap_t_[b]) return t < heap_t_[b];
    return key < heap_meta_[b].key;
  }

  // Both heap arrays always share one size/capacity, so a push pays a single
  // bounds check (vs one per std::vector) and pops are a bare decrement.

  // Slots are lazily placement-constructed into raw page storage: a fresh
  // page costs one allocation, not kPageSize constructor runs, and only the
  // slots actually used are ever touched.
  Slot& slot(std::uint32_t idx) {
    return *std::launder(reinterpret_cast<Slot*>(
        pages_[idx >> kPageShift].get() + sizeof(Slot) * (idx & kPageMask)));
  }
  const Slot& slot(std::uint32_t idx) const {
    return *std::launder(reinterpret_cast<const Slot*>(
        pages_[idx >> kPageShift].get() + sizeof(Slot) * (idx & kPageMask)));
  }

  bool id_live(EventId id) const { return slot(slot_of(id)).gen == gen_of(id); }

  Slot& alloc_slot(std::uint32_t& idx) {
    if (free_head_ != kNoSlot) {
      idx = free_head_;
      Slot& s = slot(idx);
      free_head_ = s.next_free;
      return s;
    }
    idx = slot_count_++;
    if ((idx & kPageMask) == 0) grow_pages();
    return *::new (static_cast<void*>(pages_[idx >> kPageShift].get() +
                                      sizeof(Slot) * (idx & kPageMask))) Slot();
  }

  void release_slot(std::uint32_t idx) {
    Slot& s = slot(idx);
    ++s.gen;  // invalidate every outstanding id minted for this occupancy
    s.next_free = free_head_;
    free_head_ = idx;
  }

  // The single skip/fire path shared by step()/run_until()/
  // run_to_completion(): drops cancelled entries off the root lazily, then
  // fires the earliest live event if its timestamp is <= limit. Returns false
  // (firing nothing) when the queue drains or the next event is past `limit`.
  bool fire_next(TimeNs limit) {
    for (;;) {
      if (heap_size_ == 0) return false;
      const TimeNs top_t = heap_t_[0];
      const Meta top = heap_meta_[0];
      const std::uint32_t idx = slot_of(top.id);
      Slot& s = slot(idx);
      if (s.gen != gen_of(top.id)) {  // cancelled: lazy removal
        advance_root(top.key);
        --stale_;
        continue;
      }
      if (top_t > limit) return false;
      advance_root(top.key);
      // Bump the generation *before* invoking so a cancel() of the
      // now-running id returns false, but keep the slot off the free list
      // until the callback returns: its captures stay valid in place (pages
      // never move) and no new schedule can overwrite them, so the callback
      // is never moved on the fire path.
      ++s.gen;
      --live_;
      now_ = top_t;
      ++executed_;
      s.cb.invoke_and_reset();
      s.next_free = free_head_;
      free_head_ = idx;
      return true;
    }
  }

  // Removes the heap root, whose key is `key`. A lane front is replaced by
  // the next entry of its lane when there is one; otherwise the lane idles.
  void advance_root(std::uint64_t key) {
    const auto tag = static_cast<std::uint32_t>(key & kTagMask);
    if (tag != 0) {
      Lane& lane = lanes_[tag - 1];
      if (lane.size != 0) {
        const LaneEntry next = lane_pop(lane);
        sift_from_root(heap_size_, next.t, next.m);
        return;
      }
      lane.live = false;
    }
    heap_pop_root();
  }

  void lane_push(Lane& lane, const LaneEntry& e) {
    if (lane.size == lane.cap) grow_lane(lane);
    lane.ring[(lane.head + lane.size++) & (lane.cap - 1)] = e;
  }

  static LaneEntry lane_pop(Lane& lane) {
    const LaneEntry e = lane.ring[lane.head];
    lane.head = (lane.head + 1) & (lane.cap - 1);
    --lane.size;
    return e;
  }

  void heap_push(TimeNs t, const Meta& m) {
    if (heap_size_ == heap_cap_) grow_heap();
    std::size_t i = heap_size_++;
    while (i > 0) {
      const std::size_t parent = (i - 1) >> kArityShift;
      if (!key_before(t, m.key, parent)) break;
      heap_t_[i] = heap_t_[parent];
      heap_meta_[i] = heap_meta_[parent];
      i = parent;
    }
    heap_t_[i] = t;
    heap_meta_[i] = m;
  }

  void heap_pop_root() {
    const std::size_t n = --heap_size_;
    if (n == 0) return;
    sift_from_root(n, heap_t_[n], heap_meta_[n]);
  }

  // Fills the root of a heap of `n` entries with (e_t, e_m). Bottom-up
  // (Wegener): walk the hole to a leaf along min-children — no compare
  // against the placed element per level — then place it there and bubble it
  // up, which is usually zero steps: a popped heap's former back entry and a
  // lane's next entry both tend to belong near a leaf.
  void sift_from_root(std::size_t n, TimeNs e_t, Meta e_m) {
    TimeNs* const t = heap_t_.get();
    Meta* const m = heap_meta_.get();
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = (hole << kArityShift) + 1;
      if (first + (kArity - 1) < n) {  // full node: fixed 4-way min scan
        static_assert(kArity == 4, "update the unrolled scan with the arity");
        std::size_t best = first;
        if (entry_before(first + 1, best)) best = first + 1;
        if (entry_before(first + 2, best)) best = first + 2;
        if (entry_before(first + 3, best)) best = first + 3;
        t[hole] = t[best];
        m[hole] = m[best];
        hole = best;
        continue;
      }
      if (first >= n) break;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (entry_before(c, best)) best = c;
      }
      t[hole] = t[best];
      m[hole] = m[best];
      hole = best;
      break;  // a partial (last) node's children would start past n
    }
    while (hole > 0) {
      const std::size_t parent = (hole - 1) >> kArityShift;
      if (!key_before(e_t, e_m.key, parent)) break;
      t[hole] = t[parent];
      m[hole] = m[parent];
      hole = parent;
    }
    t[hole] = e_t;
    m[hole] = e_m;
  }

  void grow_pages();
  void grow_heap();
  void grow_lane(Lane& lane);
  void sift_down(std::size_t i);
  void prune();

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;   // scheduled, not yet fired or cancelled
  std::size_t stale_ = 0;  // cancelled entries awaiting lazy removal
  std::uint32_t free_head_ = kNoSlot;
  std::uint32_t slot_count_ = 0;
  std::vector<std::unique_ptr<unsigned char[]>> pages_;  // raw Slot storage
  std::unique_ptr<TimeNs[]> heap_t_;
  std::unique_ptr<Meta[]> heap_meta_;
  std::size_t heap_size_ = 0;
  std::size_t heap_cap_ = 0;
  Lane lanes_[kLanes];
  // Ring storage, one per lane, sized to the table on the first append. Kept
  // out of Lane so Lane stays trivially destructible: a simulator that never
  // appended to a lane tears down without visiting the table. Visiting it
  // took a construct/schedule/run/destroy cycle from 170 to 450 ns (g++ 12,
  // -O2), about a fifth of campaign's set-up, which builds 54 probe
  // simulators.
  std::vector<std::unique_ptr<LaneEntry[]>> rings_;
};

// Repeats a callback every `period` until stop() or the owning simulator
// drains. Used for ADC sampling ticks and governor accounting windows.
class PeriodicTask {
 public:
  PeriodicTask(Simulator& sim, TimeNs period, Simulator::Callback cb);
  ~PeriodicTask() { stop(); }
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start();
  void stop();
  bool running() const { return !stopped_; }
  // Re-times the task; only while stopped (the pending tick would be stale).
  void set_period(TimeNs period) {
    PAS_CHECK_MSG(stopped_, "set_period on a running task");
    PAS_CHECK(period > 0);
    period_ = period;
  }

 private:
  // The rearm closure is this pointer-sized struct, not a fresh lambda over
  // the user callback: `cb_` is constructed once and each tick only copies
  // `this` into the scheduler.
  struct Tick {
    PeriodicTask* task;
    void operator()() const { task->tick(); }
  };

  void arm();
  void tick();

  Simulator& sim_;
  TimeNs period_;
  Simulator::Callback cb_;
  Simulator::EventId pending_ = Simulator::kInvalidEvent;
  bool stopped_ = true;
};

}  // namespace pas::sim
