#include "sim/simulator.h"

#include <algorithm>
#include <cstring>

namespace pas::sim {

Simulator::Simulator()
    : heap_t_(new TimeNs[1024]), heap_meta_(new Meta[1024]), heap_cap_(1024) {}

Simulator::~Simulator() {
  // Fired and cancelled slots already had their callback reset, so the only
  // slots owning resources are the live queue entries; visiting just those
  // (instead of all slot_count_ slots) makes teardown O(pending). The Slot
  // objects themselves need no destructor call beyond the callback reset:
  // their remaining members are trivial.
  for (std::size_t i = 0; i < heap_size_; ++i) {
    const EventId id = heap_meta_[i].id;
    if (id_live(id)) slot(slot_of(id)).cb.reset();
  }
  if (rings_.empty()) return;  // no lane ever held an entry behind its front
  for (const Lane& lane : lanes_) {
    for (std::uint32_t i = 0; i < lane.size; ++i) {
      const EventId id = lane.ring[(lane.head + i) & (lane.cap - 1)].m.id;
      if (id_live(id)) slot(slot_of(id)).cb.reset();
    }
  }
}

void Simulator::grow_pages() {
  pages_.emplace_back(new unsigned char[sizeof(Slot) * kPageSize]);
}

void Simulator::grow_heap() {
  const std::size_t cap = heap_cap_ * 2;
  std::unique_ptr<TimeNs[]> t(new TimeNs[cap]);
  std::unique_ptr<Meta[]> m(new Meta[cap]);
  std::memcpy(t.get(), heap_t_.get(), heap_size_ * sizeof(TimeNs));
  std::memcpy(m.get(), heap_meta_.get(), heap_size_ * sizeof(Meta));
  heap_t_ = std::move(t);
  heap_meta_ = std::move(m);
  heap_cap_ = cap;
}

void Simulator::grow_lane(Lane& lane) {
  if (rings_.empty()) rings_.resize(kLanes);
  std::unique_ptr<LaneEntry[]>& owner = rings_[static_cast<std::size_t>(&lane - lanes_)];
  const std::uint32_t cap = lane.cap == 0 ? 16 : lane.cap * 2;
  std::unique_ptr<LaneEntry[]> ring(new LaneEntry[cap]);
  // Linearize the old ring while copying so head restarts at zero.
  for (std::uint32_t i = 0; i < lane.size; ++i) {
    ring[i] = lane.ring[(lane.head + i) & (lane.cap - 1)];
  }
  owner = std::move(ring);
  lane.ring = owner.get();
  lane.head = 0;
  lane.cap = cap;
}

void Simulator::sift_down(std::size_t i) {
  const std::size_t n = heap_size_;
  const TimeNs e_t = heap_t_[i];
  const Meta e_m = heap_meta_[i];
  for (;;) {
    const std::size_t first = (i << kArityShift) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t limit = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < limit; ++c) {
      if (entry_before(c, best)) best = c;
    }
    // keys are unique, so "best not before e" == "e before best".
    if (key_before(e_t, e_m.key, best)) break;
    heap_t_[i] = heap_t_[best];
    heap_meta_[i] = heap_meta_[best];
    i = best;
  }
  heap_t_[i] = e_t;
  heap_meta_[i] = e_m;
}

void Simulator::prune() {
  // Lazy deletion leaves tombstones in the heap and in the lanes; compact
  // once they dominate so cancel-heavy workloads (timeout guards that almost
  // never fire) stay O(live). Filtering lanes in place keeps them sorted, a
  // dead lane front is replaced by the lane's next live entry, and the heap
  // is rebuilt over the survivors, so the (t, key) order is unchanged.
  std::size_t out = 0;
  for (std::size_t i = 0; i < heap_size_; ++i) {
    TimeNs t = heap_t_[i];
    Meta m = heap_meta_[i];
    const auto tag = static_cast<std::uint32_t>(m.key & kTagMask);
    if (tag != 0) {
      // Each live lane fronts exactly one heap entry, so its ring is
      // compacted exactly once.
      Lane& lane = lanes_[tag - 1];
      std::uint32_t kept = 0;
      for (std::uint32_t j = 0; j < lane.size; ++j) {
        const LaneEntry e = lane.ring[(lane.head + j) & (lane.cap - 1)];
        if (id_live(e.m.id)) lane.ring[(lane.head + kept++) & (lane.cap - 1)] = e;
      }
      lane.size = kept;
      if (!id_live(m.id)) {
        if (lane.size == 0) {
          lane.live = false;
          continue;
        }
        const LaneEntry next = lane_pop(lane);
        t = next.t;
        m = next.m;
      }
    } else if (!id_live(m.id)) {
      continue;
    }
    heap_t_[out] = t;
    heap_meta_[out] = m;
    ++out;
  }
  heap_size_ = out;
  stale_ = 0;
  if (out < 2) return;
  for (std::size_t i = ((out - 2) >> kArityShift) + 1; i-- > 0;) sift_down(i);
}

PeriodicTask::PeriodicTask(Simulator& sim, TimeNs period, Simulator::Callback cb)
    : sim_(sim), period_(period), cb_(std::move(cb)) {
  PAS_CHECK(period_ > 0);
  PAS_CHECK(cb_);
}

void PeriodicTask::start() {
  if (!stopped_) return;
  stopped_ = false;
  arm();
}

void PeriodicTask::stop() {
  stopped_ = true;
  if (pending_ != Simulator::kInvalidEvent) {
    sim_.cancel(pending_);
    pending_ = Simulator::kInvalidEvent;
  }
}

void PeriodicTask::arm() { pending_ = sim_.schedule_after(period_, Tick{this}); }

void PeriodicTask::tick() {
  pending_ = Simulator::kInvalidEvent;
  cb_();
  if (!stopped_) arm();  // cb_ may have called stop()
}

}  // namespace pas::sim
