// The device models' one queued-resource primitive.
//
// ResourcePool: a capacity of interchangeable units granted in FIFO order.
// A host link or a NAND channel is a one-unit pool, controller cores are a
// k-unit pool, and a write cache is a pool of bytes. The split between
// try_acquire() and wait() mirrors PowerGovernor's try_admit()/enqueue(): the
// common uncontended grant runs the caller's continuation inline and never
// builds a callback. The pool calls no one back on busy edges; the owner
// recomputes whatever depends on its busy level after a successful
// try_acquire() and after a release() that returns true.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/check.h"
#include "sim/callback.h"
#include "sim/ring_queue.h"

namespace pas::sim {

class ResourcePool {
 public:
  explicit ResourcePool(std::uint64_t capacity) : capacity_(capacity) {
    PAS_CHECK(capacity > 0);
  }

  std::uint64_t used() const { return used_; }
  bool busy() const { return used_ > 0; }
  std::size_t waiters() const { return waiters_.size(); }

  // Takes `n` units and returns true when they are free and no waiter is
  // queued ahead (grants stay FIFO: a small request never overtakes).
  bool try_acquire(std::uint64_t n = 1) {
    if (!waiters_.empty() || n > capacity_ - used_) return false;
    used_ += n;
    return true;
  }

  // Queues `go` until `n` units are granted to it. Valid only after
  // try_acquire(n) failed at the same instant.
  void wait(std::uint64_t n, UniqueCallback go) {
    PAS_CHECK(go != nullptr);
    PAS_CHECK_MSG(n <= capacity_, "request larger than the pool");
    PAS_CHECK_MSG(!waiters_.empty() || n > capacity_ - used_, "wait() while grantable");
    waiters_.push_back({n, std::move(go)});
  }

  // Returns `n` units, then grants and runs the head waiters that now fit,
  // in order. Returns false exactly when the released units went straight to
  // waiters (a handover: the busy level this release left is unchanged).
  bool release(std::uint64_t n = 1) {
    PAS_CHECK(n <= used_);
    used_ -= n;
    std::uint64_t granted = 0;
    while (!waiters_.empty() && waiters_.front().first <= capacity_ - used_) {
      // Moved out before it runs: a continuation may queue on this pool and
      // grow the ring under a reference into it.
      auto [need, go] = std::move(waiters_.front());
      waiters_.pop_front();
      used_ += need;
      granted += need;
      go();
    }
    return granted != n;
  }

 private:
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  RingQueue<std::pair<std::uint64_t, UniqueCallback>> waiters_;
};

}  // namespace pas::sim
