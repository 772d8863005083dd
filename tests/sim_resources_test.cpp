#include "sim/resources.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace pas::sim {
namespace {

// The owner's side of the protocol: run `go` now if the units are free,
// otherwise queue it. Returns whether the grant was immediate.
template <typename F>
bool acquire(ResourcePool& pool, std::uint64_t n, F go) {
  if (pool.try_acquire(n)) {
    go();
    return true;
  }
  pool.wait(n, std::move(go));
  return false;
}

TEST(ResourcePool, ImmediateAcquireWhenFree) {
  ResourcePool r(1);
  EXPECT_FALSE(r.busy());
  EXPECT_TRUE(r.try_acquire());
  EXPECT_TRUE(r.busy());
  EXPECT_EQ(r.used(), 1u);
  EXPECT_FALSE(r.try_acquire());  // full
  EXPECT_TRUE(r.release());
  EXPECT_FALSE(r.busy());
}

TEST(ResourcePool, WaitersRunFifoOnRelease) {
  ResourcePool r(1);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) acquire(r, 1, [&order, i] { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(r.waiters(), 2u);
  r.release();  // hands over to waiter 1
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_TRUE(r.busy());
  r.release();
  r.release();
  EXPECT_FALSE(r.busy());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ResourcePool, ReleaseReturnsFalseOnHandover) {
  ResourcePool r(1);
  std::vector<bool> edges;  // what an owner's power update would see
  edges.push_back(acquire(r, 1, [] {}));
  edges.push_back(acquire(r, 1, [] {}));  // queued: no edge
  edges.push_back(r.release());           // handover: no edge
  edges.push_back(r.release());           // now free: edge
  EXPECT_EQ(edges, (std::vector<bool>{true, false, false, true}));
}

TEST(ResourcePool, ParallelismUpToServers) {
  ResourcePool pool(2);
  int running = 0;
  for (int i = 0; i < 3; ++i) acquire(pool, 1, [&] { ++running; });
  EXPECT_EQ(running, 2);
  EXPECT_EQ(pool.used(), 2u);
  EXPECT_EQ(pool.waiters(), 1u);
  EXPECT_FALSE(pool.release());  // third runs on the freed unit
  EXPECT_EQ(running, 3);
  EXPECT_EQ(pool.used(), 2u);
  EXPECT_TRUE(pool.release());
  EXPECT_TRUE(pool.release());
  EXPECT_EQ(pool.used(), 0u);
}

TEST(ResourcePool, UsedTracksBusyLevel) {
  ResourcePool pool(2);
  std::vector<std::uint64_t> levels;  // used() at each busy-level change
  auto note = [&](bool changed) {
    if (changed) levels.push_back(pool.used());
  };
  note(acquire(pool, 1, [] {}));
  note(acquire(pool, 1, [] {}));
  note(acquire(pool, 1, [] {}));  // queued
  note(pool.release());           // handover: level unchanged
  note(pool.release());
  note(pool.release());
  EXPECT_EQ(levels, (std::vector<std::uint64_t>{1, 2, 1, 0}));
}

TEST(ResourcePool, SingleServerIsSerial) {
  ResourcePool pool(1);
  std::vector<int> order;
  acquire(pool, 1, [&] { order.push_back(0); });
  acquire(pool, 1, [&] { order.push_back(1); });
  EXPECT_EQ(order, (std::vector<int>{0}));
  pool.release();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  pool.release();
}

TEST(ResourcePool, WeightedGrantsAreFifoWithHeadOfLineBlocking) {
  ResourcePool pool(10);
  std::vector<int> order;
  ASSERT_TRUE(pool.try_acquire(8));
  acquire(pool, 6, [&] { order.push_back(6); });  // does not fit: queued
  // 1 unit would fit, but the queued 6 is ahead of it.
  EXPECT_FALSE(pool.try_acquire(1));
  acquire(pool, 1, [&] { order.push_back(1); });
  acquire(pool, 4, [&] { order.push_back(4); });
  EXPECT_EQ(pool.waiters(), 3u);
  // Freeing 4 grants the 6, which fills the pool again.
  EXPECT_TRUE(pool.release(4));  // 6 granted for 4 released: the level moved
  EXPECT_EQ(order, (std::vector<int>{6}));
  EXPECT_EQ(pool.used(), 10u);
  // Freeing the 6 grants the 1 and the 4, in order.
  EXPECT_TRUE(pool.release(6));
  EXPECT_EQ(order, (std::vector<int>{6, 1, 4}));
  EXPECT_EQ(pool.used(), 9u);
  EXPECT_EQ(pool.waiters(), 0u);
}

TEST(ResourcePool, ReleaseOfExactlyTheWaitersNeedIsAHandover) {
  ResourcePool pool(10);
  ASSERT_TRUE(pool.try_acquire(10));
  std::vector<int> order;
  acquire(pool, 3, [&] { order.push_back(3); });
  acquire(pool, 1, [&] { order.push_back(1); });
  acquire(pool, 2, [&] { order.push_back(2); });
  EXPECT_FALSE(pool.release(4));  // 3 + 1 take exactly the 4 released
  EXPECT_EQ(order, (std::vector<int>{3, 1}));
  EXPECT_EQ(pool.used(), 10u);
  EXPECT_TRUE(pool.release(1));  // 1 free, the queued 2 does not fit
  EXPECT_EQ(pool.used(), 9u);
  EXPECT_EQ(pool.waiters(), 1u);
}

TEST(ResourcePool, ContinuationMayQueueOnTheSamePool) {
  // A granted continuation queues more waiters than the ring holds, forcing
  // it to grow while release() walks it.
  ResourcePool pool(1);
  ASSERT_TRUE(pool.try_acquire());
  int ran = 0;
  acquire(pool, 1, [&] {
    ++ran;
    for (int i = 0; i < 64; ++i) acquire(pool, 1, [&] { ++ran; });
  });
  EXPECT_FALSE(pool.release());
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(pool.waiters(), 64u);
  while (pool.waiters() > 0) pool.release();
  EXPECT_EQ(ran, 65);
  EXPECT_TRUE(pool.release());
  EXPECT_FALSE(pool.busy());
}

TEST(ResourcePool, WaitWhileGrantableAborts) {
  ResourcePool pool(2);
  EXPECT_DEATH(pool.wait(1, [] {}), "grantable");
}

TEST(ResourcePool, WaitLargerThanCapacityAborts) {
  ResourcePool pool(2);
  EXPECT_FALSE(pool.try_acquire(3));
  EXPECT_DEATH(pool.wait(3, [] {}), "larger than the pool");
}

TEST(ResourcePool, ReleaseWithoutAcquireAborts) {
  ResourcePool pool(1);
  EXPECT_DEATH(pool.release(), "");
}

TEST(ResourcePool, ZeroServersAborts) { EXPECT_DEATH(ResourcePool(0), ""); }

}  // namespace
}  // namespace pas::sim
