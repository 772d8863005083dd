#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace pas::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(milliseconds(3), [&] { order.push_back(3); });
  s.schedule_at(milliseconds(1), [&] { order.push_back(1); });
  s.schedule_at(milliseconds(2), [&] { order.push_back(2); });
  s.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), milliseconds(3));
}

TEST(Simulator, SameTimeEventsFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  s.run_to_completion();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesNow) {
  Simulator s;
  TimeNs fired_at = -1;
  s.schedule_at(seconds(1), [&] {
    s.schedule_after(milliseconds(500), [&] { fired_at = s.now(); });
  });
  s.run_to_completion();
  EXPECT_EQ(fired_at, seconds(1.5));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool ran = false;
  const auto id = s.schedule_at(milliseconds(1), [&] { ran = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));  // second cancel is a no-op
  s.run_to_completion();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelledEventDoesNotAdvanceClock) {
  Simulator s;
  const auto id = s.schedule_at(seconds(100), [] {});
  s.schedule_at(milliseconds(1), [] {});
  s.cancel(id);
  s.run_to_completion();
  EXPECT_EQ(s.now(), milliseconds(1));
}

TEST(Simulator, RunUntilAdvancesExactly) {
  Simulator s;
  int fired = 0;
  s.schedule_at(milliseconds(10), [&] { ++fired; });
  s.schedule_at(milliseconds(30), [&] { ++fired; });
  s.run_until(milliseconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), milliseconds(20));
  s.run_until(milliseconds(40));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), milliseconds(40));
}

TEST(Simulator, RunUntilInclusiveOfBoundary) {
  Simulator s;
  bool ran = false;
  s.schedule_at(milliseconds(10), [&] { ran = true; });
  s.run_until(milliseconds(10));
  EXPECT_TRUE(ran);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) s.schedule_after(microseconds(1), chain);
  };
  s.schedule_after(0, chain);
  s.run_to_completion();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.executed_events(), 100u);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator s;
  s.schedule_at(milliseconds(7), [&] {
    s.schedule_after(0, [&] { EXPECT_EQ(s.now(), milliseconds(7)); });
  });
  s.run_to_completion();
  EXPECT_EQ(s.now(), milliseconds(7));
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator s;
  EXPECT_FALSE(s.step());
  s.schedule_after(1, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, SchedulingInPastAborts) {
  Simulator s;
  s.schedule_at(milliseconds(5), [] {});
  s.run_to_completion();
  EXPECT_DEATH(s.schedule_at(milliseconds(1), [] {}), "past");
}

TEST(Simulator, InterleavedSameTimeFifoProperty) {
  // Property check: under a randomized mix of timestamps (with heavy
  // duplication), events sharing a timestamp always fire in schedule order,
  // and timestamps themselves are non-decreasing.
  Simulator s;
  Rng rng(7);
  std::vector<std::pair<TimeNs, int>> fired;  // (timestamp, schedule index)
  constexpr int kEvents = 500;
  for (int i = 0; i < kEvents; ++i) {
    const TimeNs t = milliseconds(static_cast<TimeNs>(rng.next_below(20)));
    s.schedule_at(t, [&fired, &s, i] { fired.emplace_back(s.now(), i); });
  }
  s.run_to_completion();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kEvents));
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_GE(fired[i].first, fired[i - 1].first);
    if (fired[i].first == fired[i - 1].first) {
      EXPECT_GT(fired[i].second, fired[i - 1].second)
          << "same-timestamp events fired out of schedule order";
    }
  }
}

TEST(Simulator, CancelFromInsideCallback) {
  // A callback cancels a later event while the kernel is mid-drain.
  Simulator s;
  bool victim_ran = false;
  Simulator::EventId victim =
      s.schedule_at(milliseconds(2), [&] { victim_ran = true; });
  bool cancel_ok = false;
  s.schedule_at(milliseconds(1), [&] { cancel_ok = s.cancel(victim); });
  s.run_to_completion();
  EXPECT_TRUE(cancel_ok);
  EXPECT_FALSE(victim_ran);
}

TEST(Simulator, CancelOwnIdFromInsideCallbackFails) {
  // The running event's id is already consumed: cancelling it reports false
  // and must not corrupt the slot that is actively executing.
  Simulator s;
  Simulator::EventId self = Simulator::kInvalidEvent;
  bool self_cancel = true;
  self = s.schedule_at(milliseconds(1), [&] { self_cancel = s.cancel(self); });
  s.run_to_completion();
  EXPECT_FALSE(self_cancel);
  EXPECT_EQ(s.executed_events(), 1u);
}

TEST(Simulator, CancelAlreadyFiredIdFails) {
  Simulator s;
  const auto id = s.schedule_at(milliseconds(1), [] {});
  s.run_to_completion();
  EXPECT_FALSE(s.cancel(id));
  EXPECT_FALSE(s.cancel(Simulator::kInvalidEvent));
}

TEST(Simulator, StaleIdAfterSlotReuseFails) {
  // Generation tags: after an id's slot is recycled by new schedules, the
  // stale id must not cancel the unrelated event now occupying the slot.
  Simulator s;
  const auto stale = s.schedule_at(milliseconds(1), [] {});
  ASSERT_TRUE(s.cancel(stale));  // slot goes back to the free list
  int fired = 0;
  // Recycle aggressively: each schedule reuses the freed slot.
  std::vector<Simulator::EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(s.schedule_at(milliseconds(2 + i), [&] { ++fired; }));
    EXPECT_NE(ids.back(), stale);
    EXPECT_FALSE(s.cancel(stale));  // stale id never matches the new tenant
  }
  s.run_to_completion();
  EXPECT_EQ(fired, 8);
}

TEST(Simulator, CancelHeavyPruningKeepsSurvivorOrder) {
  // Cancel enough tombstones to trigger heap pruning mid-stream, then check
  // the surviving events still fire in exact (time, schedule-order) order.
  Simulator s;
  Rng rng(11);
  std::vector<int> order;
  std::vector<Simulator::EventId> guards;
  constexpr int kEvents = 400;
  for (int i = 0; i < kEvents; ++i) {
    const TimeNs t = milliseconds(static_cast<TimeNs>(1 + rng.next_below(50)));
    if (i % 2 == 0) {
      s.schedule_at(t, [&order, i] { order.push_back(i); });
    } else {
      guards.push_back(s.schedule_at(seconds(10) + t, [] { FAIL(); }));
    }
  }
  for (auto id : guards) EXPECT_TRUE(s.cancel(id));  // 200 cancels => prune
  s.run_to_completion();
  EXPECT_EQ(order.size(), static_cast<std::size_t>(kEvents / 2));
  EXPECT_EQ(s.pending_events(), 0u);
  // A reference replay (stable sort by timestamp = FIFO within equal stamps)
  // validates the exact global order of the survivors.
  Rng rng2(11);
  std::vector<std::pair<TimeNs, int>> keyed;
  for (int i = 0; i < kEvents; ++i) {
    const TimeNs t = milliseconds(static_cast<TimeNs>(1 + rng2.next_below(50)));
    if (i % 2 == 0) keyed.emplace_back(t, i);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    EXPECT_EQ(order[i], keyed[i].second) << "survivor order diverged at " << i;
  }
}

// Drives the kernel with a random mix of schedules and cancels and checks
// every fire against a reference queue ordered by (t, seq), where seq counts
// schedule calls exactly as the kernel does. The delay mix covers every path
// through the ready queue: a few chain delays reused by long same-delay runs
// (lane appends), well over 100 distinct delays live at once (slot
// collisions, so plain heap entries), and uniform one-off delays. Cancels hit
// the earliest pending event of a chain delay (a lane front) and the latest
// (an entry queued behind it), from outside and from inside callbacks, and
// mass cancels trigger compaction.
class OrderHarness {
 public:
  explicit OrderHarness(std::uint64_t seed) : rng_(seed) {}

  Simulator& sim() { return sim_; }
  std::size_t pending() const { return pending_.size(); }
  std::uint64_t fired() const { return fired_; }
  std::uint64_t mismatches() const { return mismatches_; }
  TimeNs earliest_pending() const { return pending_.begin()->first; }

  std::uint64_t schedule(TimeNs delay) {
    const std::uint64_t seq = next_seq_++;
    const TimeNs t = sim_.now() + delay;
    const auto id = sim_.schedule_at(t, [this, seq] { on_fire(seq); });
    pending_.emplace(t, seq);
    live_.emplace(seq, Live{id, t, delay});
    seqs_.push_back(seq);
    return seq;
  }

  TimeNs random_delay() {
    const std::uint64_t r = rng_.next_below(100);
    if (r < 45) return kChainDelays[rng_.next_below(std::size(kChainDelays))];
    if (r < 85) return 1000 + 7919 * static_cast<TimeNs>(rng_.next_below(kDistinctDelays));
    return static_cast<TimeNs>(rng_.next_below(5'000'000));
  }

  // Schedules every distinct delay once, so all of them are live together.
  void schedule_all_distinct() {
    for (TimeNs k = 0; k < kDistinctDelays; ++k) schedule(1000 + 7919 * k);
  }

  void cancel_random() {
    while (!seqs_.empty()) {
      const std::size_t i = rng_.next_below(seqs_.size());
      const std::uint64_t seq = seqs_[i];
      seqs_[i] = seqs_.back();
      seqs_.pop_back();
      if (live_.count(seq) != 0) {
        cancel(seq);
        return;
      }
    }
  }

  // Cancels the earliest (a lane front, when the delay holds a lane) or the
  // latest (queued behind the front) pending event of one chain delay.
  void cancel_chain(bool earliest) {
    const TimeNs delay = kChainDelays[rng_.next_below(std::size(kChainDelays))];
    auto matches = [&](const std::pair<TimeNs, std::uint64_t>& e) {
      return live_.at(e.second).delay == delay;
    };
    if (earliest) {
      const auto it = std::find_if(pending_.begin(), pending_.end(), matches);
      if (it != pending_.end()) cancel(it->second);
    } else {
      const auto it = std::find_if(pending_.rbegin(), pending_.rend(), matches);
      if (it != pending_.rend()) cancel(it->second);
    }
  }

  void cancel(std::uint64_t seq) {
    const Live e = live_.at(seq);
    EXPECT_TRUE(sim_.cancel(e.id));
    pending_.erase({e.t, seq});
    live_.erase(seq);
  }

  void random_actions(int max_schedules) {
    const auto n = rng_.next_below(static_cast<std::uint64_t>(max_schedules) + 1);
    for (std::uint64_t i = 0; i < n; ++i) schedule(random_delay());
    const std::uint64_t r = rng_.next_below(10);
    if (r == 0) cancel_chain(true);
    if (r == 1) cancel_chain(false);
    if (r == 2) cancel_random();
  }

 private:
  struct Live {
    Simulator::EventId id;
    TimeNs t;
    TimeNs delay;
  };
  static constexpr TimeNs kChainDelays[] = {0, 100, 1500, 70'000, 600'000, 1'000'000};
  static constexpr TimeNs kDistinctDelays = 150;

  void on_fire(std::uint64_t seq) {
    const auto expected = pending_.begin();
    if (expected == pending_.end() || expected->second != seq ||
        expected->first != sim_.now()) {
      ++mismatches_;
      pending_.erase({live_.at(seq).t, seq});
    } else {
      pending_.erase(expected);
    }
    live_.erase(seq);
    ++fired_;
    // Keep the population bounded: chains mostly continue, sometimes fork.
    if (fired_ < kFireBudget) random_actions(pending_.size() < 400 ? 3 : 1);
  }

  static constexpr std::uint64_t kFireBudget = 60'000;

  Simulator sim_;
  Rng rng_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t mismatches_ = 0;
  std::set<std::pair<TimeNs, std::uint64_t>> pending_;  // reference queue
  std::unordered_map<std::uint64_t, Live> live_;         // by seq
  std::vector<std::uint64_t> seqs_;                      // cancel candidates
};

TEST(Simulator, RandomScheduleMatchesReferenceOrder) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    OrderHarness h(seed);
    Rng rng(seed * 31);
    for (int round = 0; round < 60; ++round) {
      if (round % 10 == 0) h.schedule_all_distinct();
      for (int i = 0; i < 40; ++i) h.random_actions(2);
      if (round % 7 == 3) {
        // Guards that are almost all cancelled: enough tombstones to compact.
        std::vector<std::uint64_t> guards;
        for (int i = 0; i < 1000; ++i) guards.push_back(h.schedule(seconds(5) + i % 4));
        for (int i = 0; i < 1000; ++i) {
          if (i % 10 != 0) h.cancel(guards[static_cast<std::size_t>(i)]);
        }
      }
      const TimeNs until =
          h.sim().now() + static_cast<TimeNs>(rng.next_below(3'000'000));
      h.sim().run_until(until);
      EXPECT_EQ(h.sim().now(), until);
      EXPECT_EQ(h.sim().pending_events(), h.pending());
      if (h.pending() != 0) {
        EXPECT_GT(h.earliest_pending(), until);
      }
    }
    h.sim().run_to_completion();
    EXPECT_EQ(h.mismatches(), 0u) << "seed " << seed;
    EXPECT_EQ(h.pending(), 0u);
    EXPECT_EQ(h.sim().executed_events(), h.fired());
    EXPECT_GT(h.fired(), 50'000u);
  }
}

TEST(Simulator, TeardownReleasesCapturesQueuedBehindLaneFronts) {
  auto token = std::make_shared<int>(0);
  {
    Simulator s;
    std::vector<Simulator::EventId> ids;
    // Same-delay schedules queue behind one front; distinct delays are
    // plain or front entries. Some of each are cancelled first.
    for (int i = 0; i < 100; ++i) {
      ids.push_back(s.schedule_after(microseconds(70), [token] {}));
      ids.push_back(s.schedule_after(microseconds(100) + i, [token] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 7) EXPECT_TRUE(s.cancel(ids[i]));
    EXPECT_EQ(token.use_count(), 1 + static_cast<long>(s.pending_events()));
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulator, OversizedCaptureFallsBackToHeap) {
  // Captures larger than the inline callback buffer must still work (heap
  // fallback path in UniqueCallback).
  Simulator s;
  struct Big {
    std::uint64_t payload[32];  // 256 B, far over the inline budget
  };
  Big big{};
  big.payload[0] = 41;
  std::uint64_t seen = 0;
  s.schedule_at(milliseconds(1), [big, &seen] { seen = big.payload[0] + 1; });
  s.run_to_completion();
  EXPECT_EQ(seen, 42u);
}

TEST(PeriodicTask, FiresAtFixedPeriod) {
  Simulator s;
  std::vector<TimeNs> ticks;
  PeriodicTask task(s, milliseconds(10), [&] { ticks.push_back(s.now()); });
  task.start();
  s.run_until(milliseconds(55));
  ASSERT_EQ(ticks.size(), 5u);
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    EXPECT_EQ(ticks[i], milliseconds(10) * static_cast<TimeNs>(i + 1));
  }
}

TEST(PeriodicTask, StopHaltsTicks) {
  Simulator s;
  int ticks = 0;
  PeriodicTask task(s, milliseconds(1), [&] { ++ticks; });
  task.start();
  s.run_until(milliseconds(5));
  task.stop();
  s.run_until(milliseconds(100));
  EXPECT_EQ(ticks, 5);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, StopFromWithinCallback) {
  Simulator s;
  int ticks = 0;
  PeriodicTask task(s, milliseconds(1), [&] {
    if (++ticks == 3) task.stop();
  });
  task.start();
  s.run_until(milliseconds(50));
  EXPECT_EQ(ticks, 3);
}

TEST(PeriodicTask, RestartAfterStop) {
  Simulator s;
  int ticks = 0;
  PeriodicTask task(s, milliseconds(1), [&] { ++ticks; });
  task.start();
  s.run_until(milliseconds(3));
  task.stop();
  task.start();
  s.run_until(milliseconds(6));
  EXPECT_EQ(ticks, 6);
}

TEST(PeriodicTask, StartIsIdempotent) {
  Simulator s;
  int ticks = 0;
  PeriodicTask task(s, milliseconds(10), [&] { ++ticks; });
  task.start();
  task.start();
  s.run_until(milliseconds(25));
  EXPECT_EQ(ticks, 2);  // not doubled
}

}  // namespace
}  // namespace pas::sim
