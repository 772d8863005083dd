#include "ssd/governor.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "sim/simulator.h"

namespace pas::ssd {
namespace {

// Harness with a scripted "other power" (non-NAND) level, reported the way a
// device reports it: through on_power_change().
struct GovHarness {
  GovHarness() { report(5.0); }
  void report(Watts other_w) { gov.on_power_change(other_w); }

  sim::Simulator sim;
  PowerGovernor gov{sim};
};

TEST(PowerGovernor, UncappedAdmitsImmediately) {
  GovHarness h;
  int ran = 0;
  for (int i = 0; i < 100; ++i) h.gov.admit(1.0, [&] { ++ran; });
  EXPECT_EQ(ran, 100);
  EXPECT_EQ(h.gov.queued(), 0u);
  EXPECT_EQ(h.gov.throttle_events(), 0u);
}

TEST(PowerGovernor, AdmitsWithinBurstBudget) {
  GovHarness h;
  h.gov.set_cap(10.0, /*burst=*/1.0, /*hysteresis=*/0.1);
  int ran = 0;
  // Initial credit = burst = 1 J; ops of 0.3 J: 3 admitted, 4th queued.
  for (int i = 0; i < 4; ++i) h.gov.admit(0.3, [&] { ++ran; });
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(h.gov.queued(), 1u);
  EXPECT_EQ(h.gov.throttle_events(), 1u);
}

TEST(PowerGovernor, CreditRefillsAtCapMinusOtherPower) {
  GovHarness h;
  h.report(6.0);  // set_cap refills from the last reported power
  h.gov.set_cap(10.0, 1.0, 0.0);
  int ran = 0;
  for (int i = 0; i < 4; ++i) h.gov.admit(0.5, [&] { ++ran; });
  EXPECT_EQ(ran, 2);  // 1 J of initial credit
  // Refill rate = 10 - 6 = 4 W -> 0.5 J every 125 ms.
  h.sim.run_until(milliseconds(130));
  EXPECT_EQ(ran, 3);
  h.sim.run_until(milliseconds(260));
  EXPECT_EQ(ran, 4);
}

TEST(PowerGovernor, NoRefillWhileOverCap) {
  GovHarness h;
  h.report(12.0);  // above the 10 W cap: credit can never grow
  h.gov.set_cap(10.0, 1.0, 0.0);
  int ran = 0;
  h.gov.admit(0.9, [&] { ++ran; });  // burns most of the initial credit
  h.gov.admit(0.9, [&] { ++ran; });
  EXPECT_EQ(ran, 1);
  h.sim.run_until(seconds(5));
  EXPECT_EQ(ran, 1);  // still starved
  // Load drops below the cap: refill resumes and the op eventually runs.
  h.report(5.0);
  h.sim.run_until(seconds(6));
  EXPECT_EQ(ran, 2);
}

TEST(PowerGovernor, FifoOrderPreserved) {
  GovHarness h;
  h.gov.set_cap(10.0, 0.5, 0.0);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    h.gov.admit(0.4, [&order, i] { order.push_back(i); });
  }
  h.sim.run_until(seconds(2));
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(PowerGovernor, HysteresisDutyCycles) {
  GovHarness h;
  // Cap 10 W, tiny burst, large hysteresis: after exhaustion, issue pauses
  // until 0.5 J accumulates (100 ms at 5 W of headroom).
  h.gov.set_cap(10.0, 0.5, 0.5);
  int ran = 0;
  std::vector<TimeNs> times;
  for (int i = 0; i < 3; ++i) {
    h.gov.admit(0.5, [&] {
      ++ran;
      times.push_back(h.sim.now());
    });
  }
  EXPECT_EQ(ran, 1);  // first consumes the whole burst
  h.sim.run_until(seconds(1));
  ASSERT_EQ(ran, 3);
  // Ops 2 and 3 each waited ~100 ms for the hysteresis refill.
  EXPECT_NEAR(to_seconds(times[1]), 0.1, 0.01);
  EXPECT_NEAR(to_seconds(times[2]), 0.2, 0.01);
}

TEST(PowerGovernor, SetCapResetsBudget) {
  GovHarness h;
  h.gov.set_cap(10.0, 0.1, 0.0);
  int ran = 0;
  h.gov.admit(0.1, [&] { ++ran; });
  h.gov.admit(0.1, [&] { ++ran; });
  EXPECT_EQ(ran, 1);
  h.gov.set_cap(20.0, 1.0, 0.0);  // fresh budget, queued op drains
  EXPECT_EQ(ran, 2);
}

TEST(PowerGovernor, DisableCapDrainsQueue) {
  GovHarness h;
  h.gov.set_cap(10.0, 0.1, 0.0);
  int ran = 0;
  h.gov.admit(5.0, [&] { ++ran; });  // cost above burst: waits a long time
  EXPECT_EQ(ran, 0);
  h.gov.set_cap(0.0, 0.0, 0.0);  // back to uncapped
  EXPECT_EQ(ran, 1);
}

TEST(PowerGovernor, ZeroCostOpsStillOrderedBehindQueue) {
  GovHarness h;
  h.gov.set_cap(10.0, 0.1, 0.0);
  int ran = 0;
  h.gov.admit(0.5, [&] { ++ran; });  // queued (cost > burst-credit)
  h.gov.admit(0.0, [&] { ++ran; });  // free, but must not overtake
  EXPECT_EQ(ran, 0);
  h.sim.run_until(seconds(1));
  EXPECT_EQ(ran, 2);
}

TEST(PowerGovernor, CreditNeverExceedsBurst) {
  GovHarness h;
  h.report(0.0);
  h.gov.set_cap(10.0, 1.0, 0.0);
  h.sim.schedule_at(seconds(10), [] {});
  h.sim.run_to_completion();
  h.report(0.0);
  EXPECT_LE(h.gov.credit(), 1.0 + 1e-9);
}

}  // namespace
}  // namespace pas::ssd
