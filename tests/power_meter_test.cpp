#include "power/energy_meter.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace pas::power {
namespace {

TEST(EnergyMeter, ZeroPowerAccumulatesNothing) {
  EnergyMeter m;
  EXPECT_DOUBLE_EQ(m.energy_at(seconds(100)), 0.0);
}

TEST(EnergyMeter, ConstantPower) {
  EnergyMeter m(0, 5.0);
  EXPECT_DOUBLE_EQ(m.energy_at(seconds(10)), 50.0);
  EXPECT_DOUBLE_EQ(m.power(), 5.0);
}

TEST(EnergyMeter, PiecewiseConstantIntegration) {
  EnergyMeter m;
  m.set_power(0, 2.0);
  m.set_power(seconds(1), 10.0);       // 2 J so far
  m.set_power(seconds(1.5), 0.0);      // + 5 J
  m.set_power(seconds(3), 4.0);        // + 0 J
  EXPECT_DOUBLE_EQ(m.energy_at(seconds(4)), 2.0 + 5.0 + 0.0 + 4.0);
}

TEST(EnergyMeter, EnergyAtIsIdempotent) {
  EnergyMeter m(0, 3.0);
  EXPECT_DOUBLE_EQ(m.energy_at(seconds(2)), 6.0);
  EXPECT_DOUBLE_EQ(m.energy_at(seconds(2)), 6.0);
  EXPECT_DOUBLE_EQ(m.energy_at(seconds(4)), 12.0);
}

TEST(EnergyMeter, SetSamePowerRepeatedly) {
  EnergyMeter m;
  for (int i = 1; i <= 10; ++i) m.set_power(seconds(i), 1.0);
  EXPECT_DOUBLE_EQ(m.energy_at(seconds(10)), 9.0);
}

TEST(EnergyMeter, StartOffsetRespected) {
  EnergyMeter m(seconds(5), 2.0);
  EXPECT_DOUBLE_EQ(m.energy_at(seconds(7)), 4.0);
}

// Observer on a fixed tick grid that counts the meter's calls.
class TickObserver : public sim::PowerObserver {
 public:
  explicit TickObserver(TimeNs period) : period_(period), due_(period) {}
  TimeNs next_due() const override { return due_; }
  TimeNs on_power_update(const sim::PowerSegment& closing, TimeNs at) override {
    ++calls;
    last_closing = closing;
    last_at = at;
    while (due_ < at) due_ += period_;
    return due_;
  }

  int calls = 0;
  sim::PowerSegment last_closing;
  TimeNs last_at = 0;

 private:
  TimeNs period_;
  TimeNs due_;
};

TEST(EnergyMeter, ObserverPulledOnlyPastItsDueTime) {
  EnergyMeter m(0, 1.0);
  TickObserver obs(milliseconds(1));
  m.set_observer(&obs);
  // 10 000 updates inside one tick period, the last exactly on the tick.
  for (TimeNs i = 1; i <= 10000; ++i) m.set_power(i * 100, 1.0 + static_cast<double>(i % 7));
  EXPECT_EQ(obs.calls, 0);
  // One update crossing five ticks: one call, handed the segment it closes.
  const sim::PowerSegment closing = m.segment();
  m.set_power(milliseconds(6) + 1, 3.0);
  EXPECT_EQ(obs.calls, 1);
  EXPECT_EQ(obs.last_at, milliseconds(6) + 1);
  EXPECT_EQ(obs.last_closing.since, closing.since);
  EXPECT_EQ(obs.last_closing.power, closing.power);
  EXPECT_EQ(obs.last_closing.energy_before, closing.energy_before);
  // Due again at the next tick (7 ms), not before.
  m.set_power(milliseconds(7), 2.0);
  EXPECT_EQ(obs.calls, 1);
  m.set_power(milliseconds(7) + 1, 2.0);
  EXPECT_EQ(obs.calls, 2);
  // A detached observer hears nothing.
  m.set_observer(nullptr);
  m.set_power(seconds(1), 0.0);
  EXPECT_EQ(obs.calls, 2);
}

TEST(EnergyMeter, SecondObserverAborts) {
  EnergyMeter m;
  TickObserver a(milliseconds(1));
  TickObserver b(milliseconds(1));
  m.set_observer(&a);
  m.set_observer(&a);  // re-attaching the same observer is fine
  EXPECT_DEATH(m.set_observer(&b), "different power observer");
}

TEST(EnergyMeter, BackwardsTimeAborts) {
  EnergyMeter m;
  m.set_power(seconds(2), 1.0);
  EXPECT_DEATH(m.set_power(seconds(1), 1.0), "");
}

TEST(EnergyMeter, NegativePowerAborts) {
  EnergyMeter m;
  EXPECT_DEATH(m.set_power(seconds(1), -0.5), "");
}

}  // namespace
}  // namespace pas::power
