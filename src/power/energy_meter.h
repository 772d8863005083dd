// Exact energy accounting over a piecewise-constant power signal.
//
// Device models update their draw through set_power() whenever a component
// changes state; energy_at() integrates the signal exactly. This is the
// ground truth the sampled measurement rig is validated against.
//
// The meter doubles as the publication point of the device's segment stream
// (sim/power_signal.h), on the pull contract: an attached PowerObserver is
// called only for an update past its due time — one compare per update —
// and gets the segment that update closes.
#pragma once

#include <limits>

#include "common/check.h"
#include "common/units.h"
#include "sim/power_signal.h"

namespace pas::power {

class EnergyMeter {
 public:
  EnergyMeter() = default;
  explicit EnergyMeter(TimeNs start, Watts initial = 0.0)
      : last_update_(start), power_(initial) {}

  // Sets the current draw; integrates the previous level up to `now`.
  void set_power(TimeNs now, Watts w) {
    PAS_CHECK(now >= last_update_);
    PAS_CHECK(w >= 0.0);
    if (now > due_) due_ = observer_->on_power_update(segment(), now);
    energy_ += power_ * to_seconds(now - last_update_);
    last_update_ = now;
    power_ = w;
  }

  Watts power() const { return power_; }

  Joules energy_at(TimeNs now) const {
    PAS_CHECK(now >= last_update_);
    return energy_ + power_ * to_seconds(now - last_update_);
  }

  // The open segment: energy_at(t) == energy_before + power * (t - since)
  // for any t inside it, on exactly these operands.
  sim::PowerSegment segment() const {
    return sim::PowerSegment{last_update_, power_, energy_};
  }

  // One observer at a time (nullptr detaches): two independent readers of
  // one signal is almost certainly a wiring bug, so replacing a live
  // observer with a different one aborts.
  void set_observer(sim::PowerObserver* observer) {
    PAS_CHECK_MSG(observer == nullptr || observer_ == nullptr || observer_ == observer,
                  "meter already has a different power observer");
    observer_ = observer;
    due_ = observer != nullptr ? observer->next_due() : kNever;
  }

 private:
  static constexpr TimeNs kNever = std::numeric_limits<TimeNs>::max();

  TimeNs last_update_ = 0;
  Watts power_ = 0.0;
  Joules energy_ = 0.0;
  TimeNs due_ = kNever;  // no call for an update at or before this instant
  sim::PowerObserver* observer_ = nullptr;
};

}  // namespace pas::power
