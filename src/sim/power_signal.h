// The power signal a storage device exposes to observers, as a segment
// stream instead of a sampled waveform.
//
// Device power is piecewise constant: it changes only when a component
// changes state (link wake, NAND op start/finish, spindle state, ...), at
// which point the device's EnergyMeter integrates the closed segment and
// starts a new one. A PowerSegment is the meter's exact running state, so an
// observer holding one can reconstruct the energy counter bit-for-bit at ANY
// instant inside it:
//
//   energy(t) = energy_before + power * to_seconds(t - since)
//
// which is literally the expression EnergyMeter::energy_at(t) evaluates, on
// the same operands. The measurement rig leans on this to materialize ADC
// samples lazily (power/rig.h): instead of scheduling a simulator event per
// tick, it replays the elapsed ticks on demand with identical arithmetic.
//
// Contract (pull, not push): an observer names the instant it next needs
// the signal, its due time. The meter stays silent for every update at or
// before the due time — those segments close before any tick the observer
// still has to read — and calls on_power_update() for the first update past
// it, handing over the *closing* segment, which covers every tick from the
// due time up to the update. Anything later the observer pulls from the
// device's power_segment(). A due time that lags the observer's real next
// tick is safe: it only costs a call that converts nothing.
#pragma once

#include "common/units.h"

namespace pas::sim {

struct PowerSegment {
  TimeNs since = 0;            // when the current level took effect
  Watts power = 0.0;           // the current draw
  Joules energy_before = 0.0;  // exact energy integrated up to `since`
};

class PowerObserver {
 public:
  virtual ~PowerObserver() = default;
  // The due time the meter adopts when the observer attaches.
  virtual TimeNs next_due() const = 0;
  // Called, before the meter applies it, for an update at `at` past the due
  // time; `closing` is the meter's segment the update ends, valid on
  // [closing.since, at). Returns the new due time.
  virtual TimeNs on_power_update(const PowerSegment& closing, TimeNs at) = 0;
};

}  // namespace pas::sim
