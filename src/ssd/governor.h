// NVMe power-state enforcement.
//
// An NVMe operational power state caps the device's *average* power over any
// 10-second window. Firmware cannot slow the controller's static draw, so it
// meets the cap by gating NAND operation issue. This governor implements
// that as an energy-credit (token bucket) controller on total device power:
//
//   credit(t) = clamp( integral of (cap - P_other) dt - admitted NAND energy,
//                      [0, burst] )
//
// P_other is everything except the NAND array (static floor, link, firmware
// cores, regulator loss); each NAND op's energy is charged up front at
// admission. Sustained NAND energy rate therefore equals cap - P_other, so
// total average power converges to the cap from below; the burst allowance
// preserves short-timescale spikes (visible in the paper's Figure 2a) while
// bounding window-average overshoot to burst/window, well under 1%.
#pragma once

#include <cstdint>
#include <utility>

#include "common/check.h"
#include "common/units.h"
#include "sim/callback.h"
#include "sim/ring_queue.h"
#include "sim/simulator.h"

namespace pas::ssd {

class PowerGovernor {
 public:
  explicit PowerGovernor(sim::Simulator& sim) : sim_(sim) {}

  // cap_w <= 0 disables capping. The budget refills at the cap minus the
  // last power reported through on_power_change() (0 W before the first).
  // `burst_joules` is the credit ceiling. `hysteresis_joules` makes
  // enforcement duty-cycle: once the budget is exhausted, issue pauses until
  // this much credit accumulates (firmware throttles in coarse on/off
  // windows, which is what produces the paper's Figure 5 tail-latency blowup
  // under low power states).
  void set_cap(Watts cap_w, Joules burst_joules, Joules hysteresis_joules = 0.0);
  Watts cap() const { return cap_; }
  bool capped() const { return cap_ > 0.0; }

  // Reports the device's draw excluding the NAND array (whose energy is
  // charged per op at admission). Must be called after every change to the
  // device's total power while capped or while ops are queued (set_cap(0)
  // drains the queue, and each call made during that drain re-enters it). An
  // uncapped governor with an empty queue only needs the current draw once,
  // before set_cap() caps it: its integrate() just stamps the clock.
  void on_power_change(Watts other_w);

  // Charges the budget and returns true when an op of the given cost can
  // issue right now (uncapped state, or credit available with no queue to
  // respect). The device's NAND issue path calls this first so the common
  // uncapped/credit-rich case never materialises a closure at all.
  bool try_admit(Joules cost, bool priority = false);

  // Queues `go` until credit accumulates. Only valid after try_admit
  // returned false for the same (cost, priority) at the same instant.
  void enqueue(Joules cost, sim::UniqueCallback go, bool priority = false);

  // Runs `go` once the energy budget admits an op of the given cost.
  // Admissions are FIFO; priority ops (GC reclaim) jump the queue.
  void admit(Joules cost, sim::UniqueCallback go, bool priority = false) {
    PAS_CHECK(go != nullptr);
    if (try_admit(cost, priority)) {
      go();
      return;
    }
    enqueue(cost, std::move(go), priority);
  }

  std::size_t queued() const { return queue_.size(); }
  Joules credit() const { return credit_; }
  std::uint64_t throttle_events() const { return throttle_events_; }

 private:
  void integrate();
  void drain();
  void schedule_retry();
  Joules resume_level() const;

  sim::Simulator& sim_;
  Watts cap_ = 0.0;
  Joules burst_ = 0.0;
  Joules hysteresis_ = 0.0;
  bool paused_ = false;
  Joules credit_ = 0.0;
  TimeNs last_t_ = 0;
  Watts last_p_ = 0.0;
  sim::RingQueue<std::pair<Joules, sim::UniqueCallback>> queue_;
  sim::Simulator::EventId retry_ = sim::Simulator::kInvalidEvent;
  std::uint64_t throttle_events_ = 0;
};

}  // namespace pas::ssd
