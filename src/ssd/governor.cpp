#include "ssd/governor.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace pas::ssd {

void PowerGovernor::set_cap(Watts cap_w, Joules burst_joules, Joules hysteresis_joules) {
  integrate();
  cap_ = cap_w;
  burst_ = burst_joules;
  hysteresis_ = hysteresis_joules;
  paused_ = false;
  credit_ = burst_joules;  // fresh budget on a state change
  drain();
}

void PowerGovernor::integrate() {
  const TimeNs now = sim_.now();
  if (now == last_t_) return;
  if (cap_ > 0.0) {
    credit_ += (cap_ - last_p_) * to_seconds(now - last_t_);
    credit_ = std::clamp(credit_, 0.0, burst_);
  }
  last_t_ = now;
}

void PowerGovernor::on_power_change(Watts other_w) {
  integrate();
  last_p_ = other_w;
  if (!queue_.empty()) drain();
}

bool PowerGovernor::try_admit(Joules cost, bool priority) {
  PAS_CHECK(cost >= 0.0);
  integrate();
  if (cap_ <= 0.0) return true;
  if ((queue_.empty() || priority) && !paused_ && credit_ >= cost) {
    credit_ -= cost;  // charge the op's energy up front
    return true;
  }
  return false;
}

void PowerGovernor::enqueue(Joules cost, sim::UniqueCallback go, bool priority) {
  PAS_CHECK(go != nullptr);
  if (queue_.empty() && !paused_) paused_ = true;  // budget exhausted: pause
  ++throttle_events_;
  if (priority) {
    queue_.push_front({cost, std::move(go)});
  } else {
    queue_.push_back({cost, std::move(go)});
  }
  schedule_retry();
}

Joules PowerGovernor::resume_level() const {
  const Joules cost = queue_.empty() ? 0.0 : queue_.front().first;
  if (!paused_) return cost;
  return std::min(burst_, std::max(cost, hysteresis_));
}

void PowerGovernor::drain() {
  integrate();
  while (!queue_.empty()) {
    if (cap_ > 0.0 && credit_ < resume_level()) break;
    paused_ = false;
    auto [cost, go] = std::move(queue_.front());
    queue_.pop_front();
    if (cap_ > 0.0) credit_ -= cost;
    go();
    integrate();
    if (cap_ > 0.0 && !queue_.empty() && credit_ < queue_.front().first) {
      paused_ = true;  // exhausted again mid-drain
      break;
    }
  }
  if (!queue_.empty()) {
    schedule_retry();
  } else if (retry_ != sim::Simulator::kInvalidEvent) {
    sim_.cancel(retry_);
    retry_ = sim::Simulator::kInvalidEvent;
  }
}

void PowerGovernor::schedule_retry() {
  if (retry_ != sim::Simulator::kInvalidEvent) return;
  PAS_CHECK(!queue_.empty());
  // Estimate when credit reaches the resume level; while power exceeds the
  // cap the estimate is unknowable, so poll at a coarse interval.
  const Joules need = resume_level() - credit_;
  TimeNs delay = milliseconds(1);
  if (last_p_ < cap_ && need > 0.0) {
    delay = std::max<TimeNs>(microseconds(50), seconds(need / (cap_ - last_p_)));
  }
  retry_ = sim_.schedule_after(delay, [this] {
    retry_ = sim::Simulator::kInvalidEvent;
    drain();
  });
}

}  // namespace pas::ssd
