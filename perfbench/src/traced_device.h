// Forwarding sim::BlockDevice that opens a span around every submit and
// around the engine's completion callback. The campaign's traced cells put it
// between the IoEngine and the device model, so device submit time and
// engine completion time can be separated from the event loop's own time
// without touching the program. It forwards everything else unchanged: the
// measurement rig stays attached to the real device, and simulated results
// are identical to an unwrapped run (checked by the fidelity test).
#pragma once

#include <string>
#include <utility>

#include "sim/block_device.h"
#include "tracer.h"

namespace perfbench {

class TracedDevice final : public pas::sim::BlockDevice {
 public:
  TracedDevice(pas::sim::BlockDevice& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  const std::string& name() const override { return inner_.name(); }
  std::uint64_t capacity_bytes() const override { return inner_.capacity_bytes(); }
  std::uint32_t sector_bytes() const override { return inner_.sector_bytes(); }

  void submit(const pas::sim::IoRequest& req, pas::sim::IoCallback done) override {
    Scope span(&tracer_, SpanKind::kSsdSubmit);
    inner_.submit(req, [this, done = std::move(done)](const pas::sim::IoCompletion& c) {
      Scope completion(&tracer_, SpanKind::kCompletion);
      done(c);
    });
  }

  pas::Watts instantaneous_power() const override { return inner_.instantaneous_power(); }
  pas::Joules consumed_energy() const override { return inner_.consumed_energy(); }
  pas::sim::PowerSegment power_segment() const override { return inner_.power_segment(); }
  void set_power_observer(pas::sim::PowerObserver* observer) override {
    inner_.set_power_observer(observer);
  }

 private:
  pas::sim::BlockDevice& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
