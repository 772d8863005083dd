// Model of the paper's power measurement infrastructure (Figure 1):
//
//   device power rail -> 0.1 ohm shunt resistor -> differential amplifier
//   -> 24-bit ADC (TI ADS1256, 1 kHz) -> Arduino UNO -> data logger
//
// The rig samples a device's ground-truth power through the full analog
// chain: the shunt converts current to a differential voltage (dV = I*R),
// the amplifier adds gain error, offset and input-referred noise, and the
// ADC quantizes at finite resolution and sample rate. Reconstruction uses
// the *nominal* chain constants plus a calibration pass, as the physical
// rig does; residual systematic error stays below 1% (validated in tests).
//
// Sampling is SEGMENT-LAZY (DESIGN.md section 13): the rig schedules no
// simulator events. It pulls the device's piecewise-constant power signal
// (sim/power_signal.h): the meter calls the rig only for an update past the
// next ADC tick, handing over the segment that update closes, and the rig
// converts the ticks that segment covers into raw true-power values (exact
// per-segment energy arithmetic, identical to what a live tick would have
// read). materialize() converts the remaining ticks under the device's open
// power_segment(), then runs the expensive measurement chain (two gaussian
// draws, quantization) plus retention dispatch over the pending ticks in
// one batch loop in exact per-sample order. Because the noise RNG is drawn
// in the same order and the energy expressions use the meter's own
// operands, every retention mode is bit-identical to a per-tick sampler
// that schedules one event per ADC tick. That per-tick path
// (config.event_driven) is the test oracle only: power_rig_lazy_test's mode
// matrix compares the lazy rig against it.
#pragma once

#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "power/trace.h"
#include "sim/block_device.h"
#include "sim/power_signal.h"
#include "sim/simulator.h"

namespace pas::power {

struct RigConfig {
  // Electrical chain.
  double rail_voltage_v = 12.0;      // supply rail being instrumented
  double shunt_ohms = 0.1;           // nominal shunt resistance
  double shunt_tolerance = 0.001;    // actual = nominal * (1 + U(-tol, tol))
  // Gain sized so the largest device in the study (25 W cap at 12 V ->
  // 0.21 V across the shunt) stays inside the ADC's +/-2.5 V full scale.
  double amp_gain = 8.0;             // nominal differential amplifier gain
  double amp_gain_error = 0.002;     // actual = nominal * (1 + U(-err, err))
  double amp_offset_v = 0.0005;      // worst-case input offset before cal
  double amp_noise_v_rms = 0.00002;  // input-referred noise, V RMS
  // ADC (ADS1256-like defaults).
  int adc_bits = 24;
  double adc_vref_v = 2.5;           // full scale = +/- vref
  double adc_noise_lsb_rms = 2.0;    // effective noise in LSBs at this rate
  TimeNs sample_period = milliseconds(1);  // 1 kHz
  // Delta-sigma ADCs integrate over the conversion period. When true, each
  // sample reports the average power since the previous tick (computed from
  // the device's exact energy counter); when false, it reports the
  // instantaneous value at the tick (ideal point sampler, for ablation A2).
  bool integrating = true;
  // Two-point calibration against known loads removes offset and most gain
  // error, as performed on the physical rig before each experiment.
  bool calibrated = true;
  // Test oracle: sample with one simulator event per ADC tick instead of
  // lazily. Only power_rig_lazy_test sets this, to check the lazy default
  // bit-for-bit against it; every device built by the library is lazy.
  bool event_driven = false;
};

// Samples one device. Construct, then start(); samples accumulate in trace().
class MeasurementRig : private sim::PowerObserver {
 public:
  MeasurementRig(sim::Simulator& sim, sim::BlockDevice& device, RigConfig config,
                 std::uint64_t noise_seed);
  ~MeasurementRig() override;

  void start();
  void stop();
  bool running() const { return started_; }

  // Converts every ADC tick elapsed up to now() into finished samples
  // (measurement chain + retention dispatch), in one batch loop. Called
  // implicitly by stop() and by every read accessor; the fleet hosts also
  // call it at epoch boundaries so pending work is bounded by one epoch and
  // runs on the shard's worker thread. No-op when stopped, event-driven, or
  // already caught up.
  void materialize();

  // Reads materialize first (logically const: the samples exist as of now()
  // regardless of when the batch loop runs — see DESIGN.md section 13).
  const PowerTrace& trace() const;
  PowerTrace take_trace();

  // --- rack-scale retention ---
  // By default every measured sample is appended to trace(). A sample sink
  // replaces that unbounded retention (configure it while the rig is
  // stopped): each measured sample is handed to `sink` instead of being
  // retained here. The sharded testbed taps every rig of a shard into one
  // per-shard fleet-sum accumulator this way, so a rack of rigs holds no
  // per-device traces at all. Pass nullptr to restore trace retention.
  using SampleSink = std::function<void(TimeNs, Watts)>;
  void set_sample_sink(SampleSink sink);
  // Re-times the ADC tick (rack scenarios decimate 1 kHz -> 100 Hz to keep a
  // 1 000-rig fleet tractable; the window-average math is rate-independent).
  // Only while stopped and before any sample has been taken — in ANY
  // retention mode, sink dispatch included; the error names the rig.
  void set_sample_period(TimeNs period);

  const RigConfig& config() const { return config_; }

  // Converts one true-power value through the analog chain and back —
  // exposed for the accuracy characterization tests.
  Watts measure_once(Watts true_power);

 private:
  // Per-tick oracle path (config.event_driven): PeriodicTask callback.
  void sample();

  // --- segment-lazy internals ---
  // The meter calls for an update at `at` past next_tick_: converts the
  // ticks strictly before `at` under the closing segment and returns the
  // next due tick. A tick exactly at `at` stays pending: the energy
  // expression is bit-identical under either segment (the meter advanced
  // its accumulator with exactly the closing segment's arithmetic), and an
  // instantaneous sample takes the LAST level set at or before the tick,
  // which a later segment or materialize() supplies.
  TimeNs next_due() const override { return next_tick_; }
  TimeNs on_power_update(const sim::PowerSegment& closing, TimeNs at) override;
  // Converts the tick at next_tick_ into a raw pending value under `seg`.
  void push_tick(const sim::PowerSegment& seg);
  // Runs the measurement chain + retention dispatch over pending ticks.
  void flush_pending();
  [[noreturn]] void fail(const char* what) const;

  sim::Simulator& sim_;
  sim::BlockDevice& device_;
  RigConfig config_;
  Rng rng_;
  PowerTrace trace_;
  SampleSink sink_;          // null: retain samples locally
  sim::PeriodicTask task_;   // armed only when event_driven

  // Actual (imperfect) chain constants, drawn once at construction.
  double actual_shunt_ohms_;
  double actual_gain_;
  double actual_offset_v_;
  // Reconstruction constants (nominal, refined by calibration).
  double recon_gain_;
  double recon_offset_v_;
  // Derived ADC constants, hoisted out of measure_once (it runs once per
  // sample, 1 kHz per device): the 2^(bits-1) full-scale code and the clamp
  // bounds. Only bit-preserving hoists are taken — folding the divisions by
  // vref/gain/shunt into reciprocal multiplies would perturb the least
  // significant bits and break the trace bit-identity contract.
  double adc_full_scale_;
  double adc_code_min_;
  double adc_code_max_;

  Joules last_energy_ = 0.0;
  TimeNs last_sample_time_ = 0;
  bool started_ = false;

  // Segment-lazy state: the next tick to convert (never before the meter's
  // last update while attached), and the raw true-power values of ticks
  // converted but not yet measured (pending_raw_[i] belongs to
  // pending_first_t_ + i * sample_period).
  TimeNs next_tick_ = 0;
  TimeNs pending_first_t_ = 0;
  std::vector<double> pending_raw_;
  std::uint64_t samples_emitted_ = 0;  // lifetime, trace and sink alike
};

}  // namespace pas::power
