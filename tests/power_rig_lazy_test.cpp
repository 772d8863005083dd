// Bit-identity matrix for segment-lazy rig sampling (DESIGN.md section 13):
// a lazy rig and a per-tick reference rig (config.event_driven) observe the
// SAME power schedule from twin simulators and must emit byte-identical
// samples in both retention modes (trace, sample sink),
// integrating and instantaneous, calibrated and not, at 1 kHz and the
// decimated 100 Hz — including when the lazy trace is read mid-run. This is
// the only place config.event_driven is set: the per-tick path exists as
// this test's oracle.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "common/units.h"
#include "core/sharded_testbed.h"
#include "core/testbed.h"
#include "fake_device.h"
#include "power/rig.h"
#include "sim/simulator.h"

namespace pas::power {
namespace {

using testing::FakePowerDevice;

// One rig over one fake device on its own timeline, fed an irregular power
// schedule. Change times are deliberately off the ADC tick grid (odd
// microsecond offsets) — on-grid changes tie with the reference sampler's
// tick events, where the instantaneous convention is allowed to differ (a
// measure-zero case; integrating mode is immune and covered by the
// *_OnGridChanges cases below).
struct Column {
  sim::Simulator sim;
  FakePowerDevice dev;
  MeasurementRig rig;
  std::vector<std::pair<TimeNs, Watts>> sunk;

  Column(RigConfig rc, std::uint64_t seed) : dev(sim, 1.5), rig(sim, dev, rc, seed) {}

  void schedule(const std::vector<std::pair<TimeNs, Watts>>& plan) {
    for (const auto& [t, w] : plan) {
      sim.schedule_at(t, [this, w = w] { dev.set_power(w); });
    }
  }
};

std::vector<std::pair<TimeNs, Watts>> off_grid_plan() {
  return {
      {microseconds(137), 5.25},     {microseconds(1803), 0.17},
      {milliseconds(7), 3.5},        // on the 1 kHz grid but not the 100 Hz one
      {microseconds(12345), 8.19},   {microseconds(12345), 8.19},  // same-t rewrite
      {microseconds(33333), 0.0},    {microseconds(51007), 13.5},
      {microseconds(88889), 13.5},   // same-value change at a new time
      {microseconds(140411), 2.75},
  };
}

void expect_identical_traces(const PowerTrace& lazy, const PowerTrace& ref) {
  ASSERT_EQ(lazy.size(), ref.size());
  for (std::size_t i = 0; i < lazy.size(); ++i) {
    ASSERT_EQ(lazy.time_at(i), ref.time_at(i)) << "sample " << i;
    // Exact double equality: the contract is bit-identity, not closeness.
    ASSERT_EQ(lazy.watts()[i], ref.watts()[i]) << "sample " << i;
  }
}

enum class Retention { kTrace, kSink };

void run_matrix_case(Retention retention, bool integrating, bool calibrated,
                     TimeNs period, bool read_mid_run) {
  RigConfig rc;
  rc.integrating = integrating;
  rc.calibrated = calibrated;
  rc.sample_period = period;
  RigConfig ref_rc = rc;
  ref_rc.event_driven = true;

  const std::uint64_t seed = 42;
  Column lazy(rc, seed);
  Column ref(ref_rc, seed);
  const auto plan = off_grid_plan();
  lazy.schedule(plan);
  ref.schedule(plan);

  for (Column* c : {&lazy, &ref}) {
    if (retention == Retention::kSink) {
      c->rig.set_sample_sink([c](TimeNs t, Watts w) { c->sunk.emplace_back(t, w); });
    }
    c->rig.start();
  }

  lazy.sim.run_until(milliseconds(60));
  ref.sim.run_until(milliseconds(60));
  if (read_mid_run && retention == Retention::kTrace) {
    // Mid-run reads materialize; they must not perturb later samples.
    ASSERT_EQ(lazy.rig.trace().size(), ref.rig.trace().size());
  }
  lazy.sim.run_until(milliseconds(150));
  ref.sim.run_until(milliseconds(150));
  lazy.rig.stop();
  ref.rig.stop();

  switch (retention) {
    case Retention::kTrace:
      expect_identical_traces(lazy.rig.trace(), ref.rig.trace());
      ASSERT_GT(lazy.rig.trace().size(), 0u);
      break;
    case Retention::kSink: {
      ASSERT_EQ(lazy.sunk.size(), ref.sunk.size());
      ASSERT_GT(lazy.sunk.size(), 0u);
      for (std::size_t i = 0; i < lazy.sunk.size(); ++i) {
        ASSERT_EQ(lazy.sunk[i].first, ref.sunk[i].first) << "sample " << i;
        ASSERT_EQ(lazy.sunk[i].second, ref.sunk[i].second) << "sample " << i;
      }
      break;
    }
  }
}

TEST(SegmentLazyMatrix, AllModesBitIdentical) {
  for (Retention retention : {Retention::kTrace, Retention::kSink}) {
    for (bool integrating : {true, false}) {
      for (bool calibrated : {true, false}) {
        for (TimeNs period : {milliseconds(1), milliseconds(10)}) {
          for (bool read_mid_run : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "retention=" << static_cast<int>(retention)
                         << " integrating=" << integrating
                         << " calibrated=" << calibrated << " period_ns=" << period
                         << " mid_read=" << read_mid_run);
            run_matrix_case(retention, integrating, calibrated, period, read_mid_run);
          }
        }
      }
    }
  }
}

// Integrating mode is immune to power changes landing exactly on ADC ticks:
// the meter advanced its energy accumulator with the closing segment's exact
// arithmetic, so the tick's energy expression is bit-identical whether the
// tick is taken under the closing or the opening segment.
TEST(SegmentLazyMatrix, IntegratingImmuneToOnGridChanges) {
  RigConfig rc;  // integrating by default
  RigConfig ref_rc = rc;
  ref_rc.event_driven = true;
  Column lazy(rc, 7);
  Column ref(ref_rc, 7);
  const std::vector<std::pair<TimeNs, Watts>> plan = {
      {milliseconds(3), 4.0},   // exactly on a tick
      {milliseconds(10), 9.0},  // exactly on a tick
      {milliseconds(10), 9.0},  // and rewritten at the same instant
      {milliseconds(17), 0.5},
  };
  lazy.schedule(plan);
  ref.schedule(plan);
  lazy.rig.start();
  ref.rig.start();
  lazy.sim.run_until(milliseconds(25));
  ref.sim.run_until(milliseconds(25));
  lazy.rig.stop();
  ref.rig.stop();
  expect_identical_traces(lazy.rig.trace(), ref.rig.trace());
}

// Instantaneous mode with several updates landing exactly on a tick: the
// sample takes the LAST level set at or before the tick, whether
// materialize() converts the tick at that very instant or a later update
// converts it under the segment it closes.
TEST(SegmentLazyMatrix, InstantaneousTakesLastLevelSetAtTick) {
  RigConfig rc;
  rc.integrating = false;
  auto tick_sample = [&rc](const std::vector<Watts>& levels, bool materialize_at_tick) {
    Column c(rc, 5);
    c.rig.start();
    c.sim.run_until(milliseconds(2));  // the second tick's instant
    for (Watts w : levels) c.dev.set_power(w);
    if (materialize_at_tick) {
      c.rig.materialize();
    } else {
      c.sim.run_until(microseconds(2500));
      c.dev.set_power(0.25);
    }
    c.sim.run_until(milliseconds(4));
    c.rig.stop();
    const PowerTrace trace = c.rig.take_trace();
    EXPECT_EQ(trace.time_at(1), milliseconds(2));
    return trace.watts()[1];
  };
  const Watts last_only = tick_sample({6.5}, true);
  EXPECT_NE(tick_sample({4.0}, true), last_only);
  for (bool at_tick : {true, false}) {
    EXPECT_EQ(tick_sample({4.0, 9.0, 6.5}, at_tick), last_only) << "at_tick=" << at_tick;
  }
}

// A tick landing exactly on the stop instant belongs to the run — exactly as
// the reference sampler's PeriodicTask fires it before control returns.
TEST(SegmentLazyMatrix, TickAtStopInstantIncluded) {
  Column lazy(RigConfig{}, 3);
  lazy.rig.start();
  lazy.sim.run_until(milliseconds(5));
  lazy.rig.stop();
  ASSERT_EQ(lazy.rig.trace().size(), 5u);
  ASSERT_EQ(lazy.rig.trace().time_at(4), milliseconds(5));
}

// Restarting after a stop must not re-deliver or skip ticks.
TEST(SegmentLazyMatrix, StopRestartMatchesReference) {
  RigConfig rc;
  RigConfig ref_rc = rc;
  ref_rc.event_driven = true;
  Column lazy(rc, 11);
  Column ref(ref_rc, 11);
  const auto plan = off_grid_plan();
  lazy.schedule(plan);
  ref.schedule(plan);
  for (Column* c : {&lazy, &ref}) {
    c->rig.start();
    c->sim.run_until(microseconds(20500));
    c->rig.stop();
    c->sim.run_until(microseconds(70300));
    c->rig.start();
    c->sim.run_until(milliseconds(150));
    c->rig.stop();
  }
  expect_identical_traces(lazy.rig.trace(), ref.rig.trace());
}

// The set_sample_period lifetime precondition holds in both retention
// modes: once a sample has been dispatched anywhere (sink included), re-timing
// aborts with an error naming the rig.
TEST(SegmentLazyMatrixDeathTest, RetimeAfterSinkDispatchAborts) {
  sim::Simulator sim;
  FakePowerDevice dev(sim, 2.0);
  MeasurementRig rig(sim, dev, RigConfig{}, 1);
  std::vector<std::pair<TimeNs, Watts>> sunk;
  rig.set_sample_sink([&](TimeNs t, Watts w) { sunk.emplace_back(t, w); });
  rig.start();
  sim.run_until(milliseconds(3));
  rig.stop();
  ASSERT_EQ(sunk.size(), 3u);
  EXPECT_DEATH(rig.set_sample_period(milliseconds(10)), "fake");
}

TEST(SegmentLazyMatrixDeathTest, RetimeWhileRunningAborts) {
  sim::Simulator sim;
  FakePowerDevice dev(sim, 2.0);
  MeasurementRig rig(sim, dev, RigConfig{}, 1);
  rig.start();
  EXPECT_DEATH(rig.set_sample_period(milliseconds(10)), "stopped");
}

// Sharded streaming-sum fleet: rigs materialize inside the shard workers
// (run under TSan via the rig-tsan preset), and the fleet trace is
// byte-identical between 1 worker and K workers.
TEST(SegmentLazyMatrix, ShardedStreamingSumWorkerCountInvariant) {
  auto run = [](int workers) {
    core::ShardedTestbed host(2, workers);
    host.set_trace_mode(core::TraceMode::kStreamingSum);
    for (std::size_t i = 0; i < 4; ++i) {
      host.add_device(devices::DeviceId::kSsd1, 100 + i);
    }
    iogen::JobSpec spec;
    spec.op = iogen::OpKind::kRead;
    spec.pattern = iogen::Pattern::kRandom;
    spec.block_bytes = 4096;
    spec.iodepth = 4;
    spec.io_limit_bytes = 200 * 4096;
    spec.time_limit = milliseconds(80);
    for (std::size_t i = 0; i < 4; ++i) {
      spec.seed = 7 + i;
      host.add_job(spec, i);
    }
    host.start_rigs();
    host.run_epoch(host.now() + milliseconds(40));
    host.run_jobs();
    host.stop_rigs();
    return host.take_fleet_trace();
  };
  const PowerTrace serial = run(1);
  const PowerTrace parallel = run(2);
  expect_identical_traces(parallel, serial);
  ASSERT_GT(serial.size(), 0u);
}

}  // namespace
}  // namespace pas::power
