#include "ssd/device.h"

#include <gtest/gtest.h>

#include "devices/specs.h"
#include "iogen/engine.h"
#include "sim/simulator.h"

namespace pas::ssd {
namespace {

using devices::evo860;
using devices::ssd2_p5510;

TimeNs run_one_io(sim::Simulator& sim, SsdDevice& dev, sim::IoOp op, std::uint64_t offset,
                  std::uint32_t bytes) {
  TimeNs latency = -1;
  dev.submit(sim::IoRequest{op, offset, bytes},
             [&](const sim::IoCompletion& c) { latency = c.latency(); });
  sim.run_to_completion();
  EXPECT_GE(latency, 0);
  return latency;
}

TEST(SsdDevice, IdlePowerMatchesTable1) {
  sim::Simulator sim;
  SsdDevice ssd2(sim, ssd2_p5510(), 1);
  EXPECT_NEAR(ssd2.instantaneous_power(), 5.0, 1e-9);  // Table 1: SSD2 floor
  SsdDevice evo(sim, evo860(), 1);
  EXPECT_NEAR(evo.instantaneous_power(), 0.35, 1e-9);  // section 3.2.2
}

TEST(SsdDevice, AllPaperSsdsIdleAtTheirFloor) {
  sim::Simulator sim;
  EXPECT_NEAR(SsdDevice(sim, devices::ssd1_pm9a3(), 1).instantaneous_power(), 3.5, 1e-9);
  EXPECT_NEAR(SsdDevice(sim, devices::ssd3_p4510(), 1).instantaneous_power(), 1.0, 1e-9);
}

TEST(SsdDevice, WriteCompletesAndReturnsToIdle) {
  sim::Simulator sim;
  SsdDevice dev(sim, ssd2_p5510(), 1);
  const TimeNs lat = run_one_io(sim, dev, sim::IoOp::kWrite, 0, 64 * KiB);
  EXPECT_GT(lat, 0);
  EXPECT_LT(lat, milliseconds(1));
  EXPECT_EQ(dev.stats().write_cmds, 1u);
  EXPECT_EQ(dev.stats().host_write_bytes, 64 * KiB);
  // All buffered data destaged; device back at idle power.
  EXPECT_TRUE(dev.device_idle());
  EXPECT_NEAR(dev.instantaneous_power(), 5.0, 1e-9);
}

TEST(SsdDevice, ReadLatencyIncludesMedia) {
  sim::Simulator sim;
  auto cfg = ssd2_p5510();
  SsdDevice dev(sim, cfg, 1);
  const TimeNs lat = run_one_io(sim, dev, sim::IoOp::kRead, 1 * MiB, 4096);
  // Must include tR (70us) plus overheads.
  EXPECT_GT(lat, cfg.nand.t_read);
  EXPECT_LT(lat, microseconds(200));
  EXPECT_EQ(dev.stats().read_cmds, 1u);
}

TEST(SsdDevice, ReadHitsWriteBufferBeforeDestage) {
  sim::Simulator sim;
  SsdDevice dev(sim, ssd2_p5510(), 1);
  // Submit a write, then read the same LBA immediately (before the idle
  // destage timer fires): the read must be served from DRAM, without tR.
  TimeNs read_latency = -1;
  dev.submit(sim::IoRequest{sim::IoOp::kWrite, 0, 4096}, [&](const sim::IoCompletion&) {
    dev.submit(sim::IoRequest{sim::IoOp::kRead, 0, 4096},
               [&](const sim::IoCompletion& c) { read_latency = c.latency(); });
  });
  sim.run_to_completion();
  ASSERT_GE(read_latency, 0);
  EXPECT_LT(read_latency, dev.config().nand.t_read);  // no media involved
}

TEST(SsdDevice, FlushDrainsBufferedData) {
  sim::Simulator sim;
  SsdDevice dev(sim, ssd2_p5510(), 1);
  bool write_done = false;
  bool flush_done = false;
  dev.submit(sim::IoRequest{sim::IoOp::kWrite, 0, 256 * KiB},
             [&](const sim::IoCompletion&) { write_done = true; });
  dev.submit(sim::IoRequest{sim::IoOp::kFlush, 0, 0},
             [&](const sim::IoCompletion&) { flush_done = true; });
  sim.run_to_completion();
  EXPECT_TRUE(write_done);
  EXPECT_TRUE(flush_done);
  EXPECT_EQ(dev.write_buffer_used(), 0u);
  EXPECT_EQ(dev.stats().flush_cmds, 1u);
}

TEST(SsdDevice, PowerRisesUnderLoadAndRecovers) {
  sim::Simulator sim;
  SsdDevice dev(sim, ssd2_p5510(), 1);
  iogen::JobSpec spec;
  spec.pattern = iogen::Pattern::kSequential;
  spec.op = iogen::OpKind::kWrite;
  spec.block_bytes = 256 * KiB;
  spec.iodepth = 32;
  spec.io_limit_bytes = 256 * MiB;
  Watts peak = 0.0;
  iogen::IoEngine engine(sim, dev, spec);
  bool done = false;
  engine.start([&] { done = true; });
  while (!done && sim.step()) peak = std::max(peak, dev.instantaneous_power());
  EXPECT_TRUE(done);
  EXPECT_GT(peak, 12.0);  // heavy write load well above idle
  sim.run_to_completion();
  EXPECT_NEAR(dev.instantaneous_power(), 5.0, 1e-9);
}

TEST(SsdDevice, EnergyMeterIntegratesIdle) {
  sim::Simulator sim;
  SsdDevice dev(sim, ssd2_p5510(), 1);
  sim.schedule_at(seconds(10), [] {});
  sim.run_to_completion();
  EXPECT_NEAR(dev.consumed_energy(), 50.0, 1e-6);  // 5 W x 10 s
}

TEST(SsdDevice, PowerStateTableMatchesConfig) {
  sim::Simulator sim;
  SsdDevice dev(sim, ssd2_p5510(), 1);
  EXPECT_EQ(dev.power_state_count(), 3);
  const auto table = dev.power_state_table();
  ASSERT_EQ(table.size(), 3u);
  EXPECT_DOUBLE_EQ(table[0].max_power_w, 25.0);
  EXPECT_DOUBLE_EQ(table[1].max_power_w, 12.0);
  EXPECT_DOUBLE_EQ(table[2].max_power_w, 10.0);
}

TEST(SsdDevice, SetPowerStateConfiguresGovernor) {
  sim::Simulator sim;
  SsdDevice dev(sim, ssd2_p5510(), 1);
  dev.set_power_state(2);
  EXPECT_EQ(dev.power_state(), 2);
  EXPECT_DOUBLE_EQ(dev.governor().cap(), 10.0);
  dev.set_power_state(0);
  EXPECT_DOUBLE_EQ(dev.governor().cap(), 25.0);
}

TEST(SsdDevice, InvalidPowerStateAborts) {
  sim::Simulator sim;
  SsdDevice dev(sim, ssd2_p5510(), 1);
  EXPECT_DEATH(dev.set_power_state(3), "");
  EXPECT_DEATH(dev.set_power_state(-1), "");
}

TEST(SsdDevice, NonPositiveCmdCoresAborts) {
  // -1 must not wrap into a huge core pool.
  for (int cores : {0, -1}) {
    sim::Simulator sim;
    auto cfg = ssd2_p5510();
    cfg.cmd_cores = cores;
    EXPECT_DEATH(SsdDevice(sim, cfg, 1), "") << "cmd_cores " << cores;
  }
}

TEST(SsdDevice, RejectsMalformedIo) {
  sim::Simulator sim;
  SsdDevice dev(sim, ssd2_p5510(), 1);
  auto cb = [](const sim::IoCompletion&) {};
  EXPECT_DEATH(dev.submit(sim::IoRequest{sim::IoOp::kRead, 1, 4096}, cb), "");     // misaligned
  EXPECT_DEATH(dev.submit(sim::IoRequest{sim::IoOp::kRead, 0, 100}, cb), "");      // bad length
  EXPECT_DEATH(dev.submit(sim::IoRequest{sim::IoOp::kRead, 0, 0}, cb), "");        // zero read
  EXPECT_DEATH(
      dev.submit(sim::IoRequest{sim::IoOp::kWrite, dev.capacity_bytes(), 4096}, cb),
      "");  // out of range
}

TEST(SsdDevice, BufferBackpressureCountsStalls) {
  sim::Simulator sim;
  auto cfg = ssd2_p5510();
  cfg.write_buffer_bytes = 8 * MiB;
  SsdDevice dev(sim, cfg, 1);
  iogen::JobSpec spec;
  spec.pattern = iogen::Pattern::kSequential;
  spec.op = iogen::OpKind::kWrite;
  spec.block_bytes = 2 * MiB;
  spec.iodepth = 32;  // 64 MiB in flight >> 8 MiB buffer
  spec.io_limit_bytes = 128 * MiB;
  iogen::run_job(sim, dev, spec);
  EXPECT_GT(dev.stats().buffer_stall_events, 0u);
}

TEST(SsdDevice, AlpmUnsupportedOnEnterpriseDrives) {
  sim::Simulator sim;
  SsdDevice dev(sim, ssd2_p5510(), 1);
  EXPECT_FALSE(dev.supports_alpm());
  EXPECT_DEATH(dev.set_link_pm(sim::LinkPmState::kSlumber), "ALPM");
}

TEST(SsdDevice, AlpmSlumberHalvesIdlePower) {
  sim::Simulator sim;
  SsdDevice dev(sim, evo860(), 1);
  ASSERT_TRUE(dev.supports_alpm());
  dev.set_link_pm(sim::LinkPmState::kSlumber);
  // During the transition the device draws the transient power.
  sim.run_until(milliseconds(100));
  EXPECT_NEAR(dev.instantaneous_power(), 1.2, 1e-9);
  // After entry completes: 0.17 W (paper section 3.2.2).
  sim.run_until(milliseconds(400));
  EXPECT_NEAR(dev.instantaneous_power(), 0.17, 1e-9);
  EXPECT_EQ(dev.link_pm_state(), sim::LinkPmState::kSlumber);
}

TEST(SsdDevice, AlpmExitRestoresIdlePower) {
  sim::Simulator sim;
  SsdDevice dev(sim, evo860(), 1);
  dev.set_link_pm(sim::LinkPmState::kSlumber);
  sim.run_until(milliseconds(400));
  dev.set_link_pm(sim::LinkPmState::kActive);
  sim.run_until(milliseconds(600));
  EXPECT_NEAR(dev.instantaneous_power(), 0.35, 1e-9);
  EXPECT_EQ(dev.link_pm_state(), sim::LinkPmState::kActive);
}

TEST(SsdDevice, IoWakesSlumberingDevice) {
  sim::Simulator sim;
  SsdDevice dev(sim, evo860(), 1);
  dev.set_link_pm(sim::LinkPmState::kSlumber);
  sim.run_until(milliseconds(400));
  ASSERT_EQ(dev.link_pm_state(), sim::LinkPmState::kSlumber);
  // IO pays the exit latency but completes.
  TimeNs lat = -1;
  dev.submit(sim::IoRequest{sim::IoOp::kRead, 0, 4096},
             [&](const sim::IoCompletion& c) { lat = c.latency(); });
  sim.run_to_completion();
  EXPECT_GE(lat, dev.config().alpm_exit_time);
  EXPECT_LT(lat, dev.config().alpm_exit_time + milliseconds(1));
}

TEST(SsdDevice, SlumberRequestDefersUntilIdle) {
  sim::Simulator sim;
  SsdDevice dev(sim, evo860(), 1);
  bool io_done = false;
  dev.submit(sim::IoRequest{sim::IoOp::kWrite, 0, 1 * MiB},
             [&](const sim::IoCompletion&) { io_done = true; });
  dev.set_link_pm(sim::LinkPmState::kSlumber);  // while busy
  sim.run_to_completion();
  EXPECT_TRUE(io_done);
  EXPECT_EQ(dev.link_pm_state(), sim::LinkPmState::kSlumber);
  EXPECT_NEAR(dev.instantaneous_power(), 0.17, 1e-9);
}

TEST(SsdDevice, SequentialWriteThroughputNearLinkOrNandLimit) {
  sim::Simulator sim;
  SsdDevice dev(sim, ssd2_p5510(), 1);
  iogen::JobSpec spec;
  spec.pattern = iogen::Pattern::kSequential;
  spec.op = iogen::OpKind::kWrite;
  spec.block_bytes = 256 * KiB;
  spec.iodepth = 64;
  spec.io_limit_bytes = 1 * GiB;
  const auto result = iogen::run_job(sim, dev, spec);
  EXPECT_GT(result.throughput_mib_s(), 2800.0);
  EXPECT_LT(result.throughput_mib_s(), 3300.0);
}

TEST(SsdDevice, WriteAmplificationOneWithoutPressure) {
  sim::Simulator sim;
  SsdDevice dev(sim, ssd2_p5510(), 1);
  iogen::JobSpec spec;
  spec.pattern = iogen::Pattern::kRandom;
  spec.op = iogen::OpKind::kWrite;
  spec.block_bytes = 64 * KiB;
  spec.iodepth = 8;
  spec.io_limit_bytes = 512 * MiB;
  iogen::run_job(sim, dev, spec);
  EXPECT_DOUBLE_EQ(dev.ftl_stats().write_amplification(), 1.0);
  EXPECT_EQ(dev.ftl_stats().erases, 0u);
}

}  // namespace
}  // namespace pas::ssd
