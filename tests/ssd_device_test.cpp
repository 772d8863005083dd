#include "ssd/device.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

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

TEST(SsdDevice, PowerStateSwitchMidWriteStream) {
  // SSD1 starts uncapped (ps0) and drops to ps1, here a 5 W cap, after 24 of
  // 96 sequential 1 MiB writes at queue depth 8. The uncapped governor is not
  // told about power changes, so it must pick up the current non-NAND draw
  // when the cap arrives; the throttle count and every completion time are
  // pinned to values recorded before that shortcut existed.
  sim::Simulator sim;
  auto cfg = devices::ssd1_pm9a3();
  cfg.write_buffer_bytes = 4 * MiB;
  cfg.destage_batch_bytes = 0;
  cfg.power_states[1].cap_w = 5.0;
  SsdDevice dev(sim, cfg, 1);
  constexpr int kIos = 96;
  constexpr std::size_t kSwitchAfter = 24;
  std::vector<TimeNs> done_at;
  int submitted = 0;
  std::function<void()> submit_next = [&] {
    const auto offset = static_cast<std::uint64_t>(submitted++) * MiB;
    dev.submit(sim::IoRequest{sim::IoOp::kWrite, offset, 1 * MiB},
               [&](const sim::IoCompletion& c) {
                 done_at.push_back(c.complete_time);
                 if (done_at.size() == kSwitchAfter) dev.set_power_state(1);
                 if (submitted < kIos) submit_next();
               });
  };
  for (int i = 0; i < 8; ++i) submit_next();
  sim.run_to_completion();
  EXPECT_EQ(dev.governor().throttle_events(), 51u);
  const std::vector<TimeNs> golden = {
      461117, 755234, 1049351, 1343468, 1637585, 1931702, 2225819, 2519936,
      2814053, 3108170, 3402287, 3696404, 3990521, 4284638, 4578755, 4872872,
      5166989, 5461106, 5755223, 6049340, 6343457, 6637574, 6931691, 7225808,
      7521925, 7816042, 8110159, 8404276, 8698393, 8992510, 9286627, 9580744,
      9874861, 10168978, 10463095, 10757212, 11051329, 11345446, 11639563, 11933680,
      12227797, 12521914, 12816031, 13110148, 13404265, 13698382, 13992499, 14286616,
      14580733, 14874850, 15168967, 15463084, 15757201, 16051318, 16345435, 16639552,
      16933669, 17227786, 17521903, 17816020, 18110137, 18404254, 18698371, 18992488,
      19286605, 19580722, 19874839, 20168956, 20463073, 20757190, 21051307, 21366474,
      21660591, 21954708, 22269875, 22563992, 22858109, 23152226, 23467393, 23761510,
      24055627, 24349744, 24643861, 36176752, 36470869, 36764986, 37059103, 37353220,
      37647337, 37941454, 38235571, 38529688, 38823805, 39117922, 39412039, 39706156};
  EXPECT_EQ(done_at, golden);
}

TEST(SsdDevice, PowerStateUncapWhileThrottledDrainsInOrder) {
  // SSD1 starts under a 5 W cap (ps1) and returns to the uncapped ps0 after
  // 59 of 96 sequential 1 MiB writes, while the governor holds 38 throttled
  // NAND ops. set_cap(0) drains them all at that instant; each drained op's
  // power change re-enters the drain before the op's own NAND events are
  // scheduled, which fixes the order of same-instant events and of the
  // program-power jitter draws. The throttle count and every completion time
  // are pinned to recorded values.
  sim::Simulator sim;
  auto cfg = devices::ssd1_pm9a3();
  cfg.write_buffer_bytes = 4 * MiB;
  cfg.destage_batch_bytes = 0;
  cfg.power_states[1].cap_w = 5.0;
  SsdDevice dev(sim, cfg, 1);
  dev.set_power_state(1);
  constexpr int kIos = 96;
  constexpr std::size_t kSwitchAfter = 59;
  std::vector<TimeNs> done_at;
  std::size_t queued_at_switch = 0;
  int submitted = 0;
  std::function<void()> submit_next = [&] {
    const auto offset = static_cast<std::uint64_t>(submitted++) * MiB;
    dev.submit(sim::IoRequest{sim::IoOp::kWrite, offset, 1 * MiB},
               [&](const sim::IoCompletion& c) {
                 done_at.push_back(c.complete_time);
                 if (done_at.size() == kSwitchAfter) {
                   queued_at_switch = dev.governor().queued();
                   dev.set_power_state(0);
                   EXPECT_EQ(dev.governor().queued(), 0u);
                 }
                 if (submitted < kIos) submit_next();
               });
  };
  for (int i = 0; i < 8; ++i) submit_next();
  sim.run_to_completion();
  EXPECT_EQ(queued_at_switch, 38u);
  EXPECT_EQ(dev.governor().throttle_events(), 38u);
  // Drained ops that schedule their NAND events in another order show in the
  // last bits of the energy total, so it is pinned exactly.
  EXPECT_EQ(dev.consumed_energy(), 0.29661730494282568);
  const std::vector<TimeNs> golden = {
      464117, 758234, 1052351, 1346468, 1640585, 1934702, 2228819, 2522936,
      2817053, 3111170, 3405287, 3699404, 3993521, 4287638, 4581755, 4875872,
      5169989, 5464106, 5758223, 6052340, 6346457, 6640574, 6934691, 7228808,
      7522925, 7817042, 8111159, 8405276, 8699393, 8993510, 9287627, 9581744,
      9875861, 10169978, 10464095, 10758212, 11052329, 11346446, 11640563, 11934680,
      12228797, 12522914, 12817031, 13111148, 13405265, 13699382, 13993499, 14287616,
      14581733, 14875850, 15169967, 15464084, 15758201, 16052318, 16346435, 16640552,
      16934669, 17228786, 17522903, 17815020, 18544662, 18838779, 19132896, 19427013,
      19721130, 20015247, 20309364, 20603481, 20897598, 21212765, 21506882, 21819975,
      22116166, 22410283, 22723376, 23019567, 23313684, 23626777, 23922968, 24217085,
      24511202, 24805319, 25099436, 25393553, 25687670, 25981787, 26275904, 26570021,
      26864138, 27158255, 27452372, 27746489, 28040606, 28334723, 28628840, 28922957};
  EXPECT_EQ(done_at, golden);
}

}  // namespace
}  // namespace pas::ssd
