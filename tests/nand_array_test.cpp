#include "nand/array.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"
#include "sim/simulator.h"

namespace pas::nand {
namespace {

NandConfig small_config() {
  NandConfig c;
  c.channels = 2;
  c.dies_per_channel = 2;
  c.planes_per_die = 4;
  c.page_bytes = 16 * KiB;
  c.channel_mib_s = 1024.0;  // 16 KiB -> ~15.26 us
  c.p_die_sigma = 0.0;       // deterministic power for exact assertions
  return c;
}

TEST(NandArray, ReadLatencyIsSensePlusTransfer) {
  sim::Simulator sim;
  NandArray array(sim, small_config());
  TimeNs done_at = -1;
  array.submit({OpKind::kRead, 0, 16 * KiB, false, [&] { done_at = sim.now(); }});
  sim.run_to_completion();
  const TimeNs expect = small_config().t_read + seconds(16.0 * KiB / (1024.0 * MiB));
  EXPECT_NEAR(static_cast<double>(done_at), static_cast<double>(expect), 1000.0);
}

TEST(NandArray, ProgramLatencyIsTransferPlusProgram) {
  sim::Simulator sim;
  NandArray array(sim, small_config());
  TimeNs done_at = -1;
  array.submit({OpKind::kProgram, 0, 64 * KiB, false, [&] { done_at = sim.now(); }});
  sim.run_to_completion();
  const TimeNs expect = small_config().t_program + seconds(64.0 * KiB / (1024.0 * MiB));
  EXPECT_NEAR(static_cast<double>(done_at), static_cast<double>(expect), 1000.0);
}

TEST(NandArray, EraseLatency) {
  sim::Simulator sim;
  NandArray array(sim, small_config());
  TimeNs done_at = -1;
  array.submit({OpKind::kErase, 1, 0, false, [&] { done_at = sim.now(); }});
  sim.run_to_completion();
  EXPECT_EQ(done_at, small_config().t_erase);
}

TEST(NandArray, SameDieOpsSerialize) {
  sim::Simulator sim;
  NandArray array(sim, small_config());
  std::vector<TimeNs> completions;
  for (int i = 0; i < 3; ++i) {
    array.submit({OpKind::kErase, 0, 0, false, [&] { completions.push_back(sim.now()); }});
  }
  sim.run_to_completion();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], 1 * small_config().t_erase);
  EXPECT_EQ(completions[1], 2 * small_config().t_erase);
  EXPECT_EQ(completions[2], 3 * small_config().t_erase);
}

TEST(NandArray, DifferentDiesRunInParallel) {
  sim::Simulator sim;
  NandArray array(sim, small_config());
  std::vector<TimeNs> completions;
  for (int die = 0; die < 4; ++die) {
    array.submit({OpKind::kErase, die, 0, false, [&] { completions.push_back(sim.now()); }});
  }
  sim.run_to_completion();
  ASSERT_EQ(completions.size(), 4u);
  for (TimeNs t : completions) EXPECT_EQ(t, small_config().t_erase);
}

TEST(NandArray, ChannelSerializesTransfers) {
  // Two programs on different dies of the same channel: the second transfer
  // waits for the first, but programs overlap after their transfers.
  sim::Simulator sim;
  auto cfg = small_config();
  NandArray array(sim, cfg);
  std::vector<TimeNs> completions;
  const std::uint32_t bytes = 64 * KiB;
  const TimeNs xfer = seconds(static_cast<double>(bytes) / (cfg.channel_mib_s * MiB));
  array.submit({OpKind::kProgram, 0, bytes, false, [&] { completions.push_back(sim.now()); }});
  array.submit({OpKind::kProgram, 1, bytes, false, [&] { completions.push_back(sim.now()); }});
  sim.run_to_completion();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_NEAR(static_cast<double>(completions[0]), static_cast<double>(xfer + cfg.t_program), 2000.0);
  EXPECT_NEAR(static_cast<double>(completions[1]), static_cast<double>(2 * xfer + cfg.t_program),
              2000.0);
}

TEST(NandArray, DiesOnDifferentChannelsDoNotContend) {
  sim::Simulator sim;
  auto cfg = small_config();
  NandArray array(sim, cfg);
  std::vector<TimeNs> completions;
  const std::uint32_t bytes = 64 * KiB;
  array.submit({OpKind::kProgram, 0, bytes, false, [&] { completions.push_back(sim.now()); }});
  array.submit({OpKind::kProgram, 2, bytes, false, [&] { completions.push_back(sim.now()); }});
  sim.run_to_completion();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], completions[1]);
}

TEST(NandArray, PowerReflectsActiveOps) {
  sim::Simulator sim;
  auto cfg = small_config();
  NandArray array(sim, cfg);
  EXPECT_DOUBLE_EQ(array.instantaneous_power(), 0.0);
  bool a_done = false;
  bool b_done = false;
  array.submit({OpKind::kErase, 0, 0, false, [&] { a_done = true; }});
  array.submit({OpKind::kErase, 2, 0, false, [&] { b_done = true; }});
  // Mid-erase: two dies busy erasing.
  sim.run_until(cfg.t_erase / 2);
  EXPECT_DOUBLE_EQ(array.instantaneous_power(), 2 * cfg.p_die_erase_w);
  EXPECT_EQ(array.busy_dies(), 2);
  sim.run_to_completion();
  EXPECT_TRUE(a_done);
  EXPECT_TRUE(b_done);
  EXPECT_DOUBLE_EQ(array.instantaneous_power(), 0.0);
  EXPECT_EQ(array.busy_dies(), 0);
}

TEST(NandArray, PowerDuringProgramPhases) {
  sim::Simulator sim;
  auto cfg = small_config();
  NandArray array(sim, cfg);
  array.submit({OpKind::kProgram, 0, 64 * KiB, false, [] {}});
  // During the transfer phase, only the channel draws power.
  sim.run_until(microseconds(10));
  EXPECT_DOUBLE_EQ(array.instantaneous_power(), cfg.p_channel_xfer_w);
  // After the transfer (62.5us), the die programs.
  sim.run_until(microseconds(200));
  EXPECT_DOUBLE_EQ(array.instantaneous_power(), cfg.p_die_program_w);
  sim.run_to_completion();
}

TEST(NandArray, PowerListenerFires) {
  sim::Simulator sim;
  NandArray array(sim, small_config());
  int notifications = 0;
  array.set_power_listener([](void* n) { ++*static_cast<int*>(n); }, &notifications);
  array.submit({OpKind::kErase, 0, 0, false, [] {}});
  sim.run_to_completion();
  EXPECT_GE(notifications, 2);  // at least erase start + end
}

TEST(NandArray, CountsAndOutstanding) {
  sim::Simulator sim;
  NandArray array(sim, small_config());
  for (int i = 0; i < 5; ++i) array.submit({OpKind::kErase, 0, 0, false, [] {}});
  EXPECT_EQ(array.outstanding(), 5u);
  EXPECT_EQ(array.queued_ops(0), 5u);
  sim.run_to_completion();
  EXPECT_EQ(array.outstanding(), 0u);
  EXPECT_EQ(array.completed_ops(), 5u);
}

TEST(NandArray, TransferredBytesAccumulate) {
  sim::Simulator sim;
  NandArray array(sim, small_config());
  array.submit({OpKind::kRead, 0, 4 * KiB, false, [] {}});
  array.submit({OpKind::kProgram, 1, 64 * KiB, false, [] {}});
  sim.run_to_completion();
  EXPECT_EQ(array.transferred_bytes(), 68 * KiB);
}

TEST(NandArray, ThroughputSaturatesAtChannelRate) {
  // Saturate one channel with programs on both of its dies; aggregate data
  // rate cannot exceed the channel rate, and program time overlaps transfers.
  sim::Simulator sim;
  auto cfg = small_config();
  cfg.t_program = microseconds(60);  // comparable to the 62.5us transfer
  NandArray array(sim, cfg);
  const std::uint32_t bytes = 64 * KiB;
  int completed = 0;
  // Keep both dies of channel 0 loaded with 100 programs each.
  for (int i = 0; i < 100; ++i) {
    array.submit({OpKind::kProgram, 0, bytes, false, [&] { ++completed; }});
    array.submit({OpKind::kProgram, 1, bytes, false, [&] { ++completed; }});
  }
  sim.run_to_completion();
  EXPECT_EQ(completed, 200);
  const double elapsed_s = to_seconds(sim.now());
  const double mib_moved = 200.0 * bytes / static_cast<double>(MiB);
  const double rate = mib_moved / elapsed_s;
  EXPECT_LE(rate, cfg.channel_mib_s * 1.01);
  // With transfers pipelined against programs, we should get close to it.
  EXPECT_GE(rate, cfg.channel_mib_s * 0.8);
}

TEST(NandArray, InvalidOpsAbort) {
  sim::Simulator sim;
  NandArray array(sim, small_config());
  EXPECT_DEATH(array.submit({OpKind::kRead, 99, 4096, false, [] {}}), "");
  EXPECT_DEATH(array.submit({OpKind::kRead, 0, 0, false, [] {}}), "");
  EXPECT_DEATH(array.submit({OpKind::kErase, 0, 4096, false, [] {}}), "");
}

}  // namespace
}  // namespace pas::nand
