#include "hdd/device.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "devices/specs.h"
#include "iogen/engine.h"
#include "sim/simulator.h"

namespace pas::hdd {
namespace {

HddConfig exos() { return devices::hdd_exos_7e2000(); }

TimeNs run_one_io(sim::Simulator& sim, HddDevice& dev, sim::IoOp op, std::uint64_t offset,
                  std::uint32_t bytes) {
  TimeNs latency = -1;
  dev.submit(sim::IoRequest{op, offset, bytes},
             [&](const sim::IoCompletion& c) { latency = c.latency(); });
  sim.run_to_completion();
  EXPECT_GE(latency, 0);
  return latency;
}

TEST(HddDevice, IdlePowerIs376) {
  sim::Simulator sim;
  HddDevice dev(sim, exos(), 1);
  EXPECT_NEAR(dev.instantaneous_power(), 3.76, 1e-9);  // section 3.2.2
}

TEST(HddDevice, RandomReadPaysSeekAndRotation) {
  sim::Simulator sim;
  HddDevice dev(sim, exos(), 1);
  // A read far from the head's initial position: seek + rotation + transfer.
  const TimeNs lat = run_one_io(sim, dev, sim::IoOp::kRead, 1 * TiB, 4096);
  EXPECT_GT(lat, milliseconds(4));
  EXPECT_LT(lat, milliseconds(25));
  EXPECT_EQ(dev.stats().media_reads, 1u);
  EXPECT_EQ(dev.stats().seeks, 1u);
}

TEST(HddDevice, SequentialReadsStreamAfterFirst) {
  sim::Simulator sim;
  HddDevice dev(sim, exos(), 1);
  // Two back-to-back sequential reads: the second streams at media rate.
  TimeNs lat2 = -1;
  dev.submit(sim::IoRequest{sim::IoOp::kRead, 0, 1 * MiB}, [&](const sim::IoCompletion&) {
    dev.submit(sim::IoRequest{sim::IoOp::kRead, 1 * MiB, 1 * MiB},
               [&](const sim::IoCompletion& c) { lat2 = c.latency(); });
  });
  sim.run_to_completion();
  ASSERT_GE(lat2, 0);
  // 1 MiB at 210 MiB/s media + SATA transfer ~ 6.7 ms, and no positioning.
  EXPECT_LT(lat2, milliseconds(8));
  EXPECT_LE(dev.stats().seeks, 1u);  // at most the initial positioning
}

TEST(HddDevice, OuterTracksFasterThanInner) {
  sim::Simulator sim;
  HddDevice outer_dev(sim, exos(), 1);
  HddDevice inner_dev(sim, exos(), 1);
  // Sequential 64 MiB at the outer edge vs the inner edge.
  auto run_seq = [&](HddDevice& dev, std::uint64_t base) {
    iogen::JobSpec spec;
    spec.pattern = iogen::Pattern::kSequential;
    spec.op = iogen::OpKind::kRead;
    spec.block_bytes = 1 * MiB;
    spec.iodepth = 4;
    spec.region_offset = base;
    spec.region_bytes = 4 * GiB;
    spec.io_limit_bytes = 64 * MiB;
    return iogen::run_job(sim, dev, spec).throughput_mib_s();
  };
  const double outer = run_seq(outer_dev, 0);
  const double inner = run_seq(inner_dev, exos().capacity_bytes - 4 * GiB);
  EXPECT_GT(outer, inner * 1.5);
  EXPECT_LT(outer, 215.0);
  EXPECT_GT(inner, 95.0);
}

TEST(HddDevice, WriteCacheAbsorbsWritesQuickly) {
  sim::Simulator sim;
  HddDevice dev(sim, exos(), 1);
  const TimeNs lat = run_one_io(sim, dev, sim::IoOp::kWrite, 1 * GiB, 4096);
  // Cache admit: link + command overhead only, far below positioning time.
  EXPECT_LT(lat, microseconds(200));
  EXPECT_EQ(dev.stats().media_writes, 1u);  // destaged in the background
  EXPECT_EQ(dev.dirty_bytes(), 0u);
}

TEST(HddDevice, WriteCacheDisabledPaysMediaCost) {
  sim::Simulator sim;
  auto cfg = exos();
  cfg.write_cache_enabled = false;
  HddDevice dev(sim, cfg, 1);
  const TimeNs lat = run_one_io(sim, dev, sim::IoOp::kWrite, 1 * GiB, 4096);
  EXPECT_GT(lat, milliseconds(1));
}

TEST(HddDevice, OverwriteCoalescesInCache) {
  sim::Simulator sim;
  HddDevice dev(sim, exos(), 1);
  int done = 0;
  auto cb = [&](const sim::IoCompletion&) { ++done; };
  // Two writes to the same offset in quick succession: the second coalesces.
  dev.submit(sim::IoRequest{sim::IoOp::kWrite, 4096, 4096}, cb);
  dev.submit(sim::IoRequest{sim::IoOp::kWrite, 4096, 4096}, cb);
  sim.run_to_completion();
  EXPECT_EQ(done, 2);
  EXPECT_GE(dev.stats().cache_write_hits, 1u);
}

TEST(HddDevice, ReadHitsDirtyCache) {
  sim::Simulator sim;
  HddDevice dev(sim, exos(), 1);
  TimeNs read_lat = -1;
  dev.submit(sim::IoRequest{sim::IoOp::kWrite, 0, 4096}, [&](const sim::IoCompletion&) {
    dev.submit(sim::IoRequest{sim::IoOp::kRead, 0, 4096},
               [&](const sim::IoCompletion& c) { read_lat = c.latency(); });
  });
  // Run only a little simulated time so the destage hasn't retired the entry
  // by the time the read arrives (completion order still guarantees it).
  sim.run_to_completion();
  ASSERT_GE(read_lat, 0);
  EXPECT_EQ(dev.stats().cache_read_hits, 1u);
  EXPECT_LT(read_lat, microseconds(200));
}

TEST(HddDevice, FlushDrainsDirtyData) {
  sim::Simulator sim;
  HddDevice dev(sim, exos(), 1);
  bool flush_done = false;
  for (int i = 0; i < 16; ++i) {
    dev.submit(sim::IoRequest{sim::IoOp::kWrite, static_cast<std::uint64_t>(i) * MiB, 4096},
               [](const sim::IoCompletion&) {});
  }
  dev.submit(sim::IoRequest{sim::IoOp::kFlush, 0, 0},
             [&](const sim::IoCompletion&) { flush_done = true; });
  sim.run_to_completion();
  EXPECT_TRUE(flush_done);
  EXPECT_EQ(dev.dirty_bytes(), 0u);
  EXPECT_EQ(dev.stats().media_writes, 16u);
}

TEST(HddDevice, FullCacheBackPressuresWritesInFifoOrder) {
  sim::Simulator sim;
  auto cfg = exos();
  cfg.cache_bytes = 64 * KiB;
  HddDevice dev(sim, cfg, 1);
  // A and B fit (48 KiB); C (32 KiB) does not and queues; D (4 KiB) would
  // fit beside A and B but must not overtake C.
  struct Write {
    char name;
    std::uint64_t offset;
    std::uint32_t bytes;
  };
  const Write writes[] = {{'A', 0, 32 * KiB},
                          {'B', 1 * GiB, 16 * KiB},
                          {'C', 2 * GiB, 32 * KiB},
                          {'D', 3 * GiB, 4 * KiB}};
  std::string order;
  std::map<char, TimeNs> latency;
  std::map<char, std::uint64_t> destaged_before;  // media writes at completion
  for (const Write& w : writes) {
    dev.submit(sim::IoRequest{sim::IoOp::kWrite, w.offset, w.bytes},
               [&, name = w.name](const sim::IoCompletion& c) {
                 order += name;
                 latency[name] = c.latency();
                 destaged_before[name] = dev.stats().media_writes;
               });
  }
  sim.run_to_completion();
  EXPECT_EQ(order, "ABCD");
  // A and B are absorbed at link speed.
  EXPECT_LT(latency['A'], microseconds(200));
  EXPECT_LT(latency['B'], microseconds(400));
  // C waits for destage to free space: the write-back delay, then A's
  // destage (C-LOOK from offset 0), whose 32 KiB release admits C, then D.
  EXPECT_GT(latency['C'], cfg.writeback_delay);
  EXPECT_EQ(destaged_before['C'], 1u);
  EXPECT_EQ(destaged_before['D'], 1u);
  EXPECT_GT(latency['D'], cfg.writeback_delay);
  EXPECT_EQ(dev.stats().media_writes, 4u);
  EXPECT_EQ(dev.dirty_bytes(), 0u);
}

TEST(HddDevice, NcqImprovesRandomReadThroughput) {
  auto run_reads = [](int qd) {
    sim::Simulator sim;
    HddDevice dev(sim, exos(), 1);
    iogen::JobSpec spec;
    spec.pattern = iogen::Pattern::kRandom;
    spec.op = iogen::OpKind::kRead;
    spec.block_bytes = 4096;
    spec.iodepth = qd;
    spec.region_bytes = 4 * GiB;
    spec.io_limit_bytes = 2 * MiB;  // 512 IOs
    spec.time_limit = seconds(60);
    return iogen::run_job(sim, dev, spec).iops();
  };
  const double qd1 = run_reads(1);
  const double qd32 = run_reads(32);
  EXPECT_GT(qd32, qd1 * 2.0);  // NCQ reordering pays off
  EXPECT_LT(qd32, qd1 * 8.0);
}

TEST(HddDevice, NcqDisabledServesFifo) {
  auto run_reads = [](bool ncq) {
    sim::Simulator sim;
    auto cfg = exos();
    cfg.ncq_enabled = ncq;
    HddDevice dev(sim, cfg, 1);
    iogen::JobSpec spec;
    spec.pattern = iogen::Pattern::kRandom;
    spec.op = iogen::OpKind::kRead;
    spec.block_bytes = 4096;
    spec.iodepth = 32;
    spec.region_bytes = 4 * GiB;
    spec.io_limit_bytes = 1 * MiB;
    return iogen::run_job(sim, dev, spec).iops();
  };
  EXPECT_GT(run_reads(true), run_reads(false) * 1.5);
}

TEST(HddDevice, StandbyPowerAndSpinDown) {
  sim::Simulator sim;
  HddDevice dev(sim, exos(), 1);
  dev.standby_immediate();
  EXPECT_EQ(dev.ata_power_mode(), sim::AtaPowerMode::kStandby);
  sim.run_until(seconds(5));
  EXPECT_NEAR(dev.instantaneous_power(), 1.05, 1e-9);  // section 3.2.2: ~1.1 W
  EXPECT_EQ(dev.stats().spin_downs, 1u);
}

TEST(HddDevice, StandbySavingComparableToActiveSaving) {
  // Paper: standby saves 2.66 W vs idle, "comparable with the savings
  // between idle and active of 5.3 W".
  const auto cfg = exos();
  const double idle = cfg.p_electronics_w + cfg.p_spindle_w;
  EXPECT_NEAR(idle - cfg.p_standby_w, 2.66, 0.1);
  EXPECT_NEAR(cfg.p_electronics_w + cfg.p_spindle_w + cfg.p_seek_w + cfg.p_transfer_w, 5.31,
              0.05);
}

TEST(HddDevice, IoToStandbyDiskPaysSpinUp) {
  sim::Simulator sim;
  HddDevice dev(sim, exos(), 1);
  dev.standby_immediate();
  sim.run_until(seconds(5));
  const TimeNs lat = run_one_io(sim, dev, sim::IoOp::kRead, 0, 4096);
  // "Orders of magnitude higher latency": spin-up takes ~8 s.
  EXPECT_GE(lat, exos().spinup_time);
  EXPECT_EQ(dev.stats().spin_ups, 1u);
  EXPECT_EQ(dev.ata_power_mode(), sim::AtaPowerMode::kActiveIdle);
}

TEST(HddDevice, SpinUpDrawsPeakPower) {
  sim::Simulator sim;
  HddDevice dev(sim, exos(), 1);
  dev.standby_immediate();
  sim.run_until(seconds(5));
  dev.spin_up();
  sim.run_until(seconds(6));  // mid spin-up
  EXPECT_NEAR(dev.instantaneous_power(), 5.30, 1e-9);
  sim.run_until(seconds(20));
  EXPECT_NEAR(dev.instantaneous_power(), 3.76, 1e-9);
}

TEST(HddDevice, StandbyWaitsForDirtyCache) {
  sim::Simulator sim;
  HddDevice dev(sim, exos(), 1);
  for (int i = 0; i < 8; ++i) {
    dev.submit(sim::IoRequest{sim::IoOp::kWrite, static_cast<std::uint64_t>(i) * GiB, 4096},
               [](const sim::IoCompletion&) {});
  }
  dev.standby_immediate();
  sim.run_to_completion();
  // Cache drained before spin-down.
  EXPECT_EQ(dev.dirty_bytes(), 0u);
  EXPECT_EQ(dev.stats().media_writes, 8u);
  EXPECT_EQ(dev.ata_power_mode(), sim::AtaPowerMode::kStandby);
}

TEST(HddDevice, PowerPeaksDuringSeeks) {
  sim::Simulator sim;
  HddDevice dev(sim, exos(), 1);
  Watts peak = 0.0;
  bool done = false;
  dev.submit(sim::IoRequest{sim::IoOp::kRead, 1 * TiB, 4096},
             [&](const sim::IoCompletion&) { done = true; });
  while (!done && sim.step()) peak = std::max(peak, dev.instantaneous_power());
  EXPECT_NEAR(peak, 3.76 + 1.30, 1e-9);  // seek adder active
}

TEST(HddDevice, EnergyConservationAtIdle) {
  sim::Simulator sim;
  HddDevice dev(sim, exos(), 1);
  sim.schedule_at(seconds(100), [] {});
  sim.run_to_completion();
  EXPECT_NEAR(dev.consumed_energy(), 376.0, 1e-6);
}

TEST(HddDevice, RejectsMalformedIo) {
  sim::Simulator sim;
  HddDevice dev(sim, exos(), 1);
  auto cb = [](const sim::IoCompletion&) {};
  EXPECT_DEATH(dev.submit(sim::IoRequest{sim::IoOp::kRead, 3, 4096}, cb), "");
  EXPECT_DEATH(dev.submit(sim::IoRequest{sim::IoOp::kWrite, 0, 0}, cb), "");
  EXPECT_DEATH(
      dev.submit(sim::IoRequest{sim::IoOp::kRead, dev.capacity_bytes(), 4096}, cb), "");
}

TEST(HddDevice, PositioningTimeZeroWhenStreaming) {
  sim::Simulator sim;
  HddDevice dev(sim, exos(), 1);
  run_one_io(sim, dev, sim::IoOp::kRead, 0, 1 * MiB);
  EXPECT_EQ(dev.positioning_time(1 * MiB), 0);  // continues the stream
  EXPECT_GT(dev.positioning_time(1 * TiB), milliseconds(5));
}

}  // namespace
}  // namespace pas::hdd
