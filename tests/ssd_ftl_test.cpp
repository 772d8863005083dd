#include "ssd/ftl.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace pas::ssd {
namespace {

// Small geometry so GC cycles are fast: 4 dies, 512 KiB superblocks,
// 16 MiB logical / 20 MiB physical.
SsdConfig small_config() {
  SsdConfig c;
  c.capacity_bytes = 16 * MiB;
  c.overprovision = 0.25;
  c.sector_bytes = 4096;
  c.nand.channels = 2;
  c.nand.dies_per_channel = 2;
  c.nand.planes_per_die = 2;
  c.nand.page_bytes = 16 * KiB;
  c.nand.pages_per_block = 16;
  c.gc_low_watermark_blocks = 4;
  c.gc_high_watermark_blocks = 6;
  return c;
}

// Test harness: completes NAND ops asynchronously after a fixed delay and
// counts them by kind.
struct FtlHarness {
  sim::Simulator sim;
  int reads = 0;
  int programs = 0;
  int erases = 0;
  int last_die = -1;  // die of the most recently issued op
  Ftl ftl;

  explicit FtlHarness(SsdConfig config = small_config())
      : ftl(config,
            [this](nand::NandOp op) {
              last_die = op.die;
              switch (op.kind) {
                case nand::OpKind::kRead: ++reads; break;
                case nand::OpKind::kProgram: ++programs; break;
                case nand::OpKind::kErase: ++erases; break;
              }
              sim.schedule_after(microseconds(10), [done = std::move(op.done)] { done(); });
            },
            [this](TimeNs d, sim::UniqueCallback fn) {
              sim.schedule_after(d, std::move(fn));
            },
            Rng(7)) {}

  // Writes `stripes` stripes of consecutive lpns starting at `first`.
  void write_stripes(std::uint64_t first, int stripes) {
    const std::uint32_t per = ftl.units_per_stripe();
    for (int s = 0; s < stripes; ++s) {
      const ssd::Run run{first + s * per, per};
      ftl.write_runs(&run, 1, per, [] {});
    }
    sim.run_to_completion();
  }
};

TEST(Ftl, GeometryDerivation) {
  FtlHarness h;
  EXPECT_EQ(h.ftl.units_per_stripe(), 8u);  // 2 planes * 16 KiB / 4 KiB
  EXPECT_EQ(h.ftl.total_units(), 4096u);    // 16 MiB / 4 KiB
  EXPECT_EQ(h.ftl.free_blocks(), 40);       // 20 MiB / 512 KiB
}

TEST(Ftl, WriteMapsUnits) {
  FtlHarness h;
  EXPECT_FALSE(h.ftl.is_mapped(0));
  h.write_stripes(0, 1);
  for (std::uint64_t l = 0; l < 8; ++l) EXPECT_TRUE(h.ftl.is_mapped(l));
  EXPECT_FALSE(h.ftl.is_mapped(8));
  EXPECT_EQ(h.programs, 1);
  EXPECT_EQ(h.ftl.stats().host_units_written, 8u);
}

TEST(Ftl, WriteCallbackFiresAfterProgram) {
  FtlHarness h;
  bool done = false;
  const ssd::Run run{0, 3};
  h.ftl.write_runs(&run, 1, 3, [&] { done = true; });
  EXPECT_FALSE(done);
  h.sim.run_to_completion();
  EXPECT_TRUE(done);
}

TEST(Ftl, PartialStripeAllowed) {
  FtlHarness h;
  const ssd::Run run{42, 1};
  h.ftl.write_runs(&run, 1, 1, [] {});
  h.sim.run_to_completion();
  EXPECT_TRUE(h.ftl.is_mapped(42));
  EXPECT_EQ(h.ftl.stats().host_units_written, 1u);
}

TEST(Ftl, OversizeStripeAborts) {
  FtlHarness h;
  const std::uint32_t units = h.ftl.units_per_stripe() + 1;
  const ssd::Run run{0, units};
  EXPECT_DEATH(h.ftl.write_runs(&run, 1, units, [] {}), "");
}

TEST(Ftl, ReadCoalescesByPhysicalPage) {
  FtlHarness h;
  h.write_stripes(0, 1);  // lpns 0..7 in one stripe = 2 physical pages
  h.reads = 0;
  bool done = false;
  const ssd::Run run{0, 4};  // all in page 0
  h.ftl.read_runs(&run, 1, [&] { done = true; });
  h.sim.run_to_completion();
  EXPECT_TRUE(done);
  EXPECT_EQ(h.reads, 1);
}

TEST(Ftl, ReadSpanningPagesIssuesMultiple) {
  FtlHarness h;
  h.write_stripes(0, 1);
  h.reads = 0;
  const ssd::Run run{0, 8};
  h.ftl.read_runs(&run, 1, [] {});
  h.sim.run_to_completion();
  EXPECT_EQ(h.reads, 2);  // two 16 KiB pages in the stripe
}

TEST(Ftl, UnmappedReadHitsPseudoMedia) {
  FtlHarness h;
  bool done = false;
  const ssd::Run run{100, 1};
  h.ftl.read_runs(&run, 1, [&] { done = true; });
  h.sim.run_to_completion();
  EXPECT_TRUE(done);
  EXPECT_EQ(h.reads, 1);  // pseudo-location read
}

TEST(Ftl, UnmappedReadSkipsMediaWhenDisabled) {
  auto cfg = small_config();
  cfg.unmapped_read_hits_media = false;
  FtlHarness h(cfg);
  bool done = false;
  const ssd::Run run{100, 1};
  h.ftl.read_runs(&run, 1, [&] { done = true; });
  EXPECT_TRUE(done);  // synchronous completion, no NAND
  EXPECT_EQ(h.reads, 0);
}

// The first host write on a fresh drive lands on ppn 0 (block 0 of die 0),
// the one ppn the map's ppn + 1 encoding must keep apart from "unmapped".
// With pseudo-media reads off, an unmapped read issues no NAND op at all, so
// one read on die 0 proves the lpn decoded to its real location.
void expect_first_write_round_trips(bool last_unit) {
  auto cfg = small_config();
  cfg.unmapped_read_hits_media = false;
  FtlHarness h(cfg);
  const std::uint64_t lpn = last_unit ? h.ftl.total_units() - 1 : 0;
  EXPECT_FALSE(h.ftl.is_mapped(lpn));
  const ssd::Run run{lpn, 1};
  h.ftl.write_runs(&run, 1, 1, [] {});
  h.sim.run_to_completion();
  EXPECT_EQ(h.programs, 1);
  EXPECT_EQ(h.last_die, 0);
  EXPECT_TRUE(h.ftl.is_mapped(lpn));
  bool done = false;
  h.ftl.read_runs(&run, 1, [&] { done = true; });
  h.sim.run_to_completion();
  EXPECT_TRUE(done);
  EXPECT_EQ(h.reads, 1);
  EXPECT_EQ(h.last_die, 0);
}

TEST(Ftl, FirstWriteOnPpnZeroReadsAsMapped) { expect_first_write_round_trips(false); }

TEST(Ftl, LastUnitRoundTrips) { expect_first_write_round_trips(true); }

TEST(Ftl, OverwriteInvalidatesOldMapping) {
  FtlHarness h;
  h.write_stripes(0, 1);
  h.write_stripes(0, 1);  // overwrite the same lpns
  EXPECT_EQ(h.ftl.stats().host_units_written, 16u);
  // Still mapped; reading them issues page reads against the new location.
  h.reads = 0;
  const ssd::Run run{0, 1};
  h.ftl.read_runs(&run, 1, [] {});
  h.sim.run_to_completion();
  EXPECT_EQ(h.reads, 1);
}

TEST(Ftl, GcTriggersUnderFreePressure) {
  FtlHarness h;
  // Fill logical space once (32 blocks of data on 40 physical), then keep
  // overwriting to force garbage collection.
  const auto total = h.ftl.total_units();
  const std::uint32_t per = h.ftl.units_per_stripe();
  for (std::uint64_t pass = 0; pass < 3; ++pass) {
    for (std::uint64_t l = 0; l + per <= total; l += per) {
      const ssd::Run run{l, per};
      h.ftl.write_runs(&run, 1, per, [] {});
      h.sim.run_to_completion();
    }
  }
  EXPECT_GT(h.ftl.stats().erases, 0u);
  // Sequential overwrites kill blocks outright: reclaim is erase-only, so no
  // move "runs" are required.
  EXPECT_GE(h.ftl.free_blocks(), 2);  // host reserve respected
  // Sequential overwrites fully invalidate victim blocks: GC moves little.
  EXPECT_LT(h.ftl.stats().write_amplification(), 1.5);
}

TEST(Ftl, RandomOverwriteWorkloadKeepsMapConsistent) {
  FtlHarness h;
  Rng rng(99);
  const auto total = h.ftl.total_units();
  const std::uint32_t per = h.ftl.units_per_stripe();
  std::vector<bool> written(total, false);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t base = rng.next_below(total - per);
    for (std::uint32_t u = 0; u < per; ++u) written[base + u] = true;
    const ssd::Run run{base, per};
    h.ftl.write_runs(&run, 1, per, [] {});
    if (i % 16 == 0) h.sim.run_to_completion();
  }
  h.sim.run_to_completion();
  EXPECT_TRUE(h.ftl.quiescent());
  // GC moved data, and every moved lpn still reads as mapped.
  EXPECT_GT(h.ftl.stats().gc_units_moved, 0u);
  for (std::uint64_t l = 0; l < total; ++l) {
    EXPECT_EQ(h.ftl.is_mapped(l), written[l]) << "lpn " << l;
  }
  // Write amplification must be sane: >= 1 and bounded. At ~80% space
  // utilization greedy GC theory predicts WA around 4-6.
  EXPECT_GE(h.ftl.stats().write_amplification(), 1.0);
  EXPECT_LT(h.ftl.stats().write_amplification(), 8.0);
}

TEST(Ftl, PreconditionMapsEverything) {
  FtlHarness h;
  h.ftl.precondition_sequential();
  for (std::uint64_t l = 0; l < h.ftl.total_units(); l += 37) {
    EXPECT_TRUE(h.ftl.is_mapped(l));
  }
  // No simulated NAND traffic.
  EXPECT_EQ(h.programs, 0);
  // Free space shrank to roughly the overprovision.
  EXPECT_LE(h.ftl.free_blocks(), 8);
}

TEST(Ftl, PreconditionThenOverwriteTriggersGcButStaysLive) {
  FtlHarness h;
  h.ftl.precondition_sequential();
  // Overwrite a quarter of the space randomly.
  Rng rng(5);
  const auto total = h.ftl.total_units();
  const std::uint32_t per = h.ftl.units_per_stripe();
  for (int i = 0; i < 128; ++i) {
    const ssd::Run run{rng.next_below(total - per), per};
    h.ftl.write_runs(&run, 1, per, [] {});
    h.sim.run_to_completion();
  }
  EXPECT_TRUE(h.ftl.quiescent());
  EXPECT_GT(h.ftl.stats().gc_runs, 0u);
  EXPECT_GT(h.ftl.stats().gc_units_moved, 0u);
  EXPECT_GT(h.ftl.stats().write_amplification(), 1.0);
}

// Leaves die 0's first block open with every unit invalid, one stripe short
// of sealed. The geometry gives 16 stripes per block, dealt round-robin over
// 4 dies: die 0 takes stripes 0, 4, ..., 56, which all write lpns 0-7, and
// stripe 57 (die 1) overwrites them once more. The other stripes write fresh
// lpns. The next host stripe lands on die 0 and seals the block.
void write_invalid_open_block(FtlHarness& h) {
  const std::uint32_t per = h.ftl.units_per_stripe();
  ASSERT_EQ(per, 8u);
  std::uint64_t fresh = per;
  for (int s = 0; s < 60; ++s) {
    const bool hot = s % 4 == 0 || s == 57;
    const ssd::Run run{hot ? 0 : fresh, per};
    if (!hot) fresh += per;
    h.ftl.write_runs(&run, 1, per, [] {});
  }
  h.sim.run_to_completion();
}

// Random stripe overwrites below `limit`, enough to cycle every block through
// GC several times.
void overwrite_below(FtlHarness& h, std::uint64_t limit) {
  Rng rng(11);
  const std::uint32_t per = h.ftl.units_per_stripe();
  for (int i = 0; i < 3000; ++i) {
    const ssd::Run run{rng.next_below(limit - per), per};
    h.ftl.write_runs(&run, 1, per, [] {});
    if (i % 16 == 0) h.sim.run_to_completion();
  }
  h.sim.run_to_completion();
  EXPECT_TRUE(h.ftl.quiescent());
}

// A block is sealed before the sealing stripe's units are mapped, so a count
// of zero at the seal does not make it dead: queued for erase there, the
// block would be erased with the stripe's data still live.
TEST(Ftl, SealingStripeOnAnInvalidBlockStaysLive) {
  FtlHarness h;
  write_invalid_open_block(h);
  const ssd::Run seal{3000, 8};
  h.ftl.write_runs(&seal, 1, 8, [] {});
  EXPECT_EQ(h.last_die, 0);
  h.sim.run_to_completion();
  overwrite_below(h, 2900);
  EXPECT_GT(h.ftl.stats().erases, 0u);
  for (std::uint64_t l = 3000; l < 3008; ++l) EXPECT_TRUE(h.ftl.is_mapped(l)) << "lpn " << l;
}

// A stripe that writes one lpn twice invalidates its own first copy. When
// that copy is the just-sealed block's only valid unit, the block's count
// must not pass through zero before the second copy is mapped.
TEST(Ftl, SealingStripeRepeatingAnLpnStaysLive) {
  FtlHarness h;
  write_invalid_open_block(h);
  const ssd::Run seal[] = {{3000, 1}, {3000, 1}};
  h.ftl.write_runs(seal, 2, 2, [] {});
  EXPECT_EQ(h.last_die, 0);
  h.sim.run_to_completion();
  overwrite_below(h, 2900);
  EXPECT_GT(h.ftl.stats().erases, 0u);
  EXPECT_TRUE(h.ftl.is_mapped(3000));
}

TEST(Ftl, StatsWriteAmplificationIdentity) {
  FtlStats s;
  EXPECT_DOUBLE_EQ(s.write_amplification(), 1.0);
  s.host_units_written = 100;
  s.gc_units_moved = 50;
  EXPECT_DOUBLE_EQ(s.write_amplification(), 1.5);
}

}  // namespace
}  // namespace pas::ssd
