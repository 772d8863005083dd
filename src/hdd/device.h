// Hard disk drive model.
//
// Mechanics: a single actuator serves one media operation at a time. Each
// operation costs seek (settle + sqrt-of-distance law), deterministic
// rotational latency (the platter angle is a pure function of simulated
// time), and zoned media transfer. NCQ reorders queued reads by shortest
// positioning time; the volatile write cache absorbs writes and destages
// them in elevator (C-LOOK) order, which is what gives small random writes
// their throughput floor (paper, Figure 10a: HDD drops to ~4% of max).
//
// Power: electronics + spindle while spinning (3.76 W idle), actuator adds
// during seeks, the r/w channel adds during transfers (~5.3 W peak). ATA
// STANDBY IMMEDIATE spins down to 1.05 W; IO to a spun-down drive pays a
// multi-second spin-up (paper section 3.2.2).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "hdd/config.h"
#include "power/energy_meter.h"
#include "sim/block_device.h"
#include "sim/callback.h"
#include "sim/power_management.h"
#include "sim/resources.h"
#include "sim/simulator.h"

namespace pas::hdd {

struct HddStats {
  std::uint64_t read_cmds = 0;
  std::uint64_t write_cmds = 0;
  std::uint64_t flush_cmds = 0;
  std::uint64_t cache_write_hits = 0;   // overwrites coalesced in cache
  std::uint64_t cache_read_hits = 0;
  std::uint64_t media_reads = 0;
  std::uint64_t media_writes = 0;
  std::uint64_t seeks = 0;
  std::uint64_t spin_ups = 0;
  std::uint64_t spin_downs = 0;
};

class HddDevice : public sim::BlockDevice, public sim::PowerManageable {
 public:
  // Uniform device-construction contract: (sim, config, seed). The
  // mechanical model is fully deterministic — platter angle is a function of
  // simulated time — so the seed changes no behavior; it is retained so
  // heterogeneous fleets can seed every device through one rule.
  HddDevice(sim::Simulator& sim, HddConfig config, std::uint64_t seed);

  // --- sim::BlockDevice ---
  const std::string& name() const override { return config_.name; }
  std::uint64_t capacity_bytes() const override { return config_.capacity_bytes; }
  std::uint32_t sector_bytes() const override { return config_.sector_bytes; }
  void submit(const sim::IoRequest& req, sim::IoCallback done) override;
  Watts instantaneous_power() const override { return meter_.power(); }
  Joules consumed_energy() const override { return meter_.energy_at(sim_.now()); }
  sim::PowerSegment power_segment() const override { return meter_.segment(); }
  void set_power_observer(sim::PowerObserver* observer) override {
    meter_.set_observer(observer);
  }

  // --- sim::PowerManageable ---
  bool supports_standby() const override { return true; }
  sim::AtaPowerMode ata_power_mode() const override;
  void standby_immediate() override;
  void spin_up() override;

  // --- extras ---
  const HddConfig& config() const { return config_; }
  std::uint64_t seed() const { return seed_; }
  const HddStats& stats() const { return stats_; }
  std::uint64_t dirty_bytes() const { return dirty_bytes_; }
  bool mechanically_idle() const { return !mech_busy_; }

  // Exposed for tests: positioning time from the current head state to an
  // offset if started now.
  TimeNs positioning_time(std::uint64_t offset) const;

 private:
  enum class Spindle : std::uint8_t { kSpinning, kSpinningDown, kStandby, kSpinningUp };
  enum class MediaPhase : std::uint8_t { kNone, kSeek, kRotate, kTransfer };

  struct PendingOp {
    sim::IoRequest req;
    TimeNs submit_time = 0;
    sim::IoCallback done;
  };

  // Geometry helpers.
  int zone_of(std::uint64_t offset) const;
  double zone_rate_mib(int zone) const;
  std::uint64_t track_bytes(int zone) const;
  // Radial position in [0,1).
  double radial(std::uint64_t offset) const;
  // Angular position of a byte offset in [0,1).
  double angle_of(std::uint64_t offset) const;
  double platter_angle_at(TimeNs t) const;

  TimeNs seek_time(double from, double to) const;
  TimeNs rotate_wait(std::uint64_t offset, TimeNs at) const;
  TimeNs transfer_time(std::uint64_t offset, std::uint64_t bytes) const;
  TimeNs transfer_link_time(std::uint64_t bytes) const;

  void dispatch_mech();
  void serve_media_op(PendingOp op, bool is_destage);
  std::size_t pick_ncq_index() const;
  bool pick_destage(std::uint64_t* offset, std::uint32_t* bytes);

  void handle_write(PendingOp op);
  void handle_read(PendingOp op);
  void handle_flush(PendingOp op);
  void complete(PendingOp& op);

  void acquire_link(sim::UniqueCallback go);
  void release_link();
  void check_flush_waiters();

  void maybe_spin_down();
  void begin_spin_down();
  void begin_spin_up();
  void on_spinning(sim::UniqueCallback work);

  void set_phase(MediaPhase phase);
  void update_power();

  sim::Simulator& sim_;
  HddConfig config_;
  std::uint64_t seed_ = 0;  // unused by the deterministic mechanics; see ctor
  HddStats stats_;
  power::EnergyMeter meter_;
  sim::ResourcePool link_{1};

  Spindle spindle_ = Spindle::kSpinning;
  bool standby_requested_ = false;
  std::vector<sim::UniqueCallback> spin_waiters_;

  // Media service.
  bool mech_busy_ = false;
  MediaPhase phase_ = MediaPhase::kNone;
  double head_pos_ = 0.0;                 // radial fraction
  std::uint64_t expected_next_offset_ = 0;  // streaming detection
  std::deque<PendingOp> media_queue_;     // reads (and uncached writes)

  // Write cache.
  std::map<std::uint64_t, std::uint32_t> dirty_;  // offset -> bytes
  std::uint64_t dirty_bytes_ = 0;
  sim::ResourcePool cache_;  // bytes admitted and not yet destaged
  std::uint64_t destage_cursor_ = 0;  // C-LOOK elevator position
  bool destage_in_flight_ = false;
  std::uint64_t destage_offset_ = 0;
  TimeNs last_cache_admit_ = 0;
  bool wb_timer_armed_ = false;
  std::vector<sim::UniqueCallback> flush_waiters_;

  int host_inflight_ = 0;
};

}  // namespace pas::hdd
