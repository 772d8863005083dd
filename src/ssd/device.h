// SSD device model.
//
// Request flow:
//   write: firmware core -> write-buffer reservation (back-pressure) ->
//          host-link transfer -> completion; buffered data destages to NAND
//          in stripe-sized programs through the power governor.
//   read:  firmware core -> buffer hit check / NAND page reads (governed) ->
//          host-link transfer -> completion.
//
// Power is composed from: controller static floor, link (idle / active /
// SLUMBER / transition), busy firmware cores, the NAND array, and a
// voltage-regulator loss term that grows with the square of dynamic power
// (see SsdConfig::vr_loss_w_per_w2). Every component change updates an exact
// EnergyMeter, which the measurement rig reads, and reports the non-NAND
// draw to the power governor while it is capped.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "nand/array.h"
#include "power/energy_meter.h"
#include "sim/block_device.h"
#include "sim/power_management.h"
#include "sim/resources.h"
#include "sim/simulator.h"
#include "ssd/config.h"
#include "ssd/ftl.h"
#include "ssd/governor.h"
#include "ssd/runs.h"

namespace pas::ssd {

struct SsdStats {
  std::uint64_t read_cmds = 0;
  std::uint64_t write_cmds = 0;
  std::uint64_t flush_cmds = 0;
  std::uint64_t host_read_bytes = 0;
  std::uint64_t host_write_bytes = 0;
  std::uint64_t buffer_stall_events = 0;  // writes that waited for buffer space
};

class SsdDevice : public sim::BlockDevice, public sim::PowerManageable {
 public:
  SsdDevice(sim::Simulator& sim, SsdConfig config, std::uint64_t seed);

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
  int power_state_count() const override;
  int power_state() const override { return power_state_; }
  void set_power_state(int ps) override;
  std::vector<sim::PowerStateDesc> power_state_table() const override;
  bool supports_alpm() const override { return config_.alpm_supported; }
  sim::LinkPmState link_pm_state() const override;
  void set_link_pm(sim::LinkPmState s) override;

  // --- extras ---
  const SsdConfig& config() const { return config_; }
  const SsdStats& stats() const { return stats_; }
  const FtlStats& ftl_stats() const { return ftl_->stats(); }
  PowerGovernor& governor() { return governor_; }
  nand::NandArray& nand_array() { return nand_; }
  Ftl& ftl() { return *ftl_; }

  // Fills the logical space instantly (a "used" drive).
  void precondition() { ftl_->precondition_sequential(); }

  // No host commands, buffered data, in-flight programs, or GC work.
  bool device_idle() const;

  std::uint64_t write_buffer_used() const { return buffer_.used(); }

  // IoContext pool introspection (tests): slots ever created / currently free.
  std::size_t io_ctx_allocated() const { return io_ctx_.size(); }
  std::size_t io_ctx_free() const { return io_ctx_free_count_; }

 private:
  enum class AlpmState : std::uint8_t { kActive, kEntering, kSlumber, kExiting };

  // One pooled context per host IO. Stage continuations
  // capture {this, ctx} — 16 bytes, always inline in the kernel's event slot
  // — so a steady-state IO allocates nothing; contexts and their run vectors
  // recycle through a free list sized by the peak queue depth.
  enum class IoStage : std::uint8_t {
    kWriteStart, kWriteCoreHeld, kWriteCoreDone, kWriteBuffered, kWriteLinkHeld,
    kWriteXferDone,
    kReadStart, kReadCoreHeld, kReadCoreDone, kReadMediaDone, kReadLinkHeld,
    kReadXferDone,
    kFlushStart, kFlushCoreHeld, kFlushCoreDone,
    kComplete,
  };
  struct IoContext {
    sim::IoRequest req;
    TimeNs submit_time = 0;
    sim::IoCallback done;
    IoStage stage = IoStage::kComplete;
    std::vector<Run> media_runs;  // read: unbuffered sub-runs (capacity reused)
    IoContext* next_free = nullptr;
  };
  // Destage batch context: the stripe's runs live here from stripe assembly
  // until program completion (buffer release + range removal) — no
  // copy-into-vector-then-capture-by-value round trip.
  struct DestageCtx {
    std::vector<Run> runs;
    std::uint64_t bytes = 0;
    DestageCtx* next_free = nullptr;
  };

  IoContext* alloc_io_ctx(const sim::IoRequest& req, TimeNs submit_time,
                          sim::IoCallback done);
  void advance(IoContext* ctx);
  void io_complete(IoContext* ctx);
  DestageCtx* alloc_destage_ctx();
  void enqueue_destage(std::uint64_t first_lpn, std::uint32_t units);
  void maybe_destage(bool force_partial);
  void destage_done(DestageCtx* ctx);

  void acquire_unit(sim::ResourcePool& pool, IoContext* ctx);
  void release_unit(sim::ResourcePool& pool);
  void reserve_buffer(IoContext* ctx);
  void arm_destage_timer();
  void check_flush_waiters();

  void issue_nand(nand::NandOp op);
  Joules nand_op_energy(const nand::NandOp& op) const;
  void schedule_bg_activity();

  void wake_then(sim::UniqueCallback work);
  void begin_alpm_entry();
  void begin_alpm_exit();
  void maybe_enter_pending_slumber();

  TimeNs scaled(TimeNs t) const {
    return static_cast<TimeNs>(static_cast<double>(t) / ctrl_speed_);
  }
  TimeNs scaled_write(TimeNs t) const {
    return static_cast<TimeNs>(static_cast<double>(t) / (ctrl_speed_ * write_speed_));
  }
  TimeNs link_time(std::uint64_t bytes) const;
  TimeNs dma_gap_time(std::uint64_t bytes) const;
  void update_power();

  sim::Simulator& sim_;
  SsdConfig config_;
  Rng rng_;
  SsdStats stats_;

  nand::NandArray nand_;
  PowerGovernor governor_;
  std::unique_ptr<Ftl> ftl_;
  power::EnergyMeter meter_;

  sim::ResourcePool cores_;
  sim::ResourcePool link_{1};

  // IO / destage context pools. Deques give stable addresses;
  // slots recycle through intrusive free lists.
  std::deque<IoContext> io_ctx_;
  IoContext* io_ctx_free_ = nullptr;
  std::size_t io_ctx_free_count_ = 0;
  std::deque<DestageCtx> destage_ctx_;
  DestageCtx* destage_ctx_free_ = nullptr;

  // Write buffer, in bytes.
  sim::ResourcePool buffer_;
  RunFifo destage_runs_;     // buffered units as coalesced runs, arrival order
  BufferedRanges buffered_;  // per-unit occupancy of the buffered units
  int inflight_programs_ = 0;
  TimeNs last_enqueue_ = 0;
  bool destage_timer_armed_ = false;
  bool draining_ = false;  // inside a destage batch
  std::vector<sim::UniqueCallback> flush_waiters_;

  // Power state.
  int power_state_ = 0;
  double ctrl_speed_ = 1.0;
  double write_speed_ = 1.0;

  // ALPM.
  AlpmState alpm_ = AlpmState::kActive;
  bool slumber_requested_ = false;
  std::deque<sim::UniqueCallback> wake_waiters_;

  int host_inflight_ = 0;
  bool bg_timer_armed_ = false;
  bool idle_timer_armed_ = false;
  bool auto_slumber_ = false;  // current slumber was entered autonomously
  TimeNs last_activity_ = 0;
};

}  // namespace pas::ssd
