#include "hdd/device.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace pas::hdd {

HddDevice::HddDevice(sim::Simulator& sim, HddConfig config, std::uint64_t seed)
    : sim_(sim),
      config_(std::move(config)),
      seed_(seed),
      meter_(sim.now(), 0.0),
      cache_(config_.cache_bytes) {
  PAS_CHECK(config_.capacity_bytes % config_.sector_bytes == 0);
  PAS_CHECK(config_.zones >= 1);
  PAS_CHECK(config_.outer_mib_s >= config_.inner_mib_s);
  PAS_CHECK(config_.ncq_depth >= 1);
  update_power();
}

// ---------- geometry ----------

int HddDevice::zone_of(std::uint64_t offset) const {
  const std::uint64_t zone_bytes = config_.capacity_bytes / static_cast<std::uint64_t>(config_.zones);
  const auto z = static_cast<int>(offset / zone_bytes);
  return std::min(z, config_.zones - 1);
}

double HddDevice::zone_rate_mib(int zone) const {
  if (config_.zones == 1) return config_.outer_mib_s;
  const double f = static_cast<double>(zone) / static_cast<double>(config_.zones - 1);
  return config_.outer_mib_s + f * (config_.inner_mib_s - config_.outer_mib_s);
}

std::uint64_t HddDevice::track_bytes(int zone) const {
  const double bytes = zone_rate_mib(zone) * static_cast<double>(MiB) * to_seconds(config_.rev_period());
  return std::max<std::uint64_t>(config_.sector_bytes, static_cast<std::uint64_t>(bytes));
}

double HddDevice::radial(std::uint64_t offset) const {
  // Radial fraction in [0,1): zones span equal byte extents; within a zone,
  // position advances linearly with the byte offset.
  const std::uint64_t zone_bytes = config_.capacity_bytes / static_cast<std::uint64_t>(config_.zones);
  const int z = zone_of(offset);
  const std::uint64_t in_zone = offset - static_cast<std::uint64_t>(z) * zone_bytes;
  const double frac_in_zone = static_cast<double>(in_zone) / static_cast<double>(zone_bytes);
  return (static_cast<double>(z) + frac_in_zone) / static_cast<double>(config_.zones);
}

double HddDevice::angle_of(std::uint64_t offset) const {
  const int z = zone_of(offset);
  const std::uint64_t tb = track_bytes(z);
  return static_cast<double>(offset % tb) / static_cast<double>(tb);
}

double HddDevice::platter_angle_at(TimeNs t) const {
  const TimeNs period = config_.rev_period();
  return static_cast<double>(t % period) / static_cast<double>(period);
}

TimeNs HddDevice::seek_time(double from, double to) const {
  const double d = std::abs(from - to);
  // Approximate track pitch: treat moves below ~one track as on-track.
  const double track_pitch = 1.0 / 1.0e6;
  if (d < track_pitch) return 0;
  if (d < 2.0 * track_pitch) return config_.track_switch;
  return config_.seek_settle +
         static_cast<TimeNs>(static_cast<double>(config_.seek_full_extra) * std::sqrt(d));
}

TimeNs HddDevice::rotate_wait(std::uint64_t offset, TimeNs at) const {
  const double target = angle_of(offset);
  const double cur = platter_angle_at(at);
  double gap = target - cur;
  if (gap < 0.0) gap += 1.0;
  return static_cast<TimeNs>(gap * static_cast<double>(config_.rev_period()));
}

TimeNs HddDevice::transfer_time(std::uint64_t offset, std::uint64_t bytes) const {
  const double rate = zone_rate_mib(zone_of(offset)) * static_cast<double>(MiB);
  return std::max<TimeNs>(1, seconds(static_cast<double>(bytes) / rate));
}

TimeNs HddDevice::positioning_time(std::uint64_t offset) const {
  if (offset == expected_next_offset_) return 0;  // streaming continuation
  const TimeNs seek = seek_time(head_pos_, radial(offset));
  return seek + rotate_wait(offset, sim_.now() + seek);
}

// ---------- host command plane ----------

void HddDevice::submit(const sim::IoRequest& req, sim::IoCallback done) {
  PAS_CHECK(done != nullptr);
  const TimeNs submit_time = sim_.now();
  if (req.op != sim::IoOp::kFlush) {
    PAS_CHECK(req.bytes > 0);
    PAS_CHECK(req.offset % config_.sector_bytes == 0);
    PAS_CHECK(req.bytes % config_.sector_bytes == 0);
    PAS_CHECK(req.offset + req.bytes <= config_.capacity_bytes);
  }
  ++host_inflight_;
  PendingOp op{req, submit_time, std::move(done)};
  switch (req.op) {
    case sim::IoOp::kWrite:
      ++stats_.write_cmds;
      handle_write(std::move(op));
      break;
    case sim::IoOp::kRead:
      ++stats_.read_cmds;
      handle_read(std::move(op));
      break;
    case sim::IoOp::kFlush:
      ++stats_.flush_cmds;
      handle_flush(std::move(op));
      break;
  }
}

void HddDevice::handle_write(PendingOp op) {
  on_spinning([this, op = std::move(op)]() mutable {
    // Command + data over the SATA link.
    acquire_link([this, op = std::move(op)]() mutable {
      const TimeNs t = config_.t_cmd_overhead + transfer_link_time(op.req.bytes);
      sim_.schedule_after(t, [this, op = std::move(op)]() mutable {
        release_link();
        if (!config_.write_cache_enabled) {
          media_queue_.push_back(std::move(op));
          dispatch_mech();
          return;
        }
        auto it = dirty_.find(op.req.offset);
        if (it != dirty_.end() && it->second == op.req.bytes) {
          // Overwrite coalesces in cache: no new space needed.
          ++stats_.cache_write_hits;
          last_cache_admit_ = sim_.now();
          complete(op);
          dispatch_mech();
          return;
        }
        const std::uint64_t bytes = op.req.bytes;
        PAS_CHECK_MSG(bytes <= config_.cache_bytes, "single write larger than the drive cache");
        auto admitted = [this, op = std::move(op)]() mutable {
          dirty_[op.req.offset] = op.req.bytes;
          dirty_bytes_ += op.req.bytes;
          last_cache_admit_ = sim_.now();
          complete(op);
          dispatch_mech();
        };
        if (cache_.try_acquire(bytes)) {
          admitted();
        } else {
          cache_.wait(bytes, std::move(admitted));
        }
      });
    });
  });
}

void HddDevice::handle_read(PendingOp op) {
  on_spinning([this, op = std::move(op)]() mutable {
    acquire_link([this, op = std::move(op)]() mutable {
      sim_.schedule_after(config_.t_cmd_overhead, [this, op = std::move(op)]() mutable {
        release_link();
        auto it = dirty_.find(op.req.offset);
        const bool cache_hit =
            (it != dirty_.end() && it->second >= op.req.bytes) ||
            (destage_in_flight_ && destage_offset_ == op.req.offset);
        if (cache_hit) {
          ++stats_.cache_read_hits;
          acquire_link([this, op = std::move(op)]() mutable {
            sim_.schedule_after(transfer_link_time(op.req.bytes),
                                [this, op = std::move(op)]() mutable {
              release_link();
              complete(op);
            });
          });
          return;
        }
        media_queue_.push_back(std::move(op));
        dispatch_mech();
      });
    });
  });
}

void HddDevice::handle_flush(PendingOp op) {
  on_spinning([this, op = std::move(op)]() mutable {
    if (dirty_.empty() && !destage_in_flight_) {
      complete(op);
      return;
    }
    flush_waiters_.push_back([this, op = std::move(op)]() mutable { complete(op); });
    dispatch_mech();
  });
}

void HddDevice::complete(PendingOp& op) {
  --host_inflight_;
  op.done(sim::IoCompletion{op.req, op.submit_time, sim_.now()});
  maybe_spin_down();
}

TimeNs HddDevice::transfer_link_time(std::uint64_t bytes) const {
  if (bytes == 0) return 0;
  return std::max<TimeNs>(
      1, seconds(static_cast<double>(bytes) / (config_.link_mib_s * static_cast<double>(MiB))));
}

// ---------- link and cache ----------

// The link adds no draw of its own, but its busy edges still rewrite the
// (unchanged) power: each rewrite is one energy add on the meter, and the
// parity baselines pin that sequence of adds.
void HddDevice::acquire_link(sim::UniqueCallback go) {
  if (!link_.try_acquire()) {
    link_.wait(1, std::move(go));
    return;
  }
  update_power();
  go();
}

void HddDevice::release_link() {
  if (link_.release()) update_power();
}

void HddDevice::check_flush_waiters() {
  if (!dirty_.empty() || destage_in_flight_) return;
  auto waiters = std::move(flush_waiters_);
  flush_waiters_.clear();
  for (auto& w : waiters) w();
}

// ---------- media service ----------

std::size_t HddDevice::pick_ncq_index() const {
  if (!config_.ncq_enabled || media_queue_.size() == 1) return 0;
  const std::size_t window =
      std::min<std::size_t>(media_queue_.size(), static_cast<std::size_t>(config_.ncq_depth));
  std::size_t best = 0;
  TimeNs best_cost = positioning_time(media_queue_[0].req.offset);
  for (std::size_t i = 1; i < window; ++i) {
    const TimeNs cost = positioning_time(media_queue_[i].req.offset);
    if (cost < best_cost) {
      best_cost = cost;
      best = i;
    }
  }
  return best;
}

bool HddDevice::pick_destage(std::uint64_t* offset, std::uint32_t* bytes) {
  if (dirty_.empty()) return false;
  auto it = dirty_.lower_bound(destage_cursor_);
  if (it == dirty_.end()) it = dirty_.begin();  // C-LOOK wrap
  *offset = it->first;
  *bytes = it->second;
  dirty_.erase(it);
  dirty_bytes_ -= *bytes;
  destage_cursor_ = *offset + 1;
  return true;
}

void HddDevice::dispatch_mech() {
  if (mech_busy_ || spindle_ != Spindle::kSpinning) return;
  if (!media_queue_.empty()) {
    const std::size_t idx = pick_ncq_index();
    PendingOp op = std::move(media_queue_[idx]);
    media_queue_.erase(media_queue_.begin() + static_cast<std::ptrdiff_t>(idx));
    serve_media_op(std::move(op), /*is_destage=*/false);
    return;
  }
  if (dirty_.empty()) return;
  // Write-back policy: hold dirty data briefly so overwrites coalesce,
  // unless a flush/standby demands draining or dirty data piles up.
  const bool force = !flush_waiters_.empty() || standby_requested_ ||
                     dirty_bytes_ >= config_.writeback_pressure_bytes;
  if (!force) {
    const TimeNs eligible_at = last_cache_admit_ + config_.writeback_delay;
    if (sim_.now() < eligible_at) {
      if (!wb_timer_armed_) {
        wb_timer_armed_ = true;
        sim_.schedule_at(eligible_at, [this] {
          wb_timer_armed_ = false;
          dispatch_mech();
        });
      }
      return;
    }
  }
  std::uint64_t offset = 0;
  std::uint32_t bytes = 0;
  if (pick_destage(&offset, &bytes)) {
    destage_in_flight_ = true;
    destage_offset_ = offset;
    PendingOp op;
    op.req = sim::IoRequest{sim::IoOp::kWrite, offset, bytes};
    serve_media_op(std::move(op), /*is_destage=*/true);
  }
}

void HddDevice::serve_media_op(PendingOp op, bool is_destage) {
  mech_busy_ = true;
  const std::uint64_t offset = op.req.offset;
  const std::uint32_t bytes = op.req.bytes;
  const bool streaming = (offset == expected_next_offset_);
  const TimeNs seek = streaming ? 0 : seek_time(head_pos_, radial(offset));
  if (seek > 0) ++stats_.seeks;

  auto do_transfer = [this, op = std::move(op), is_destage, offset, bytes]() mutable {
    set_phase(MediaPhase::kTransfer);
    sim_.schedule_after(transfer_time(offset, bytes),
                        [this, op = std::move(op), is_destage, offset, bytes]() mutable {
      set_phase(MediaPhase::kNone);
      head_pos_ = radial(offset + bytes - 1);
      expected_next_offset_ = offset + bytes;
      mech_busy_ = false;
      if (is_destage) {
        ++stats_.media_writes;
        destage_in_flight_ = false;
        cache_.release(bytes);
        check_flush_waiters();
        maybe_spin_down();
      } else if (op.req.op == sim::IoOp::kRead) {
        ++stats_.media_reads;
        acquire_link([this, op = std::move(op), bytes]() mutable {
          sim_.schedule_after(transfer_link_time(bytes), [this, op = std::move(op)]() mutable {
            release_link();
            complete(op);
          });
        });
      } else {
        ++stats_.media_writes;
        complete(op);  // uncached write
      }
      dispatch_mech();
    });
  };

  if (streaming) {
    // Head is already on the sector: go straight to transfer.
    do_transfer();
    return;
  }
  auto do_rotate = [this, do_transfer = std::move(do_transfer), offset]() mutable {
    const TimeNs wait = rotate_wait(offset, sim_.now());
    set_phase(MediaPhase::kRotate);
    sim_.schedule_after(wait, std::move(do_transfer));
  };
  if (seek > 0) {
    set_phase(MediaPhase::kSeek);
    sim_.schedule_after(seek, std::move(do_rotate));
  } else {
    do_rotate();
  }
}

// ---------- spindle ----------

sim::AtaPowerMode HddDevice::ata_power_mode() const {
  switch (spindle_) {
    case Spindle::kSpinning:
    case Spindle::kSpinningUp:
      return sim::AtaPowerMode::kActiveIdle;
    case Spindle::kSpinningDown:
    case Spindle::kStandby:
      return sim::AtaPowerMode::kStandby;
  }
  return sim::AtaPowerMode::kActiveIdle;
}

void HddDevice::standby_immediate() {
  standby_requested_ = true;
  maybe_spin_down();
}

void HddDevice::spin_up() {
  standby_requested_ = false;
  if (spindle_ == Spindle::kStandby) begin_spin_up();
}

void HddDevice::maybe_spin_down() {
  if (!standby_requested_ || spindle_ != Spindle::kSpinning) return;
  // STANDBY IMMEDIATE flushes the cache and waits for outstanding work.
  if (host_inflight_ > 0 || mech_busy_ || !media_queue_.empty() || !dirty_.empty() ||
      destage_in_flight_) {
    dispatch_mech();  // keep draining the cache
    return;
  }
  begin_spin_down();
}

void HddDevice::begin_spin_down() {
  PAS_CHECK(spindle_ == Spindle::kSpinning);
  spindle_ = Spindle::kSpinningDown;
  ++stats_.spin_downs;
  update_power();
  sim_.schedule_after(config_.spindown_time, [this] {
    spindle_ = Spindle::kStandby;
    update_power();
    if (!spin_waiters_.empty()) begin_spin_up();
  });
}

void HddDevice::begin_spin_up() {
  PAS_CHECK(spindle_ == Spindle::kStandby);
  spindle_ = Spindle::kSpinningUp;
  update_power();
  sim_.schedule_after(config_.spinup_time, [this] {
    spindle_ = Spindle::kSpinning;
    ++stats_.spin_ups;
    update_power();
    auto waiters = std::move(spin_waiters_);
    spin_waiters_.clear();
    for (auto& w : waiters) w();
    dispatch_mech();
  });
}

void HddDevice::on_spinning(sim::UniqueCallback work) {
  // Any host command cancels a prior STANDBY IMMEDIATE (ATA standby is
  // one-shot): the drive wakes and stays active.
  standby_requested_ = false;
  switch (spindle_) {
    case Spindle::kSpinning:
      work();
      return;
    case Spindle::kStandby:
      spin_waiters_.push_back(std::move(work));
      begin_spin_up();
      return;
    case Spindle::kSpinningDown:
    case Spindle::kSpinningUp:
      spin_waiters_.push_back(std::move(work));
      return;
  }
}

// ---------- power ----------

void HddDevice::set_phase(MediaPhase phase) {
  phase_ = phase;
  update_power();
}

void HddDevice::update_power() {
  Watts base = 0.0;
  switch (spindle_) {
    case Spindle::kSpinning:
      base = config_.p_electronics_w + config_.p_spindle_w;
      break;
    case Spindle::kSpinningDown:
      base = config_.p_electronics_w + 0.5 * config_.p_spindle_w;
      break;
    case Spindle::kStandby:
      base = config_.p_standby_w;
      break;
    case Spindle::kSpinningUp:
      base = config_.p_spinup_w;
      break;
  }
  Watts adders = 0.0;
  if (spindle_ == Spindle::kSpinning) {
    if (phase_ == MediaPhase::kSeek) adders += config_.p_seek_w;
    if (phase_ == MediaPhase::kTransfer) adders += config_.p_transfer_w;
  }
  meter_.set_power(sim_.now(), base + adders);
}

}  // namespace pas::hdd
