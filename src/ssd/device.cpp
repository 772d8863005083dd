#include "ssd/device.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace pas::ssd {

SsdDevice::SsdDevice(sim::Simulator& sim, SsdConfig config, std::uint64_t seed)
    : sim_(sim),
      config_(std::move(config)),
      rng_(seed),
      nand_(sim, config_.nand, seed ^ 0xA5A5A5A5ULL),
      governor_(sim),
      meter_(sim.now(), 0.0),
      cores_(static_cast<std::uint64_t>(config_.cmd_cores)),
      buffer_(config_.write_buffer_bytes),
      buffered_(config_.capacity_bytes / config_.sector_bytes) {
  PAS_CHECK(config_.cmd_cores > 0);  // a negative count would wrap into a huge pool
  PAS_CHECK(config_.capacity_bytes % config_.sector_bytes == 0);
  ftl_ = std::make_unique<Ftl>(
      config_, [this](nand::NandOp op) { issue_nand(std::move(op)); },
      [this](TimeNs delay, sim::UniqueCallback fn) { sim_.schedule_after(delay, std::move(fn)); },
      rng_.fork());
  nand_.set_power_listener([](void* dev) { static_cast<SsdDevice*>(dev)->update_power(); },
                           this);
  set_power_state(0);
  update_power();
}

void SsdDevice::schedule_bg_activity() {
  // Exponentially spaced housekeeping bursts while the host keeps the device
  // busy. When a burst fires on an idle device the timer stays disarmed (so
  // the event queue can drain and idle power is preserved); the next host
  // submission re-arms it.
  if (!config_.bg_activity || bg_timer_armed_) return;
  bg_timer_armed_ = true;
  const double u = std::max(1e-9, rng_.next_double());
  const auto delay = static_cast<TimeNs>(-std::log(u) *
                                         static_cast<double>(config_.bg_mean_interval));
  sim_.schedule_after(std::max<TimeNs>(microseconds(100), delay), [this] {
    bg_timer_armed_ = false;
    const bool host_busy =
        host_inflight_ > 0 || !destage_runs_.empty() || inflight_programs_ > 0;
    if (!host_busy || alpm_ != AlpmState::kActive) return;
    const int dies = config_.nand.total_dies();
    for (int i = 0; i < config_.bg_burst_ops; ++i) {
      nand::NandOp op;
      op.die = static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(dies)));
      if (rng_.next_double() < 0.7) {
        op.kind = nand::OpKind::kRead;  // patrol / map reads
        op.transfer_bytes = config_.nand.page_bytes;
      } else {
        op.kind = nand::OpKind::kProgram;  // metadata journaling
        op.transfer_bytes = config_.nand.page_bytes;
      }
      op.done = [] {};
      issue_nand(std::move(op));
    }
    schedule_bg_activity();
  });
}

int SsdDevice::power_state_count() const {
  return std::max<int>(1, static_cast<int>(config_.power_states.size()));
}

void SsdDevice::set_power_state(int ps) {
  PAS_CHECK(ps >= 0 && ps < power_state_count());
  power_state_ = ps;
  Watts cap = 0.0;
  ctrl_speed_ = 1.0;
  write_speed_ = 1.0;
  if (!config_.power_states.empty()) {
    const auto& state = config_.power_states[static_cast<std::size_t>(ps)];
    cap = state.cap_w;
    ctrl_speed_ = state.ctrl_speed;
    write_speed_ = state.write_speed;
    PAS_CHECK(ctrl_speed_ > 0.0);
    PAS_CHECK(write_speed_ > 0.0);
    PAS_CHECK_MSG(cap <= 0.0 || cap > config_.p_ctrl_static_w + config_.p_link_idle_w,
                  "power cap below the device's static floor");
  }
  // update_power() feeds the governor only while it is capped or holds queued
  // ops; an uncapped governor learns the current non-NAND draw before a cap
  // can integrate it.
  if (!governor_.capped()) {
    governor_.on_power_change(meter_.power() - nand_.instantaneous_power());
  }
  governor_.set_cap(cap, cap * config_.governor_burst_seconds,
                    cap * config_.governor_hysteresis_seconds);
}

std::vector<sim::PowerStateDesc> SsdDevice::power_state_table() const {
  std::vector<sim::PowerStateDesc> table;
  if (config_.power_states.empty()) {
    table.push_back(sim::PowerStateDesc{0, 0.0, 0, 0, true});
    return table;
  }
  for (std::size_t i = 0; i < config_.power_states.size(); ++i) {
    table.push_back(sim::PowerStateDesc{static_cast<int>(i), config_.power_states[i].cap_w,
                                        microseconds(10), microseconds(10), true});
  }
  return table;
}

sim::LinkPmState SsdDevice::link_pm_state() const {
  return alpm_ == AlpmState::kActive ? sim::LinkPmState::kActive : sim::LinkPmState::kSlumber;
}

void SsdDevice::set_link_pm(sim::LinkPmState s) {
  PAS_CHECK_MSG(config_.alpm_supported, "device does not support ALPM");
  if (s == sim::LinkPmState::kActive) {
    slumber_requested_ = false;
    if (alpm_ == AlpmState::kSlumber) begin_alpm_exit();
    return;
  }
  // PARTIAL is modeled identically to SLUMBER.
  slumber_requested_ = true;
  maybe_enter_pending_slumber();
}

TimeNs SsdDevice::link_time(std::uint64_t bytes) const {
  if (bytes == 0) return 0;
  return std::max<TimeNs>(
      1, seconds(static_cast<double>(bytes) / (config_.link_mib_s * static_cast<double>(MiB))));
}

TimeNs SsdDevice::dma_gap_time(std::uint64_t bytes) const {
  if (bytes <= config_.dma_segment_bytes) return 0;
  const std::uint64_t segments =
      (bytes + config_.dma_segment_bytes - 1) / config_.dma_segment_bytes;
  return static_cast<TimeNs>(segments - 1) * config_.t_dma_segment_gap;
}

void SsdDevice::submit(const sim::IoRequest& req, sim::IoCallback done) {
  PAS_CHECK(done != nullptr);
  const TimeNs submit_time = sim_.now();
  if (req.op != sim::IoOp::kFlush) {
    PAS_CHECK(req.bytes > 0);
    PAS_CHECK(req.offset % config_.sector_bytes == 0);
    PAS_CHECK(req.bytes % config_.sector_bytes == 0);
    PAS_CHECK(req.offset + req.bytes <= config_.capacity_bytes);
  }
  ++host_inflight_;
  last_activity_ = sim_.now();
  schedule_bg_activity();
  switch (req.op) {
    case sim::IoOp::kWrite:
      ++stats_.write_cmds;
      stats_.host_write_bytes += req.bytes;
      break;
    case sim::IoOp::kRead:
      ++stats_.read_cmds;
      stats_.host_read_bytes += req.bytes;
      break;
    case sim::IoOp::kFlush:
      ++stats_.flush_cmds;
      break;
  }
  IoContext* ctx = alloc_io_ctx(req, submit_time, std::move(done));
  ctx->stage = req.op == sim::IoOp::kWrite   ? IoStage::kWriteStart
               : req.op == sim::IoOp::kRead  ? IoStage::kReadStart
                                             : IoStage::kFlushStart;
  wake_then([this, ctx] { advance(ctx); });
}

SsdDevice::IoContext* SsdDevice::alloc_io_ctx(const sim::IoRequest& req,
                                              TimeNs submit_time, sim::IoCallback done) {
  IoContext* ctx;
  if (io_ctx_free_ != nullptr) {
    ctx = io_ctx_free_;
    io_ctx_free_ = ctx->next_free;
    --io_ctx_free_count_;
  } else {
    ctx = &io_ctx_.emplace_back();
  }
  ctx->req = req;
  ctx->submit_time = submit_time;
  ctx->done = std::move(done);
  ctx->media_runs.clear();
  ctx->next_free = nullptr;
  return ctx;
}

// One host IO = one context walking this switch; every hop (resource grant,
// timer, media completion) re-enters with the next stage already recorded.
// The order of resource grants, delays and destage calls is what the parity
// baselines pin. In particular each write enqueues its units for destage
// when its link transfer finishes, and maybe_destage hands them to the FTL in
// exactly that per-unit order, duplicates included (RunFifo::pop_units).
void SsdDevice::advance(IoContext* ctx) {
  switch (ctx->stage) {
    case IoStage::kWriteStart:
      ctx->stage = IoStage::kWriteCoreHeld;
      acquire_unit(cores_, ctx);
      return;
    case IoStage::kWriteCoreHeld:
      ctx->stage = IoStage::kWriteCoreDone;
      sim_.schedule_after(scaled_write(config_.t_proc_write), [this, ctx] { advance(ctx); });
      return;
    case IoStage::kWriteCoreDone:
      release_unit(cores_);
      ctx->stage = IoStage::kWriteBuffered;
      reserve_buffer(ctx);
      return;
    case IoStage::kWriteBuffered:
      ctx->stage = IoStage::kWriteLinkHeld;
      acquire_unit(link_, ctx);
      return;
    case IoStage::kWriteLinkHeld:
      ctx->stage = IoStage::kWriteXferDone;
      sim_.schedule_after(link_time(ctx->req.bytes), [this, ctx] { advance(ctx); });
      return;
    case IoStage::kWriteXferDone:
      release_unit(link_);
      enqueue_destage(ctx->req.offset / config_.sector_bytes,
                      static_cast<std::uint32_t>(ctx->req.bytes / config_.sector_bytes));
      ctx->stage = IoStage::kComplete;
      sim_.schedule_after(scaled_write(config_.t_fw_write) + dma_gap_time(ctx->req.bytes),
                          [this, ctx] { advance(ctx); });
      return;

    case IoStage::kReadStart:
      ctx->stage = IoStage::kReadCoreHeld;
      acquire_unit(cores_, ctx);
      return;
    case IoStage::kReadCoreHeld:
      ctx->stage = IoStage::kReadCoreDone;
      sim_.schedule_after(scaled(config_.t_proc_read), [this, ctx] { advance(ctx); });
      return;
    case IoStage::kReadCoreDone: {
      release_unit(cores_);
      // Units still sitting in the write buffer are served from DRAM.
      ctx->media_runs.clear();
      buffered_.for_each_unbuffered(
          ctx->req.offset / config_.sector_bytes, ctx->req.bytes / config_.sector_bytes,
          [ctx](std::uint64_t first, std::uint64_t len) {
            ctx->media_runs.push_back(Run{first, static_cast<std::uint32_t>(len)});
          });
      ctx->stage = IoStage::kReadMediaDone;
      if (ctx->media_runs.empty()) {
        advance(ctx);  // full buffer hit: no media trip
        return;
      }
      ftl_->read_runs(ctx->media_runs.data(), ctx->media_runs.size(),
                      [this, ctx] { advance(ctx); });
      return;
    }
    case IoStage::kReadMediaDone:
      ctx->stage = IoStage::kReadLinkHeld;
      acquire_unit(link_, ctx);
      return;
    case IoStage::kReadLinkHeld:
      ctx->stage = IoStage::kReadXferDone;
      sim_.schedule_after(link_time(ctx->req.bytes), [this, ctx] { advance(ctx); });
      return;
    case IoStage::kReadXferDone:
      release_unit(link_);
      ctx->stage = IoStage::kComplete;
      sim_.schedule_after(scaled(config_.t_fw_read) + dma_gap_time(ctx->req.bytes),
                          [this, ctx] { advance(ctx); });
      return;

    case IoStage::kFlushStart:
      ctx->stage = IoStage::kFlushCoreHeld;
      acquire_unit(cores_, ctx);
      return;
    case IoStage::kFlushCoreHeld:
      ctx->stage = IoStage::kFlushCoreDone;
      sim_.schedule_after(scaled(config_.t_proc_write), [this, ctx] { advance(ctx); });
      return;
    case IoStage::kFlushCoreDone:
      release_unit(cores_);
      maybe_destage(/*force_partial=*/true);
      if (destage_runs_.empty() && inflight_programs_ == 0) {
        io_complete(ctx);
        return;
      }
      ctx->stage = IoStage::kComplete;
      flush_waiters_.push_back([this, ctx] { advance(ctx); });
      return;

    case IoStage::kComplete:
      io_complete(ctx);
      return;
  }
}

void SsdDevice::io_complete(IoContext* ctx) {
  const sim::IoRequest req = ctx->req;
  const TimeNs submit_time = ctx->submit_time;
  sim::IoCallback done = std::move(ctx->done);
  // Recycle before invoking the completion: a callback that submits the next
  // IO (closed-loop workloads) reuses this slot, keeping the pool at QD.
  ctx->next_free = io_ctx_free_;
  io_ctx_free_ = ctx;
  ++io_ctx_free_count_;
  --host_inflight_;
  done(sim::IoCompletion{req, submit_time, sim_.now()});
  maybe_enter_pending_slumber();
}

// Cores and the link draw power while held: a grant or a release that moves
// their busy level updates power, and a grant does so before the stage runs.
void SsdDevice::acquire_unit(sim::ResourcePool& pool, IoContext* ctx) {
  if (!pool.try_acquire()) {
    pool.wait(1, [this, ctx] { advance(ctx); });
    return;
  }
  update_power();
  advance(ctx);
}

void SsdDevice::release_unit(sim::ResourcePool& pool) {
  if (pool.release()) update_power();
}

// Buffer space draws no power of its own: no update on either edge.
void SsdDevice::reserve_buffer(IoContext* ctx) {
  const std::uint64_t bytes = ctx->req.bytes;
  PAS_CHECK_MSG(bytes <= config_.write_buffer_bytes,
                "single write larger than the write buffer");
  if (buffer_.try_acquire(bytes)) {
    advance(ctx);
    return;
  }
  ++stats_.buffer_stall_events;
  buffer_.wait(bytes, [this, ctx] { advance(ctx); });
}

SsdDevice::DestageCtx* SsdDevice::alloc_destage_ctx() {
  DestageCtx* ctx;
  if (destage_ctx_free_ != nullptr) {
    ctx = destage_ctx_free_;
    destage_ctx_free_ = ctx->next_free;
  } else {
    ctx = &destage_ctx_.emplace_back();
  }
  ctx->runs.clear();
  ctx->bytes = 0;
  ctx->next_free = nullptr;
  return ctx;
}

void SsdDevice::enqueue_destage(std::uint64_t first_lpn, std::uint32_t units) {
  destage_runs_.push(first_lpn, units);
  buffered_.add(first_lpn, units);
  last_enqueue_ = sim_.now();
  maybe_destage(/*force_partial=*/false);
  if (!destage_runs_.empty()) arm_destage_timer();
}

void SsdDevice::maybe_destage(bool force_partial) {
  const std::uint32_t stripe = ftl_->units_per_stripe();
  // Batched flushing: wait for a batch worth of buffered data, then drain
  // the fifo completely before pausing (see SsdConfig::destage_batch_bytes).
  if (force_partial) draining_ = true;
  if (!draining_) {
    const std::uint64_t batch_units = config_.destage_batch_bytes / config_.sector_bytes;
    if (destage_runs_.units() < std::max<std::uint64_t>(batch_units, stripe)) return;
    draining_ = true;
  }
  while (destage_runs_.units() >= stripe || (force_partial && !destage_runs_.empty())) {
    const std::uint32_t n =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(stripe, destage_runs_.units()));
    DestageCtx* ctx = alloc_destage_ctx();
    destage_runs_.pop_units(n, ctx->runs);
    ctx->bytes = static_cast<std::uint64_t>(n) * config_.sector_bytes;
    ++inflight_programs_;
    ftl_->write_runs(ctx->runs.data(), ctx->runs.size(), n,
                     [this, ctx] { destage_done(ctx); });
  }
  if (destage_runs_.units() < stripe) draining_ = false;  // batch drained
}

void SsdDevice::destage_done(DestageCtx* ctx) {
  --inflight_programs_;
  for (const Run& r : ctx->runs) buffered_.remove(r.first, r.len);
  const std::uint64_t bytes = ctx->bytes;
  // Recycle before releasing the buffer: granted waiters may run a write
  // stage that destages again and reuses this slot.
  ctx->next_free = destage_ctx_free_;
  destage_ctx_free_ = ctx;
  buffer_.release(bytes);
  check_flush_waiters();
  maybe_enter_pending_slumber();
}

void SsdDevice::arm_destage_timer() {
  if (destage_timer_armed_) return;
  destage_timer_armed_ = true;
  const TimeNs timeout = config_.destage_idle_timeout;
  sim_.schedule_after(timeout, [this, timeout] {
    destage_timer_armed_ = false;
    if (destage_runs_.empty()) return;
    if (sim_.now() - last_enqueue_ >= timeout) {
      maybe_destage(/*force_partial=*/true);
    } else {
      arm_destage_timer();
    }
  });
}

void SsdDevice::check_flush_waiters() {
  if (!destage_runs_.empty() || inflight_programs_ != 0) return;
  auto waiters = std::move(flush_waiters_);
  flush_waiters_.clear();
  for (auto& w : waiters) w();
}

Joules SsdDevice::nand_op_energy(const nand::NandOp& op) const {
  const auto& n = config_.nand;
  const double xfer_s =
      static_cast<double>(op.transfer_bytes) / (n.channel_mib_s * static_cast<double>(MiB));
  switch (op.kind) {
    case nand::OpKind::kRead:
      return n.p_die_read_w * to_seconds(n.t_read) + n.p_channel_xfer_w * xfer_s;
    case nand::OpKind::kProgram:
      return n.p_die_program_w * to_seconds(n.t_program) + n.p_channel_xfer_w * xfer_s;
    case nand::OpKind::kErase:
      return n.p_die_erase_w * to_seconds(n.t_erase);
  }
  return 0.0;
}

void SsdDevice::issue_nand(nand::NandOp op) {
  const Joules cost = nand_op_energy(op);
  // Fast path: an uncapped or credit-rich governor admits synchronously, so
  // the op is never wrapped in a closure (a NandOp exceeds the inline
  // callback buffer — queuing it is the one remaining heap fallback, and it
  // only happens while actually throttled).
  if (governor_.try_admit(cost, op.priority)) {
    nand_.submit(std::move(op));
    return;
  }
  const bool priority = op.priority;
  governor_.enqueue(cost, [this, op = std::move(op)]() mutable { nand_.submit(std::move(op)); },
                    priority);
}

void SsdDevice::wake_then(sim::UniqueCallback work) {
  switch (alpm_) {
    case AlpmState::kActive:
      work();
      return;
    case AlpmState::kSlumber:
      wake_waiters_.push_back(std::move(work));
      begin_alpm_exit();
      return;
    case AlpmState::kEntering:
    case AlpmState::kExiting:
      wake_waiters_.push_back(std::move(work));
      return;
  }
}

void SsdDevice::begin_alpm_entry() {
  PAS_CHECK(alpm_ == AlpmState::kActive);
  alpm_ = AlpmState::kEntering;
  update_power();
  sim_.schedule_after(config_.alpm_entry_time, [this] {
    alpm_ = AlpmState::kSlumber;
    update_power();
    // Stay in slumber unless work arrived mid-entry, or an explicit request
    // was withdrawn (autonomous entries have no request to withdraw).
    if (!wake_waiters_.empty() || (!slumber_requested_ && !auto_slumber_)) begin_alpm_exit();
  });
}

void SsdDevice::begin_alpm_exit() {
  PAS_CHECK(alpm_ == AlpmState::kSlumber);
  alpm_ = AlpmState::kExiting;
  update_power();
  sim_.schedule_after(config_.alpm_exit_time, [this] {
    alpm_ = AlpmState::kActive;
    auto_slumber_ = false;
    update_power();
    auto waiters = std::move(wake_waiters_);
    wake_waiters_.clear();
    for (auto& w : waiters) w();
  });
}

void SsdDevice::maybe_enter_pending_slumber() {
  if (alpm_ != AlpmState::kActive || !wake_waiters_.empty() || !device_idle()) return;
  if (slumber_requested_) {
    begin_alpm_entry();
    return;
  }
  // Autonomous power-state transition: enter low power after a full idle
  // window with no host activity.
  if (config_.auto_idle_timeout > 0 && !idle_timer_armed_) {
    idle_timer_armed_ = true;
    const TimeNs idle_start = sim_.now();
    sim_.schedule_after(config_.auto_idle_timeout, [this, idle_start] {
      idle_timer_armed_ = false;
      if (alpm_ != AlpmState::kActive || !wake_waiters_.empty() || !device_idle()) return;
      if (last_activity_ <= idle_start) {
        auto_slumber_ = true;
        begin_alpm_entry();
      } else {
        // Activity landed inside the window: restart it from now.
        maybe_enter_pending_slumber();
      }
    });
  }
}

bool SsdDevice::device_idle() const {
  return host_inflight_ == 0 && destage_runs_.empty() && inflight_programs_ == 0 &&
         ftl_->quiescent() && nand_.outstanding() == 0;
}

void SsdDevice::update_power() {
  Watts base = 0.0;
  switch (alpm_) {
    case AlpmState::kActive:
      base = config_.p_ctrl_static_w + config_.p_link_idle_w;
      break;
    case AlpmState::kEntering:
    case AlpmState::kExiting:
      base = config_.p_alpm_transition_w;
      break;
    case AlpmState::kSlumber:
      base = config_.p_ctrl_slumber_w + config_.p_link_slumber_w;
      break;
  }
  const Watts dyn = (link_.busy() ? config_.p_link_active_extra_w : 0.0) +
                    static_cast<double>(cores_.used()) * config_.p_cmd_proc_w +
                    nand_.instantaneous_power();
  const Watts loss = config_.vr_loss_w_per_w2 * dyn * dyn;
  meter_.set_power(sim_.now(), base + dyn + loss);
  // Once its queue is empty, an uncapped governor's integrate() only stamps
  // its clock, so it is told nothing until set_power_state() caps it. While
  // set_cap(0) drains a throttled queue, each drained op's power change must
  // re-enter the drain, which submits the remaining ops before the first op
  // schedules its NAND events; that fixes the order of same-instant events.
  if (governor_.capped() || governor_.queued() != 0) {
    governor_.on_power_change(meter_.power() - nand_.instantaneous_power());
  }
}

}  // namespace pas::ssd
