#include "nand/array.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace pas::nand {

NandArray::NandArray(sim::Simulator& sim, const NandConfig& config, std::uint64_t seed)
    : sim_(sim), config_(config), rng_(seed) {
  PAS_CHECK(config_.channels > 0);
  PAS_CHECK(config_.dies_per_channel > 0);
  PAS_CHECK(config_.channel_mib_s > 0.0);
  // Sized once: a die holds a RingQueue of move-only ops and a channel is a
  // one-unit pool; neither is added or relocated after construction.
  dies_ = std::vector<Die>(static_cast<std::size_t>(config_.total_dies()));
  channels_.reserve(static_cast<std::size_t>(config_.channels));
  for (int ch = 0; ch < config_.channels; ++ch) channels_.emplace_back(1);
}

Watts NandArray::jittered(Watts nominal) {
  if (config_.p_die_sigma <= 0.0) return nominal;
  const double factor =
      std::clamp(1.0 + rng_.next_gaussian(0.0, config_.p_die_sigma), 0.5, 1.5);
  return nominal * factor;
}

TimeNs NandArray::transfer_time(std::uint32_t bytes) const {
  if (bytes == 0) return 0;
  const double secs = static_cast<double>(bytes) / (config_.channel_mib_s * static_cast<double>(MiB));
  return std::max<TimeNs>(1, seconds(secs));
}

void NandArray::submit(NandOp op) {
  PAS_CHECK(op.die >= 0 && op.die < config_.total_dies());
  PAS_CHECK(op.done != nullptr);
  if (op.kind == OpKind::kErase) {
    PAS_CHECK(op.transfer_bytes == 0);
  } else {
    PAS_CHECK(op.transfer_bytes > 0);
    PAS_CHECK(op.transfer_bytes <= config_.stripe_bytes());
  }
  ++outstanding_;
  auto& die = dies_[static_cast<std::size_t>(op.die)];
  const int die_idx = op.die;
  if (op.priority && die.busy) {
    // Behind the in-flight op (front) but ahead of everything queued.
    die.queue.insert_second(std::move(op));
  } else {
    die.queue.push_back(std::move(op));
  }
  if (!die.busy) start_next(die_idx);
}

void NandArray::start_next(int die_idx) {
  auto& die = dies_[static_cast<std::size_t>(die_idx)];
  PAS_CHECK(!die.busy);
  if (die.queue.empty()) return;
  die.busy = true;
  ++busy_dies_;
  run_op(die_idx);
}

void NandArray::run_op(int die_idx) {
  auto& die = dies_[static_cast<std::size_t>(die_idx)];
  const NandOp& op = die.queue.front();
  const int ch = channel_of(die_idx);

  auto finish = [this, die_idx] {
    auto& d = dies_[static_cast<std::size_t>(die_idx)];
    NandOp done_op = std::move(d.queue.front());
    d.queue.pop_front();
    d.busy = false;
    --busy_dies_;
    ++completed_ops_;
    --outstanding_;
    set_die_draw(die_idx, 0.0);
    // Complete the op before starting the next so completion-driven
    // submissions interleave fairly.
    done_op.done();
    if (!d.busy) start_next(die_idx);
  };

  switch (op.kind) {
    case OpKind::kRead: {
      set_die_draw(die_idx, jittered(config_.p_die_read_w));
      sim_.schedule_after(config_.t_read, [this, die_idx, ch, finish] {
        set_die_draw(die_idx, 0.0);  // sense done; wait for the channel
        acquire_channel(ch, [this, die_idx, ch, finish] {
          const auto& cur = dies_[static_cast<std::size_t>(die_idx)].queue.front();
          transferred_bytes_ += cur.transfer_bytes;
          sim_.schedule_after(transfer_time(cur.transfer_bytes), [this, ch, finish] {
            release_channel(ch);
            finish();
          });
        });
      });
      break;
    }
    case OpKind::kProgram: {
      acquire_channel(ch, [this, die_idx, ch, finish] {
        const auto& cur = dies_[static_cast<std::size_t>(die_idx)].queue.front();
        transferred_bytes_ += cur.transfer_bytes;
        sim_.schedule_after(transfer_time(cur.transfer_bytes), [this, die_idx, ch, finish] {
          release_channel(ch);
          set_die_draw(die_idx, jittered(config_.p_die_program_w));
          sim_.schedule_after(config_.t_program, [this, die_idx, finish] {
            set_die_draw(die_idx, 0.0);
            finish();
          });
        });
      });
      break;
    }
    case OpKind::kErase: {
      set_die_draw(die_idx, jittered(config_.p_die_erase_w));
      sim_.schedule_after(config_.t_erase, [this, die_idx, finish] {
        set_die_draw(die_idx, 0.0);
        finish();
      });
      break;
    }
  }
}

void NandArray::set_die_draw(int die_idx, Watts w) {
  auto& die = dies_[static_cast<std::size_t>(die_idx)];
  if (die.draw == w) return;
  power_ += w - die.draw;
  die.draw = w;
  recompute_power();
}

void NandArray::acquire_channel(int ch, sim::UniqueCallback go) {
  auto& channel = channels_[static_cast<std::size_t>(ch)];
  if (!channel.try_acquire()) {
    channel.wait(1, std::move(go));
    return;
  }
  ++busy_channels_;
  power_ += config_.p_channel_xfer_w;
  recompute_power();
  go();
}

void NandArray::release_channel(int ch) {
  // A handover keeps the channel busy (power unchanged) for the next transfer.
  if (!channels_[static_cast<std::size_t>(ch)].release()) return;
  --busy_channels_;
  power_ -= config_.p_channel_xfer_w;
  recompute_power();
}

void NandArray::recompute_power() {
  if (power_ < 1e-12) power_ = 0.0;  // absorb float residue
  if (on_power_change_) on_power_change_();
}

}  // namespace pas::nand
