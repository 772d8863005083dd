#include "ssd/ftl.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"

namespace pas::ssd {
namespace {

// Host allocation refuses to dip below this many free superblocks so GC can
// always make forward progress.
constexpr std::size_t kHostReserveBlocks = 2;

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

Ftl::Ftl(const SsdConfig& config, IssueNand issue, Defer defer, Rng rng)
    : config_(config), issue_(std::move(issue)), defer_(std::move(defer)), rng_(rng) {
  PAS_CHECK(issue_ != nullptr);
  PAS_CHECK(defer_ != nullptr);
  const auto& n = config_.nand;
  units_per_page_ = n.page_bytes / config_.sector_bytes;
  PAS_CHECK(units_per_page_ >= 1);
  units_per_stripe_ = n.stripe_bytes() / config_.sector_bytes;
  units_per_block_ = static_cast<std::uint32_t>(n.block_bytes() / config_.sector_bytes);
  dies_ = n.total_dies();
  blocks_per_die_ = static_cast<std::uint32_t>(config_.physical_bytes() /
                                               static_cast<std::uint64_t>(dies_) /
                                               n.block_bytes());
  PAS_CHECK_MSG(blocks_per_die_ >= 4, "physical capacity too small for this geometry");
  total_lpns_ = config_.capacity_bytes / config_.sector_bytes;

  const std::uint64_t total_blocks = static_cast<std::uint64_t>(dies_) * blocks_per_die_;
  const std::uint64_t total_punits = total_blocks * units_per_block_;
  PAS_CHECK_MSG(total_punits < kUnmapped, "physical space exceeds 32-bit ppn encoding");
  PAS_CHECK_MSG(total_punits >= total_lpns_ + kHostReserveBlocks * units_per_block_,
                "overprovisioning too small");

  // The tables themselves (map, rmap and valid bits: ~36 MB for a 16 GiB
  // drive) are NOT built here; see ensure_tables(). A monitored fleet
  // constructs hundreds of drives that may never see one IO.
  words_per_block_ = (units_per_block_ + 63) / 64;
  total_free_blocks_ = total_blocks;
}

void Ftl::ensure_tables() {
  if (tables_ready_) return;
  tables_ready_ = true;
  const std::uint64_t total_blocks = static_cast<std::uint64_t>(dies_) * blocks_per_die_;
  // All-zero is the empty state: every lpn unmapped (see ppn_of), every valid
  // bit clear, and rmap_ is read only under a set bit. Only the pages the
  // simulation writes become resident.
  map_ = make_zeroed_table<std::uint32_t>(total_lpns_);
  rmap_ = make_zeroed_table<std::uint32_t>(total_blocks * units_per_block_);
  valid_bits_ = make_zeroed_table<std::uint64_t>(total_blocks * words_per_block_);
  blocks_.resize(total_blocks);
  free_lists_.resize(static_cast<std::size_t>(dies_));
  for (int d = 0; d < dies_; ++d) {
    for (std::uint32_t i = 0; i < blocks_per_die_; ++i) {
      free_lists_[static_cast<std::size_t>(d)].push_back(
          static_cast<std::uint32_t>(d) * blocks_per_die_ + i);
    }
  }
}

bool Ftl::is_mapped(std::uint64_t lpn) const {
  PAS_CHECK(lpn < total_lpns_);
  return tables_ready_ && ppn_of(lpn) != kUnmapped;
}

void Ftl::add_valid(std::uint32_t blk_idx, std::uint32_t n) {
  auto& blk = blocks_[blk_idx];
  PAS_DCHECK(blk.valid + n <= units_per_block_);
  blk.valid += n;
}

void Ftl::set_valid(std::uint32_t ppn, std::uint64_t lpn) {
  const std::uint32_t blk_idx = block_of(ppn);
  const std::uint32_t unit = ppn % units_per_block_;
  PAS_DCHECK(!test_valid(blk_idx, unit));
  valid_bits_[valid_word(blk_idx, unit)] |= (1ULL << (unit % 64));
  rmap_[ppn] = static_cast<std::uint32_t>(lpn);
}

void Ftl::clear_valid(std::uint32_t ppn) {
  const std::uint32_t blk_idx = block_of(ppn);
  auto& blk = blocks_[blk_idx];
  const std::uint32_t unit = ppn % units_per_block_;
  PAS_DCHECK(test_valid(blk_idx, unit));
  valid_bits_[valid_word(blk_idx, unit)] &= ~(1ULL << (unit % 64));
  PAS_CHECK(blk.valid > 0);
  if (--blk.valid == 0) note_possibly_dead(blk_idx);
}

bool Ftl::test_valid(std::uint32_t blk_idx, std::uint32_t unit) const {
  return (valid_bits_[valid_word(blk_idx, unit)] >> (unit % 64)) & 1ULL;
}

bool Ftl::open_block_on_die(int die, WriteStream& stream, bool for_gc) {
  const std::size_t reserve = for_gc ? 0 : kHostReserveBlocks;
  if (total_free_blocks_ <= reserve) return false;
  auto& fl = free_lists_[static_cast<std::size_t>(die)];
  if (fl.empty()) return false;
  const std::uint32_t blk_idx = fl.front();
  fl.pop_front();
  --total_free_blocks_;
  auto& blk = blocks_[blk_idx];
  PAS_CHECK(blk.state == Block::State::kFree);
  PAS_CHECK(blk.valid == 0);
  blk.state = Block::State::kOpen;
  blk.next_unit = 0;
  stream.open_block[static_cast<std::size_t>(die)] = blk_idx;
  return true;
}

std::uint32_t Ftl::allocate_stripe(WriteStream& stream, bool for_gc) {
  if (stream.open_block.empty()) stream.open_block.assign(static_cast<std::size_t>(dies_), kUnmapped);
  for (int probe = 0; probe < dies_; ++probe) {
    const int die = (stream.rr + probe) % dies_;
    std::uint32_t blk_idx = stream.open_block[static_cast<std::size_t>(die)];
    if (blk_idx == kUnmapped || blocks_[blk_idx].state != Block::State::kOpen) {
      if (!open_block_on_die(die, stream, for_gc)) continue;  // die (or pool) exhausted
      blk_idx = stream.open_block[static_cast<std::size_t>(die)];
    }
    auto& blk = blocks_[blk_idx];
    const std::uint32_t ppn = blk_idx * units_per_block_ + blk.next_unit;
    blk.next_unit += units_per_stripe_;
    if (blk.next_unit >= units_per_block_) {
      // No dead-block check here: the caller counts the sealing stripe in
      // after this returns (add_valid), so a zero count does not mean dead.
      blk.state = Block::State::kSealed;
    }
    stream.rr = (die + 1) % dies_;
    return ppn;
  }
  return kUnmapped;
}

void Ftl::write_runs(const Run* runs, std::size_t nruns, std::uint32_t units,
                     sim::UniqueCallback done) {
  PAS_CHECK(nruns > 0);
  PAS_CHECK(units > 0 && units <= units_per_stripe_);
  PAS_CHECK(done != nullptr);
  ensure_tables();
  // Preserve FIFO order with any writes already stalled on free space.
  if (!stalled_writes_.empty() || !try_write_runs(runs, nruns, units, done)) {
    StalledWrite s;
    if (!stalled_spare_.empty()) {
      s = std::move(stalled_spare_.back());
      stalled_spare_.pop_back();
    }
    s.runs.assign(runs, runs + nruns);
    s.units = units;
    s.done = std::move(done);
    stalled_writes_.push_back(std::move(s));
    gc_pump();
  }
}

bool Ftl::try_write_runs(const Run* runs, std::size_t nruns, std::uint32_t units,
                         sim::UniqueCallback& done) {
  gc_pump();
  const std::uint32_t ppn_start = allocate_stripe(host_stream_, /*for_gc=*/false);
  if (ppn_start == kUnmapped) return false;
  add_valid(block_of(ppn_start), units);

  std::uint32_t i = 0;
  for (std::size_t r = 0; r < nruns; ++r) {
    for (std::uint32_t k = 0; k < runs[r].len; ++k, ++i) {
      const std::uint64_t lpn = runs[r].first + k;
      PAS_CHECK(lpn < total_lpns_);
      const std::uint32_t old = ppn_of(lpn);
      if (old != kUnmapped) clear_valid(old);
      const auto ppn = ppn_start + i;
      set_ppn(lpn, ppn);
      set_valid(ppn, lpn);
    }
  }
  PAS_CHECK(i == units);
  stats_.host_units_written += units;
  ++stats_.nand_programs;

  nand::NandOp op;
  op.kind = nand::OpKind::kProgram;
  op.die = die_of_block(block_of(ppn_start));
  op.transfer_bytes = units * config_.sector_bytes;
  op.done = std::move(done);
  issue_(std::move(op));
  return true;
}

std::uint32_t Ftl::fanin_create(std::size_t count, sim::UniqueCallback done) {
  std::uint32_t idx;
  if (fanin_free_ != kUnmapped) {
    idx = fanin_free_;
    fanin_free_ = fanins_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(fanins_.size());
    fanins_.emplace_back();
  }
  auto& f = fanins_[idx];
  f.remaining = count;
  f.done = std::move(done);
  return idx;
}

void Ftl::fanin_complete(std::uint32_t idx) {
  auto& f = fanins_[idx];
  PAS_CHECK(f.remaining > 0);
  if (--f.remaining > 0) return;
  // Free the slot before running the continuation: the cascade may start a
  // new batch that reuses it.
  sim::UniqueCallback done = std::move(f.done);
  f.next_free = fanin_free_;
  fanin_free_ = idx;
  done();
}

// Adds one unit to pages_scratch_, coalescing with an existing entry for the
// same page. Kept in insertion order: NAND ops must issue in a portable,
// deterministic order (hash-map iteration order is stdlib-specific, and
// issue order decides both the per-op power-jitter RNG pairing and
// same-timestamp event sequence). Linear scan: a host read is at most a few
// dozen pages, and callers with sorted ppns hit the check-last fast path.
void Ftl::add_page_unit(std::uint64_t key, int die) {
  if (!pages_scratch_.empty() && pages_scratch_.back().key == key) {
    pages_scratch_.back().units += 1;
    return;
  }
  for (auto& p : pages_scratch_) {
    if (p.key == key) {
      p.units += 1;
      return;
    }
  }
  pages_scratch_.push_back(PageRef{key, die, 1});
}

// Coalesces one mapping unit into pages_scratch_; unmapped units optionally
// read from a pseudo location (preconditioned-drive behaviour).
void Ftl::add_read_unit(std::uint64_t lpn) {
  PAS_CHECK(lpn < total_lpns_);
  const std::uint32_t ppn = ppn_of(lpn);
  if (ppn != kUnmapped) {
    add_page_unit(page_of(ppn), die_of_block(block_of(ppn)));
  } else if (config_.unmapped_read_hits_media) {
    const std::uint64_t pseudo_page = mix64(lpn / units_per_page_);
    // Tag pseudo pages so they never collide with real page keys.
    add_page_unit((1ULL << 63) | pseudo_page,
                  static_cast<int>(pseudo_page % static_cast<std::uint64_t>(dies_)));
  }
}

void Ftl::issue_page_reads(sim::UniqueCallback done) {
  if (pages_scratch_.empty()) {
    done();
    return;
  }
  // Single-page batches (the common host case) skip the fan-in counter and
  // carry the continuation in the op itself.
  const std::uint32_t fanin = pages_scratch_.size() > 1
                                  ? fanin_create(pages_scratch_.size(), std::move(done))
                                  : kUnmapped;
  for (const auto& p : pages_scratch_) {
    ++stats_.nand_page_reads;
    nand::NandOp op;
    op.kind = nand::OpKind::kRead;
    op.die = p.die;
    op.transfer_bytes = p.units * config_.sector_bytes;
    if (fanin == kUnmapped) {
      op.done = std::move(done);
    } else {
      op.done = [this, fanin] { fanin_complete(fanin); };
    }
    issue_(std::move(op));
  }
}

void Ftl::read_runs(const Run* runs, std::size_t nruns, sim::UniqueCallback done) {
  PAS_CHECK(nruns > 0);
  PAS_CHECK(done != nullptr);
  ensure_tables();
  pages_scratch_.clear();
  for (std::size_t r = 0; r < nruns; ++r) {
    for (std::uint32_t k = 0; k < runs[r].len; ++k) add_read_unit(runs[r].first + k);
  }
  issue_page_reads(std::move(done));
}

void Ftl::note_possibly_dead(std::uint32_t blk_idx) {
  auto& blk = blocks_[blk_idx];
  if (blk.state != Block::State::kSealed || blk.valid != 0 || blk.queued_dead) return;
  blk.queued_dead = true;
  dead_blocks_.push_back(blk_idx);
  consecutive_defers_ = 0;  // fresh reclaim supply: lazy GC can keep waiting
}

void Ftl::gc_pump() {
  // Erase pipeline: reclaim fully-invalid blocks up to the high watermark.
  constexpr int kMaxConcurrentErases = 4;
  while (erases_in_flight_ < kMaxConcurrentErases && !dead_blocks_.empty() &&
         static_cast<int>(total_free_blocks_) + erases_in_flight_ <
             config_.gc_high_watermark_blocks) {
    const std::uint32_t blk = dead_blocks_.front();
    dead_blocks_.pop_front();
    issue_erase(blk);
  }
  // Move path: only when space is low and the erase pipeline has nothing.
  constexpr int kMaxConcurrentMoves = 4;
  if (static_cast<int>(total_free_blocks_) >= config_.gc_low_watermark_blocks) return;
  if (erases_in_flight_ > 0 || !dead_blocks_.empty()) return;
  if (moves_in_flight_ >= kMaxConcurrentMoves) return;
  const bool desperate = total_free_blocks_ <= kHostReserveBlocks + 1;
  if (!desperate && consecutive_defers_ < 50) {
    // Lazy GC: every candidate victim still holds valid data and space is
    // not critical. The host is typically mid-way through invalidating the
    // best victim (sequential sweeps and hot ranges kill blocks within
    // milliseconds), so a short wait usually yields a free erase instead of
    // an expensive move — the classic fix for over-eager greedy collection.
    // Bounded, so a quiet drive still makes forward progress.
    if (gc_defer_armed_) return;
    gc_defer_armed_ = true;
    ++consecutive_defers_;
    defer_(milliseconds(2), [this] {
      gc_defer_armed_ = false;
      gc_pump();
    });
    return;
  }
  consecutive_defers_ = 0;
  while (moves_in_flight_ < kMaxConcurrentMoves) {
    const int before = moves_in_flight_;
    start_move();
    if (moves_in_flight_ == before) break;  // no further victim available
  }
}

void Ftl::issue_erase(std::uint32_t blk_idx) {
  auto& blk = blocks_[blk_idx];
  PAS_CHECK(blk.state == Block::State::kSealed);
  PAS_CHECK(blk.valid == 0);
  ++erases_in_flight_;
  nand::NandOp op;
  op.kind = nand::OpKind::kErase;
  op.die = die_of_block(blk_idx);
  op.transfer_bytes = 0;
  op.priority = true;
  op.done = [this, blk_idx] {
    --erases_in_flight_;
    auto& b = blocks_[blk_idx];
    b.state = Block::State::kFree;
    b.queued_dead = false;
    b.moving = false;
    b.next_unit = 0;
    ++stats_.erases;
    free_lists_[static_cast<std::size_t>(die_of_block(blk_idx))].push_back(blk_idx);
    ++total_free_blocks_;
    drain_stalled();
    gc_pump();
  };
  issue_(std::move(op));
}

std::uint32_t Ftl::pick_victim() const {
  // O(blocks), but a drive has at most ~1 k superblocks and GC picks a victim
  // only a few thousand times per run; every unit invalidation stays a bit
  // and a count.
  std::uint32_t victim = kNoVictim;
  std::uint32_t best_valid = 0xFFFFFFFFu;
  for (std::uint32_t i = 0; i < blocks_.size(); ++i) {
    const auto& blk = blocks_[i];
    if (blk.state != Block::State::kSealed || blk.queued_dead || blk.moving) continue;
    if (blk.valid < best_valid) {
      best_valid = blk.valid;
      victim = i;
    }
  }
  return victim;
}

void Ftl::start_move() {
  const std::uint32_t victim = pick_victim();
  if (victim == kNoVictim) return;  // nothing sealed: wait for seals
  const std::uint32_t best_valid = blocks_[victim].valid;
  // Moving must gain at least one stripe of net free space, or GC would
  // churn data forever on a logically-full drive without freeing anything.
  if (best_valid + units_per_stripe_ > units_per_block_) return;
  ++stats_.gc_runs;
  ++moves_in_flight_;
  auto& blk = blocks_[victim];
  blk.moving = true;
  PAS_CHECK(blk.valid > 0);  // dead blocks go through the erase pipeline
  // Snapshot the valid units, then read the pages that hold them. The unit
  // scan walks ppns in ascending order, so page coalescing always hits the
  // check-last fast path and the page list comes out insertion-ordered
  // (ascending page), not hash-iteration-ordered.
  std::vector<MovePair> pairs;
  pairs.reserve(blk.valid);
  pages_scratch_.clear();
  for (std::uint32_t unit = 0; unit < units_per_block_; ++unit) {
    if (!test_valid(victim, unit)) continue;
    const std::uint32_t ppn = victim * units_per_block_ + unit;
    pairs.emplace_back(rmap_[ppn], ppn);
    add_page_unit(page_of(ppn), die_of_block(victim));
  }
  const std::uint32_t fanin =
      fanin_create(pages_scratch_.size(), [this, pairs = std::move(pairs), victim]() mutable {
        gc_move_batch(std::move(pairs), victim, nullptr);
      });
  for (const auto& p : pages_scratch_) {
    ++stats_.nand_page_reads;
    nand::NandOp op;
    op.kind = nand::OpKind::kRead;
    op.die = p.die;
    op.transfer_bytes = p.units * config_.sector_bytes;
    op.priority = true;  // reclaim must not starve behind host traffic
    op.done = [this, fanin] { fanin_complete(fanin); };
    issue_(std::move(op));
  }
}

void Ftl::gc_move_batch(std::vector<MovePair> pairs, std::uint32_t victim_blk,
                        std::shared_ptr<int> programs_left) {
  if (programs_left == nullptr) programs_left = std::make_shared<int>(1);  // batch guard
  auto finish_move = [this, victim_blk] {
    blocks_[victim_blk].moving = false;
    --moves_in_flight_;
    note_possibly_dead(victim_blk);
    gc_pump();
  };
  std::size_t i = 0;
  std::vector<MovePair> chunk;
  chunk.reserve(units_per_stripe_);
  while (i < pairs.size()) {
    // Assemble one stripe of still-valid units; drop units the host
    // overwrote while the GC read was in flight.
    chunk.clear();
    while (i < pairs.size() && chunk.size() < units_per_stripe_) {
      const auto& [lpn, old_ppn] = pairs[i];
      ++i;
      if (ppn_of(lpn) == old_ppn) chunk.push_back({lpn, old_ppn});
    }
    if (chunk.empty()) continue;
    const std::uint32_t ppn_start = allocate_stripe(gc_stream_, /*for_gc=*/true);
    if (ppn_start == kUnmapped) {
      // Concurrent reclaim transiently exhausted the pool: retry the rest of
      // this batch once in-flight erases release blocks. The batch guard on
      // `programs_left` keeps the move alive across the retry.
      std::vector<MovePair> rest;
      rest.reserve(chunk.size() + (pairs.size() - i));
      rest.insert(rest.end(), chunk.begin(), chunk.end());
      rest.insert(rest.end(), pairs.begin() + static_cast<std::ptrdiff_t>(i), pairs.end());
      defer_(milliseconds(2), [this, rest = std::move(rest), victim_blk, programs_left]() mutable {
        gc_move_batch(std::move(rest), victim_blk, programs_left);
      });
      return;
    }
    add_valid(block_of(ppn_start), static_cast<std::uint32_t>(chunk.size()));
    for (std::size_t k = 0; k < chunk.size(); ++k) {
      const auto [lpn, old_ppn] = chunk[k];
      clear_valid(old_ppn);
      const auto ppn = ppn_start + static_cast<std::uint32_t>(k);
      set_ppn(lpn, ppn);
      set_valid(ppn, lpn);
    }
    stats_.gc_units_moved += chunk.size();
    ++stats_.nand_programs;
    ++*programs_left;
    nand::NandOp op;
    op.kind = nand::OpKind::kProgram;
    op.die = die_of_block(block_of(ppn_start));
    op.transfer_bytes = static_cast<std::uint32_t>(chunk.size()) * config_.sector_bytes;
    op.priority = true;
    op.done = [programs_left, finish_move] {
      if (--*programs_left == 0) finish_move();
    };
    issue_(std::move(op));
  }
  // Release the batch guard; if no programs remain (or none were needed —
  // everything was overwritten while the reads ran), the move is done.
  if (--*programs_left == 0) finish_move();
}

void Ftl::drain_stalled() {
  while (!stalled_writes_.empty()) {
    auto& s = stalled_writes_.front();
    if (!try_write_runs(s.runs.data(), s.runs.size(), s.units, s.done)) return;
    stalled_spare_.push_back(std::move(s));  // recycle the run-vector capacity
    stalled_writes_.pop_front();
  }
}

void Ftl::precondition_sequential() {
  ensure_tables();
  for (std::uint64_t lpn = 0; lpn < total_lpns_; lpn += units_per_stripe_) {
    const std::uint32_t ppn_start = allocate_stripe(host_stream_, /*for_gc=*/false);
    PAS_CHECK(ppn_start != kUnmapped);
    const std::uint64_t n = std::min<std::uint64_t>(units_per_stripe_, total_lpns_ - lpn);
    add_valid(block_of(ppn_start), static_cast<std::uint32_t>(n));
    for (std::uint64_t k = 0; k < n; ++k) {
      const std::uint64_t l = lpn + k;
      const std::uint32_t old = ppn_of(l);
      if (old != kUnmapped) clear_valid(old);
      const auto ppn = ppn_start + static_cast<std::uint32_t>(k);
      set_ppn(l, ppn);
      set_valid(ppn, l);
    }
  }
}

}  // namespace pas::ssd
