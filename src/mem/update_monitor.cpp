#include "mem/update_monitor.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <thread>

namespace concord::mem {

namespace {
/// Below this many candidate blocks the pool's wake/join overhead beats the
/// hashing it saves, so small scans stay serial.
constexpr std::size_t kParallelMinBlocks = 64;
/// Cap for hash_workers = 0 (auto): scan hashing saturates memory bandwidth
/// long before it saturates a big machine's core count.
constexpr std::size_t kMaxAutoWorkers = 8;
}  // namespace

MemoryUpdateMonitor::MemoryUpdateMonitor(hash::BlockHasher hasher, DetectMode mode,
                                         obs::Registry* registry, std::int32_t node)
    : hasher_(hasher), mode_(mode) {
  obs::Registry& r = obs::given_or_owned(registry, owned_metrics_);
  cells_ = Cells{&r.counter("mem", "blocks_examined", node),
                 &r.counter("mem", "blocks_hashed", node),
                 &r.counter("mem", "bytes_hashed", node),
                 &r.counter("mem", "inserts_emitted", node),
                 &r.counter("mem", "removes_emitted", node),
                 &r.counter("mem", "throttled_blocks", node),
                 &r.counter("mem", "scans", node),
                 &r.histogram("mem", "dirty_ratio_pct", node)};
}

void MemoryUpdateMonitor::attach(MemoryEntity& entity) {
  Tracked t;
  t.entity = &entity;
  t.last_hash.assign(entity.num_blocks(), ContentHash{});
  t.ever_scanned.assign(entity.num_blocks(), false);
  t.pending = Bitmap(entity.num_blocks());
  tracked_.insert_or_assign(entity.id(), std::move(t));
}

void MemoryUpdateMonitor::detach(EntityId id) {
  const auto it = tracked_.find(id);
  if (it == tracked_.end()) return;
  // Drop the entity's ground truth; the DHT side is cleaned up by the
  // daemon, which emits removes when an entity departs.
  Tracked& t = it->second;
  for (BlockIndex b = 0; b < t.last_hash.size(); ++b) {
    if (t.ever_scanned[b]) {
      block_map_.remove(t.last_hash[b], BlockLocation{id, b});
    }
  }
  tracked_.erase(it);
}

ScanStats MemoryUpdateMonitor::snapshot() const {
  ScanStats s;
  s.blocks_examined = cells_.blocks_examined->value();
  s.blocks_hashed = cells_.blocks_hashed->value();
  s.bytes_hashed = cells_.bytes_hashed->value();
  s.inserts_emitted = cells_.inserts_emitted->value();
  s.removes_emitted = cells_.removes_emitted->value();
  s.throttled_blocks = cells_.throttled_blocks->value();
  return s;
}

std::size_t MemoryUpdateMonitor::resolved_workers() const noexcept {
  if (hash_workers_ != 0) return hash_workers_;
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, kMaxAutoWorkers);
}

ScanStats MemoryUpdateMonitor::scan(const EmitFn& emit) {
  const ScanStats before = snapshot();
  std::uint64_t emitted = 0;
  const bool throttled = update_budget_ > 0;
  const std::size_t workers = resolved_workers();

  for (auto& [id, t] : tracked_) {
    MemoryEntity& e = *t.entity;

    // Candidate blocks for this epoch: everything in full-scan mode, the
    // dirty set (plus throttle carry-over) otherwise.
    Bitmap candidates;
    if (mode_ == DetectMode::kFullScan) {
      candidates = Bitmap(e.num_blocks());
      for (std::size_t b = 0; b < e.num_blocks(); ++b) candidates.set(b);
      (void)e.consume_dirty();  // scan mode ignores (and resets) dirty bits
    } else {
      candidates = e.consume_dirty();
      candidates |= t.pending;
    }
    t.pending = Bitmap(e.num_blocks());

    const std::vector<std::uint32_t> idx = candidates.to_indices();

    // Unthrottled, every candidate gets hashed, so hash them all up front
    // through the multi-buffer path: one hash_many() call, or one per pool
    // chunk when the scan is large enough to split across workers. Under a
    // throttle the budget decides which blocks get hashed at all, so those
    // scans hash one block at a time inside the sequential pass below.
    std::vector<ContentHash> prehashed;
    if (!throttled) {
      std::vector<std::span<const std::byte>> blocks(idx.size());
      for (std::size_t i = 0; i < idx.size(); ++i) {
        blocks[i] = e.block(static_cast<BlockIndex>(idx[i]));
      }
      prehashed.resize(idx.size());
      const auto hash_range = [&](std::size_t begin, std::size_t end) {
        hasher_.hash_many(std::span(blocks).subspan(begin, end - begin),
                          std::span(prehashed).subspan(begin, end - begin));
      };
      if (workers > 1 && idx.size() >= kParallelMinBlocks) {
        if (pool_ == nullptr || pool_->workers() != workers) {
          pool_ = std::make_unique<sim::WorkerPool>(workers);
        }
        pool_->run(idx.size(), hash_range);
      } else {
        hash_range(0, idx.size());
      }
    }

    // Sequential pass in ascending block order: every counter increment,
    // ground-truth mutation, and emit happens here, so the observable stream
    // is byte-identical whether the hashes above came from 1 thread or N.
    for (std::size_t i = 0; i < idx.size(); ++i) {
      const auto b = static_cast<BlockIndex>(idx[i]);
      cells_.blocks_examined->inc();

      // Throttle: updates beyond the budget stay pending. In full-scan mode
      // the pending set also carries over so nothing is lost permanently.
      if (throttled && emitted >= update_budget_) {
        cells_.throttled_blocks->inc();
        t.pending.set(idx[i]);
        continue;
      }

      const ContentHash h = throttled ? hasher_(e.block(b)) : prehashed[i];
      cells_.blocks_hashed->inc();
      cells_.bytes_hashed->inc(e.block_size());

      const ContentHash old = t.last_hash[b];
      const bool was_scanned = t.ever_scanned[b];
      if (was_scanned && old == h) continue;  // unchanged

      if (was_scanned) {
        block_map_.remove(old, BlockLocation{id, b});
        emit(ContentUpdate{ContentUpdate::Op::kRemove, old, id});
        cells_.removes_emitted->inc();
        ++emitted;
      }
      block_map_.add(h, BlockLocation{id, b});
      t.last_hash[b] = h;
      t.ever_scanned[b] = true;
      emit(ContentUpdate{ContentUpdate::Op::kInsert, h, id});
      cells_.inserts_emitted->inc();
      ++emitted;
    }
  }

  const ScanStats after = snapshot();
  ScanStats delta;
  delta.blocks_examined = after.blocks_examined - before.blocks_examined;
  delta.blocks_hashed = after.blocks_hashed - before.blocks_hashed;
  delta.bytes_hashed = after.bytes_hashed - before.bytes_hashed;
  delta.inserts_emitted = after.inserts_emitted - before.inserts_emitted;
  delta.removes_emitted = after.removes_emitted - before.removes_emitted;
  delta.throttled_blocks = after.throttled_blocks - before.throttled_blocks;

  cells_.scans->inc();
  if (delta.blocks_examined > 0) {
    cells_.dirty_ratio_pct->record(delta.blocks_hashed * 100 / delta.blocks_examined);
  }
  return delta;
}

const std::vector<ContentHash>* MemoryUpdateMonitor::known_hashes(EntityId id) const {
  const auto it = tracked_.find(id);
  return it == tracked_.end() ? nullptr : &it->second.last_hash;
}

const MemoryUpdateMonitor::Tracked* MemoryUpdateMonitor::tracked(
    const MemoryEntity& entity) const {
  const auto it = tracked_.find(entity.id());
  return it == tracked_.end() || it->second.entity != &entity ? nullptr : &it->second;
}

void MemoryUpdateMonitor::current_hashes(const MemoryEntity& entity,
                                         std::vector<ContentHash>& out) const {
  const Tracked* t = tracked(entity);
  if (t == nullptr) {
    out.resize(entity.num_blocks());
    hasher_.hash_many(entity.blocks(), out);
    return;
  }
  out = t->last_hash;
  std::vector<BlockIndex> idx;
  std::vector<std::span<const std::byte>> blocks;
  for (BlockIndex b = 0; b < out.size(); ++b) {
    if (!stale(*t, b)) continue;
    idx.push_back(b);
    blocks.push_back(entity.block(b));
  }
  std::vector<ContentHash> fresh(idx.size());
  hasher_.hash_many(blocks, fresh);
  for (std::size_t i = 0; i < idx.size(); ++i) out[idx[i]] = fresh[i];
}

ContentHash MemoryUpdateMonitor::current_hash(const MemoryEntity& entity, BlockIndex b) const {
  const Tracked* t = tracked(entity);
  return t == nullptr || stale(*t, b) ? hasher_(entity.block(b)) : t->last_hash[b];
}

}  // namespace concord::mem
