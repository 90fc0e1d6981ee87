// MemoryUpdateMonitor: "the heartbeat of ConCORD" (§3.1).
//
// One monitor runs per node. Each scan epoch it identifies blocks whose
// content changed since the previous epoch, hashes them, updates the node's
// ground-truth LocalBlockMap, and emits best-effort (insert/remove) updates
// destined for the distributed content-tracing engine.
//
// Detection modes mirror the paper:
//   * kFullScan  — step through all memory of every tracked entity and
//                  rehash it (the mode used for the paper's evaluation);
//   * kDirtyBit  — consume the entity's dirty set (models the nested-page-
//                  table dirty-bit technique);
//   * kCopyOnWrite — same dirty set, but blocks are treated as write-
//                  protected between scans (models the CoW fault technique;
//                  identical update stream, different real-system cost).
//
// The monitor can be throttled to a maximum number of updates per scan;
// blocks that exceed the budget stay pending, trading DHT freshness for
// node/network load exactly as described in §3.1.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "hash/block_hasher.hpp"
#include "mem/local_block_map.hpp"
#include "mem/memory_entity.hpp"
#include "obs/metrics.hpp"
#include "sim/worker_pool.hpp"

namespace concord::mem {

enum class DetectMode : std::uint8_t { kFullScan, kDirtyBit, kCopyOnWrite };

/// One best-effort update for the distributed database.
struct ContentUpdate {
  enum class Op : std::uint8_t { kInsert, kRemove } op;
  ContentHash hash;
  EntityId entity;
};

/// Per-scan delta view. The running totals live in the metrics registry
/// (subsystem "mem"); scan() returns the difference between its entry and
/// exit snapshots, so callers keep per-epoch numbers while the registry
/// accumulates per-node lifetime series.
struct ScanStats {
  std::uint64_t blocks_examined = 0;
  std::uint64_t blocks_hashed = 0;
  std::uint64_t bytes_hashed = 0;
  std::uint64_t inserts_emitted = 0;
  std::uint64_t removes_emitted = 0;
  std::uint64_t throttled_blocks = 0;  // left pending for the next epoch
};

class MemoryUpdateMonitor {
 public:
  using EmitFn = std::function<void(const ContentUpdate&)>;

  /// Scan accounting lands in `registry` (subsystem "mem", labeled with
  /// `node`): block/byte/update counters plus a per-scan dirty-ratio
  /// histogram. Null means a private registry.
  explicit MemoryUpdateMonitor(hash::BlockHasher hasher = hash::BlockHasher{},
                               DetectMode mode = DetectMode::kFullScan,
                               obs::Registry* registry = nullptr,
                               std::int32_t node = obs::Registry::kSiteWide);

  void attach(MemoryEntity& entity);
  void detach(EntityId id);

  /// 0 = unthrottled. Otherwise at most this many (insert+remove) updates
  /// are emitted per scan; remaining dirty blocks carry over.
  void set_update_budget(std::uint64_t updates_per_scan) noexcept {
    update_budget_ = updates_per_scan;
  }

  /// Host threads hashing candidate blocks inside scan(): 1 = serial
  /// (default), 0 = one per hardware core (capped at 8). An unthrottled scan
  /// hashes all its candidates up front with BlockHasher::hash_many (4, 8
  /// or 16 blocks per lockstep pass), one call per worker chunk. Parallel hashing is a pure
  /// real-time optimization: updates are still emitted in block-index order
  /// and every counter is charged in the same deterministic sequential pass,
  /// so no snapshot byte depends on this setting. Throttled scans
  /// (update_budget > 0) hash one block at a time, serially — the budget
  /// decides *which* blocks get hashed, a sequential dependence.
  void set_hash_workers(std::size_t workers) noexcept {
    hash_workers_ = workers;
    pool_.reset();  // rebuilt lazily at the next parallel scan
  }

  [[nodiscard]] DetectMode mode() const noexcept { return mode_; }
  [[nodiscard]] const hash::BlockHasher& hasher() const noexcept { return hasher_; }

  /// Runs one scan epoch over all attached entities. Every change produces a
  /// remove(old hash) and insert(new hash) pair through `emit`; the local
  /// block map is updated unconditionally (ground truth is never throttled).
  ScanStats scan(const EmitFn& emit);

  /// The node's ground-truth content index (§3.2).
  [[nodiscard]] const LocalBlockMap& block_map() const noexcept { return block_map_; }

  /// Last scanned hash per block of entity `id` (zero hash = never scanned):
  /// the hashes this node has published, which is what a departure removes.
  /// A block written since the scan keeps its old hash here; current_hashes()
  /// reads the entity as it is now.
  [[nodiscard]] const std::vector<ContentHash>* known_hashes(EntityId id) const;

  /// The hash of every block of `entity` as its bytes are now, into `out`:
  /// bit for bit what BlockHasher::hash_many over entity.blocks() returns.
  /// Each block's last scanned hash is exact unless the block is stale (see
  /// stale()), so only stale blocks are rehashed, in one hash_many call. An
  /// entity this monitor does not track is hashed whole.
  void current_hashes(const MemoryEntity& entity, std::vector<ContentHash>& out) const;

  /// current_hashes() for the one block `b`.
  [[nodiscard]] ContentHash current_hash(const MemoryEntity& entity, BlockIndex b) const;

  [[nodiscard]] std::size_t tracked_entities() const noexcept { return tracked_.size(); }

 private:
  struct Tracked {
    MemoryEntity* entity;                 // non-owning; NSM outlives monitor use
    std::vector<ContentHash> last_hash;   // per block; zero hash = never scanned
    std::vector<bool> ever_scanned;
    Bitmap pending;                       // throttled carry-over
  };

  /// Pre-resolved registry cells (one add each on the scan path).
  struct Cells {
    obs::Counter* blocks_examined = nullptr;
    obs::Counter* blocks_hashed = nullptr;
    obs::Counter* bytes_hashed = nullptr;
    obs::Counter* inserts_emitted = nullptr;
    obs::Counter* removes_emitted = nullptr;
    obs::Counter* throttled_blocks = nullptr;
    obs::Counter* scans = nullptr;
    obs::Histogram* dirty_ratio_pct = nullptr;  // hashed/examined per scan
  };

  /// `entity`'s record, or nullptr when this monitor does not track it.
  [[nodiscard]] const Tracked* tracked(const MemoryEntity& entity) const;

  /// True when t.last_hash[b] may differ from the hash of the block's bytes:
  /// the block is dirty, pending after a throttled scan, or never scanned.
  /// Every other last hash is exact: write_block() is the only mutable
  /// accessor of an entity's bytes and sets the dirty bit, this monitor is
  /// the only consumer of the dirty bits, and a scan stores the hash of
  /// every candidate it hashes and leaves every candidate it skips pending.
  [[nodiscard]] static bool stale(const Tracked& t, BlockIndex b) noexcept {
    return t.entity->dirty().test(b) || t.pending.test(b) || !t.ever_scanned[b];
  }

  [[nodiscard]] ScanStats snapshot() const;
  [[nodiscard]] std::size_t resolved_workers() const noexcept;

  hash::BlockHasher hasher_;
  DetectMode mode_;
  std::uint64_t update_budget_ = 0;
  std::size_t hash_workers_ = 1;
  std::unique_ptr<sim::WorkerPool> pool_;  // live only while parallel scans run
  std::unordered_map<EntityId, Tracked> tracked_;
  LocalBlockMap block_map_;
  std::unique_ptr<obs::Registry> owned_metrics_;  // standalone monitors only
  Cells cells_;
};

}  // namespace concord::mem
