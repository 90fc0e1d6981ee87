// DhtStore: one node's shard of the zero-hop content-tracing DHT.
//
// The site-wide engine (§3.1, [22]) maps each unique content hash to the
// set of entities believed to hold a copy. Placement is zero-hop: every
// daemon knows the full membership, and owner(hash) is a pure function of
// the hash (see placement.hpp), so an update or node-wise query is a single
// message.
//
// Storage is an open-addressing (linear probing, power-of-two capacity,
// tombstone deletion) table in struct-of-arrays layout — dense parallel
// arrays for hashes, per-slot control bytes, and 8-byte entity-set slots.
// An entity set holds up to two u32 entity ids inline (the overwhelmingly
// common case at site scale: most content is held by one or two entities);
// a third id promotes the slot to a spilled max_entities-wide bitmap. The
// layout replaces the original pointer-chained table (kept as
// ChainedDhtStore for baseline measurements), cutting per-entry overhead
// from header+chain+full-bitmap to ~25 bytes of slot plus amortized probing
// headroom.
//
// Two allocation modes reproduce Fig. 6 for the spilled bitmaps:
//   * kMalloc — each spilled bitmap comes from operator new;
//   * kPool   — spilled bitmaps come from a slab pool sized exactly for the
//               bitmap ("the allocation units of the DHT are statically
//               known, [so] a custom allocator can improve memory
//               efficiency over the use of GNU malloc").
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/pool_allocator.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace concord::dht {

enum class AllocMode : std::uint8_t { kMalloc, kPool };

/// One update-stream record: insert or remove `entity` from `hash`'s set.
/// This is the unit the owner-batched update datagrams carry; a batch is a
/// span of these applied through apply_batch().
struct UpdateRecord {
  ContentHash hash;
  EntityId entity{};
  bool insert = true;
};

/// Slot (or bucket) a probe for `h` starts at in a power-of-two table of
/// `mask + 1` slots. Placement::home() reduces the low bits of well_mixed()
/// modulo N, so on a power-of-two site every hash one shard holds shares its
/// low log2(N) bits; starting the probe from the high half keeps a shard's
/// probe starts spread over its whole table instead of 1/N of it.
[[nodiscard]] constexpr std::size_t probe_start(const ContentHash& h,
                                                std::size_t mask) noexcept {
  return static_cast<std::size_t>(std::rotr(h.well_mixed(), 32)) & mask;
}

class DhtStore {
 public:
  /// @param max_entities  site-wide entity universe (fixes the width of
  ///                      spilled bitmaps)
  /// @param registry      where this shard accounts (subsystem "dht",
  ///                      labeled with `node`): insert/remove counters,
  ///                      stale-hit counters, and occupancy gauges. Null
  ///                      means a private registry.
  explicit DhtStore(std::uint32_t max_entities, AllocMode mode = AllocMode::kPool,
                    obs::Registry* registry = nullptr,
                    std::int32_t node = obs::Registry::kSiteWide);
  ~DhtStore();

  DhtStore(const DhtStore&) = delete;
  DhtStore& operator=(const DhtStore&) = delete;
  DhtStore(DhtStore&&) = delete;
  DhtStore& operator=(DhtStore&&) = delete;

  /// Records that `entity` holds content `h`. Returns true if this created
  /// a new hash entry (first copy site-wide on this shard).
  bool insert(const ContentHash& h, EntityId entity);

  /// Removes `entity` from `h`'s set. Returns true if the entry existed and
  /// the id was present. Erases the entry when its set drains.
  bool remove(const ContentHash& h, EntityId entity);

  /// Applies a whole update batch. Records are applied in (probe start,
  /// arrival index) order, which turns a batch's worth of scattered probe
  /// walks into one ascending sweep of the table; the index tie-break keeps
  /// same-hash records in arrival order (an insert/remove pair for one hash
  /// must not commute). Counter accounting is identical to per-record
  /// insert()/remove() calls, and the call allocates nothing once the
  /// store's sort scratch has grown to the largest batch seen.
  void apply_batch(std::span<const UpdateRecord> records);

  /// Number of entities believed to hold `h` (0 if unknown).
  [[nodiscard]] std::size_t num_entities(const ContentHash& h) const;

  [[nodiscard]] bool contains(const ContentHash& h, EntityId entity) const;

  /// Entity ids believed to hold `h`, ascending (empty if unknown).
  [[nodiscard]] std::vector<EntityId> entities(const ContentHash& h) const;

  /// Invokes fn(hash, words, nwords) for every entry, in slot order.
  /// Fn: void(const ContentHash&, const std::uint64_t* words, std::size_t nwords)
  /// Inline sets are materialized into a per-store scratch bitmap, so the
  /// words pointer is only valid for the duration of one callback.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (std::size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] < kInline1) continue;  // empty or tombstone
      fn(hashes_[i], slot_words(i), words_per_entry_);
    }
  }

  /// Pre-sizes the table for an expected number of hashes so bulk loads and
  /// steady-state measurements don't pay incremental rehashing.
  void reserve(std::size_t expected_hashes);

  [[nodiscard]] std::size_t unique_hashes() const noexcept { return size_; }
  [[nodiscard]] std::uint32_t max_entities() const noexcept { return max_entities_; }
  [[nodiscard]] AllocMode alloc_mode() const noexcept { return mode_; }

  /// Table slots (power of two; grows past 7/8 occupancy, shrinks below 1/8
  /// load). Test/bench surface.
  [[nodiscard]] std::size_t capacity() const noexcept { return ctrl_.size(); }
  /// Slots holding a deletion marker awaiting reuse. Test surface.
  [[nodiscard]] std::size_t tombstones() const noexcept { return tombstones_; }

  /// Heap bytes held: slot arrays plus spilled bitmaps. In kMalloc mode the
  /// spill accounting uses the real per-allocation usable size reported by
  /// the allocator, so the malloc-vs-pool gap in Fig. 6 is measured, not
  /// modeled.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  void clear();

 private:
  // Control byte per slot: anything >= kInline1 is a live entry.
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kTombstone = 1;
  static constexpr std::uint8_t kInline1 = 2;   // one inline id (set lo 32 bits)
  static constexpr std::uint8_t kInline2 = 3;   // two inline ids, ascending
  static constexpr std::uint8_t kSpilled = 4;   // set slot holds a bitmap pointer

  static constexpr std::size_t kMinCapacity = 64;
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  /// Pre-resolved registry cells; updated on every mutation so the registry
  /// always reflects shard occupancy without polling.
  struct Cells {
    obs::Counter* inserts = nullptr;       // every insert() call
    obs::Counter* inserts_new = nullptr;   // first copy of a hash on this shard
    obs::Counter* removes = nullptr;       // every remove() call
    obs::Counter* removes_stale = nullptr; // remove of an entry/id not present
    obs::Gauge* unique_hashes = nullptr;
    obs::Gauge* memory_bytes = nullptr;
    obs::Gauge* bytes_per_entry = nullptr;  // memory_bytes / unique_hashes
    obs::Gauge* load_factor_pct = nullptr;  // live slots / capacity
  };

  [[nodiscard]] std::uint64_t* spill_of(std::size_t slot) const noexcept {
    return reinterpret_cast<std::uint64_t*>(static_cast<std::uintptr_t>(sets_[slot]));
  }
  /// The slot's entity set as bitmap words (spill directly, inline via the
  /// scratch buffer).
  [[nodiscard]] const std::uint64_t* slot_words(std::size_t slot) const;

  std::uint64_t* allocate_spill();
  void free_spill(std::uint64_t* words) noexcept;
  void release_slot(std::size_t slot) noexcept;  // frees a spill, marks tombstone

  [[nodiscard]] std::size_t find(const ContentHash& h) const noexcept;
  void rehash(std::size_t new_cap);
  bool maybe_grow();  // true when it rebuilt the table
  void maybe_shrink();
  [[nodiscard]] static std::size_t capacity_for(std::size_t entries) noexcept;

  void update_occupancy() noexcept;

  std::uint32_t max_entities_;
  std::size_t words_per_entry_;
  AllocMode mode_;
  std::vector<ContentHash> hashes_;   // [capacity]
  std::vector<std::uint8_t> ctrl_;    // [capacity]
  std::vector<std::uint64_t> sets_;   // [capacity] inline ids or spill pointer
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
  std::unique_ptr<PoolAllocatorBase> pool_;  // kPool spill arena
  std::size_t malloc_bytes_ = 0;             // kMalloc spill accounting
  mutable std::vector<std::uint64_t> scratch_;  // inline-set materialization
  std::vector<std::pair<std::size_t, std::uint32_t>> batch_order_;  // apply_batch sort
  std::unique_ptr<obs::Registry> owned_metrics_;  // standalone stores only
  Cells cells_;
};

}  // namespace concord::dht
