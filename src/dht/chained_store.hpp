// ChainedDhtStore: the original pointer-chained shard layout, kept as the
// measured baseline for the compact open-addressing DhtStore.
//
// Each entry is one heap node (header + fixed-width entity bitmap) linked
// into a power-of-two bucket array. Per-entry overhead is the pointer chain
// plus a full max_entities-wide bitmap regardless of how few entities hold
// the hash — the cost profile fig06 and the big-cluster scale bench compare
// the compact store against. Two allocation modes reproduce Fig. 6:
//   * kMalloc — each entry comes from operator new (global allocator);
//   * kPool   — entries come from a slab pool sized exactly for the entry
//               layout ("the allocation units of the DHT are statically
//               known, [so] a custom allocator can improve memory
//               efficiency over the use of GNU malloc").
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/pool_allocator.hpp"
#include "common/types.hpp"
#include "dht/dht_store.hpp"

namespace concord::dht {

class ChainedDhtStore {
 public:
  /// @param max_entities  site-wide entity universe (fixes the bitmap width)
  explicit ChainedDhtStore(std::uint32_t max_entities, AllocMode mode = AllocMode::kPool);
  ~ChainedDhtStore();

  ChainedDhtStore(const ChainedDhtStore&) = delete;
  ChainedDhtStore& operator=(const ChainedDhtStore&) = delete;
  ChainedDhtStore(ChainedDhtStore&&) = delete;
  ChainedDhtStore& operator=(ChainedDhtStore&&) = delete;

  /// Records that `entity` holds content `h`. Returns true if this created
  /// a new hash entry (first copy site-wide on this shard).
  bool insert(const ContentHash& h, EntityId entity);

  /// Removes `entity` from `h`'s set. Returns true if the entry existed and
  /// the bit was set. Erases the entry when its set drains.
  bool remove(const ContentHash& h, EntityId entity);

  /// Applies a whole update batch, grouped by hash exactly like
  /// DhtStore::apply_batch.
  void apply_batch(std::span<const UpdateRecord> records);

  /// Number of entities believed to hold `h` (0 if unknown).
  [[nodiscard]] std::size_t num_entities(const ContentHash& h) const;

  [[nodiscard]] bool contains(const ContentHash& h, EntityId entity) const;

  /// Invokes fn(hash, words, nwords) for every entry.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (const Entry* e : buckets_) {
      for (; e != nullptr; e = e->next) fn(e->hash, e->words(), words_per_entry_);
    }
  }

  /// Pre-sizes the bucket array for an expected number of hashes so bulk
  /// loads and steady-state measurements don't pay incremental rehashing.
  void reserve(std::size_t expected_hashes);

  [[nodiscard]] std::size_t unique_hashes() const noexcept { return size_; }
  [[nodiscard]] std::uint32_t max_entities() const noexcept { return max_entities_; }
  [[nodiscard]] AllocMode alloc_mode() const noexcept { return mode_; }

  /// Heap bytes held for entries + bucket array. In kMalloc mode this uses
  /// the real per-allocation usable size reported by the allocator, so the
  /// malloc-vs-pool gap in Fig. 6 is measured, not modeled.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  void clear();

 private:
  struct Entry {
    ContentHash hash;
    Entry* next;
    // Flexible bitmap storage follows the header; words_per_entry_ words.
    [[nodiscard]] std::uint64_t* words() noexcept {
      return reinterpret_cast<std::uint64_t*>(this + 1);
    }
    [[nodiscard]] const std::uint64_t* words() const noexcept {
      return reinterpret_cast<const std::uint64_t*>(this + 1);
    }
  };

  [[nodiscard]] std::size_t entry_bytes() const noexcept {
    return sizeof(Entry) + words_per_entry_ * sizeof(std::uint64_t);
  }
  [[nodiscard]] std::size_t bucket_of(const ContentHash& h) const noexcept {
    return probe_start(h, buckets_.size() - 1);
  }

  Entry* allocate_entry();
  void free_entry(Entry* e) noexcept;
  void maybe_grow();

  [[nodiscard]] Entry* find(const ContentHash& h) const;

  std::uint32_t max_entities_;
  std::size_t words_per_entry_;
  AllocMode mode_;
  std::vector<Entry*> buckets_;  // power-of-two size
  std::size_t size_ = 0;
  std::unique_ptr<PoolAllocatorBase> pool_;  // kPool mode only
  std::size_t malloc_bytes_ = 0;             // kMalloc mode accounting
};

}  // namespace concord::dht
