// concord-lint: emit-path — bytes or messages produced here must not depend on
// hash-map iteration order.
#include "dht/dht_store.hpp"

#include <malloc.h>  // malloc_usable_size

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace concord::dht {

namespace {

bool test_bit(const std::uint64_t* words, std::uint32_t bit) noexcept {
  return (words[bit >> 6] >> (bit & 63)) & 1u;
}
void set_bit(std::uint64_t* words, std::uint32_t bit) noexcept {
  words[bit >> 6] |= std::uint64_t{1} << (bit & 63);
}
void clear_bit(std::uint64_t* words, std::uint32_t bit) noexcept {
  words[bit >> 6] &= ~(std::uint64_t{1} << (bit & 63));
}

std::uint32_t lo_id(std::uint64_t set) noexcept {
  return static_cast<std::uint32_t>(set & 0xffffffffu);
}
std::uint32_t hi_id(std::uint64_t set) noexcept {
  return static_cast<std::uint32_t>(set >> 32);
}
std::uint64_t pack_ids(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::uint64_t>(a) | (static_cast<std::uint64_t>(b) << 32);
}

}  // namespace

DhtStore::DhtStore(std::uint32_t max_entities, AllocMode mode, obs::Registry* registry,
                   std::int32_t node)
    : max_entities_(max_entities),
      words_per_entry_((max_entities + 63) / 64),
      mode_(mode),
      hashes_(kMinCapacity),
      ctrl_(kMinCapacity, kEmpty),
      sets_(kMinCapacity, 0),
      scratch_(words_per_entry_, 0) {
  if (mode_ == AllocMode::kPool) {
    pool_ = std::make_unique<PoolAllocatorBase>(words_per_entry_ * sizeof(std::uint64_t));
  }
  obs::Registry& r = obs::given_or_owned(registry, owned_metrics_);
  cells_ = Cells{&r.counter("dht", "inserts", node),       &r.counter("dht", "inserts_new", node),
                 &r.counter("dht", "removes", node),       &r.counter("dht", "removes_stale", node),
                 &r.gauge("dht", "unique_hashes", node),   &r.gauge("dht", "memory_bytes", node),
                 &r.gauge("dht", "bytes_per_entry", node), &r.gauge("dht", "load_factor_pct", node)};
  update_occupancy();
}

DhtStore::~DhtStore() { clear(); }

void DhtStore::update_occupancy() noexcept {
  const std::size_t bytes = memory_bytes();
  cells_.unique_hashes->set(static_cast<std::int64_t>(size_));
  cells_.memory_bytes->set(static_cast<std::int64_t>(bytes));
  cells_.bytes_per_entry->set(size_ > 0 ? static_cast<std::int64_t>(bytes / size_) : 0);
  cells_.load_factor_pct->set(static_cast<std::int64_t>(size_ * 100 / ctrl_.size()));
}

std::uint64_t* DhtStore::allocate_spill() {
  void* p;
  if (mode_ == AllocMode::kPool) {
    p = pool_->allocate();
  } else {
    p = ::operator new(words_per_entry_ * sizeof(std::uint64_t));
    malloc_bytes_ += malloc_usable_size(p);
  }
  auto* words = static_cast<std::uint64_t*>(p);
  std::memset(words, 0, words_per_entry_ * sizeof(std::uint64_t));
  return words;
}

void DhtStore::free_spill(std::uint64_t* words) noexcept {
  if (mode_ == AllocMode::kPool) {
    pool_->deallocate(words);
  } else {
    malloc_bytes_ -= malloc_usable_size(words);
    ::operator delete(words);
  }
}

void DhtStore::release_slot(std::size_t slot) noexcept {
  if (ctrl_[slot] == kSpilled) free_spill(spill_of(slot));
  ctrl_[slot] = kTombstone;
  sets_[slot] = 0;
  ++tombstones_;
  --size_;
}

const std::uint64_t* DhtStore::slot_words(std::size_t slot) const {
  if (ctrl_[slot] == kSpilled) return spill_of(slot);
  std::fill(scratch_.begin(), scratch_.end(), 0);
  set_bit(scratch_.data(), lo_id(sets_[slot]));
  if (ctrl_[slot] == kInline2) set_bit(scratch_.data(), hi_id(sets_[slot]));
  return scratch_.data();
}

std::size_t DhtStore::find(const ContentHash& h) const noexcept {
  const std::size_t mask = ctrl_.size() - 1;
  std::size_t idx = probe_start(h, mask);
  for (std::size_t probes = 0; probes < ctrl_.size(); ++probes) {
    const std::uint8_t c = ctrl_[idx];
    if (c == kEmpty) return kNpos;
    if (c >= kInline1 && hashes_[idx] == h) return idx;
    idx = (idx + 1) & mask;
  }
  return kNpos;
}

std::size_t DhtStore::capacity_for(std::size_t entries) noexcept {
  const std::size_t wanted = entries < kMinCapacity / 2 ? kMinCapacity : entries * 2;
  return std::bit_ceil(wanted);
}

void DhtStore::rehash(std::size_t new_cap) {
  std::vector<ContentHash> hashes(new_cap);
  std::vector<std::uint8_t> ctrl(new_cap, kEmpty);
  std::vector<std::uint64_t> sets(new_cap, 0);
  const std::size_t mask = new_cap - 1;
  for (std::size_t i = 0; i < ctrl_.size(); ++i) {
    if (ctrl_[i] < kInline1) continue;
    std::size_t idx = probe_start(hashes_[i], mask);
    while (ctrl[idx] != kEmpty) idx = (idx + 1) & mask;
    hashes[idx] = hashes_[i];
    ctrl[idx] = ctrl_[i];
    sets[idx] = sets_[i];
  }
  hashes_ = std::move(hashes);
  ctrl_ = std::move(ctrl);
  sets_ = std::move(sets);
  tombstones_ = 0;
}

bool DhtStore::maybe_grow() {
  // Grow (and squeeze out tombstones) past 7/8 occupancy, keeping at least
  // one empty slot so probe loops terminate.
  if ((size_ + 1 + tombstones_) * 8 <= ctrl_.size() * 7) return false;
  rehash(capacity_for(size_ + 1));
  return true;
}

void DhtStore::maybe_shrink() {
  // Downsize when the table is mostly air (load < 1/8) so a drained or
  // crashed shard hands its slot memory back.
  if (ctrl_.size() <= kMinCapacity || size_ * 8 >= ctrl_.size()) return;
  rehash(capacity_for(size_));
}

void DhtStore::reserve(std::size_t expected_hashes) {
  const std::size_t target = capacity_for(expected_hashes);
  if (target > ctrl_.size()) rehash(target);
}

bool DhtStore::insert(const ContentHash& h, EntityId entity) {
  assert(raw(entity) < max_entities_);
  cells_.inserts->inc();
  // One walk serves both outcomes: it either meets the hash (existing entry)
  // or ends at the first empty slot, remembering the first tombstone passed
  // on the way — the deletion marker closest to home, which a new entry
  // reuses.
  std::size_t mask = ctrl_.size() - 1;
  std::size_t idx = probe_start(h, mask);
  std::size_t place = kNpos;
  std::size_t slot = kNpos;
  for (;;) {
    const std::uint8_t c = ctrl_[idx];
    if (c == kEmpty) break;
    if (c == kTombstone) {
      if (place == kNpos) place = idx;
    } else if (hashes_[idx] == h) {
      slot = idx;
      break;
    }
    idx = (idx + 1) & mask;
  }
  if (slot != kNpos) {
    const std::uint32_t e = raw(entity);
    switch (ctrl_[slot]) {
      case kInline1: {
        const std::uint32_t a = lo_id(sets_[slot]);
        if (a == e) return false;
        sets_[slot] = a < e ? pack_ids(a, e) : pack_ids(e, a);
        ctrl_[slot] = kInline2;
        return false;
      }
      case kInline2: {
        const std::uint32_t a = lo_id(sets_[slot]);
        const std::uint32_t b = hi_id(sets_[slot]);
        if (a == e || b == e) return false;
        // Third distinct entity: promote the inline pair to a spilled bitmap.
        std::uint64_t* words = allocate_spill();
        set_bit(words, a);
        set_bit(words, b);
        set_bit(words, e);
        sets_[slot] = static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(words));
        ctrl_[slot] = kSpilled;
        update_occupancy();
        return false;
      }
      default: {
        set_bit(spill_of(slot), e);
        return false;
      }
    }
  }
  if (maybe_grow()) {
    // The table was rebuilt without tombstones: place at the first empty
    // slot of the new probe run.
    mask = ctrl_.size() - 1;
    idx = probe_start(h, mask);
    while (ctrl_[idx] != kEmpty) idx = (idx + 1) & mask;
    place = kNpos;
  }
  if (place == kNpos) {
    place = idx;
  } else {
    --tombstones_;  // reuse the deletion marker closest to home
  }
  hashes_[place] = h;
  ctrl_[place] = kInline1;
  sets_[place] = raw(entity);
  ++size_;
  cells_.inserts_new->inc();
  update_occupancy();
  return true;
}

bool DhtStore::remove(const ContentHash& h, EntityId entity) {
  cells_.removes->inc();
  const std::size_t slot = find(h);
  if (slot == kNpos) {
    cells_.removes_stale->inc();
    return false;
  }
  const std::uint32_t e = raw(entity);
  switch (ctrl_[slot]) {
    case kInline1: {
      if (lo_id(sets_[slot]) != e) {
        // Stale hit: the DHT was asked to forget a copy it never knew about
        // (lost insert, or a second remove after churn).
        cells_.removes_stale->inc();
        return false;
      }
      release_slot(slot);
      maybe_shrink();
      update_occupancy();
      return true;
    }
    case kInline2: {
      const std::uint32_t a = lo_id(sets_[slot]);
      const std::uint32_t b = hi_id(sets_[slot]);
      if (a != e && b != e) {
        cells_.removes_stale->inc();
        return false;
      }
      sets_[slot] = a == e ? b : a;
      ctrl_[slot] = kInline1;
      return true;
    }
    default: {
      std::uint64_t* words = spill_of(slot);
      if (!test_bit(words, e)) {
        cells_.removes_stale->inc();
        return false;
      }
      clear_bit(words, e);
      bool any = false;
      for (std::size_t w = 0; w < words_per_entry_; ++w) {
        if (words[w] != 0) {
          any = true;
          break;
        }
      }
      if (!any) {
        // Erase the entry when no entity holds the content any more.
        release_slot(slot);
        maybe_shrink();
        update_occupancy();
      }
      return true;
    }
  }
}

void DhtStore::apply_batch(std::span<const UpdateRecord> records) {
  // Visit the table in ascending probe-start order so each run is walked
  // while hot; the record index breaks ties, which keeps same-hash records
  // in arrival order — insert()/remove() pairs for one (hash, entity)
  // depend on it. Sorting index pairs leaves the input immutable.
  const std::size_t mask = ctrl_.size() - 1;
  batch_order_.clear();
  batch_order_.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    batch_order_.emplace_back(probe_start(records[i].hash, mask),
                              static_cast<std::uint32_t>(i));
  }
  std::sort(batch_order_.begin(), batch_order_.end());
  for (const auto& [key, i] : batch_order_) {
    const UpdateRecord& rec = records[i];
    if (rec.insert) {
      insert(rec.hash, rec.entity);
    } else {
      remove(rec.hash, rec.entity);
    }
  }
}

std::size_t DhtStore::num_entities(const ContentHash& h) const {
  const std::size_t slot = find(h);
  if (slot == kNpos) return 0;
  switch (ctrl_[slot]) {
    case kInline1:
      return 1;
    case kInline2:
      return 2;
    default: {
      const std::uint64_t* words = spill_of(slot);
      std::size_t n = 0;
      for (std::size_t w = 0; w < words_per_entry_; ++w) {
        n += static_cast<std::size_t>(std::popcount(words[w]));
      }
      return n;
    }
  }
}

bool DhtStore::contains(const ContentHash& h, EntityId entity) const {
  const std::size_t slot = find(h);
  if (slot == kNpos) return false;
  const std::uint32_t e = raw(entity);
  switch (ctrl_[slot]) {
    case kInline1:
      return lo_id(sets_[slot]) == e;
    case kInline2:
      return lo_id(sets_[slot]) == e || hi_id(sets_[slot]) == e;
    default:
      return test_bit(spill_of(slot), e);
  }
}

std::vector<EntityId> DhtStore::entities(const ContentHash& h) const {
  std::vector<EntityId> out;
  const std::size_t slot = find(h);
  if (slot == kNpos) return out;
  switch (ctrl_[slot]) {
    case kInline1:
      out.push_back(entity_id(lo_id(sets_[slot])));
      return out;
    case kInline2:
      out.push_back(entity_id(lo_id(sets_[slot])));
      out.push_back(entity_id(hi_id(sets_[slot])));
      return out;
    default: {
      const std::uint64_t* words = spill_of(slot);
      for (std::size_t w = 0; w < words_per_entry_; ++w) {
        std::uint64_t word = words[w];
        while (word != 0) {
          const int bit = std::countr_zero(word);
          out.push_back(
              entity_id(static_cast<std::uint32_t>(w * 64 + static_cast<std::size_t>(bit))));
          word &= word - 1;
        }
      }
      return out;
    }
  }
}

std::size_t DhtStore::memory_bytes() const noexcept {
  const std::size_t table_bytes = hashes_.capacity() * sizeof(ContentHash) +
                                  ctrl_.capacity() * sizeof(std::uint8_t) +
                                  sets_.capacity() * sizeof(std::uint64_t);
  if (mode_ == AllocMode::kPool) {
    return table_bytes + (pool_ != nullptr ? pool_->reserved_bytes() : 0);
  }
  return table_bytes + malloc_bytes_;
}

void DhtStore::clear() {
  for (std::size_t i = 0; i < ctrl_.size(); ++i) {
    if (ctrl_[i] == kSpilled) free_spill(spill_of(i));
  }
  // Fresh minimum-capacity arrays (assign would keep the grown capacity).
  hashes_ = std::vector<ContentHash>(kMinCapacity);
  ctrl_ = std::vector<std::uint8_t>(kMinCapacity, kEmpty);
  sets_ = std::vector<std::uint64_t>(kMinCapacity, 0);
  size_ = 0;
  tombstones_ = 0;
  update_occupancy();
}

}  // namespace concord::dht
