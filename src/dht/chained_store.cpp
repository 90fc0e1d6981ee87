#include "dht/chained_store.hpp"

#include <malloc.h>  // malloc_usable_size

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <utility>

namespace concord::dht {

namespace {
constexpr std::size_t kInitialBuckets = 64;

bool test_bit(const std::uint64_t* words, std::uint32_t bit) noexcept {
  return (words[bit >> 6] >> (bit & 63)) & 1u;
}
void set_bit(std::uint64_t* words, std::uint32_t bit) noexcept {
  words[bit >> 6] |= std::uint64_t{1} << (bit & 63);
}
void clear_bit(std::uint64_t* words, std::uint32_t bit) noexcept {
  words[bit >> 6] &= ~(std::uint64_t{1} << (bit & 63));
}
}  // namespace

ChainedDhtStore::ChainedDhtStore(std::uint32_t max_entities, AllocMode mode)
    : max_entities_(max_entities),
      words_per_entry_((max_entities + 63) / 64),
      mode_(mode),
      buckets_(kInitialBuckets, nullptr) {
  if (mode_ == AllocMode::kPool) {
    pool_ = std::make_unique<PoolAllocatorBase>(entry_bytes());
  }
}

ChainedDhtStore::~ChainedDhtStore() { clear(); }

ChainedDhtStore::Entry* ChainedDhtStore::allocate_entry() {
  void* p;
  if (mode_ == AllocMode::kPool) {
    p = pool_->allocate();
  } else {
    p = ::operator new(entry_bytes());
    malloc_bytes_ += malloc_usable_size(p);
  }
  auto* e = static_cast<Entry*>(p);
  std::memset(e->words(), 0, words_per_entry_ * sizeof(std::uint64_t));
  return e;
}

void ChainedDhtStore::free_entry(Entry* e) noexcept {
  if (mode_ == AllocMode::kPool) {
    pool_->deallocate(e);
  } else {
    malloc_bytes_ -= malloc_usable_size(e);
    ::operator delete(e);
  }
}

ChainedDhtStore::Entry* ChainedDhtStore::find(const ContentHash& h) const {
  for (Entry* e = buckets_[bucket_of(h)]; e != nullptr; e = e->next) {
    if (e->hash == h) return e;
  }
  return nullptr;
}

void ChainedDhtStore::reserve(std::size_t expected_hashes) {
  std::size_t target = buckets_.size();
  while (target < expected_hashes) target *= 2;
  if (target == buckets_.size()) return;
  std::vector<Entry*> bigger(target, nullptr);
  for (Entry* e : buckets_) {
    while (e != nullptr) {
      Entry* next = e->next;
      const std::size_t b = probe_start(e->hash, bigger.size() - 1);
      e->next = bigger[b];
      bigger[b] = e;
      e = next;
    }
  }
  buckets_ = std::move(bigger);
}

void ChainedDhtStore::maybe_grow() {
  if (size_ < buckets_.size()) return;  // load factor 1
  std::vector<Entry*> bigger(buckets_.size() * 2, nullptr);
  for (Entry* e : buckets_) {
    while (e != nullptr) {
      Entry* next = e->next;
      const std::size_t b = probe_start(e->hash, bigger.size() - 1);
      e->next = bigger[b];
      bigger[b] = e;
      e = next;
    }
  }
  buckets_ = std::move(bigger);
}

bool ChainedDhtStore::insert(const ContentHash& h, EntityId entity) {
  assert(raw(entity) < max_entities_);
  if (Entry* e = find(h)) {
    set_bit(e->words(), raw(entity));
    return false;
  }
  maybe_grow();
  Entry* e = allocate_entry();
  e->hash = h;
  const std::size_t b = bucket_of(h);
  e->next = buckets_[b];
  buckets_[b] = e;
  set_bit(e->words(), raw(entity));
  ++size_;
  return true;
}

bool ChainedDhtStore::remove(const ContentHash& h, EntityId entity) {
  const std::size_t b = bucket_of(h);
  Entry** link = &buckets_[b];
  for (Entry* e = *link; e != nullptr; link = &e->next, e = e->next) {
    if (e->hash != h) continue;
    if (!test_bit(e->words(), raw(entity))) return false;
    clear_bit(e->words(), raw(entity));
    bool any = false;
    for (std::size_t w = 0; w < words_per_entry_; ++w) {
      if (e->words()[w] != 0) {
        any = true;
        break;
      }
    }
    if (!any) {
      *link = e->next;
      free_entry(e);
      --size_;
    }
    return true;
  }
  return false;
}

void ChainedDhtStore::apply_batch(std::span<const UpdateRecord> records) {
  // Same (bucket, arrival index) order as DhtStore::apply_batch.
  std::vector<std::pair<std::size_t, std::uint32_t>> order;
  order.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    order.emplace_back(bucket_of(records[i].hash), static_cast<std::uint32_t>(i));
  }
  std::sort(order.begin(), order.end());
  for (const auto& [bucket, i] : order) {
    const UpdateRecord& rec = records[i];
    if (rec.insert) {
      insert(rec.hash, rec.entity);
    } else {
      remove(rec.hash, rec.entity);
    }
  }
}

std::size_t ChainedDhtStore::num_entities(const ContentHash& h) const {
  const Entry* e = find(h);
  if (e == nullptr) return 0;
  std::size_t n = 0;
  for (std::size_t w = 0; w < words_per_entry_; ++w) {
    n += static_cast<std::size_t>(std::popcount(e->words()[w]));
  }
  return n;
}

bool ChainedDhtStore::contains(const ContentHash& h, EntityId entity) const {
  const Entry* e = find(h);
  return e != nullptr && test_bit(e->words(), raw(entity));
}

std::size_t ChainedDhtStore::memory_bytes() const noexcept {
  const std::size_t bucket_bytes = buckets_.capacity() * sizeof(Entry*);
  if (mode_ == AllocMode::kPool) return bucket_bytes + pool_->reserved_bytes();
  return bucket_bytes + malloc_bytes_;
}

void ChainedDhtStore::clear() {
  for (Entry*& head : buckets_) {
    while (head != nullptr) {
      Entry* next = head->next;
      free_entry(head);
      head = next;
    }
  }
  size_ = 0;
}

}  // namespace concord::dht
