// Tests for the zero-hop DHT store: model-based property checks against a
// std::map oracle, both allocation modes, and placement behaviour.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "dht/chained_store.hpp"
#include "dht/dht_store.hpp"
#include "dht/placement.hpp"

namespace concord::dht {
namespace {

ContentHash h(std::uint64_t v) { return ContentHash{v * 0x9e3779b97f4a7c15ULL, v}; }

class DhtStoreModes : public ::testing::TestWithParam<AllocMode> {};

TEST_P(DhtStoreModes, InsertLookupRemove) {
  DhtStore store(64, GetParam());
  EXPECT_TRUE(store.insert(h(1), entity_id(3)));
  EXPECT_FALSE(store.insert(h(1), entity_id(5)));  // entry exists, new bit
  EXPECT_EQ(store.num_entities(h(1)), 2u);
  EXPECT_TRUE(store.contains(h(1), entity_id(3)));
  EXPECT_FALSE(store.contains(h(1), entity_id(4)));
  EXPECT_EQ(store.entities(h(1)),
            (std::vector<EntityId>{entity_id(3), entity_id(5)}));

  EXPECT_TRUE(store.remove(h(1), entity_id(3)));
  EXPECT_EQ(store.num_entities(h(1)), 1u);
  EXPECT_TRUE(store.remove(h(1), entity_id(5)));
  EXPECT_EQ(store.unique_hashes(), 0u);  // entry erased when set drains
  EXPECT_FALSE(store.remove(h(1), entity_id(5)));
}

TEST_P(DhtStoreModes, IdempotentInsert) {
  DhtStore store(64, GetParam());
  store.insert(h(2), entity_id(1));
  store.insert(h(2), entity_id(1));
  EXPECT_EQ(store.num_entities(h(2)), 1u);
  EXPECT_EQ(store.unique_hashes(), 1u);
}

TEST_P(DhtStoreModes, RemoveUnknownHashFails) {
  DhtStore store(64, GetParam());
  EXPECT_FALSE(store.remove(h(99), entity_id(0)));
}

TEST_P(DhtStoreModes, GrowsPastInitialBuckets) {
  DhtStore store(32, GetParam());
  for (std::uint64_t i = 0; i < 5000; ++i) {
    store.insert(h(i), entity_id(static_cast<std::uint32_t>(i % 32)));
  }
  EXPECT_EQ(store.unique_hashes(), 5000u);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(store.contains(h(i), entity_id(static_cast<std::uint32_t>(i % 32)))) << i;
  }
}

TEST_P(DhtStoreModes, ForEachEntryVisitsAll) {
  DhtStore store(8, GetParam());
  for (std::uint64_t i = 0; i < 100; ++i) store.insert(h(i), entity_id(0));
  std::set<std::uint64_t> seen;
  store.for_each_entry([&](const ContentHash& hash, const std::uint64_t* words, std::size_t n) {
    seen.insert(hash.lo);
    ASSERT_GE(n, 1u);
    EXPECT_EQ(words[0], 1u);
  });
  EXPECT_EQ(seen.size(), 100u);
}

TEST_P(DhtStoreModes, ModelBasedRandomOps) {
  // Property: a long random insert/remove sequence matches a map<hash,set>.
  DhtStore store(128, GetParam());
  std::map<ContentHash, std::set<std::uint32_t>> model;
  Rng rng(2024);

  for (int step = 0; step < 20000; ++step) {
    const ContentHash hash = h(rng.below(300));
    const auto ent = static_cast<std::uint32_t>(rng.below(128));
    if (rng.chance(0.6)) {
      store.insert(hash, entity_id(ent));
      model[hash].insert(ent);
    } else {
      const bool removed = store.remove(hash, entity_id(ent));
      const auto it = model.find(hash);
      const bool model_removed = it != model.end() && it->second.erase(ent) > 0;
      ASSERT_EQ(removed, model_removed) << "step " << step;
      if (it != model.end() && it->second.empty()) model.erase(it);
    }
  }

  EXPECT_EQ(store.unique_hashes(), model.size());
  for (const auto& [hash, ents] : model) {
    ASSERT_EQ(store.num_entities(hash), ents.size());
    const auto got = store.entities(hash);
    ASSERT_EQ(got.size(), ents.size());
    for (const EntityId e : got) ASSERT_TRUE(ents.contains(raw(e)));
  }
}

INSTANTIATE_TEST_SUITE_P(AllocModes, DhtStoreModes,
                         ::testing::Values(AllocMode::kMalloc, AllocMode::kPool));

TEST(DhtStore, PoolUsesLessMemoryThanMalloc) {
  // The Fig. 6 claim, as a hard invariant at steady state: for identically
  // loaded stores the pool's reserved bytes (minus slab overshoot) beat
  // malloc's real usable-size accounting. One or two copies per hash never
  // allocates in the compact layout, so the load must spill (3+ entities
  // per hash) for the allocator choice to matter at all.
  constexpr std::uint32_t kEntities = 256;
  constexpr std::uint64_t kHashes = 50000;
  DhtStore pool(kEntities, AllocMode::kPool);
  DhtStore mall(kEntities, AllocMode::kMalloc);
  for (std::uint64_t i = 0; i < kHashes; ++i) {
    for (std::uint32_t e = 0; e < 3; ++e) {
      const auto ent = static_cast<std::uint32_t>((i + e * 31) % kEntities);
      pool.insert(h(i), entity_id(ent));
      mall.insert(h(i), entity_id(ent));
    }
  }
  EXPECT_LT(pool.memory_bytes(), mall.memory_bytes());
}

TEST(DhtStore, MemoryAccountingShrinksOnRemove) {
  DhtStore store(8, AllocMode::kMalloc);
  for (std::uint64_t i = 0; i < 1000; ++i) store.insert(h(i), entity_id(0));
  const std::size_t full = store.memory_bytes();
  for (std::uint64_t i = 0; i < 1000; ++i) store.remove(h(i), entity_id(0));
  EXPECT_LT(store.memory_bytes(), full);
}

TEST(DhtStore, TombstoneReuseKeepsCapacityStable) {
  // Churn at a fixed live size must converge: the probe loop reuses the
  // first tombstone on the walk, so remove/insert cycles neither grow the
  // table nor accumulate unbounded deletion markers.
  DhtStore store(8, AllocMode::kPool);
  for (std::uint64_t i = 0; i < 40; ++i) store.insert(h(i), entity_id(0));
  const std::size_t cap = store.capacity();
  for (std::uint64_t round = 0; round < 50; ++round) {
    for (std::uint64_t i = 0; i < 40; ++i) store.remove(h(i), entity_id(0));
    for (std::uint64_t i = 0; i < 40; ++i) store.insert(h(i), entity_id(0));
  }
  EXPECT_EQ(store.capacity(), cap);
  EXPECT_LE(store.tombstones(), store.capacity() - store.unique_hashes());
  EXPECT_EQ(store.unique_hashes(), 40u);
  for (std::uint64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(store.contains(h(i), entity_id(0))) << i;
  }
}

TEST(DhtStore, RehashGrowsAndShrinks) {
  DhtStore store(8, AllocMode::kPool);
  const std::size_t initial = store.capacity();
  for (std::uint64_t i = 0; i < 4000; ++i) store.insert(h(i), entity_id(0));
  const std::size_t grown = store.capacity();
  EXPECT_GT(grown, initial);
  EXPECT_GE(grown, 4000u);  // load factor never exceeds 7/8
  for (std::uint64_t i = 0; i < 3990; ++i) store.remove(h(i), entity_id(0));
  EXPECT_LT(store.capacity(), grown);  // sparse table gives memory back
  EXPECT_EQ(store.unique_hashes(), 10u);
  for (std::uint64_t i = 3990; i < 4000; ++i) {
    ASSERT_TRUE(store.contains(h(i), entity_id(0))) << i;
  }
}

TEST(DhtStore, InlinePromotionAndDemotion) {
  // 1 and 2 ids live inline in the 8-byte set slot; the 3rd spills to a
  // bitmap; draining back below 3 keeps answers exact either way.
  DhtStore store(256, AllocMode::kMalloc);
  store.insert(h(7), entity_id(9));
  EXPECT_EQ(store.memory_bytes(),
            store.capacity() * (sizeof(ContentHash) + 1 + sizeof(std::uint64_t)));
  store.insert(h(7), entity_id(3));
  EXPECT_EQ(store.entities(h(7)), (std::vector<EntityId>{entity_id(3), entity_id(9)}));
  const std::size_t inline_bytes = store.memory_bytes();
  store.insert(h(7), entity_id(200));  // spill
  EXPECT_GT(store.memory_bytes(), inline_bytes);
  EXPECT_EQ(store.entities(h(7)),
            (std::vector<EntityId>{entity_id(3), entity_id(9), entity_id(200)}));
  EXPECT_TRUE(store.remove(h(7), entity_id(9)));
  EXPECT_EQ(store.entities(h(7)), (std::vector<EntityId>{entity_id(3), entity_id(200)}));
  EXPECT_TRUE(store.remove(h(7), entity_id(200)));
  EXPECT_TRUE(store.remove(h(7), entity_id(3)));
  EXPECT_EQ(store.unique_hashes(), 0u);
  EXPECT_EQ(store.memory_bytes(),
            store.capacity() * (sizeof(ContentHash) + 1 + sizeof(std::uint64_t)));
}

TEST(DhtStore, ApplyBatchMatchesModel) {
  // Property: randomized batches (mixed inserts/removes, duplicate hashes
  // inside one batch) leave the store exactly where per-record application
  // of the same sequence leaves a map<hash,set> oracle.
  DhtStore store(128, AllocMode::kPool);
  std::map<ContentHash, std::set<std::uint32_t>> model;
  Rng rng(777);
  for (int batch = 0; batch < 400; ++batch) {
    std::vector<UpdateRecord> records;
    const std::size_t n = 1 + rng.below(60);
    for (std::size_t i = 0; i < n; ++i) {
      const ContentHash hash = h(rng.below(150));
      const auto ent = static_cast<std::uint32_t>(rng.below(128));
      const bool insert = rng.chance(0.7);
      records.push_back(UpdateRecord{hash, entity_id(ent), insert});
      if (insert) {
        model[hash].insert(ent);
      } else {
        const auto it = model.find(hash);
        if (it != model.end()) {
          it->second.erase(ent);
          if (it->second.empty()) model.erase(it);
        }
      }
    }
    store.apply_batch(records);
  }
  ASSERT_EQ(store.unique_hashes(), model.size());
  for (const auto& [hash, ents] : model) {
    const auto got = store.entities(hash);
    ASSERT_EQ(got.size(), ents.size());
    for (const EntityId e : got) ASSERT_TRUE(ents.contains(raw(e)));
  }
}

TEST(DhtStore, CompactBeatsChainedBytesPerEntry) {
  // The PR's headline memory claim at test scale: same load, both pool
  // mode, the open-addressing SoA layout holds >= 30% fewer bytes per entry
  // than the pointer-chained baseline.
  constexpr std::uint32_t kEntities = 256;
  constexpr std::uint64_t kHashes = 200000;
  DhtStore compact(kEntities, AllocMode::kPool);
  ChainedDhtStore chained(kEntities, AllocMode::kPool);
  for (std::uint64_t i = 0; i < kHashes; ++i) {
    const auto ent = entity_id(static_cast<std::uint32_t>(i % kEntities));
    compact.insert(h(i), ent);
    chained.insert(h(i), ent);
  }
  const double compact_bpe = static_cast<double>(compact.memory_bytes()) / kHashes;
  const double chained_bpe = static_cast<double>(chained.memory_bytes()) / kHashes;
  EXPECT_LE(compact_bpe, chained_bpe * 0.7)
      << "compact " << compact_bpe << " B/entry vs chained " << chained_bpe;
}

TEST(DhtStore, ClearReleasesEverything) {
  DhtStore store(8, AllocMode::kPool);
  for (std::uint64_t i = 0; i < 100; ++i) store.insert(h(i), entity_id(1));
  store.clear();
  EXPECT_EQ(store.unique_hashes(), 0u);
  EXPECT_EQ(store.num_entities(h(5)), 0u);
}

TEST(Placement, DeterministicAndInRange) {
  const Placement p(13);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const NodeId a = p.owner(h(i));
    const NodeId b = p.owner(h(i));
    EXPECT_EQ(a, b);
    EXPECT_LT(raw(a), 13u);
  }
}

TEST(Placement, SpreadsHashesRoughlyEvenly) {
  const Placement p(8);
  std::vector<int> count(8, 0);
  constexpr int kN = 80000;
  for (std::uint64_t i = 0; i < kN; ++i) ++count[raw(p.owner(h(i)))];
  for (const int c : count) {
    EXPECT_NEAR(c, kN / 8, kN / 8 * 0.1);
  }
}

TEST(Placement, ShardHashesSpreadOverProbeStarts) {
  // Placement reduces well_mixed() modulo N, so on a power-of-two site the
  // hashes one shard holds share their low log2(N) bits. The store's probe
  // start must not reuse those bits: 1024 hashes homed on one node should
  // land on close to the ~806 distinct starts random placement gives in a
  // 2048-slot table (probing from the low bits gave 8 at 256 nodes).
  constexpr std::size_t kMask = 2048 - 1;
  for (const std::uint32_t nodes : {8u, 32u, 256u, 4096u}) {
    const Placement p(nodes);
    std::set<std::size_t> starts;
    std::size_t homed = 0;
    for (std::uint64_t i = 0; homed < 1024; ++i) {
      if (p.home(h(i)) != 0) continue;
      ++homed;
      starts.insert(probe_start(h(i), kMask));
    }
    EXPECT_GE(starts.size(), 600u) << nodes << " nodes";
  }
}

TEST(Placement, GenerationMovesWithEveryViewAndReplicationChange) {
  Placement p(4);
  const std::uint64_t g0 = p.generation();
  p.set_view(0, {true, false, true, true});  // same epoch number, new view
  EXPECT_GT(p.generation(), g0);
  const std::uint64_t g1 = p.generation();
  p.set_replication(2);
  EXPECT_GT(p.generation(), g1);
}

TEST(Placement, SingleNodeOwnsEverything) {
  const Placement p(1);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(raw(p.owner(h(i))), 0u);
}

}  // namespace
}  // namespace concord::dht
