// Tests for the memory substrate: entity dirty tracking, the update monitor
// in all three detection modes, throttling, and the local block map.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "hash/block_hasher.hpp"
#include "mem/memory_entity.hpp"
#include "mem/update_monitor.hpp"

namespace concord::mem {
namespace {

constexpr std::size_t kBlk = 256;  // small blocks keep tests fast

void stamp(MemoryEntity& e, BlockIndex b, std::uint64_t value) {
  auto blk = e.write_block(b);
  std::memcpy(blk.data(), &value, sizeof(value));
}

TEST(MemoryEntity, GeometryAndAccess) {
  MemoryEntity e(entity_id(3), node_id(1), EntityKind::kProcess, 10, kBlk);
  EXPECT_EQ(raw(e.id()), 3u);
  EXPECT_EQ(raw(e.host()), 1u);
  EXPECT_EQ(e.num_blocks(), 10u);
  EXPECT_EQ(e.block_size(), kBlk);
  EXPECT_EQ(e.memory_bytes(), 10 * kBlk);
  EXPECT_EQ(e.block(0).size(), kBlk);
}

TEST(MemoryEntity, FreshEntityIsAllDirty) {
  MemoryEntity e(entity_id(0), node_id(0), EntityKind::kProcess, 5, kBlk);
  EXPECT_EQ(e.dirty().count(), 5u);
}

TEST(MemoryEntity, WriteMarksDirtyAndConsumeClears) {
  MemoryEntity e(entity_id(0), node_id(0), EntityKind::kProcess, 5, kBlk);
  (void)e.consume_dirty();
  EXPECT_EQ(e.dirty().count(), 0u);
  stamp(e, 2, 99);
  EXPECT_TRUE(e.dirty().test(2));
  EXPECT_EQ(e.dirty().count(), 1u);
  const Bitmap taken = e.consume_dirty();
  EXPECT_TRUE(taken.test(2));
  EXPECT_EQ(e.dirty().count(), 0u);
}

TEST(MemoryEntity, WritesCountsEveryWriteAndNothingElse) {
  MemoryEntity e(entity_id(0), node_id(0), EntityKind::kProcess, 4, kBlk);
  EXPECT_EQ(e.writes(), 0u);

  // Readers and the monitor's dirty-set hand-off leave it alone.
  (void)e.block(1);
  (void)e.blocks();
  (void)e.dirty();
  (void)e.consume_dirty();
  EXPECT_EQ(e.writes(), 0u);

  // Both write_block overloads bump it, once per call, also when the bytes
  // written equal the bytes already there.
  (void)e.write_block(2);
  EXPECT_EQ(e.writes(), 1u);
  const std::vector<std::byte> content(kBlk, std::byte{0x5a});
  e.write_block(3, content);
  EXPECT_EQ(e.writes(), 2u);
  e.write_block(3, content);
  EXPECT_EQ(e.writes(), 3u);

  // consume_dirty() resets the dirty set, not the write count.
  const Bitmap taken = e.consume_dirty();
  EXPECT_EQ(taken.count(), 2u);
  EXPECT_EQ(e.dirty().count(), 0u);
  EXPECT_EQ(e.writes(), 3u);
}

struct Collected {
  std::vector<ContentUpdate> updates;
  MemoryUpdateMonitor::EmitFn emit() {
    return [this](const ContentUpdate& u) { updates.push_back(u); };
  }
  [[nodiscard]] std::size_t inserts() const {
    std::size_t n = 0;
    for (const auto& u : updates) n += u.op == ContentUpdate::Op::kInsert ? 1 : 0;
    return n;
  }
  [[nodiscard]] std::size_t removes() const { return updates.size() - inserts(); }
};

/// The monitor's current hashes of `e`, whole and block by block, must equal
/// an independent hash of every block as it is now.
void expect_current(const MemoryUpdateMonitor& mon, const MemoryEntity& e) {
  std::vector<ContentHash> want(e.num_blocks());
  hash::BlockHasher{}.hash_many(e.blocks(), want);
  std::vector<ContentHash> got;
  mon.current_hashes(e, got);
  ASSERT_EQ(got.size(), want.size());
  for (BlockIndex b = 0; b < want.size(); ++b) {
    EXPECT_EQ(got[b], want[b]) << "current_hashes, block " << b;
    EXPECT_EQ(mon.current_hash(e, b), want[b]) << "current_hash, block " << b;
  }
}

class MonitorModes : public ::testing::TestWithParam<DetectMode> {};

TEST_P(MonitorModes, CurrentHashesTrackWritesSinceTheScan) {
  MemoryEntity e(entity_id(0), node_id(0), EntityKind::kProcess, 40, kBlk);
  for (BlockIndex b = 0; b < 40; ++b) stamp(e, b, b % 9);
  MemoryUpdateMonitor mon(hash::BlockHasher{}, GetParam());
  mon.attach(e);
  expect_current(mon, e);  // before any scan
  Collected c;
  (void)mon.scan(c.emit());
  expect_current(mon, e);

  for (BlockIndex b = 1; b < 40; b += 7) stamp(e, b, 5000 + b);
  stamp(e, 3, 3 % 9);  // rewritten with the bytes it already held
  expect_current(mon, e);
  (void)mon.scan(c.emit());
  expect_current(mon, e);
}

TEST_P(MonitorModes, FirstScanInsertsEveryBlock) {
  MemoryEntity e(entity_id(0), node_id(0), EntityKind::kProcess, 8, kBlk);
  for (BlockIndex b = 0; b < 8; ++b) stamp(e, b, b);
  MemoryUpdateMonitor mon(hash::BlockHasher{}, GetParam());
  mon.attach(e);
  Collected c;
  const ScanStats st = mon.scan(c.emit());
  EXPECT_EQ(st.inserts_emitted, 8u);
  EXPECT_EQ(st.removes_emitted, 0u);
  EXPECT_EQ(c.inserts(), 8u);
  EXPECT_EQ(mon.block_map().unique_hashes(), 8u);
}

TEST_P(MonitorModes, UnchangedRescanEmitsNothing) {
  MemoryEntity e(entity_id(0), node_id(0), EntityKind::kProcess, 8, kBlk);
  MemoryUpdateMonitor mon(hash::BlockHasher{}, GetParam());
  mon.attach(e);
  Collected c;
  (void)mon.scan(c.emit());
  c.updates.clear();
  const ScanStats st = mon.scan(c.emit());
  EXPECT_EQ(st.inserts_emitted, 0u);
  EXPECT_EQ(st.removes_emitted, 0u);
  EXPECT_TRUE(c.updates.empty());
}

TEST_P(MonitorModes, ChangeEmitsRemoveTheInsert) {
  MemoryEntity e(entity_id(0), node_id(0), EntityKind::kProcess, 8, kBlk);
  MemoryUpdateMonitor mon(hash::BlockHasher{}, GetParam());
  mon.attach(e);
  Collected c;
  (void)mon.scan(c.emit());
  const ContentHash old_hash = (*mon.known_hashes(entity_id(0)))[3];
  c.updates.clear();

  stamp(e, 3, 0xdeadbeef);
  const ScanStats st = mon.scan(c.emit());
  EXPECT_EQ(st.removes_emitted, 1u);
  EXPECT_EQ(st.inserts_emitted, 1u);
  ASSERT_EQ(c.updates.size(), 2u);
  EXPECT_EQ(c.updates[0].op, ContentUpdate::Op::kRemove);
  EXPECT_EQ(c.updates[0].hash, old_hash);
  EXPECT_EQ(c.updates[1].op, ContentUpdate::Op::kInsert);
  EXPECT_NE(c.updates[1].hash, old_hash);
}

INSTANTIATE_TEST_SUITE_P(AllModes, MonitorModes,
                         ::testing::Values(DetectMode::kFullScan, DetectMode::kDirtyBit,
                                           DetectMode::kCopyOnWrite));

TEST(Monitor, DirtyModeOnlyHashesDirtyBlocks) {
  MemoryEntity e(entity_id(0), node_id(0), EntityKind::kProcess, 100, kBlk);
  MemoryUpdateMonitor mon(hash::BlockHasher{}, DetectMode::kDirtyBit);
  mon.attach(e);
  Collected c;
  (void)mon.scan(c.emit());

  stamp(e, 7, 1);
  stamp(e, 42, 2);
  const ScanStats st = mon.scan(c.emit());
  EXPECT_EQ(st.blocks_hashed, 2u);  // scan mode would hash all 100

  MemoryEntity e2(entity_id(1), node_id(0), EntityKind::kProcess, 100, kBlk);
  MemoryUpdateMonitor full(hash::BlockHasher{}, DetectMode::kFullScan);
  full.attach(e2);
  (void)full.scan(c.emit());
  stamp(e2, 7, 1);
  const ScanStats st2 = full.scan(c.emit());
  EXPECT_EQ(st2.blocks_hashed, 100u);
}

TEST(Monitor, ThrottleCarriesOverAndEventuallyCatchesUp) {
  MemoryEntity e(entity_id(0), node_id(0), EntityKind::kProcess, 50, kBlk);
  for (BlockIndex b = 0; b < 50; ++b) stamp(e, b, b + 1000);
  MemoryUpdateMonitor mon(hash::BlockHasher{}, DetectMode::kDirtyBit);
  mon.attach(e);
  mon.set_update_budget(10);

  Collected c;
  std::size_t total_inserts = 0;
  int epochs = 0;
  while (total_inserts < 50 && epochs < 20) {
    const ScanStats st = mon.scan(c.emit());
    EXPECT_LE(st.inserts_emitted + st.removes_emitted, 10u);
    total_inserts += st.inserts_emitted;
    ++epochs;
  }
  EXPECT_EQ(total_inserts, 50u);
  EXPECT_EQ(epochs, 5);  // 50 blocks at 10 updates per epoch
}

TEST(Monitor, ThrottledScanWithSpareBudgetMatchesBatchedScan) {
  // A budget larger than any epoch's change set never defers a block, so
  // the throttled per-block path and the unthrottled hash_many path must
  // emit the same stream and charge the same counters.
  constexpr std::size_t kBlocks = 150;  // above the pool threshold
  for (const DetectMode mode : {DetectMode::kFullScan, DetectMode::kDirtyBit}) {
    MemoryEntity a(entity_id(0), node_id(0), EntityKind::kProcess, kBlocks, kBlk);
    MemoryEntity b(entity_id(0), node_id(0), EntityKind::kProcess, kBlocks, kBlk);
    obs::Registry batched_reg;
    obs::Registry throttled_reg;
    MemoryUpdateMonitor batched(hash::BlockHasher{}, mode, &batched_reg, 0);
    MemoryUpdateMonitor throttled(hash::BlockHasher{}, mode, &throttled_reg, 0);
    batched.set_hash_workers(2);
    throttled.set_update_budget(2 * kBlocks + 1);
    batched.attach(a);
    throttled.attach(b);

    Collected ca;
    Collected cb;
    for (std::uint64_t epoch = 0; epoch < 4; ++epoch) {
      for (BlockIndex blk = epoch; blk < kBlocks; blk += 3 + epoch) {
        stamp(a, blk, epoch * 1000 + blk % 7);  // % 7: duplicate content too
        stamp(b, blk, epoch * 1000 + blk % 7);
      }
      (void)batched.scan(ca.emit());
      (void)throttled.scan(cb.emit());
    }
    ASSERT_EQ(ca.updates.size(), cb.updates.size());
    for (std::size_t i = 0; i < ca.updates.size(); ++i) {
      EXPECT_EQ(ca.updates[i].op, cb.updates[i].op) << i;
      EXPECT_EQ(ca.updates[i].hash, cb.updates[i].hash) << i;
      EXPECT_EQ(ca.updates[i].entity, cb.updates[i].entity) << i;
    }
    EXPECT_EQ(batched_reg.to_json(), throttled_reg.to_json());
    EXPECT_EQ(throttled_reg.counter_total("mem", "throttled_blocks"), 0u);
  }
}

TEST(Monitor, CurrentHashesExactAcrossAThrottledScan) {
  for (const DetectMode mode : {DetectMode::kFullScan, DetectMode::kDirtyBit}) {
    MemoryEntity e(entity_id(0), node_id(0), EntityKind::kProcess, 40, kBlk);
    for (BlockIndex b = 0; b < 40; ++b) stamp(e, b, b);
    MemoryUpdateMonitor mon(hash::BlockHasher{}, mode);
    mon.attach(e);
    Collected c;
    (void)mon.scan(c.emit());

    // Every block scanned; now rewrite most of them and scan under a budget
    // of 5 changed blocks, so the rest stay pending with clean dirty bits.
    for (BlockIndex b = 0; b < 30; ++b) stamp(e, b, 100 + b);
    mon.set_update_budget(10);
    const ScanStats st = mon.scan(c.emit());
    ASSERT_GT(st.throttled_blocks, 0u);
    expect_current(mon, e);

    stamp(e, 29, 7);  // a pending block written again
    expect_current(mon, e);
    for (int epoch = 0; epoch < 8; ++epoch) (void)mon.scan(c.emit());
    expect_current(mon, e);
  }
}

TEST(Monitor, CurrentHashesOfAnEntityAttachedAfterTheScan) {
  MemoryEntity a(entity_id(0), node_id(0), EntityKind::kProcess, 8, kBlk);
  for (BlockIndex b = 0; b < 8; ++b) stamp(a, b, b);
  MemoryUpdateMonitor mon(hash::BlockHasher{}, DetectMode::kDirtyBit);
  mon.attach(a);
  Collected c;
  (void)mon.scan(c.emit());

  MemoryEntity b(entity_id(1), node_id(0), EntityKind::kProcess, 8, kBlk);
  for (BlockIndex blk = 0; blk < 8; ++blk) stamp(b, blk, 50 + blk);
  expect_current(mon, b);  // untracked: hashed whole
  mon.attach(b);
  expect_current(mon, b);
  expect_current(mon, a);
}

TEST(Monitor, CurrentHashesAfterDetachAndReattach) {
  for (const DetectMode mode : {DetectMode::kFullScan, DetectMode::kDirtyBit}) {
    MemoryEntity e(entity_id(0), node_id(0), EntityKind::kProcess, 8, kBlk);
    for (BlockIndex b = 0; b < 8; ++b) stamp(e, b, b + 1);
    MemoryUpdateMonitor mon(hash::BlockHasher{}, mode);
    mon.attach(e);
    Collected c;
    (void)mon.scan(c.emit());
    mon.detach(entity_id(0));
    stamp(e, 2, 99);
    // Re-attached, the clean blocks were scanned once but not since the
    // monitor forgot them.
    mon.attach(e);
    expect_current(mon, e);
    (void)mon.scan(c.emit());
    expect_current(mon, e);
  }
}

TEST(Monitor, BlockMapTracksDuplicateContent) {
  MemoryEntity e(entity_id(0), node_id(0), EntityKind::kProcess, 4, kBlk);
  stamp(e, 0, 7);
  stamp(e, 1, 7);  // same content as block 0
  stamp(e, 2, 8);
  stamp(e, 3, 9);
  MemoryUpdateMonitor mon;
  mon.attach(e);
  Collected c;
  (void)mon.scan(c.emit());

  EXPECT_EQ(mon.block_map().unique_hashes(), 3u);
  const ContentHash dup = (*mon.known_hashes(entity_id(0)))[0];
  EXPECT_EQ(mon.block_map().copies(dup), 2u);
  const auto* locs = mon.block_map().find(dup);
  ASSERT_NE(locs, nullptr);
  EXPECT_EQ(locs->size(), 2u);
}

TEST(Monitor, DetachDropsGroundTruth) {
  MemoryEntity e(entity_id(0), node_id(0), EntityKind::kProcess, 4, kBlk);
  MemoryUpdateMonitor mon;
  mon.attach(e);
  Collected c;
  (void)mon.scan(c.emit());
  EXPECT_EQ(mon.tracked_entities(), 1u);
  mon.detach(entity_id(0));
  EXPECT_EQ(mon.tracked_entities(), 0u);
  EXPECT_EQ(mon.block_map().unique_hashes(), 0u);
  EXPECT_EQ(mon.known_hashes(entity_id(0)), nullptr);
}

TEST(Monitor, MultipleEntitiesShareTheMap) {
  MemoryEntity a(entity_id(0), node_id(0), EntityKind::kProcess, 2, kBlk);
  MemoryEntity b(entity_id(1), node_id(0), EntityKind::kVirtualMachine, 2, kBlk);
  stamp(a, 0, 5);
  stamp(b, 1, 5);  // same content across entities
  MemoryUpdateMonitor mon;
  mon.attach(a);
  mon.attach(b);
  Collected c;
  (void)mon.scan(c.emit());
  const ContentHash h = (*mon.known_hashes(entity_id(0)))[0];
  EXPECT_EQ(mon.block_map().copies(h), 2u);
}

TEST(LocalBlockMap, RemoveSpecificLocation) {
  LocalBlockMap map;
  const ContentHash h{1, 2};
  map.add(h, {entity_id(0), 5});
  map.add(h, {entity_id(1), 9});
  EXPECT_TRUE(map.remove(h, {entity_id(0), 5}));
  EXPECT_FALSE(map.remove(h, {entity_id(0), 5}));  // already gone
  EXPECT_EQ(map.copies(h), 1u);
  EXPECT_TRUE(map.remove(h, {entity_id(1), 9}));
  EXPECT_EQ(map.find(h), nullptr);  // entry erased when drained
}

}  // namespace
}  // namespace concord::mem
