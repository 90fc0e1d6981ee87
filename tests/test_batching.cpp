// Tests for the owner-batched DHT update pipeline: batched and unbatched
// runs must agree on DHT contents, departures must flush deterministically,
// loss must drop whole batches and still converge under audit, and the
// batching metrics must be populated.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/update_batcher.hpp"
#include "services/dht_audit.hpp"
#include "workload/workloads.hpp"

namespace concord {
namespace {

core::ClusterParams make_params(bool batched, double loss, std::uint64_t seed) {
  core::ClusterParams p;
  p.num_nodes = 4;
  p.max_entities = 16;
  p.seed = seed;
  p.fabric.loss_rate = loss;
  p.update_batching.enabled = batched;
  return p;
}

void populate(core::Cluster& cluster, std::size_t blocks) {
  for (std::uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    mem::MemoryEntity& e =
        cluster.create_entity(node_id(n), EntityKind::kProcess, blocks, 512);
    workload::fill(e, workload::defaults_for(workload::Kind::kRandom, n + 11));
  }
}

/// Sorted (hash, bitmap words) dump of every shard, comparable across runs.
std::vector<std::string> dht_dump(core::Cluster& cluster) {
  std::vector<std::string> out;
  for (std::uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    cluster.daemon(node_id(n)).store().for_each_entry(
        [&](const ContentHash& h, const std::uint64_t* words, std::size_t nwords) {
          std::string line = std::to_string(n) + ":" + std::to_string(h.hi) + "," +
                             std::to_string(h.lo);
          for (std::size_t w = 0; w < nwords; ++w) {
            line += ':';  // appended separately: GCC 12's -O3 restrict
            line += std::to_string(words[w]);  // checker trips on `"" + str&&`
          }
          out.push_back(std::move(line));
        });
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Batching, PolicyMaxRecordsMatchesMtu) {
  core::BatchPolicy p;
  EXPECT_EQ(p.max_records(), (1500u - net::kWireHeaderBytes - 2u) / 21u);  // 68
  p.mtu_bytes = 0;
  EXPECT_EQ(p.max_records(), 1u);  // never below one record
  p.mtu_bytes = 1u << 20;
  EXPECT_EQ(p.max_records(), net::codec::kMaxDhtBatchRecords);  // codec bound
}

TEST(Batching, BatchedScanSendsOnlyBatchDatagramsAndMatchesUnbatched) {
  core::Cluster batched(make_params(true, 0.0, 21));
  core::Cluster unbatched(make_params(false, 0.0, 21));
  populate(batched, 64);
  populate(unbatched, 64);
  (void)batched.scan_all();
  (void)unbatched.scan_all();

  // Same DHT contents, entirely different wire traffic.
  EXPECT_EQ(dht_dump(batched), dht_dump(unbatched));
  EXPECT_EQ(batched.fabric().type_msgs(net::MsgType::kDhtInsert), 0u);
  EXPECT_EQ(batched.fabric().type_msgs(net::MsgType::kDhtRemove), 0u);
  EXPECT_GT(batched.fabric().type_msgs(net::MsgType::kDhtUpdateBatch), 0u);
  EXPECT_EQ(unbatched.fabric().type_msgs(net::MsgType::kDhtUpdateBatch), 0u);

  // The point of the PR: an order of magnitude fewer datagrams, fewer bytes.
  const std::uint64_t single_msgs =
      unbatched.fabric().type_msgs(net::MsgType::kDhtInsert) +
      unbatched.fabric().type_msgs(net::MsgType::kDhtRemove);
  const std::uint64_t batch_msgs =
      batched.fabric().type_msgs(net::MsgType::kDhtUpdateBatch);
  EXPECT_GE(single_msgs, 10 * batch_msgs);
  const std::uint64_t single_bytes =
      unbatched.fabric().type_bytes(net::MsgType::kDhtInsert) +
      unbatched.fabric().type_bytes(net::MsgType::kDhtRemove);
  const std::uint64_t batch_bytes =
      batched.fabric().type_bytes(net::MsgType::kDhtUpdateBatch);
  EXPECT_LT(batch_bytes, single_bytes * 3 / 4);

  // Every remote update was carried by a batch, and the fill histogram saw
  // one sample per shipped datagram.
  const std::uint64_t batched_records =
      batched.metrics().counter_total("core", "updates_batched");
  const std::uint64_t remote =
      batched.metrics().counter_total("core", "updates_remote");
  EXPECT_EQ(batched_records, remote);
  std::uint64_t fill_count = 0, fill_sum = 0;
  batched.metrics().for_each([&](const obs::MetricKey& key, const obs::Registry::Cell& c) {
    if (key.subsystem == "net" && key.name == "batch_fill") {
      fill_count += std::get<obs::Histogram>(c).count();
      fill_sum += std::get<obs::Histogram>(c).sum();
    }
  });
  EXPECT_EQ(fill_count, batch_msgs);
  EXPECT_EQ(fill_sum, batched_records);
}

TEST(Batching, ConvergesToUnbatchedContentsUnderSeededLoss) {
  // Property: whole batches drop (mirroring real UDP), yet after audit
  // repair both pipelines land on the same contents — ground truth. 20% loss
  // over ~24 batch datagrams guarantees (seeded) that whole batches vanish.
  core::Cluster batched(make_params(true, 0.2, 77));
  core::Cluster unbatched(make_params(false, 0.2, 77));
  populate(batched, 512);
  populate(unbatched, 512);
  (void)batched.scan_all();
  (void)unbatched.scan_all();

  // Loss must actually have bitten the batched run for this to mean much,
  // and before repair the lost batches must be visible as missing content.
  EXPECT_GT(batched.fabric().total_traffic().msgs_dropped, 0u);
  EXPECT_NE(dht_dump(batched), dht_dump(unbatched));

  services::DhtAudit(batched).run_to_convergence();
  services::DhtAudit(unbatched).run_to_convergence();
  EXPECT_EQ(dht_dump(batched), dht_dump(unbatched));
}

TEST(Batching, DepartureRemovesAreFlushedBeforeDetach) {
  core::Cluster cluster(make_params(true, 0.0, 5));
  populate(cluster, 32);
  (void)cluster.scan_all();
  const std::size_t before = cluster.total_unique_hashes();
  ASSERT_GT(before, 0u);

  // 32 removes do not fill a 68-record batch; only the explicit departure
  // flush can ship them. Without it the DHT would keep advertising entity 0.
  cluster.depart_entity(entity_id(0));
  for (std::uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    cluster.daemon(node_id(n)).store().for_each_entry(
        [&](const ContentHash&, const std::uint64_t* words, std::size_t nwords) {
          if (nwords > 0) {
            EXPECT_EQ(words[0] & 1u, 0u);  // entity 0 = bit 0
          }
        });
  }
  EXPECT_EQ(cluster.daemon(node_id(0)).batcher().pending_records(), 0u);
}

TEST(Batching, ThrottledScansStillBatch) {
  core::Cluster cluster(make_params(true, 0.0, 13));
  populate(cluster, 64);
  for (std::uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    cluster.daemon(node_id(n)).monitor().set_update_budget(10);
  }
  const mem::ScanStats s = cluster.scan_all();
  EXPECT_GT(s.throttled_blocks, 0u);
  EXPECT_EQ(cluster.fabric().type_msgs(net::MsgType::kDhtInsert), 0u);
  // Emitted remote updates still rode batch datagrams, scan-boundary flushed.
  EXPECT_EQ(cluster.metrics().counter_total("core", "updates_batched"),
            cluster.metrics().counter_total("core", "updates_remote"));
}

TEST(Batching, PendingRecordsRemapToSuccessorWhenOwnerCrashesBeforeFlush) {
  // Regression: records buffered for an owner that died between enqueue and
  // flush used to ship to the stale destination and blackhole — convergence
  // then silently depended on the next audit. flush must re-route every
  // pending record through the epoch-aware placement.
  core::Cluster cluster(make_params(true, 0.0, 9));
  populate(cluster, 32);
  (void)cluster.scan_all();

  // A synthetic update whose owner is a node we are about to crash. The
  // default 1500 B MTU holds 68 records, so one record sits in the buffer.
  const ContentHash h{0xfeedULL, 0xbeefULL};
  const NodeId old_owner = cluster.placement().owner(h);
  ASSERT_NE(old_owner, node_id(0));
  cluster.daemon(node_id(0)).batcher().add(old_owner,
                                           dht::UpdateRecord{h, entity_id(1), true});
  ASSERT_GT(cluster.daemon(node_id(0)).batcher().pending_records(), 0u);

  cluster.fault().crash(old_owner);
  (void)cluster.detect();  // epoch advances; placement drops the dead node
  const NodeId new_owner = cluster.placement().owner(h);
  ASSERT_NE(new_owner, old_owner);

  cluster.daemon(node_id(0)).flush_updates();
  cluster.sim().run();

  // The record landed at the epoch-aware successor — no audit pass needed —
  // and the remap is visible in the metrics.
  EXPECT_TRUE(cluster.daemon(new_owner).store().contains(h, entity_id(1)));
  EXPECT_GE(cluster.metrics().counter_total("core", "updates_remapped"), 1u);
  EXPECT_EQ(cluster.daemon(node_id(0)).batcher().pending_records(), 0u);
}

TEST(Batching, UnhandledMessagesAreCounted) {
  core::Cluster cluster(make_params(true, 0.0, 3));
  EXPECT_EQ(cluster.metrics().counter_total("core", "unhandled_msgs"), 0u);
  cluster.fabric().send_unreliable(net::make_message(
      node_id(0), node_id(1), net::MsgType::kControl, std::string("noop"), 4));
  cluster.sim().run();
  EXPECT_EQ(cluster.metrics().counter_total("core", "unhandled_msgs"), 1u);
}

/// One update record, keyed by a distinct hash per `i`.
dht::UpdateRecord record(std::uint64_t i) {
  return dht::UpdateRecord{ContentHash{i + 1, 0x5eedULL}, entity_id(1), true};
}

TEST(Batching, FlushAllShipsInAscendingNodeOrder) {
  // Buffers filled in descending NodeId order still flush in ascending
  // order: flush traffic must not depend on buffering history.
  sim::Simulation simu{5};
  net::Fabric fabric(simu, net::FabricParams{});
  core::UpdateBatcher batcher(node_id(0), fabric, core::BatchPolicy{});
  core::SendStage stage;
  batcher.set_send_stage(&stage);
  for (std::uint32_t dst = 9; dst >= 1; --dst) {
    batcher.add(node_id(dst), record(dst));
    batcher.add(node_id(dst), record(dst + 100));
  }
  batcher.flush_all();
  ASSERT_EQ(stage.sends.size(), 9u);
  for (std::size_t i = 0; i < stage.sends.size(); ++i) {
    EXPECT_EQ(stage.sends[i].dst, node_id(static_cast<std::uint32_t>(i + 1)));
    EXPECT_EQ(stage.sends[i].count, 2u);
  }
  EXPECT_EQ(batcher.pending_records(), 0u);
}

TEST(Batching, RemapKeysOnPlacementGenerationNotEpoch) {
  // A view change that keeps the epoch number (only `alive` differs) must
  // still re-route buffered records: the batcher skips its remap only while
  // the placement's generation is unchanged.
  sim::Simulation simu{6};
  net::Fabric fabric(simu, net::FabricParams{});
  dht::Placement placement(4);
  core::UpdateBatcher batcher(node_id(0), fabric, core::BatchPolicy{}, &placement);
  core::SendStage stage;
  batcher.set_send_stage(&stage);

  std::uint64_t i = 0;
  while (placement.owner(record(i).hash) != node_id(2)) ++i;
  batcher.add(node_id(2), record(i));
  placement.set_view(placement.epoch(), {true, true, false, true});
  ASSERT_EQ(placement.owner(record(i).hash), node_id(3));
  batcher.flush_all();
  ASSERT_EQ(stage.sends.size(), 1u);
  EXPECT_EQ(stage.sends[0].dst, node_id(3));

  // Unchanged generation: records are trusted where their caller put them.
  stage.clear();
  batcher.add(node_id(3), record(i));
  batcher.flush_all();
  ASSERT_EQ(stage.sends.size(), 1u);
  EXPECT_EQ(stage.sends[0].dst, node_id(3));
}

TEST(Batching, TracedApplySpanCountsRecordsOfMovedPayload) {
  // The staged inbox references a scan-epoch batch's records in its
  // sender's stage; the apply marker recorded at delivery must still carry
  // the full record count.
  core::ClusterParams p = make_params(true, 0.0, 17);
  p.trace_propagation = true;
  core::Cluster cluster(p);
  populate(cluster, 64);
  (void)cluster.scan_all();

  std::uint64_t span_records = 0;
  std::size_t spans = 0;
  const obs::Tracer& tracer = cluster.tracer();
  for (std::size_t id = 0; id < tracer.span_count(); ++id) {
    const obs::TraceSpan& span = tracer.span(id);
    if (span.name != "apply_batch") continue;
    ++spans;
    for (const obs::TraceArg& arg : span.args) {
      if (arg.key == "records") span_records += arg.value;
    }
  }
  ASSERT_GT(spans, 0u);
  EXPECT_EQ(span_records, cluster.metrics().counter_total("core", "updates_batched"));
  EXPECT_EQ(cluster.fabric().type_msgs(net::MsgType::kDhtUpdateBatch), spans);

  // And the moved payloads were applied: batched contents match unbatched.
  core::Cluster unbatched(make_params(false, 0.0, 17));
  populate(unbatched, 64);
  (void)unbatched.scan_all();
  EXPECT_EQ(dht_dump(cluster), dht_dump(unbatched));
}

TEST(Batching, SilentCorruptionPoisonsTheStagedFirstRecordAtAnyWorkerCount) {
  // Checksums off, every datagram corrupted: a scan epoch's batches travel
  // by reference into their sender's stage, and the corruptor flips the
  // first record's hash there. The owner must end up holding the flipped
  // hash, not the sent one, whichever worker count ran the epoch.
  std::vector<std::vector<std::string>> dumps;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    core::ClusterParams p = make_params(true, 0.0, 29);
    p.fabric.corrupt_rate = 1.0;
    p.fabric.checksum_enabled = false;
    p.sim_workers = workers;
    core::Cluster cluster(p);
    populate(cluster, 16);
    (void)cluster.scan_all();

    // 16 blocks per node stay far below one datagram's record budget, so
    // each (sender, owner) pair ships exactly one batch, whose first record
    // is the sender's first block, in block order, that the owner homes.
    std::size_t flipped = 0;
    for (std::uint32_t n = 0; n < cluster.num_nodes(); ++n) {
      const EntityId e = cluster.live_entities()[n];
      const std::vector<ContentHash>* hashes =
          cluster.daemon(node_id(n)).monitor().known_hashes(e);
      ASSERT_NE(hashes, nullptr);
      std::vector<NodeId> seen;
      for (const ContentHash& h : *hashes) {
        const NodeId owner = cluster.placement().owner(h);
        if (owner == node_id(n) ||
            std::find(seen.begin(), seen.end(), owner) != seen.end()) {
          continue;
        }
        seen.push_back(owner);
        ContentHash poisoned = h;
        poisoned.lo ^= 1;
        const dht::DhtStore& store = cluster.daemon(owner).store();
        EXPECT_TRUE(store.contains(poisoned, e)) << "node " << n << " -> " << raw(owner);
        EXPECT_FALSE(store.contains(h, e)) << "node " << n << " -> " << raw(owner);
        ++flipped;
      }
    }
    EXPECT_EQ(flipped, cluster.fabric().type_msgs(net::MsgType::kDhtUpdateBatch));
    dumps.push_back(dht_dump(cluster));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(Batching, ApplyBatchMatchesSequentialApplication) {
  dht::DhtStore batched_store(16);
  dht::DhtStore serial_store(16);
  std::vector<dht::UpdateRecord> records;
  for (std::uint64_t i = 0; i < 200; ++i) {
    // Colliding hashes (i % 17) with interleaved insert/remove: order within
    // one hash matters, and apply_batch must preserve it.
    records.push_back(dht::UpdateRecord{ContentHash{i % 17 + 1, 99},
                                        entity_id(static_cast<std::uint32_t>(i % 5)),
                                        (i % 3) != 2});
  }
  batched_store.apply_batch(records);
  for (const dht::UpdateRecord& r : records) {
    if (r.insert) {
      serial_store.insert(r.hash, r.entity);
    } else {
      serial_store.remove(r.hash, r.entity);
    }
  }
  EXPECT_EQ(batched_store.unique_hashes(), serial_store.unique_hashes());
  for (std::uint64_t h = 1; h <= 17; ++h) {
    for (std::uint32_t e = 0; e < 5; ++e) {
      EXPECT_EQ(batched_store.contains(ContentHash{h, 99}, entity_id(e)),
                serial_store.contains(ContentHash{h, 99}, entity_id(e)));
    }
  }
}

}  // namespace
}  // namespace concord
