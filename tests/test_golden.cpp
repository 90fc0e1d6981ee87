// Golden metric snapshots: a cluster's full metrics CSV, compared byte for
// byte against files committed under tests/golden/.
//
// Three scenarios pin what the registry holds:
//   * plain    — 8 nodes, dirty-bit detection, batched updates, R = 1, no
//                loss: three scan epochs over seeded rewrites;
//   * stressed — R = 2 with loss, checksums plus corruption, duplicates, a
//                small ingress queue with a service rate, pressure control,
//                circuit breakers, the watchdog, and one crash + restart, so
//                the shed, depth, corrupt, remap, pressure and watchdog cells
//                count something;
//   * audited  — R = 2, no loss, 1 ms base latency: a rewritten copy of a
//                doubly held content, then a crash, restart and DhtAudit to
//                convergence, with its AuditReport counts.
// plain and stressed are snapshotted right after construction and again at
// the end, audited at the end. No commands, queries or event-driven repair
// services run here. The audit charges the calibrated CostModel, but only
// through the virtual clock, and its scenario is set up so that its counts
// do not depend on the charged times. The one calibrated cell any scenario
// records, mem/scan_cost_ns, is filtered out of the CSV.
//
// On a mismatch the test writes the actual snapshot next to this binary and
// prints its path; regenerating a golden file is copying that file over it.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/cluster.hpp"
#include "services/dht_audit.hpp"
#include "workload/workloads.hpp"

namespace concord {
namespace {

/// The registry's CSV without the host-calibrated scan-cost histogram.
std::string snapshot(const core::Cluster& c) {
  std::istringstream in(c.metrics().to_csv());
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.find(",mem,scan_cost_ns,") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

void expect_golden(const core::Cluster& c, const std::string& name) {
  const std::string actual = snapshot(c);
  std::ifstream golden(std::string(CONCORD_GOLDEN_DIR) + "/" + name, std::ios::binary);
  std::ostringstream expected;
  expected << golden.rdbuf();
  if (golden && expected.str() == actual) return;
  const std::string path = std::string(CONCORD_GOLDEN_OUT_DIR) + "/" + name;
  std::ofstream(path, std::ios::binary) << actual;
  ADD_FAILURE() << "metrics snapshot differs from tests/golden/" << name
                << "; actual written to " << path;
}

void populate(core::Cluster& c, std::uint64_t seed) {
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    mem::MemoryEntity& e = c.create_entity(node_id(n), EntityKind::kProcess, 96, 512);
    workload::fill(e, workload::defaults_for(workload::Kind::kMoldy, seed + n));
  }
}

/// Rewrites a seeded fraction of every live entity's blocks.
void rewrite(core::Cluster& c, std::uint64_t epoch) {
  for (const EntityId id : c.live_entities()) {
    workload::mutate(c.entity(id), 0.2, epoch * 1000 + raw(id));
  }
}

TEST(Golden, PlainScanEpochs) {
  core::ClusterParams p;
  p.num_nodes = 8;
  p.max_entities = 16;
  p.detect_mode = mem::DetectMode::kDirtyBit;
  p.seed = 1901;
  core::Cluster c(p);
  expect_golden(c, "plain_constructed.csv");

  populate(c, 11);
  (void)c.scan_all();
  for (std::uint64_t epoch = 1; epoch <= 2; ++epoch) {
    rewrite(c, epoch);
    (void)c.scan_all();
  }
  expect_golden(c, "plain_scanned.csv");
}

TEST(Golden, StressedCrashAndRestart) {
  core::ClusterParams p;
  p.num_nodes = 8;
  p.max_entities = 16;
  p.detect_mode = mem::DetectMode::kDirtyBit;
  p.seed = 1902;
  p.dht_replication = 2;
  p.update_batching.mtu_bytes = 256;
  p.fabric.loss_rate = 0.05;
  p.fabric.checksum_enabled = true;
  p.fabric.corrupt_rate = 0.03;
  p.fabric.duplicate_rate = 0.03;
  p.fabric.ingress_queue_limit = 6;
  p.fabric.ingress_service = 100 * sim::kMicrosecond;
  p.fabric.breaker_threshold = 2;
  p.pressure = true;
  p.watchdog.enabled = true;
  core::Cluster c(p);
  expect_golden(c, "stressed_constructed.csv");

  populate(c, 23);
  (void)c.scan_all();
  rewrite(c, 1);
  (void)c.scan_all();
  c.fault().crash(node_id(3));
  rewrite(c, 2);
  (void)c.scan_all();
  (void)c.detect();
  rewrite(c, 3);
  (void)c.scan_all();
  c.fault().restart(node_id(3));
  (void)c.detect();
  rewrite(c, 4);
  (void)c.scan_all();
  expect_golden(c, "stressed_final.csv");
}

TEST(Golden, AuditedCrashAndRestart) {
  core::ClusterParams p;
  p.num_nodes = 8;
  p.max_entities = 16;
  p.detect_mode = mem::DetectMode::kDirtyBit;
  p.seed = 1903;
  p.dht_replication = 2;
  // The audit's counts must not depend on the host-calibrated charges that
  // pace a pass. A pass charges some 25 us of virtual time on a typical
  // calibration, far below this latency, so no repair crossing the fabric
  // lands while a pass still walks. The victim's repairs to itself take the
  // 2 us loopback path instead; node 7's shard is walked last, over 10 us
  // after node 7 sent them, so they have always landed by then.
  p.fabric.base_latency = sim::kMillisecond;
  core::Cluster c(p);
  populate(c, 37);
  // Entity 0 holds one content twice, then one copy is rewritten: the scan
  // drops the entity from the content's set, which only the audit restores.
  mem::MemoryEntity& e = c.entity(c.live_entities().front());
  e.write_block(1, e.block(0));
  (void)c.scan_all();
  e.write_block(1, e.block(2));
  (void)c.scan_all();
  c.fault().crash(node_id(7));
  (void)c.detect();
  c.fault().restart(node_id(7));
  (void)c.detect();
  const services::AuditReport r = services::DhtAudit(c).run_to_convergence();
  expect_golden(c, "audited_final.csv");
  EXPECT_EQ(r.entries_checked, 3456u);
  EXPECT_EQ(r.missing_repaired, 174u);
  EXPECT_EQ(r.stale_removed, 0u);
  EXPECT_EQ(r.misplaced_removed, 0u);
  EXPECT_EQ(r.under_replicated, 173u);
  EXPECT_EQ(r.over_replicated, 0u);
  EXPECT_EQ(r.corrupt_quarantined, 0u);
}

}  // namespace
}  // namespace concord
