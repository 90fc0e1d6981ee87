// Big-cluster scale-out (PR 7): sharded deterministic scan epochs + compact
// open-addressing DhtStore, at the paper's "thousands of nodes" regime
// (§5.4's scaling argument pushed to emulation scale).
//
// Two measurements:
//   * store micro-bench — 10M entries into the pointer-chained baseline
//     (ChainedDhtStore) vs the compact SoA store, both pool-backed; the
//     acceptance gate is >= 30% fewer bytes/entry for the compact layout;
//   * cluster sweep — 4096 nodes scanning 10M blocks per epoch, swept over
//     sim_workers {1, 2, 4, 8}; per-config wall ms for the steady-state
//     scan, split into its four pipeline phases (Cluster::scan_phase_host_ns),
//     plus a byte-identity check that every worker count produces the
//     identical metrics snapshot and virtual clock (determinism is part of
//     the contract, not a best effort).
//
// `--smoke` runs the same scale (the sweep IS the smoke: the point is that
// 4096 nodes / 10M blocks fits the CI budget) and writes BENCH_pr7.json,
// whose scan_ms rows carry each worker count's phase split too.
// The >= 2x speedup gate at sim_workers=4 only arms on hosts with >= 4
// hardware threads — a 1-core runner can demonstrate determinism, not
// parallel speedup.
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/cluster.hpp"
#include "dht/chained_store.hpp"
#include "dht/dht_store.hpp"
#include "workload/workloads.hpp"

using namespace concord;

namespace {

constexpr std::uint32_t kNodes = 4096;
constexpr std::uint64_t kTotalBlocks = 10'000'000;
constexpr std::size_t kBlockSize = 64;  // small blocks: 10M of them in ~640 MB
constexpr std::uint64_t kBlocksPerNode = kTotalBlocks / kNodes;
constexpr std::uint64_t kStoreEntries = 10'000'000;
constexpr std::uint32_t kStoreEntities = 256;

struct StoreRow {
  double chained_bpe = 0;
  double compact_bpe = 0;
  std::int64_t chained_ms = 0;
  std::int64_t compact_ms = 0;
};

StoreRow store_microbench() {
  StoreRow row;
  {
    dht::ChainedDhtStore chained(kStoreEntities, dht::AllocMode::kPool);
    row.chained_ms = bench::wall_ns([&] {
                       for (std::uint64_t i = 0; i < kStoreEntries; ++i) {
                         chained.insert(bench::synth_hash(i),
                                        entity_id(static_cast<std::uint32_t>(i % kStoreEntities)));
                       }
                     }) /
                     1'000'000;
    row.chained_bpe = static_cast<double>(chained.memory_bytes()) / kStoreEntries;
  }
  {
    dht::DhtStore compact(kStoreEntities, dht::AllocMode::kPool);
    row.compact_ms = bench::wall_ns([&] {
                       for (std::uint64_t i = 0; i < kStoreEntries; ++i) {
                         compact.insert(bench::synth_hash(i),
                                        entity_id(static_cast<std::uint32_t>(i % kStoreEntities)));
                       }
                     }) /
                     1'000'000;
    row.compact_bpe = static_cast<double>(compact.memory_bytes()) / kStoreEntries;
  }
  return row;
}

struct SweepRow {
  std::size_t workers = 1;
  std::int64_t scan_ms = 0;       // steady-state scan, wall clock
  std::string metrics;            // full registry snapshot after the run
  sim::Time now = 0;              // final virtual clock
  std::uint64_t blocks_hashed = 0;
  core::ScanPhaseHostNs phases;   // host ns per scan_all phase, steady-state scan
};

SweepRow run_cluster(std::size_t workers) {
  core::ClusterParams p;
  p.num_nodes = kNodes;
  p.max_entities = kNodes;  // one entity per node
  p.seed = 7;
  p.sim_workers = workers;
  auto c = std::make_unique<core::Cluster>(p);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    mem::MemoryEntity& e = c->create_entity(node_id(n), EntityKind::kProcess,
                                            kBlocksPerNode, kBlockSize);
    workload::fill(e, workload::defaults_for(workload::Kind::kMoldy, n));
  }
  (void)c->scan_all();  // cold scan: populate every shard
  SweepRow row;
  row.workers = workers;
  mem::ScanStats stats;
  const core::ScanPhaseHostNs before = c->scan_phase_host_ns();
  row.scan_ms = bench::wall_ns([&] { stats = c->scan_all(); }) / 1'000'000;
  const core::ScanPhaseHostNs& after = c->scan_phase_host_ns();
  row.phases = {after.scan - before.scan, after.merge - before.merge,
                after.run - before.run, after.apply - before.apply};
  row.blocks_hashed = stats.blocks_hashed;
  row.metrics = c->metrics().to_json();
  row.now = c->sim().now();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  bench::banner(
      "Big-cluster scale-out — sharded scan epochs + compact DhtStore (PR 7)",
      "content tracking scales to thousands of nodes; DHT memory overhead "
      "stays a small fraction of tracked memory",
      "4096 emulated nodes, 10M blocks of 64 B per epoch on one host; store "
      "micro-bench loads 10M entries into chained vs compact layouts");

  // --- store layout: bytes/entry at 10M entries --------------------------
  std::printf("\n%12s %14s %12s\n", "layout", "bytes/entry", "load ms");
  const StoreRow store = store_microbench();
  std::printf("%12s %14.1f %12lld\n", "chained", store.chained_bpe,
              static_cast<long long>(store.chained_ms));
  std::printf("%12s %14.1f %12lld\n", "compact", store.compact_bpe,
              static_cast<long long>(store.compact_ms));
  const double ratio = store.compact_bpe / store.chained_bpe;
  std::printf("  compact/chained = %.3f (acceptance: <= 0.70)\n", ratio);

  // --- cluster sweep: wall ms per scan vs sim_workers --------------------
  // The phase columns split "scan ms" into Cluster::scan_all's pipeline:
  // parallel scan, sequential merge, sim().run() delivery, parallel apply.
  std::printf("\n%8s %10s %8s %8s %8s %8s %14s %16s\n", "workers", "scan ms", "scan",
              "merge", "run", "apply", "blocks hashed", "virtual now ms");
  std::vector<SweepRow> rows;
  for (const std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    rows.push_back(run_cluster(w));
    const SweepRow& r = rows.back();
    std::printf("%8zu %10lld %8.1f %8.1f %8.1f %8.1f %14llu %16.2f\n", r.workers,
                static_cast<long long>(r.scan_ms), bench::to_ms(r.phases.scan),
                bench::to_ms(r.phases.merge), bench::to_ms(r.phases.run),
                bench::to_ms(r.phases.apply),
                static_cast<unsigned long long>(r.blocks_hashed),
                bench::to_ms(r.now));
  }

  bool identical = true;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].metrics != rows[0].metrics || rows[i].now != rows[0].now) {
      identical = false;
      std::printf("  DETERMINISM BROKEN: workers=%zu diverges from workers=1\n",
                  rows[i].workers);
    }
  }
  if (identical) {
    std::printf("  snapshots byte-identical across all worker counts\n");
  }

  const std::size_t hw = std::thread::hardware_concurrency();
  const double speedup4 =
      rows[2].scan_ms > 0 ? static_cast<double>(rows[0].scan_ms) /
                                static_cast<double>(rows[2].scan_ms)
                          : 0.0;
  const bool gate_speedup = hw >= 4;
  std::printf("  speedup at 4 workers: %.2fx (host has %zu hardware threads; "
              "gate %s)\n",
              speedup4, hw, gate_speedup ? "armed: >= 2x" : "disarmed");

  if (smoke) {
    std::FILE* f = std::fopen("BENCH_pr7.json", "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"bench\":\"pr7_scale_bigcluster\",\"nodes\":%u,"
                   "\"blocks\":%llu,\"block_size\":%zu,"
                   "\"chained_bytes_per_entry\":%.2f,"
                   "\"compact_bytes_per_entry\":%.2f,\"bpe_ratio\":%.4f,"
                   "\"scan_ms\":[",
                   kNodes, static_cast<unsigned long long>(kTotalBlocks),
                   kBlockSize, store.chained_bpe, store.compact_bpe, ratio);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const core::ScanPhaseHostNs& ph = rows[i].phases;
        std::fprintf(f,
                     "%s{\"workers\":%zu,\"ms\":%lld,\"phases_ms\":{\"scan\":%.2f,"
                     "\"merge\":%.2f,\"run\":%.2f,\"apply\":%.2f}}",
                     i == 0 ? "" : ",", rows[i].workers,
                     static_cast<long long>(rows[i].scan_ms), bench::to_ms(ph.scan),
                     bench::to_ms(ph.merge), bench::to_ms(ph.run), bench::to_ms(ph.apply));
      }
      std::fprintf(f,
                   "],\"speedup_4w\":%.3f,\"hw_threads\":%zu,"
                   "\"speedup_gate_armed\":%s,\"byte_identical\":%s}\n",
                   speedup4, hw, gate_speedup ? "true" : "false",
                   identical ? "true" : "false");
      std::fclose(f);
      std::printf("\n  [BENCH_pr7.json written]\n");
    }
  }

  if (!identical) return 1;
  if (ratio > 0.70) return 1;
  if (gate_speedup && speedup4 < 2.0) return 1;
  return 0;
}
