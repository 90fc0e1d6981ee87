// Figure 16: checkpoint response time as the number of SEs and nodes grows
// with constant memory per SE.
//
// Paper: every strategy's response time is independent of the node count;
// collective checkpointing stays within a constant factor of the
// embarrassingly parallel raw checkpoint — the asymptotic cost of adding
// redundancy awareness is a constant.
//
// Every ConCORD checkpoint is restored and compared with the live memory of
// each SE; the bench exits 1 when a command status is not ok or a restore is
// not bit-exact. `--smoke` sweeps 1, 2 and 4 nodes only.
#include <cstring>
#include <memory>

#include "bench_util.hpp"
#include "services/checkpoint_format.hpp"
#include "services/collective_checkpoint.hpp"
#include "services/raw_checkpoint.hpp"
#include "svc/command_engine.hpp"
#include "workload/workloads.hpp"

using namespace concord;

namespace {

constexpr std::size_t kBlocksPerSe = 1024;  // 4 MB/process (paper: 1 GB)

struct Row {
  std::uint32_t nodes;
  double rawgz_ms, concord_ms, raw_ms;
  bool exact;  // command ok and every SE restored bit-exact
};

/// Restores every SE from the checkpoint and compares it with live memory.
bool restores_exact(core::Cluster& cluster,
                    const services::CollectiveCheckpointService& ckpt,
                    const std::vector<EntityId>& ses) {
  for (const EntityId e : ses) {
    const auto restored =
        services::restore_entity(cluster.fs(), ckpt.se_path(e), ckpt.shared_path());
    const mem::MemoryEntity& ent = cluster.entity(e);
    if (!restored.has_value() || restored.value().size() != ent.memory_bytes() ||
        std::memcmp(restored.value().data(), ent.block(0).data(), ent.memory_bytes()) != 0) {
      return false;
    }
  }
  return true;
}

Row run(std::uint32_t nodes) {
  core::ClusterParams p;
  p.num_nodes = nodes;
  p.max_entities = nodes + 1;
  p.seed = 16;
  auto cluster = std::make_unique<core::Cluster>(p);
  std::vector<EntityId> ses;
  for (std::uint32_t n = 0; n < nodes; ++n) {
    mem::MemoryEntity& e = cluster->create_entity(node_id(n), EntityKind::kProcess,
                                                  kBlocksPerSe, kDefaultBlockSize);
    workload::fill(e, workload::defaults_for(workload::Kind::kMoldy, 6));
    ses.push_back(e.id());
  }
  (void)cluster->scan_all();

  Row r;
  r.nodes = nodes;
  r.raw_ms = bench::to_ms(services::raw_checkpoint(*cluster, ses, "raw").response_time);
  r.rawgz_ms =
      bench::to_ms(services::raw_checkpoint(*cluster, ses, "rawgz", true).response_time);

  services::CollectiveCheckpointService ckpt(*cluster);
  svc::CommandEngine engine(*cluster);
  svc::CommandSpec spec;
  spec.service_entities = ses;
  const svc::CommandStats stats = engine.execute(ckpt, spec);
  r.concord_ms = ok(stats.status) ? bench::to_ms(stats.latency()) : -1.0;
  r.exact = ok(stats.status) && restores_exact(*cluster, ckpt, ses);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::banner(
      "Figure 16 — checkpoint response time vs #SEs = #nodes (1 GB/process scaled)",
      "response time flat in node count for all strategies; ConCORD within a "
      "constant of raw",
      "4 MB/process of 4 KB pages (paper: 1 GB/process); sweep 1-20 nodes");

  std::printf("%8s %14s %14s %12s %10s\n", "nodes", "Raw-gzip ms", "ConCORD ms", "Raw ms",
              "restore");
  std::vector<std::uint32_t> sweep = {1u, 2u, 4u, 8u, 12u, 16u, 20u};
  if (smoke) sweep = {1u, 2u, 4u};
  bool all_exact = true;
  for (const std::uint32_t nodes : sweep) {
    const Row r = run(nodes);
    std::printf("%8u %14.2f %14.2f %12.2f %10s\n", r.nodes, r.rawgz_ms, r.concord_ms, r.raw_ms,
                r.exact ? "exact" : "FAILED");
    all_exact = all_exact && r.exact;
  }
  std::printf("\n  command ok and every SE restored bit-exact: %s\n",
              all_exact ? "yes" : "NO");
  return all_exact ? 0 : 1;
}
