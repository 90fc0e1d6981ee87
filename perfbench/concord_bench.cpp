// concord_bench: the performance benchmark of the ConCORD reproduction.
//
//   concord_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out <report.json>] [--trace-dir <dir>] [--rev <rev>]
//   concord_bench --quick [--benchmark-json <BENCHMARK.json>] [--spec <spec.json>]
//
// One process runs one named workload as a closed loop: the next scan epoch,
// command round or recovery cycle starts only after the previous one ends.
// Cold set-ups are timed in forked children (setup_s is their median), then
// the measured site is built, warmed up for a few untimed iterations, and
// measured for --seconds. A fixed host reference kernel runs after every
// iteration; op_wall_rel_p90 is the iteration's wall time over the kernel's,
// which cancels most of a shared host's changes in speed.
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones:
// counter deltas per iteration, host-clock spans the benchmark records
// around each public call it makes (written as a Chrome trace with self
// times), and standalone replays of the workload's own inputs through each
// layer's public function. A layer run alternates traced and untraced
// iterations so obs.trace_overhead_pct compares the two in one process.
//
// The last line of standard output is the result:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Every iteration checks the program's outputs (see the check_* helpers);
// any failed check makes "correct" false and the exit status 1.
//
// --quick runs every workload at ~1/50 scale for a few iterations, at
// sim_workers 1 and 4, and checks correctness, that the exact counts do not
// depend on the worker count, and that the report parses and names every
// metric BENCHMARK.json lists. It also checks spec.json, the machine-readable
// workload parameters and per-layer predictions, against both.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_report.hpp"
#include "common/log.hpp"
#include "core/cluster.hpp"
#include "core/cost_model.hpp"
#include "dht/collective_scan.hpp"
#include "dht/dht_store.hpp"
#include "hash/block_hasher.hpp"
#include "mem/update_monitor.hpp"
#include "net/fabric.hpp"
#include "obs/json.hpp"
#include "query/queries.hpp"
#include "services/checkpoint_format.hpp"
#include "services/collective_checkpoint.hpp"
#include "services/dht_audit.hpp"
#include "services/null_service.hpp"
#include "services/replica_resync.hpp"
#include "services/shard_recovery.hpp"
#include "sim/simulation.hpp"
#include "svc/command_engine.hpp"
#include "workload/workloads.hpp"

using namespace concord;

namespace {

using bench::BenchReport;
using bench::SpanRecorder;

enum class OpKind : std::uint8_t { kScan, kCommands, kRecovery };

/// One workload: every node hosts one entity of `blocks` blocks filled with
/// Moldy content; each iteration changes `rewrite` of every entity's blocks
/// (see Runner::rewrite). `sim_workers` is capped by the host's core count.
/// The fabric loses no datagram in any workload: on replica-recovery a lost
/// repair datagram cost its cycle a third audit pass (1.5x the time), and
/// the share of such cycles sat right at p90.
/// README.md records why each one exists and which layers it stresses, and
/// spec.json repeats these parameters (checked by --quick).
struct Workload {
  std::string_view name;
  OpKind op;
  std::uint32_t nodes;
  std::size_t blocks;
  std::size_t block_size;
  mem::DetectMode mode;
  double rewrite;
  std::uint32_t replication;
  std::size_t sim_workers;
};

// The scans run their per-node work on the worker pool, so the scan
// workloads measure it at 2 workers, half the cores of a 4-core host: at 4,
// one core busy with anything else made every epoch wait for a straggler
// (p90 +47%), while at 2 it cost nothing. The command and recovery paths
// are nearly serial, so they run 1 worker.
constexpr Workload kWorkloads[] = {
    // Every epoch re-hashes all tracked memory; hash/mem dominate.
    {"monitor-fullscan", OpKind::kScan, 16, 1024, 4096, mem::DetectMode::kFullScan, 0.02, 1, 2},
    // A quarter of 262k small blocks change per epoch: the DHT write side.
    {"update-churn", OpKind::kScan, 256, 1024, 256, mem::DetectMode::kDirtyBit, 0.25, 1, 2},
    // Null command, collective checkpoint and sharing query on a slightly
    // stale DHT: the read side and the svc/services/fs/query path.
    {"service-commands", OpKind::kCommands, 8, 384, 4096, mem::DetectMode::kDirtyBit, 0.01, 1,
     1},
    // Crash, failover reads, detect, restart, audit at R = 2.
    {"replica-recovery", OpKind::kRecovery, 32, 512, 4096, mem::DetectMode::kDirtyBit, 0.02, 2,
     1},
};

/// Commands and probes address the first kCommandSes entities.
constexpr std::size_t kCommandSes = 8;
/// Node-wise reads per recovery cycle and per query probe.
constexpr std::size_t kReads = 64;
/// A recovery cycle's audit stops at its first clean pass or after this
/// many (DhtAudit::run_to_convergence's default).
constexpr int kMaxAuditPasses = 8;

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10;       // measured loop length, when ops == 0
  std::size_t ops = 0;       // fixed iteration count instead (quick mode)
  bool e2e = true;           // report end-to-end metrics
  bool layers = false;       // report per-layer metrics (traced run)
  std::size_t workers = 1;   // ClusterParams::sim_workers
  std::size_t scale_div = 1; // divides blocks per entity and probe sizes
  std::size_t min_setups = 4;  // cold set-ups repeat until they took
  std::size_t max_setups = 24; // setup_budget_s, within these limits
  double setup_budget_s = 2.0;
  std::size_t warmups = 5;
  std::string trace_dir;     // layer runs write <workload>.trace.json here
  std::string rev = "unknown";
};

double ms_since(std::int64_t t0) { return static_cast<double>(bench::now_ns() - t0) / 1e6; }
double vms(sim::Time t) { return static_cast<double>(t) / 1e6; }

std::uint64_t g_sink = 0;  // keeps probe results observable to the compiler

/// The site under test plus the engines and repair services driving it.
/// Declaration order matters: everything below `cluster` refers to it.
struct Site {
  std::unique_ptr<core::Cluster> cluster;
  std::vector<EntityId> entities;
  std::unique_ptr<services::ShardRecovery> recovery;
  std::unique_ptr<services::ReplicaResync> resync;
  std::unique_ptr<svc::CommandEngine> engine;
  std::unique_ptr<query::QueryEngine> query;
  std::vector<ContentHash> read_set;  // distinct hashes node-wise reads ask about
  /// Recovery only: per node, distinct hashes whose replica group that node
  /// leads and node 0 is not in, so a read from node 0 tries it first.
  std::vector<std::vector<ContentHash>> led_by;
};

std::size_t blocks_of(const Workload& w, const Options& o) {
  return std::max<std::size_t>(16, w.blocks / o.scale_div);
}

/// The collective_scan inputs: a query bitmap over `set` and the flat
/// entity -> host table every daemon knows.
Bitmap query_set(const core::Cluster& c, std::span<const EntityId> set) {
  Bitmap q(c.params().max_entities);
  for (const EntityId e : set) q.set(raw(e));
  return q;
}

std::vector<std::uint32_t> entity_hosts(const core::Cluster& c) {
  std::vector<std::uint32_t> hosts(c.registry().size());
  for (std::uint32_t i = 0; i < hosts.size(); ++i) {
    hosts[i] = raw(c.registry().host_of(entity_id(i)));
  }
  return hosts;
}

std::unique_ptr<Site> make_site(const Workload& w, const Options& o, SpanRecorder& spans,
                                double& fill_ms, std::uint64_t& fill_bytes) {
  core::ClusterParams p;
  p.num_nodes = w.nodes;
  p.max_entities = w.nodes + 1;
  p.hash_algorithm = hash::Algorithm::kMd5;
  p.detect_mode = w.mode;
  p.seed = o.seed;
  p.sim_workers = o.workers;
  p.hash_workers = 1;
  p.dht_replication = w.replication;
  auto site = std::make_unique<Site>();
  site->cluster = std::make_unique<core::Cluster>(p);
  core::Cluster& c = *site->cluster;

  const workload::Params content = workload::defaults_for(workload::Kind::kMoldy, o.seed);
  for (std::uint32_t n = 0; n < w.nodes; ++n) {
    mem::MemoryEntity& e =
        c.create_entity(node_id(n), EntityKind::kProcess, blocks_of(w, o), w.block_size);
    const std::int64_t t0 = bench::now_ns();
    {
      const SpanRecorder::Scope span(spans, "workload.fill");
      workload::fill(e, content);
    }
    fill_ms += ms_since(t0);
    fill_bytes += e.memory_bytes();
    site->entities.push_back(e.id());
  }
  {
    const SpanRecorder::Scope span(spans, "core.scan_all");
    (void)c.scan_all();
  }
  if (w.op == OpKind::kRecovery) {
    site->recovery = std::make_unique<services::ShardRecovery>(c);
    site->resync = std::make_unique<services::ReplicaResync>(c);
    // Start the loop from an audited site.
    (void)services::DhtAudit(c).run_to_convergence();
  }
  site->engine = std::make_unique<svc::CommandEngine>(c);
  site->query = std::make_unique<query::QueryEngine>(c);

  std::set<ContentHash> seen;
  const std::vector<ContentHash>& known =
      *c.daemon(node_id(0)).monitor().known_hashes(site->entities[0]);
  for (const ContentHash& h : known) {
    if (site->read_set.size() == kReads) break;
    if (seen.insert(h).second) site->read_set.push_back(h);
  }
  if (w.op == OpKind::kRecovery) {
    site->led_by.resize(w.nodes);
    for (const EntityId e : site->entities) {
      for (const ContentHash& h : *c.daemon(c.registry().host_of(e)).monitor().known_hashes(e)) {
        const std::vector<NodeId> group = c.placement().replicas(h);
        std::vector<ContentHash>& led = site->led_by[raw(group.front())];
        if (led.size() < kReads && std::find(group.begin(), group.end(), node_id(0)) ==
                                       group.end() &&
            std::find(led.begin(), led.end(), h) == led.end()) {
          led.push_back(h);
        }
      }
    }
  }
  c.tracer().clear();
  return site;
}

/// Site-wide counters, read with counter_total / for_each so the benchmark
/// never creates a metric cell of its own.
struct Counters {
  std::map<std::string, std::uint64_t> v;
  std::uint64_t batch_fill_sum = 0;
  std::uint64_t batch_fill_count = 0;

  static Counters read(const core::Cluster& c) {
    static constexpr std::pair<const char*, const char*> kNames[] = {
        {"mem", "blocks_hashed"},   {"mem", "inserts_emitted"}, {"core", "updates_remote"},
        {"net", "msgs_sent"},       {"net", "bytes_sent"},      {"net", "msgs_dropped"},
        {"net", "msgs_blackholed"}, {"net", "retransmits"},     {"query", "read_failover"},
        {"dht", "recovery_skipped_replicated"}, {"dht", "resync_records"},
    };
    Counters out;
    for (const auto& [sub, name] : kNames) {
      out.v[std::string(sub) + "/" + name] = c.metrics().counter_total(sub, name);
    }
    c.metrics().for_each([&](const obs::MetricKey& k, const obs::Registry::Cell& cell) {
      if (k.subsystem != "net" || k.name != "batch_fill") return;
      if (const auto* h = std::get_if<obs::Histogram>(&cell)) {
        out.batch_fill_sum += h->sum();
        out.batch_fill_count += h->count();
      }
    });
    return out;
  }

  [[nodiscard]] double delta(const Counters& before, const std::string& key) const {
    return static_cast<double>(v.at(key) - before.v.at(key));
  }
};

/// Runs one workload and fills a report. All state lives here so the
/// per-iteration helpers share it without long parameter lists.
class Runner {
 public:
  Runner(const Workload& w, const Options& o)
      : w_(w), o_(o), report_(std::string(w.name), o.seed, o.workers, o.layers) {
    report_.set_revision(o.rev);
  }

  BenchReport run();

 private:
  struct Sample {
    double wall_ms = 0;
    double virtual_ms = 0;
  };

  core::Cluster& cluster() { return *site_->cluster; }

  /// Counts one checked operation; a failure is also named on stderr.
  void check(bool good, const char* what) {
    ++attempted_;
    if (good) return;
    if (failed_++ < 10) std::fprintf(stderr, "concord_bench: check failed: %s\n", what);
  }

  Sample iterate(std::uint64_t i);
  void rewrite(std::uint64_t i);
  Sample scan_epoch();
  Sample command_round();
  Sample recovery_cycle(std::uint64_t i);
  void after_iteration();

  // Output checks.
  bool check_restore(const services::CollectiveCheckpointService& ckpt);
  bool check_sharing(const query::SharingAnswer& ans, std::span<const EntityId> set);

  // Per-layer probes: the workload's own inputs through one layer each.
  void probe_hash();
  void probe_monitor();
  void probe_sim();
  void probe_fabric();
  void probe_dht();
  void probe_queries();
  void probe_commands();
  void probe_services();

  void add(std::string name, double value, std::string unit, std::size_t n = 1) {
    report_.add(std::move(name), value, std::move(unit), n);
  }

  const Workload& w_;
  const Options& o_;
  BenchReport report_;
  SpanRecorder spans_;
  std::unique_ptr<Site> site_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t scan_bytes_ = 0;   // fabric bytes sent by scan epochs
  std::uint64_t dirty_bytes_ = 0;  // bytes of blocks whose content changed
  std::uint64_t audit_repairs_ = 0;  // entries the recovery audits repaired
  std::uint64_t audit_passes_ = 0;   // audit passes the recovery cycles ran
  struct Overwritten {
    EntityId entity;
    BlockIndex block;
    std::vector<std::byte> original;
  };
  std::vector<Overwritten> overwritten_;  // by the last rewrite(), to restore
  std::size_t watchdog_seen_ = 0;
};

/// Changes `rewrite` of every entity's blocks: half of it restores the
/// blocks the previous iteration overwrote, half overwrites fresh blocks
/// with unique content. Only ever overwriting would turn the Moldy mix into
/// unique pages over a run, so each later iteration would hash, ship and
/// dispatch more and the samples would drift; this keeps the content
/// statistics stationary.
void Runner::rewrite(std::uint64_t i) {
  const SpanRecorder::Scope span(spans_, "workload.rewrite");
  core::Cluster& c = cluster();
  for (const Overwritten& o : overwritten_) c.entity(o.entity).write_block(o.block, o.original);
  overwritten_.clear();
  Rng rng(o_.seed * 1000003 + i);
  for (const EntityId e : site_->entities) {
    mem::MemoryEntity& ent = c.entity(e);
    for (BlockIndex b = 0; b < ent.num_blocks(); ++b) {
      if (!rng.chance(w_.rewrite / 2)) continue;
      const auto current = ent.block(b);
      overwritten_.push_back({e, b, {current.begin(), current.end()}});
      const std::span<std::byte> dst = ent.write_block(b);
      std::uint64_t state = rng();
      for (std::size_t off = 0; off + 8 <= dst.size(); off += 8) {
        const std::uint64_t v = splitmix64(state);
        std::memcpy(dst.data() + off, &v, 8);
      }
    }
  }
}

/// One scan_all over the dirty state. Checks that every changed block
/// produced exactly one insert and that a sample of the freshly written (so
/// unique) hashes reached their owner shard.
Runner::Sample Runner::scan_epoch() {
  core::Cluster& c = cluster();
  std::uint64_t dirty = 0;
  for (const EntityId e : site_->entities) dirty += c.entity(e).dirty().count();
  std::vector<std::pair<EntityId, BlockIndex>> sample;
  const std::size_t stride = std::max<std::size_t>(1, overwritten_.size() / 8);
  for (std::size_t k = 0; k < overwritten_.size(); k += stride) {
    sample.emplace_back(overwritten_[k].entity, overwritten_[k].block);
  }
  const std::uint64_t bytes0 = c.fabric().total_traffic().bytes_sent;
  const sim::Time v0 = c.sim().now();
  const std::int64_t t0 = bench::now_ns();
  mem::ScanStats stats;
  {
    const SpanRecorder::Scope span(spans_, "core.scan_all");
    stats = c.scan_all();
  }
  const Sample s{ms_since(t0), vms(c.sim().now() - v0)};
  scan_bytes_ += c.fabric().total_traffic().bytes_sent - bytes0;
  dirty_bytes_ += stats.inserts_emitted * w_.block_size;

  bool good = stats.inserts_emitted == dirty;
  const hash::BlockHasher hasher(c.params().hash_algorithm);
  for (const auto& [e, b] : sample) {
    const ContentHash h = hasher(c.entity(e).block(b));
    good = good && c.daemon(c.placement().owner(h)).store().contains(h, e);
  }
  check(good, "scan: one insert per changed block, new hashes at their owner");
  return s;
}

/// Every checkpointed SE must restore bit-exact; the files are then removed
/// so the file system does not grow with run length.
bool Runner::check_restore(const services::CollectiveCheckpointService& ckpt) {
  core::Cluster& c = cluster();
  bool good = true;
  for (const EntityId e : ckpt.checkpointed()) {
    const auto restored = services::restore_entity(c.fs(), ckpt.se_path(e), ckpt.shared_path());
    const mem::MemoryEntity& ent = c.entity(e);
    good = good && restored.has_value() && restored.value().size() == ent.memory_bytes() &&
           std::memcmp(restored.value().data(), ent.block(0).data(), ent.memory_bytes()) == 0;
    good = ok(c.fs().remove(ckpt.se_path(e))) && good;
  }
  return ok(c.fs().remove(ckpt.shared_path())) && good;
}

/// The sharing answer must equal the shard kernel summed over every shard
/// (R = 1: each hash lives on exactly one shard).
bool Runner::check_sharing(const query::SharingAnswer& ans, std::span<const EntityId> set) {
  core::Cluster& c = cluster();
  if (c.placement().replication() > 1) return true;
  const Bitmap q = query_set(c, set);
  const std::vector<std::uint32_t> hosts = entity_hosts(c);
  dht::ScanPartial sum;
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    sum += dht::collective_scan(c.daemon(node_id(n)).store(), q, hosts, ~std::size_t{0}, false);
  }
  return sum.total == ans.total_copies && sum.unique == ans.unique_hashes &&
         sum.intra == ans.intra_sharing && sum.inter == ans.inter_sharing;
}

/// A null command, a collective checkpoint and a sharing query over every
/// SE, timed back to back; restore and query checks run untimed after.
Runner::Sample Runner::command_round() {
  core::Cluster& c = cluster();
  svc::CommandSpec spec;
  spec.service_entities = site_->entities;
  Sample s;

  services::NullService null;
  std::int64_t t0 = bench::now_ns();
  svc::CommandStats st;
  {
    const SpanRecorder::Scope span(spans_, "svc.execute.null");
    st = site_->engine->execute(null, spec);
  }
  s.wall_ms += ms_since(t0);
  s.virtual_ms += vms(st.latency());
  check(ok(st.status), "null command status ok");

  services::CollectiveCheckpointService ckpt(c);
  t0 = bench::now_ns();
  {
    const SpanRecorder::Scope span(spans_, "svc.execute.checkpoint");
    st = site_->engine->execute(ckpt, spec);
  }
  s.wall_ms += ms_since(t0);
  s.virtual_ms += vms(st.latency());
  check(ok(st.status), "checkpoint command status ok");

  t0 = bench::now_ns();
  query::SharingAnswer ans;
  {
    const SpanRecorder::Scope span(spans_, "query.sharing");
    ans = site_->query->sharing(node_id(0), site_->entities);
  }
  s.wall_ms += ms_since(t0);
  s.virtual_ms += vms(ans.latency);

  check(check_restore(ckpt), "checkpoint restores bit-exact");
  check(check_sharing(ans, site_->entities), "sharing answer matches the shard kernel");
  return s;
}

/// Crash a rotating victim, read from node 0 hashes whose replica group the
/// victim leads (so the reads fail over before anyone has detected the
/// crash), detect, restart, detect twice, audit to convergence. An untimed
/// audit pass must then be clean.
Runner::Sample Runner::recovery_cycle(std::uint64_t i) {
  core::Cluster& c = cluster();
  // Node nodes-1 leads only groups node 0 belongs to; node 0 reads those
  // locally, so it is not a victim.
  const NodeId victim = node_id(1 + static_cast<std::uint32_t>(i % (w_.nodes - 2)));
  const sim::Time v0 = c.sim().now();
  const std::int64_t t0 = bench::now_ns();
  {
    const SpanRecorder::Scope cycle(spans_, "recovery.cycle");
    c.fault().crash(victim);
    {
      const SpanRecorder::Scope span(spans_, "query.num_copies");
      const std::uint64_t failovers0 = c.metrics().counter_total("query", "read_failover");
      for (const ContentHash& h : site_->led_by[raw(victim)]) {
        check(site_->query->num_copies(node_id(0), h).status == Status::kOk,
              "node-wise read during recovery ok");
      }
      check(c.metrics().counter_total("query", "read_failover") - failovers0 ==
                site_->led_by[raw(victim)].size(),
            "every read during recovery fails over");
    }
    {
      const SpanRecorder::Scope span(spans_, "core.detect");
      (void)c.detect();
    }
    c.fault().restart(victim);
    {
      const SpanRecorder::Scope span(spans_, "core.detect");
      (void)c.detect();
      (void)c.detect();
    }
    {
      const SpanRecorder::Scope span(spans_, "services.audit");
      for (int pass = 0; pass < kMaxAuditPasses; ++pass) {
        const services::AuditReport r = services::DhtAudit(c).run();
        ++audit_passes_;
        audit_repairs_ += r.missing_repaired + r.stale_removed + r.misplaced_removed;
        if (r.clean()) break;
      }
    }
  }
  const Sample s{ms_since(t0), vms(c.sim().now() - v0)};
  check(services::DhtAudit(c).run().clean(), "audit clean after recovery");
  return s;
}

Runner::Sample Runner::iterate(std::uint64_t i) {
  switch (w_.op) {
    case OpKind::kScan:
      rewrite(i);
      return scan_epoch();
    case OpKind::kCommands:
      // Scan first, then rewrite: the commands run against a DHT that is
      // 1% stale, so replica retries and uncovered blocks happen.
      (void)scan_epoch();
      rewrite(i);
      return command_round();
    case OpKind::kRecovery:
      rewrite(i);
      (void)scan_epoch();
      return recovery_cycle(i);
  }
  return {};
}

/// Untimed per-iteration bookkeeping: the invariant watchdog must stay
/// clean, and the program's own trace buffer is dropped so memory does not
/// grow with run length.
void Runner::after_iteration() {
  core::Cluster& c = cluster();
  (void)c.check_invariants();
  const std::size_t v = c.watchdog().violations();
  check(v == watchdog_seen_, "invariant watchdog clean");
  watchdog_seen_ = v;
  c.tracer().clear();
}

// ---- per-layer probes ------------------------------------------------------

template <typename Fn>
double median_rate(std::size_t reps, Fn&& fn) {
  std::vector<double> rates;
  for (std::size_t r = 0; r < reps; ++r) rates.push_back(fn());
  return bench::median(std::move(rates));
}

void Runner::probe_hash() {
  const SpanRecorder::Scope span(spans_, "probe.hash");
  const mem::MemoryEntity& e = cluster().entity(site_->entities[0]);
  const hash::BlockHasher md5(hash::Algorithm::kMd5);
  const std::size_t reps =
      std::max<std::size_t>(5, (64u << 20) / o_.scale_div / e.memory_bytes());
  const double mbps = median_rate(reps, [&] {
    const std::int64_t t0 = bench::now_ns();
    for (BlockIndex b = 0; b < e.num_blocks(); ++b) g_sink ^= md5(e.block(b)).lo;
    return static_cast<double>(e.memory_bytes()) / 1e6 / (ms_since(t0) / 1e3);
  });
  add("hash.md5_MBps", mbps, "MB/s", reps);
}

void Runner::probe_monitor() {
  const SpanRecorder::Scope span(spans_, "probe.monitor");
  const mem::MemoryEntity& src = cluster().entity(site_->entities[0]);
  mem::MemoryEntity copy(src.id(), src.host(), src.kind(), src.num_blocks(), src.block_size());
  for (BlockIndex b = 0; b < src.num_blocks(); ++b) copy.write_block(b, src.block(b));
  mem::MemoryUpdateMonitor mon(hash::BlockHasher(hash::Algorithm::kMd5), w_.mode);
  mon.attach(copy);
  const auto noop = [](const mem::ContentUpdate&) {};
  (void)mon.scan(noop);
  std::vector<double> ms;
  for (std::uint64_t r = 0; r < 9; ++r) {
    workload::mutate(copy, w_.rewrite, o_.seed * 7919 + r);
    const std::int64_t t0 = bench::now_ns();
    (void)mon.scan(noop);
    ms.push_back(ms_since(t0));
  }
  add("mem.scan_self_ms", bench::median(ms), "ms", ms.size());
}

void Runner::probe_sim() {
  const SpanRecorder::Scope span(spans_, "probe.sim");
  const std::size_t events = 300'000 / o_.scale_div;
  const double rate = median_rate(3, [&] {
    sim::Simulation s(o_.seed);
    std::uint64_t fired = 0;
    const std::int64_t t0 = bench::now_ns();
    for (std::size_t i = 0; i < events; ++i) {
      s.after(static_cast<sim::Time>(i % 997), [&fired] { ++fired; });
    }
    s.run();
    const double ms = ms_since(t0);
    g_sink += fired;
    check(fired == events, "simulation fires every event");
    return static_cast<double>(events) / 1e3 / ms;
  });
  add("sim.Mevents_s", rate, "Mevent/s", 3);
}

void Runner::probe_fabric() {
  const SpanRecorder::Scope span(spans_, "probe.fabric");
  const std::size_t msgs = 200'000 / o_.scale_div;
  const double rate = median_rate(3, [&] {
    sim::Simulation s(o_.seed);
    net::Fabric f(s, net::FabricParams{});
    std::uint64_t delivered = 0;
    for (std::uint32_t n = 0; n < w_.nodes; ++n) {
      f.register_node(node_id(n), [&delivered](const net::Message&) { ++delivered; });
    }
    Rng rng(o_.seed);
    const std::int64_t t0 = bench::now_ns();
    for (std::size_t i = 0; i < msgs; ++i) {
      const auto src = static_cast<std::uint32_t>(rng.below(w_.nodes));
      const auto dst =
          static_cast<std::uint32_t>((src + 1 + rng.below(w_.nodes - 1)) % w_.nodes);
      f.send_unreliable(net::make_message(node_id(src), node_id(dst), net::MsgType::kData,
                                          std::uint64_t{i}, 64));
    }
    s.run();
    const double ms = ms_since(t0);
    check(delivered == msgs, "fabric delivers every datagram");
    return static_cast<double>(msgs) / 1e3 / ms;
  });
  add("net.fabric_Mmsgs_s", rate, "Mmsg/s", 3);
}

/// DhtStore and collective_scan kernels over one store holding the site's
/// whole ground truth, replaying this workload's rewrite as MTU batches.
void Runner::probe_dht() {
  const SpanRecorder::Scope span(spans_, "probe.dht");
  core::Cluster& c = cluster();
  dht::DhtStore store(c.params().max_entities);
  std::vector<std::pair<ContentHash, EntityId>> truth;
  for (const EntityId e : site_->entities) {
    const NodeId host = c.registry().host_of(e);
    for (const ContentHash& h : *c.daemon(host).monitor().known_hashes(e)) {
      truth.emplace_back(h, e);
      store.insert(h, e);
    }
  }
  std::vector<ContentHash> present;
  store.for_each_entry([&](const ContentHash& h, const std::uint64_t*, std::size_t) {
    present.push_back(h);
  });

  // One iteration's rewrite as records: remove the old hash, insert a fresh
  // one; the reverse pass undoes it, so the store returns to its start.
  Rng rng(o_.seed ^ 0xd1b54a32d192ed03ULL);
  std::vector<dht::UpdateRecord> fwd, rev;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (!rng.chance(w_.rewrite)) continue;
    const ContentHash fresh{rng(), rng()};
    fwd.push_back({truth[i].first, truth[i].second, false});
    fwd.push_back({fresh, truth[i].second, true});
    rev.push_back({fresh, truth[i].second, false});
    rev.push_back({truth[i].first, truth[i].second, true});
  }
  const std::size_t batch = core::BatchPolicy{}.max_records();
  const auto apply_all = [&](const std::vector<dht::UpdateRecord>& recs) {
    for (std::size_t off = 0; off < recs.size(); off += batch) {
      store.apply_batch(std::span(recs).subspan(off, std::min(batch, recs.size() - off)));
    }
  };
  const std::size_t passes =
      std::max<std::size_t>(3, 1'000'000 / o_.scale_div / std::max<std::size_t>(1, fwd.size()));
  const double apply = median_rate(passes, [&] {
    const std::int64_t t0 = bench::now_ns();
    apply_all(fwd);
    apply_all(rev);
    return static_cast<double>(fwd.size() + rev.size()) / 1e3 / ms_since(t0);
  });
  add("dht.apply_Mrec_s", apply, "Mrec/s", passes);
  check(store.unique_hashes() == present.size(), "apply replay restores the store");

  const std::size_t lookup_reps =
      std::max<std::size_t>(3, 2'000'000 / o_.scale_div / present.size());
  const double lookup = median_rate(lookup_reps, [&] {
    const std::int64_t t0 = bench::now_ns();
    for (const ContentHash& h : present) g_sink += store.num_entities(h);
    return static_cast<double>(present.size()) / 1e3 / ms_since(t0);
  });
  add("dht.lookup_Mops", lookup, "Mop/s", lookup_reps);

  const Bitmap q = query_set(c, site_->entities);
  const std::vector<std::uint32_t> hosts = entity_hosts(c);
  const double scan = median_rate(lookup_reps, [&] {
    const std::int64_t t0 = bench::now_ns();
    g_sink += dht::collective_scan(store, q, hosts, ~std::size_t{0}, false).total;
    return static_cast<double>(present.size()) / 1e3 / ms_since(t0);
  });
  add("dht.collective_scan_Mentries_s", scan, "Mentry/s", lookup_reps);

  const auto mem_bytes = static_cast<double>(c.metrics().gauge_total("dht", "memory_bytes"));
  const auto unique = static_cast<double>(c.metrics().gauge_total("dht", "unique_hashes"));
  add("dht.bytes_per_entry", unique == 0 ? 0.0 : mem_bytes / unique, "B");
  add("dht.unique_hashes", static_cast<double>(c.total_unique_hashes()), "count");
}

void Runner::probe_queries() {
  const SpanRecorder::Scope span(spans_, "probe.query");
  std::vector<double> nodewise;
  for (const ContentHash& h : site_->read_set) {
    const query::NodewiseAnswer a = site_->query->num_copies(node_id(0), h);
    check(a.status == Status::kOk, "node-wise read ok");
    nodewise.push_back(vms(a.latency));
  }
  add("query.nodewise_virtual_ms_p50", bench::median(nodewise), "ms", nodewise.size());
  std::vector<double> sharing;
  for (int r = 0; r < 3; ++r) {
    const query::SharingAnswer a = site_->query->sharing(node_id(0), site_->entities);
    check(check_sharing(a, site_->entities), "sharing answer matches the shard kernel");
    sharing.push_back(vms(a.latency));
  }
  add("query.sharing_virtual_ms", bench::median(sharing), "ms", sharing.size());
}

void Runner::probe_commands() {
  const SpanRecorder::Scope span(spans_, "probe.commands");
  core::Cluster& c = cluster();
  svc::CommandSpec spec;
  const std::size_t n = std::min(kCommandSes, site_->entities.size());
  spec.service_entities.assign(site_->entities.begin(),
                               site_->entities.begin() + static_cast<std::ptrdiff_t>(n));
  static constexpr const char* kPhases[] = {"init", "coll_start", "drive",
                                            "coll_fin", "local", "deinit"};
  std::map<std::string, std::vector<double>> phase_ms;  // "<cmd>.<phase>"
  std::vector<double> null_wall, ckpt_wall;
  std::uint64_t retries = 0, covered = 0, local = 0, ckpt_bytes = 0, se_bytes = 0, cmds = 0;
  const std::uint64_t msgs0 = c.fabric().total_traffic().msgs_sent;

  const auto run = [&](svc::ApplicationService& service, const char* tag,
                       std::vector<double>& wall) {
    const std::size_t cursor = c.tracer().span_count();
    const std::int64_t t0 = bench::now_ns();
    const svc::CommandStats st = site_->engine->execute(service, spec);
    wall.push_back(ms_since(t0));
    check(ok(st.status), "probe command status ok");
    ++cmds;
    retries += st.collective_retries;
    covered += st.local_covered;
    local += st.local_blocks;
    for (std::size_t id = cursor; id < c.tracer().span_count(); ++id) {
      const obs::TraceSpan& sp = c.tracer().span(id);
      if (sp.name.rfind("phase:", 0) == 0 && sp.end >= sp.begin) {
        phase_ms[std::string(tag) + "." + sp.name.substr(6)].push_back(vms(sp.end - sp.begin));
      }
    }
    c.tracer().clear();
  };
  for (int r = 0; r < 3; ++r) {
    services::NullService null;
    run(null, "null", null_wall);
    services::CollectiveCheckpointService ckpt(c);
    run(ckpt, "ckpt", ckpt_wall);
    ckpt_bytes += ckpt.total_bytes();
    for (const EntityId e : ckpt.checkpointed()) se_bytes += c.entity(e).memory_bytes();
    check(check_restore(ckpt), "checkpoint restores bit-exact");
  }
  for (const char* cmd : {"null", "ckpt"}) {
    for (const char* ph : kPhases) {
      const std::string key = std::string(cmd) + "." + ph;
      const auto it = phase_ms.find(key);
      check(it != phase_ms.end(), "every command phase traced");
      if (it == phase_ms.end()) continue;
      add("svc." + std::string(cmd) + ".phase_ms." + ph, bench::median(it->second), "ms",
          it->second.size());
    }
  }
  add("svc.null_wall_ms", bench::median(null_wall), "ms", null_wall.size());
  add("svc.ckpt_wall_ms", bench::median(ckpt_wall), "ms", ckpt_wall.size());
  const auto per_cmd = [&](std::uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(cmds);
  };
  add("svc.collective_retries_per_cmd", per_cmd(retries), "count", cmds);
  add("svc.local_covered_ratio",
      local == 0 ? 0.0 : static_cast<double>(covered) / static_cast<double>(local), "ratio",
      cmds);
  add("svc.msgs_per_cmd", per_cmd(c.fabric().total_traffic().msgs_sent - msgs0), "count",
      cmds);
  add("fs.ckpt_size_ratio",
      se_bytes == 0 ? 0.0 : static_cast<double>(ckpt_bytes) / static_cast<double>(se_bytes),
      "ratio", 3);
}

void Runner::probe_services() {
  const SpanRecorder::Scope span(spans_, "probe.services");
  core::Cluster& c = cluster();
  // Rewrites drift the DHT even on a loss-free fabric: removing one copy of
  // a hash an entity holds twice drops the entity from the hash's set. The
  // first passes repair that; the timed passes then audit a converged site.
  const services::AuditReport drift = services::DhtAudit(c).run_to_convergence();
  add("services.audit_drift_repairs",
      static_cast<double>(drift.missing_repaired + drift.stale_removed +
                          drift.misplaced_removed),
      "count");
  std::vector<double> audit, detect;
  for (int r = 0; r < 3; ++r) {
    const std::int64_t t0 = bench::now_ns();
    const services::AuditReport rep = services::DhtAudit(c).run();
    audit.push_back(ms_since(t0));
    check(rep.clean(), "audit of the steady site is clean");
  }
  for (int r = 0; r < 3; ++r) {
    const std::int64_t t0 = bench::now_ns();
    (void)c.detect();
    detect.push_back(ms_since(t0));
  }
  add("services.audit_wall_ms", bench::median(audit), "ms", audit.size());
  add("core.detect_wall_ms", bench::median(detect), "ms", detect.size());
}

long peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// Times one set-up in a forked child and returns its seconds, or a negative
/// value if the child failed. Every sample then starts, like the first set-up
/// of a real process, from memory the process has never touched: set-ups
/// repeated in one process run up to 30% faster on a reused heap, and
/// whether the allocator reuses or returns that memory varies between runs.
double cold_setup_s(const Workload& w, const Options& o) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    close(fds[0]);
    SpanRecorder off;
    double fill_ms = 0;
    std::uint64_t fill_bytes = 0;
    const std::int64_t t0 = bench::now_ns();
    [[maybe_unused]] const auto site = make_site(w, o, off, fill_ms, fill_bytes);
    const double s = ms_since(t0) / 1e3;
    _exit(write(fds[1], &s, sizeof s) == sizeof s ? 0 : 1);  // skips teardown
  }
  close(fds[1]);
  double s = -1;
  if (read(fds[0], &s, sizeof s) != sizeof s) s = -1;
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? s : -1;
}

BenchReport Runner::run() {
  (void)core::CostModel::instance();  // per-process calibration, outside setup

  // Cold set-ups repeat until they have taken setup_budget_s (within the
  // count limits), so small sites get enough samples for a steady median.
  // The site this process measures is the last sample.
  std::vector<double> setup_s;
  double setup_total_s = 0;
  while (setup_s.size() < o_.min_setups ||
         (setup_total_s < o_.setup_budget_s && setup_s.size() < o_.max_setups)) {
    const double s = cold_setup_s(w_, o_);
    check(s > 0, "set-up in a child process");
    if (s <= 0) break;
    setup_s.push_back(s);
    setup_total_s += s;
  }
  double fill_ms = 0;
  std::uint64_t fill_bytes = 0;
  spans_.set_enabled(o_.layers);
  const std::int64_t setup0 = bench::now_ns();
  site_ = make_site(w_, o_, spans_, fill_ms, fill_bytes);
  setup_s.push_back(ms_since(setup0) / 1e3);
  spans_.set_enabled(false);

  // Timed after every iteration, warm-ups included, so that the loop's
  // cache and allocator pattern is the same from the first sample on.
  bench::HostReference reference;
  std::uint64_t i = 0;
  for (; i < o_.warmups; ++i) {
    (void)iterate(i);
    (void)reference.time_ms();
    after_iteration();
  }

  const Counters before = Counters::read(cluster());
  const std::uint64_t repairs0 = audit_repairs_;
  const std::uint64_t passes0 = audit_passes_;
  std::vector<double> wall, rel, ref_ms, virt, traced_wall, untraced_wall;
  const std::int64_t loop0 = bench::now_ns();
  const auto more = [&] {
    if (o_.ops > 0) return wall.size() < o_.ops;
    return ms_since(loop0) < o_.seconds * 1e3;
  };
  while (more()) {
    const bool traced = o_.layers && wall.size() % 2 == 1;
    spans_.set_enabled(traced);
    spans_.set_iteration(i);
    const Sample s = iterate(i++);
    spans_.set_enabled(false);
    const double r = reference.time_ms();
    after_iteration();
    wall.push_back(s.wall_ms);
    rel.push_back(s.wall_ms / r);
    ref_ms.push_back(r);
    virt.push_back(s.virtual_ms);
    (traced ? traced_wall : untraced_wall).push_back(s.wall_ms);
  }
  const Counters after = Counters::read(cluster());
  const std::size_t n = wall.size();

  if (o_.e2e) {
    add("setup_s", bench::median(setup_s), "s", setup_s.size());
    add("peak_rss_MB", static_cast<double>(peak_rss_kib()) / 1024.0, "MiB");
    add("op_wall_rel_p90", bench::percentile(rel, 90), "ref", n);
    add("op_virtual_ms_p50", bench::percentile(virt, 50), "ms", n);
    add("update_bytes_per_dirty_MB",
        static_cast<double>(scan_bytes_) /
            (static_cast<double>(std::max<std::uint64_t>(1, dirty_bytes_)) / (1 << 20)),
        "B/MiB", n);
  }
  if (o_.layers) {
    const auto per_op = [&](const char* key) {
      return after.delta(before, key) / static_cast<double>(n);
    };
    const double hashed = after.delta(before, "mem/blocks_hashed");
    add("mem.blocks_hashed_per_op", per_op("mem/blocks_hashed"), "count", n);
    add("mem.useful_hash_ratio",
        hashed == 0 ? 0.0 : after.delta(before, "mem/inserts_emitted") / hashed, "ratio", n);
    add("core.updates_remote_per_op", per_op("core/updates_remote"), "count", n);
    const std::uint64_t fills = after.batch_fill_count - before.batch_fill_count;
    add("core.batch_fill_mean",
        fills == 0 ? 0.0
                   : static_cast<double>(after.batch_fill_sum - before.batch_fill_sum) /
                         static_cast<double>(fills),
        "records", n);
    add("net.msgs_per_op", per_op("net/msgs_sent"), "count", n);
    add("net.bytes_per_op", per_op("net/bytes_sent"), "B", n);
    add("net.lost_per_op", per_op("net/msgs_dropped") + per_op("net/msgs_blackholed"),
        "count", n);
    add("net.retransmits_per_op", per_op("net/retransmits"), "count", n);
    add("query.read_failover_per_op", per_op("query/read_failover"), "count", n);
    add("services.recovery_deferred_per_op", per_op("dht/recovery_skipped_replicated"),
        "count", n);
    add("services.resync_records_per_op", per_op("dht/resync_records"), "count", n);
    add("services.audit_repairs_per_op",
        static_cast<double>(audit_repairs_ - repairs0) / static_cast<double>(n), "count", n);
    add("services.audit_passes_per_op",
        static_cast<double>(audit_passes_ - passes0) / static_cast<double>(n), "count", n);
    add("workload.fill_MBps", static_cast<double>(fill_bytes) / 1e6 / (fill_ms / 1e3), "MB/s",
        w_.nodes);
    const double traced_p50 = bench::median(traced_wall);
    const double untraced_p50 = bench::median(untraced_wall);
    add("obs.trace_overhead_pct",
        untraced_p50 == 0 ? 0.0 : (traced_p50 / untraced_p50 - 1.0) * 100.0, "%", n);
    add("obs.op_wall_ms_p90", bench::percentile(wall, 90), "ms", n);
    add("obs.ref_kernel_ms", bench::median(ref_ms), "ms", n);

    spans_.set_enabled(true);
    spans_.set_iteration(i);
    probe_hash();
    probe_monitor();
    probe_sim();
    probe_fabric();
    probe_dht();
    probe_queries();
    probe_commands();
    probe_services();
    spans_.set_enabled(false);

    if (!o_.trace_dir.empty()) {
      const std::string path = o_.trace_dir + "/" + std::string(w_.name) + ".trace.json";
      std::ofstream f(path);
      f << spans_.to_chrome_json() << '\n';
      check(static_cast<bool>(f), "trace file written");
    }
    std::fprintf(stderr, "%-28s %8s %12s %12s\n", "span (benchmark-side)", "count",
                 "total ms", "self ms");
    for (const auto& [name, t] : spans_.self_times()) {
      std::fprintf(stderr, "%-28s %8llu %12.3f %12.3f\n", name.c_str(),
                   static_cast<unsigned long long>(t.count), t.total_ms, t.self_ms);
    }
  }
  report_.count_ops(attempted_, failed_);
  g_sink ^= reference.sink();
  if (g_sink == 0x5eed) std::fputc(' ', stderr);
  return std::move(report_);
}

BenchReport run_workload(const Workload& w, const Options& o) { return Runner(w, o).run(); }

void print_report(const BenchReport& r, std::FILE* f) {
  for (const bench::Metric& m : r.metrics()) {
    std::fprintf(f, "  %-36s %16.6g %-9s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                 m.n);
  }
}

// ---- --quick self-check ----------------------------------------------------

/// The JSON document at `path`, or a null value if it cannot be read.
obs::json::Value read_json(const std::string& path) {
  std::ifstream f(path);
  std::stringstream text;
  text << f.rdbuf();
  auto doc = obs::json::parse(text.str());
  return doc ? std::move(doc).value() : obs::json::Value();
}

/// Names listed under `section` ("end_to_end" or "per_layer") of BENCHMARK.json.
std::vector<std::string> declared_metrics(const obs::json::Value& benchmark,
                                          const char* section) {
  std::vector<std::string> names;
  const obs::json::Value* list = benchmark.get(section);
  if (list == nullptr || list->kind() != obs::json::Value::Kind::kArray) return names;
  for (const obs::json::Value& m : list->as_array()) {
    if (const obs::json::Value* name = m.get("name")) names.push_back(name->as_string());
  }
  return names;
}

std::string_view mode_name(mem::DetectMode m) {
  switch (m) {
    case mem::DetectMode::kFullScan:
      return "full-scan";
    case mem::DetectMode::kDirtyBit:
      return "dirty-bit";
    case mem::DetectMode::kCopyOnWrite:
      return "copy-on-write";
  }
  return "";
}

/// Checks spec.json against the binary and BENCHMARK.json: every workload's
/// parameters match kWorkloads, and every per-layer metric names what it
/// should move as (end-to-end metric, workload) pairs that exist.
void check_spec(const obs::json::Value& spec, const std::vector<std::string>& e2e,
                const std::vector<std::string>& layers,
                const std::function<void(bool, const std::string&)>& expect) {
  using Kind = obs::json::Value::Kind;
  const obs::json::Value* workloads = spec.get("workloads");
  expect(workloads != nullptr && workloads->kind() == Kind::kObject,
         "spec.json lists the workloads");
  if (workloads == nullptr || workloads->kind() != Kind::kObject) return;
  for (const Workload& w : kWorkloads) {
    const std::string name(w.name);
    const obs::json::Value* p = workloads->get(name);
    const auto num = [&](const char* key, double v) {
      const obs::json::Value* f = p == nullptr ? nullptr : p->get(key);
      expect(f != nullptr && f->as_number() == v, "spec.json " + name + "." + key + " matches");
    };
    num("nodes", w.nodes);
    num("blocks_per_entity", static_cast<double>(w.blocks));
    num("block_size", static_cast<double>(w.block_size));
    num("change_per_iteration", w.rewrite);
    num("dht_replication", w.replication);
    num("sim_workers", static_cast<double>(w.sim_workers));
    const obs::json::Value* mode = p == nullptr ? nullptr : p->get("detect_mode");
    expect(mode != nullptr && mode->as_string() == mode_name(w.mode),
           "spec.json " + name + ".detect_mode matches");
  }
  const obs::json::Value* per_layer = spec.get("per_layer");
  for (const std::string& name : layers) {
    const obs::json::Value* entry = per_layer == nullptr ? nullptr : per_layer->get(name);
    const obs::json::Value* moves = entry == nullptr ? nullptr : entry->get("moves");
    expect(moves != nullptr && moves->kind() == Kind::kArray,
           "spec.json says what " + name + " should move");
    if (moves == nullptr || moves->kind() != Kind::kArray) continue;
    for (const obs::json::Value& pair : moves->as_array()) {
      const bool ok_pair = pair.kind() == Kind::kArray && pair.as_array().size() == 2 &&
                           std::find(e2e.begin(), e2e.end(), pair.as_array()[0].as_string()) !=
                               e2e.end() &&
                           find_workload(pair.as_array()[1].as_string()) != nullptr;
      expect(ok_pair, "spec.json " + name + " moves an end-to-end metric on a workload");
    }
  }
}

int run_quick(const std::string& benchmark_json, const std::string& spec_json) {
  static constexpr const char* kExact[] = {"update_bytes_per_dirty_MB", "fs.ckpt_size_ratio",
                                           "mem.blocks_hashed_per_op", "dht.unique_hashes"};
  const obs::json::Value benchmark = read_json(benchmark_json);
  const std::vector<std::string> e2e = declared_metrics(benchmark, "end_to_end");
  const std::vector<std::string> layers = declared_metrics(benchmark, "per_layer");
  bool pass = true;
  const auto expect = [&](bool cond, const std::string& what) {
    if (!cond) {
      std::printf("FAIL %s\n", what.c_str());
      pass = false;
    }
  };
  expect(!e2e.empty() && !layers.empty(), "read metric names from " + benchmark_json);
  check_spec(read_json(spec_json), e2e, layers, expect);
  for (const Workload& w : kWorkloads) {
    std::map<std::string, double> first;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      Options o;
      o.seed = 7;
      o.ops = 3;
      o.warmups = 1;
      o.min_setups = 0;
      o.max_setups = 0;
      o.layers = true;
      o.workers = workers;
      o.scale_div = 50;
      const BenchReport r = run_workload(w, o);
      const std::string tag = std::string(w.name) + " workers=" + std::to_string(workers);
      expect(r.correct(), tag + ": every correctness check passes");
      expect(obs::json::parse(r.to_json()).has_value(), tag + ": report parses");
      auto line = obs::json::parse(r.result_line());
      expect(line.has_value(), tag + ": result line parses");
      if (!line) continue;
      const obs::json::Value* metrics = line.value().get("metrics");
      const auto value = [&](const std::string& name) -> const obs::json::Value* {
        const obs::json::Value* m = metrics == nullptr ? nullptr : metrics->get(name);
        return m == nullptr ? nullptr : m->get("value");
      };
      for (const std::vector<std::string>* names : {&e2e, &layers}) {
        for (const std::string& name : *names) {
          expect(value(name) != nullptr, tag + ": reports " + name);
        }
      }
      if (w.op == OpKind::kRecovery) {
        const obs::json::Value* failover = value("query.read_failover_per_op");
        expect(failover != nullptr && failover->as_number() > 0,
               tag + ": reads during recovery fail over");
      }
      for (const char* name : kExact) {
        const obs::json::Value* v = value(name);
        if (v == nullptr) continue;
        if (workers == 1) {
          first[name] = v->as_number();
        } else {
          expect(first[name] == v->as_number(),
                 tag + ": " + name + " identical at sim_workers 1 and 4");
        }
      }
    }
  }
  std::printf("%s\n", pass ? "concord_bench --quick: PASS" : "concord_bench --quick: FAIL");
  return pass ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: concord_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "                     [--out <file>] [--trace-dir <dir>] [--rev <rev>]\n"
               "       concord_bench --quick [--benchmark-json <BENCHMARK.json>]\n"
               "                     [--spec <perfbench/spec.json>]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()), w.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  log::set_level(log::Level::kNone);
  std::map<std::string, std::string> args;
  bool quick = false;
  for (int a = 1; a < argc; ++a) {
    const std::string key = argv[a];
    if (key == "--quick") {
      quick = true;
    } else if (key.rfind("--", 0) == 0 && a + 1 < argc) {
      args[key.substr(2)] = argv[++a];
    } else {
      return usage();
    }
  }
  if (quick) {
    return run_quick(args.count("benchmark-json") ? args["benchmark-json"] : "BENCHMARK.json",
                     args.count("spec") ? args["spec"] : "perfbench/spec.json");
  }

  const Workload* w = find_workload(args["workload"]);
  if (w == nullptr) return usage();
  Options o;
  char* end = nullptr;
  o.seed = std::strtoull(args.count("seed") ? args["seed"].c_str() : "1", &end, 10);
  o.seconds = std::strtod(args.count("seconds") ? args["seconds"].c_str() : "10", &end);
  const std::string trace = args.count("trace") ? args["trace"] : "0";
  if (trace != "0" && trace != "1") return usage();
  if (!(o.seconds > 0)) return usage();
  o.layers = trace == "1";
  o.e2e = !o.layers;
  o.workers = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, w->sim_workers);
  if (args.count("trace-dir")) o.trace_dir = args["trace-dir"];
  if (args.count("rev")) o.rev = args["rev"];

  const BenchReport r = run_workload(*w, o);
  std::fprintf(stderr, "concord_bench %.*s seed=%llu sim_workers=%zu trace=%s\n",
               static_cast<int>(w->name.size()), w->name.data(),
               static_cast<unsigned long long>(o.seed), o.workers, trace.c_str());
  print_report(r, stderr);
  if (args.count("out")) {
    std::ofstream f(args["out"]);
    f << r.to_json() << '\n';
    if (!f) {
      std::fprintf(stderr, "concord_bench: cannot write %s\n", args["out"].c_str());
      return 1;
    }
  }
  std::printf("%s\n", r.result_line().c_str());
  return r.correct() ? 0 : 1;
}
