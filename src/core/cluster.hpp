// Cluster: the emulated parallel machine running ConCORD.
//
// Owns the simulation clock, the network fabric, the shared parallel file
// system, the entity registry, one ServiceDaemon per node, and the tracked
// MemoryEntity objects. This is the top-level object examples and tests
// construct; it stands in for "a site" in the paper's terminology.
#pragma once

#include <memory>
#include <vector>

#include "core/entity_registry.hpp"
#include "core/failure_detector.hpp"
#include "core/membership.hpp"
#include "core/pressure_controller.hpp"
#include "core/service_daemon.hpp"
#include "fs/simfs.hpp"
#include "net/fault_injector.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "sim/simulation.hpp"
#include "sim/worker_pool.hpp"

namespace concord::core {

/// Invariant-watchdog policy. When enabled the cluster evaluates its
/// invariant catalog (conservation identity, DHT gauge consistency, credit
/// non-negativity, breaker/suspicion wiring) at every scan boundary;
/// hard_fail additionally aborts on the first violation — the mode tests
/// and bench --smoke runs use.
struct WatchdogParams {
  bool enabled = false;
  bool hard_fail = false;
};

struct ClusterParams {
  std::uint32_t num_nodes = 8;
  std::uint32_t max_entities = 256;
  dht::AllocMode alloc_mode = dht::AllocMode::kPool;
  hash::Algorithm hash_algorithm = hash::Algorithm::kMd5;
  mem::DetectMode detect_mode = mem::DetectMode::kFullScan;
  net::FabricParams fabric;
  std::uint64_t seed = 42;
  /// When true the whole DHT lives on node 0 (the "single" configuration of
  /// Fig. 9); updates and queries all route there.
  bool single_node_dht = false;
  /// Replica group size R for every home shard (DESIGN.md §14). 1 (the
  /// default) is the original single-owner DHT, byte-identical to pre-
  /// replication builds. At R > 1 updates fan out to the first R alive
  /// successors of each hash's home node, reads fail over across the group,
  /// and crash recovery prefers ReplicaResync streams over full republish.
  /// Clamped to [1, num_nodes]; ignored under single_node_dht.
  std::uint32_t dht_replication = 1;
  /// Owner-batched update datagrams (set .enabled = false to reproduce the
  /// one-datagram-per-update pipeline for comparison runs).
  BatchPolicy update_batching;
  /// Host threads hashing dirty blocks inside each scan: 1 = serial, 0 = one
  /// per hardware core (capped). Changes real wall-time only — virtual-clock
  /// costs, metrics, and traces are identical for every value.
  std::size_t hash_workers = 1;
  /// Host threads sharding per-node scan work across nodes: each worker runs
  /// whole daemons' scan_and_publish in parallel (sends and DHT applies are
  /// staged and merged sequentially in canonical node order), so big-cluster
  /// scans scale with host cores. 1 = serial shard walk, 0 = one per
  /// hardware core (capped). Like hash_workers, this changes real wall-time
  /// only — metric, trace, and snapshot bytes are identical for every value.
  std::size_t sim_workers = 1;
  /// Failure-detector timing (heartbeat period, rounds per window, probe
  /// timeout). Defaults suit the emulated fabric's millisecond latencies.
  DetectorParams detector;
  /// Overload protection: when .enabled, every daemon runs credit-based flow
  /// control and the PressureController adapts monitor budgets and flush
  /// quotas each scan epoch. Off by default — unpressured runs keep their
  /// metric/trace snapshots byte-identical.
  PressureParams pressure;
  /// Causal tracing: when true the fabric stamps every datagram from the
  /// sender's ambient trace context (commands, scans), charges the
  /// kTraceCtxBytes wire cost, and emits flow events linking send to
  /// delivery in the tracer. Off by default — wire bytes and trace/metric
  /// snapshots stay byte-identical to pre-tracing builds.
  bool trace_propagation = false;
  /// Per-node flight-recorder ring capacity (events kept per node).
  std::size_t blackbox_capacity = obs::FlightRecorder::kDefaultCapacity;
  /// Invariant watchdog (off by default; see WatchdogParams).
  WatchdogParams watchdog;
};

/// Host nanoseconds Cluster::scan_all spent in each phase of its pipeline,
/// summed over every epoch. Host time only: it never enters the metrics
/// registry or any snapshot, and varies from run to run.
struct ScanPhaseHostNs {
  std::int64_t scan = 0;   // parallel scan: hash, route, batch into stages
  std::int64_t merge = 0;  // sequential merge: replay staged sends
  std::int64_t run = 0;    // sim().run(): deliver and stage applies
  std::int64_t apply = 0;  // parallel apply into the shards
};

class Cluster {
 public:
  explicit Cluster(ClusterParams params);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::uint32_t num_nodes() const noexcept { return params_.num_nodes; }
  [[nodiscard]] const ClusterParams& params() const noexcept { return params_; }

  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] net::Fabric& fabric() noexcept { return fabric_; }

  /// Deliberate breakage: crash/pause nodes, cut links. Crashing a node
  /// clears its DHT shard and pending update batches (volatile state); its
  /// NSM ground truth survives the restart.
  [[nodiscard]] net::FaultInjector& fault() noexcept { return fault_; }
  [[nodiscard]] FailureDetector& detector() noexcept { return detector_; }
  /// The current epoch-stamped membership view (advanced by detect()).
  [[nodiscard]] const MembershipView& membership() const noexcept {
    return detector_.view();
  }
  /// Runs one failure-detection window (pumps the simulation). On a view
  /// change the epoch advances and shard placement remaps dead nodes'
  /// hashes to their alive successors.
  const MembershipView& detect() { return detector_.run_window(); }

  /// The site-wide metrics registry. Every subsystem (fabric, DHT shards,
  /// update monitors, command engines) accounts here, each component given
  /// it at construction; snapshot with metrics().to_json() / to_csv().
  [[nodiscard]] obs::Registry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::Registry& metrics() const noexcept { return metrics_; }

  /// The site-wide phase-span tracer, keyed to the virtual clock. Export
  /// with tracer().write_chrome_json(path).
  [[nodiscard]] obs::Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const obs::Tracer& tracer() const noexcept { return tracer_; }

  /// The always-on per-node flight recorder ("black box"): recent message,
  /// breaker, epoch, and phase events, dumped to JSON on degraded
  /// completions, watchdog findings, and audit mismatches.
  [[nodiscard]] obs::FlightRecorder& blackbox() noexcept { return blackbox_; }
  [[nodiscard]] const obs::FlightRecorder& blackbox() const noexcept { return blackbox_; }

  /// The invariant watchdog. Its catalog is installed at construction;
  /// evaluated each scan boundary when params.watchdog.enabled, or on
  /// demand via check_invariants().
  [[nodiscard]] obs::Watchdog& watchdog() noexcept { return watchdog_; }
  [[nodiscard]] const obs::Watchdog& watchdog() const noexcept { return watchdog_; }
  /// Runs the invariant catalog once; returns the violation count.
  std::size_t check_invariants() { return watchdog_.evaluate(); }
  [[nodiscard]] fs::SimFs& fs() noexcept { return fs_; }
  [[nodiscard]] EntityRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const EntityRegistry& registry() const noexcept { return registry_; }
  [[nodiscard]] const dht::Placement& placement() const noexcept { return placement_; }

  [[nodiscard]] ServiceDaemon& daemon(NodeId n) { return *daemons_[raw(n)]; }
  [[nodiscard]] const ServiceDaemon& daemon(NodeId n) const { return *daemons_[raw(n)]; }

  /// Creates an entity on `node`, registers it, and starts tracking it.
  mem::MemoryEntity& create_entity(NodeId node, EntityKind kind, std::size_t num_blocks,
                                   std::size_t block_size = kDefaultBlockSize);

  [[nodiscard]] mem::MemoryEntity& entity(EntityId id) { return *entities_[raw(id)]; }
  [[nodiscard]] const mem::MemoryEntity& entity(EntityId id) const {
    return *entities_[raw(id)];
  }
  [[nodiscard]] std::size_t num_entities() const noexcept { return entities_.size(); }

  /// Stops tracking, best-effort-removes DHT state, and marks the entity
  /// departed (its memory stays readable for verification).
  void depart_entity(EntityId id);

  /// Runs one monitor epoch on every node and pumps the simulation until all
  /// resulting update datagrams are delivered or lost. Returns aggregate
  /// monitor stats.
  mem::ScanStats scan_all();

  /// Host time per scan_all phase since construction (see ScanPhaseHostNs).
  [[nodiscard]] const ScanPhaseHostNs& scan_phase_host_ns() const noexcept {
    return scan_phase_host_ns_;
  }

  /// The AIMD overload controller, or nullptr when params.pressure.enabled
  /// is false.
  [[nodiscard]] PressureController* pressure() noexcept { return pressure_.get(); }
  [[nodiscard]] const PressureController* pressure() const noexcept {
    return pressure_.get();
  }

  /// All live entity ids, in id order.
  [[nodiscard]] std::vector<EntityId> live_entities() const;

  /// Sums unique hashes across all DHT shards.
  [[nodiscard]] std::size_t total_unique_hashes() const;

 private:
  void install_invariants();
  /// The sharded-scan pool, built on first scan from params_.sim_workers
  /// (0 = one worker per hardware core, capped at 8).
  sim::WorkerPool& scan_pool();

  ClusterParams params_;
  sim::Simulation sim_;
  obs::Registry metrics_;  // declared before fabric/daemons: they hold cell refs
  obs::Tracer tracer_;
  obs::FlightRecorder blackbox_;
  obs::Watchdog watchdog_;
  net::Fabric fabric_;
  fs::SimFs fs_;
  dht::Placement placement_;
  EntityRegistry registry_;
  net::FaultInjector fault_;
  FailureDetector detector_;
  std::unique_ptr<PressureController> pressure_;
  std::unique_ptr<sim::WorkerPool> scan_pool_;  // lazily built for sim_workers > 1
  std::vector<std::unique_ptr<ServiceDaemon>> daemons_;
  std::vector<std::unique_ptr<mem::MemoryEntity>> entities_;
  // Previous epoch's alive view, diffed by the replica dirty-marking epoch
  // listener to find nodes that just (re)joined a shard's group. Unused
  // (empty) at R = 1.
  std::vector<bool> prev_alive_view_;
  std::uint64_t breaker_hints_ = 0;    // suspicion hints issued for breaker trips
  std::uint64_t next_scan_root_ = 0;   // scan-root trace ids (top bit set)
  ScanPhaseHostNs scan_phase_host_ns_;
};

}  // namespace concord::core
