#include "core/cluster.hpp"

#include <algorithm>
#include <any>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <span>
#include <thread>

#include "core/cost_model.hpp"
#include "core/update_batcher.hpp"
#include "obs/host_clock.hpp"

namespace concord::core {

Cluster::Cluster(ClusterParams params)
    : params_(params),
      sim_(params.seed),
      blackbox_(metrics_, params.num_nodes, params.blackbox_capacity),
      watchdog_(metrics_),
      fabric_(sim_, params.fabric, &metrics_),
      placement_(params.single_node_dht ? 1 : params.num_nodes),
      registry_(params.max_entities),
      fault_(sim_, fabric_),
      detector_(sim_, fabric_, params.num_nodes, params.detector) {
  if (!params_.single_node_dht) placement_.set_replication(params_.dht_replication);
  fabric_.bind_flight_recorder(&blackbox_);
  fabric_.bind_tracer(&tracer_);
  fabric_.set_trace_propagation(params.trace_propagation);
  daemons_.reserve(params_.num_nodes);
  for (std::uint32_t n = 0; n < params_.num_nodes; ++n) {
    daemons_.push_back(std::make_unique<ServiceDaemon>(
        node_id(n), params_.max_entities, params_.alloc_mode, placement_, fabric_,
        hash::BlockHasher(params_.hash_algorithm), params_.detect_mode,
        params_.update_batching));
    daemons_.back()->monitor().set_hash_workers(params_.hash_workers);
    daemons_.back()->set_handler(net::MsgType::kHeartbeat,
                                 [this](ServiceDaemon& d, const net::Message& m) {
                                   detector_.handle_heartbeat(d.id(), m);
                                 });
  }
  // A crash loses the node's volatile state: its DHT shard and any updates
  // still buffered for batching. NSM ground truth (entity memory, block
  // maps) survives the reboot, which is what shard recovery republishes.
  // Batches delivered before the crash were applied in the serial pipeline,
  // so a staged inbox must land (keeping its counter accounting) before the
  // shard is wiped.
  fault_.on_crash([this](NodeId n) {
    daemon(n).apply_staged();
    daemon(n).store().clear();
    daemon(n).drop_pending_updates();
    // Replicated DHT: the wiped store misses everything it once held, so
    // every home shard this node replicates goes dirty — reads refuse until
    // a ReplicaSync stream (or a clean audit pass) catches it back up.
    // mark_wiped is a no-op at R = 1.
    daemon(n).mark_wiped(detector_.view().epoch);
  });
  // Epoch changes remap dead nodes' shards to alive successors. With a
  // single-node DHT the placement's node space (1) differs from the
  // cluster's, so the view is not forwarded.
  if (!params_.single_node_dht) {
    detector_.on_epoch_change(
        [this](const MembershipView& v) { placement_.set_view(v.epoch, v.alive); });
  }
  // Replica dirty marking (R > 1): after placement has installed the new
  // view (listeners fire in registration order), a node entering a home
  // shard's replica group — the successor drafted in when a member died, or
  // a healed member rejoining — has missed every batch since the group last
  // matched, so it goes dirty for that home until re-synced. Daemons that
  // came through the change with no dirt are fully caught up to this epoch
  // (the donor-selection key for resync).
  if (!params_.single_node_dht && placement_.replication() > 1) {
    prev_alive_view_.assign(params_.num_nodes, true);
    detector_.on_epoch_change([this](const MembershipView& v) {
      for (std::uint32_t home = 0; home < params_.num_nodes; ++home) {
        const std::vector<NodeId> prev =
            placement_.shard_replicas_in(prev_alive_view_, home);
        const std::vector<NodeId> cur = placement_.shard_replicas_in(v.alive, home);
        for (const NodeId n : cur) {
          if (std::find(prev.begin(), prev.end(), n) == prev.end()) {
            daemon(n).mark_shard_dirty(home, v.epoch);
          }
        }
      }
      for (auto& d : daemons_) {
        if (v.is_alive(d->id()) && d->dirty_shards().empty()) {
          d->set_applied_epoch(v.epoch);
        }
      }
      prev_alive_view_ = v.alive.empty() ? std::vector<bool>(params_.num_nodes, true)
                                         : v.alive;
    });
  }
  // Epoch changes are site-wide context for any postmortem: stamp them into
  // every node's flight-recorder ring.
  detector_.on_epoch_change([this](const MembershipView& v) {
    blackbox_.record_all(sim_.now(), obs::FrEvent::kEpochChange, 0, 0, v.epoch);
  });
  // A tripped circuit breaker is end-to-end evidence that dst has stopped
  // answering — feed it to the detector as a suspicion hint so the next
  // window's verdict is visible (shell `pressure`) ahead of time. The hint
  // count is cross-checked against fabric_.breaker_trips() by the watchdog's
  // wiring invariant.
  fabric_.on_breaker_trip([this](NodeId /*src*/, NodeId dst) {
    ++breaker_hints_;
    detector_.hint_suspect(dst);
  });
  // Silent-corruption model (checksums off): when the fabric's corrupt roll
  // fires without checksum verification to catch it, the bit-flip lands
  // here and poisons the typed payload in place. One deterministic bit of
  // the first content hash flips — so a re-corrupted retransmit restores it
  // rather than compounding — and only content-bearing update payloads are
  // touched: control frames carry nothing the integrity scrub could later
  // disprove. With checksums on this hook is never invoked.
  fabric_.set_payload_corruptor([](net::Message& m) {
    switch (m.type) {
      case net::MsgType::kDhtInsert:
      case net::MsgType::kDhtRemove:
        if (auto* u = std::any_cast<DhtUpdateMsg>(&m.payload)) u->hash.lo ^= 1;
        break;
      case net::MsgType::kDhtUpdateBatch:
        // A staged batch is poisoned in its sender's stage: the datagram
        // references those records, and nothing else reads them.
        if (const std::span<dht::UpdateRecord> b = batch_records(m); !b.empty()) {
          b.front().hash.lo ^= 1;
        }
        break;
      case net::MsgType::kReplicaSync:
        if (auto* r = std::any_cast<ReplicaSyncMsg>(&m.payload);
            r != nullptr && !r->records.empty()) {
          r->records.front().hash.lo ^= 1;
        }
        break;
      default:
        break;
    }
  });
  if (params_.pressure.enabled) {
    pressure_ = std::make_unique<PressureController>(fabric_, params_.pressure);
    for (auto& d : daemons_) pressure_->attach(*d);
  }
  watchdog_.set_hard_fail(params.watchdog.hard_fail);
  watchdog_.on_violation([this](const obs::Watchdog::Finding& f) {
    blackbox_.record_all(sim_.now(), obs::FrEvent::kWatchdogViolation);
    blackbox_.dump("watchdog:" + f.invariant);
  });
  install_invariants();
}

void Cluster::install_invariants() {
  // PR-5 conservation identity, valid at quiescent points (scan boundaries,
  // after sim().run()): every datagram counted sent was received, dropped in
  // flight, shed at a full ingress queue, blackholed mid-flight, dropped as
  // checksum-corrupt at the receiver, or was a completed ack (counted sent
  // but consumed by the reliable protocol, never "received"). Loopback
  // deliveries are received without ever being sent, and duplicates are
  // received (or shed/blackholed — they're counted at manufacture) without
  // being sent, hence the two corrections.
  watchdog_.add_invariant("net_conservation", [this]() -> std::optional<std::string> {
    const std::uint64_t sent = metrics_.counter_total("net", "msgs_sent");
    const std::uint64_t received = metrics_.counter_total("net", "msgs_received");
    const std::uint64_t dropped = metrics_.counter_total("net", "msgs_dropped");
    const std::uint64_t shed = metrics_.counter_total("net", "msgs_shed");
    const std::uint64_t inflight =
        metrics_.counter_total("net", "msgs_blackholed_inflight");
    const std::uint64_t corrupt = metrics_.counter_total("net", "msgs_corrupt_dropped");
    const std::uint64_t acks = fabric_.acks_completed();
    const std::uint64_t loopback = fabric_.loopback_delivered();
    const std::uint64_t duplicated = fabric_.duplicates_delivered();
    const std::uint64_t rhs =
        received - loopback - duplicated + dropped + shed + inflight + corrupt + acks;
    if (sent == rhs) return std::nullopt;
    char buf[288];
    std::snprintf(buf, sizeof buf,
                  "sent=%" PRIu64 " != %" PRIu64 " (received=%" PRIu64
                  " - loopback=%" PRIu64 " - duplicated=%" PRIu64 " + dropped=%" PRIu64
                  " + shed=%" PRIu64 " + inflight_blackholed=%" PRIu64
                  " + corrupt_dropped=%" PRIu64 " + acks=%" PRIu64 ")",
                  sent, rhs, received, loopback, duplicated, dropped, shed, inflight,
                  corrupt, acks);
    return std::string(buf);
  });
  // The per-shard unique_hashes gauges must agree with the stores they
  // describe — gauge drift means an update path forgot its accounting.
  watchdog_.add_invariant("dht_gauge_consistency",
                          [this]() -> std::optional<std::string> {
    const auto structural = static_cast<std::int64_t>(total_unique_hashes());
    const std::int64_t gauged = metrics_.gauge_total("dht", "unique_hashes");
    if (structural == gauged) return std::nullopt;
    char buf[96];
    std::snprintf(buf, sizeof buf, "stores hold %lld hashes, gauges say %lld",
                  static_cast<long long>(structural), static_cast<long long>(gauged));
    return std::string(buf);
  });
  // Credit purses and adaptive budgets never go negative; a negative value
  // means a grant/consume pair went out of balance.
  watchdog_.add_invariant("pressure_non_negative",
                          [this]() -> std::optional<std::string> {
    std::optional<std::string> bad;
    metrics_.for_each([&](const obs::MetricKey& k, const obs::Registry::Cell& cell) {
      if (bad.has_value() || k.subsystem != "core") return;
      if (k.name != "flow_credits" && k.name != "update_budget" &&
          k.name != "flush_quota") {
        return;
      }
      const auto* g = std::get_if<obs::Gauge>(&cell);
      if (g != nullptr && g->value() < 0) {
        bad = k.name + " on node " + std::to_string(k.node) + " = " +
              std::to_string(g->value());
      }
    });
    return bad;
  });
  // Every breaker trip must have produced exactly one suspicion hint.
  watchdog_.add_invariant("breaker_suspicion_wiring",
                          [this]() -> std::optional<std::string> {
    const std::uint64_t trips = fabric_.breaker_trips();
    if (trips == breaker_hints_) return std::nullopt;
    return "breaker trips " + std::to_string(trips) + " != suspicion hints " +
           std::to_string(breaker_hints_);
  });
}

mem::MemoryEntity& Cluster::create_entity(NodeId node, EntityKind kind,
                                          std::size_t num_blocks, std::size_t block_size) {
  const EntityId id = registry_.register_entity(node, kind);
  entities_.push_back(
      std::make_unique<mem::MemoryEntity>(id, node, kind, num_blocks, block_size));
  mem::MemoryEntity& e = *entities_.back();
  daemon(node).track(e);
  return e;
}

void Cluster::depart_entity(EntityId id) {
  const NodeId host = registry_.host_of(id);
  daemon(host).publish_departure(id);
  registry_.deregister(id);
  sim_.run();  // flush the departure's best-effort removes
}

sim::WorkerPool& Cluster::scan_pool() {
  if (scan_pool_ == nullptr) {
    std::size_t n = params_.sim_workers;
    if (n == 0) {
      const std::size_t hw = std::thread::hardware_concurrency();
      n = hw == 0 ? 1 : (hw < 8 ? hw : 8);
    }
    scan_pool_ = std::make_unique<sim::WorkerPool>(n == 0 ? 1 : n);
  }
  return *scan_pool_;
}

mem::ScanStats Cluster::scan_all() {
  mem::ScanStats total;
  const CostModel& cost = CostModel::instance();
  // Each scan epoch is the root of its own causal tree: a scan-root id with
  // the top bit set (disjoint from command ids) becomes the ambient context,
  // so the update datagrams this epoch ships are linkable in the trace.
  std::optional<net::Fabric::TraceScope> trace_scope;
  if (fabric_.trace_propagation()) {
    trace_scope.emplace(fabric_,
                        net::TraceContext{(std::uint64_t{1} << 63) | ++next_scan_root_, 0});
  }
  // The scan epoch runs the same staged three-phase pipeline for every
  // sim_workers value, so worker-count invariance holds by construction:
  //
  //   1. parallel scan — each live daemon's node-local work (dirty-block
  //      hashing, update routing, batching) runs on a pool worker, with
  //      every fabric send captured into that node's index-aligned staging
  //      buffer and every delivered DHT update buffered per daemon;
  //   2. sequential merge — staged sends replay in canonical node order
  //      under each node's scan span, reproducing the serial pipeline's rng
  //      draws, flow events, and egress bookkeeping byte-for-byte (the
  //      virtual clock never advances during a scan walk, so deferral is
  //      unobservable); then the fabric drains the epoch's deliveries;
  //   3. parallel apply — each daemon replays its staged inbox into its own
  //      shard, touching only per-node state and metric cells.
  std::vector<ServiceDaemon*> live;
  live.reserve(daemons_.size());
  for (auto& d : daemons_) {
    d->set_apply_staging(true);
    if (!fault_.is_down(d->id())) live.push_back(d.get());
  }
  std::vector<mem::ScanStats> stats(live.size());
  // Arming clears each stage: the previous epoch's sim_.run() delivered
  // every datagram that referenced it, and its apply pass consumed them.
  for (ServiceDaemon* d : live) d->set_send_staging(true);
  std::int64_t t0 = obs::host_now_ns();
  scan_pool().run(live.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) stats[i] = live[i]->scan_and_publish();
  });
  for (ServiceDaemon* d : live) d->set_send_staging(false);
  std::int64_t t1 = obs::host_now_ns();
  scan_phase_host_ns_.scan += t1 - t0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    const mem::ScanStats& s = stats[i];
    const auto tid = static_cast<std::uint32_t>(raw(live[i]->id()));
    const obs::Tracer::SpanId span = tracer_.begin_span("scan", "mem", tid, sim_.now());
    for (StagedSend& staged : live[i]->send_stage().sends) {
      // A captured batch context (deferred records shipped under the scan
      // that produced them) re-wraps its send; everything else replays under
      // the epoch's ambient scan-root context, exactly like a direct send.
      std::optional<net::Fabric::TraceScope> send_scope;
      if (staged.ctx.valid()) send_scope.emplace(fabric_, staged.ctx);
      fabric_.send_unreliable(live[i]->staged_message(staged));
    }
    // The scan's virtual cost: what hashing this epoch's blocks would have
    // charged to the node. Spans and the scan_cost_ns histogram stay
    // deterministic because the cost model is fixed per process.
    const sim::Time scan_cost = cost.hash_cost(params_.hash_algorithm, s.bytes_hashed);
    tracer_.add_arg(span, "blocks_hashed", s.blocks_hashed);
    tracer_.add_arg(span, "inserts", s.inserts_emitted);
    tracer_.add_arg(span, "removes", s.removes_emitted);
    tracer_.end_span(span, sim_.now() + scan_cost);
    metrics_
        .histogram("mem", "scan_cost_ns", static_cast<std::int32_t>(raw(live[i]->id())))
        .record(static_cast<std::uint64_t>(scan_cost));
    total.blocks_examined += s.blocks_examined;
    total.blocks_hashed += s.blocks_hashed;
    total.bytes_hashed += s.bytes_hashed;
    total.inserts_emitted += s.inserts_emitted;
    total.removes_emitted += s.removes_emitted;
    total.throttled_blocks += s.throttled_blocks;
  }
  t0 = obs::host_now_ns();
  scan_phase_host_ns_.merge += t0 - t1;
  // Deliver (or lose) every update datagram. This drains the event queue,
  // so once it returns no datagram still references a send stage.
  sim_.run();
  t1 = obs::host_now_ns();
  scan_phase_host_ns_.run += t1 - t0;
  // Phase 3: every daemon (crashed ones already drained their inbox in the
  // crash handler) applies what the epoch delivered to it, in parallel —
  // shard state and per-node metric cells are disjoint across daemons, and
  // the senders' stages are only read.
  scan_pool().run(daemons_.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) daemons_[i]->apply_staged();
  });
  scan_phase_host_ns_.apply += obs::host_now_ns() - t1;
  for (auto& d : daemons_) d->set_apply_staging(false);
  // Scan boundary: the controller reads this epoch's pressure signals and
  // adapts budgets/quotas for the next one.
  if (pressure_ != nullptr) pressure_->after_scan();
  // Quiescent point: the conservation identity and its peers hold here.
  if (params_.watchdog.enabled) watchdog_.evaluate();
  return total;
}

std::vector<EntityId> Cluster::live_entities() const {
  std::vector<EntityId> out;
  for (std::uint32_t i = 0; i < registry_.size(); ++i) {
    const auto id = entity_id(i);
    if (registry_.alive(id)) out.push_back(id);
  }
  return out;
}

std::size_t Cluster::total_unique_hashes() const {
  std::size_t sum = 0;
  for (const auto& d : daemons_) sum += d->store().unique_hashes();
  return sum;
}

}  // namespace concord::core
