#include "query/queries.hpp"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "core/cost_model.hpp"
#include "dht/collective_scan.hpp"
#include "obs/host_clock.hpp"

namespace concord::query {

namespace {

/// Measures a local computation on the host clock so its cost can be
/// charged to the simulation's virtual clock.
template <typename Fn>
sim::Time timed(Fn&& fn) {
  return obs::host_timed_ns(std::forward<Fn>(fn));
}

struct NodeQueryMsg {
  std::uint64_t req_id;
  ContentHash hash;
  bool want_entities;
};
constexpr std::size_t kNodeQueryBytes = 8 + sizeof(ContentHash) + 1;

struct NodeQueryReplyMsg {
  std::uint64_t req_id;
  std::size_t num_copies;
  std::vector<EntityId> entities;
  sim::Time compute_time;
  // R > 1 only: the replica's shard is dirty (it missed update batches and
  // has not been re-synced), so it refuses to serve a possibly-stale read.
  // The flag byte rides the wire only in replicated clusters, keeping R = 1
  // reply sizes byte-identical to pre-replication builds.
  bool refused = false;
};

struct CollectiveReqMsg {
  std::uint64_t req_id;
  std::shared_ptr<const Bitmap> set;  // query entity set (shared: 1-to-n bcast)
  std::size_t k;
  bool collect_hashes;
};

}  // namespace

// Partial results travel back as this payload.
struct CollectiveReplyMsg {
  std::uint64_t req_id;
  QueryEngine::CollectivePartial partial;
};

QueryEngine::CollectivePartial QueryEngine::compute_partial(const core::ServiceDaemon& d,
                                                            const Bitmap& query_set,
                                                            std::size_t k,
                                                            bool collect_hashes) const {
  // The shared shard kernel (dht/collective_scan.hpp) needs the site
  // membership as a flat entity->host table.
  const core::EntityRegistry& reg = cluster_.registry();
  std::vector<std::uint32_t> hosts(reg.size());
  for (std::uint32_t i = 0; i < reg.size(); ++i) hosts[i] = raw(reg.host_of(entity_id(i)));

  // Replicated DHT: every hash lives on R shards, so each shard only counts
  // the hashes it primarily owns — the all-shards sum then sees each hash
  // exactly once, as in the single-owner layout.
  const dht::Placement& pl = cluster_.placement();
  std::function<bool(const ContentHash&)> serve_hash;
  if (pl.replication() > 1) {
    const NodeId self = d.id();
    serve_hash = [&pl, self](const ContentHash& h) { return pl.owner(h) == self; };
  }
  dht::ScanPartial p =
      dht::collective_scan(d.store(), query_set, hosts, k, collect_hashes, serve_hash);
  return CollectivePartial{p.total, p.unique, p.intra, p.inter, p.k_count,
                           std::move(p.k_hashes)};
}

NodewiseAnswer QueryEngine::num_copies(NodeId from, const ContentHash& h) {
  return entities_impl(from, h, /*want_entities=*/false);
}

NodewiseAnswer QueryEngine::entities(NodeId from, const ContentHash& h) {
  return entities_impl(from, h, /*want_entities=*/true);
}

NodewiseAnswer QueryEngine::entities_impl(NodeId from, const ContentHash& h,
                                          bool want_entities) {
  sim::Simulation& simu = cluster_.sim();
  net::Fabric& fabric = cluster_.fabric();
  const dht::Placement& pl = cluster_.placement();
  const std::uint32_t repl = pl.replication();
  const std::uint64_t req_id = next_req_id_++;

  NodewiseAnswer answer;
  bool done = false;
  std::uint64_t refusals = 0;
  const sim::Time t0 = simu.now();

  // Candidate servers in preference order. R = 1: the single zero-hop owner
  // (legacy path). R > 1: the whole replica group — the requester itself
  // first when it is a member (loopback beats a network hop), then successor
  // order, with nodes the current view or the detector's hint set suspects
  // moved to the back: suspicion can be stale, so suspects are tried last,
  // never dropped.
  std::vector<NodeId> candidates;
  if (repl <= 1) {
    candidates.push_back(pl.owner(h));
  } else {
    candidates = pl.replicas(h);
    const std::vector<NodeId> hinted = cluster_.detector().hinted();
    auto suspect = [&](NodeId n) {
      return !cluster_.membership().is_alive(n) ||
             std::find(hinted.begin(), hinted.end(), n) != hinted.end();
    };
    std::stable_partition(candidates.begin(), candidates.end(),
                          [&](NodeId n) { return !suspect(n); });
    std::stable_partition(candidates.begin(), candidates.end(),
                          [&](NodeId n) { return n == from && !suspect(n); });
  }

  // Install handlers: each candidate can serve (or refuse), the requester
  // collects. At R = 1 this installs exactly the legacy owner handler.
  for (const NodeId cand : candidates) {
    cluster_.daemon(cand).set_handler(
        net::MsgType::kNodeQuery, [&](core::ServiceDaemon& d, const net::Message& m) {
          const auto& q = m.as<NodeQueryMsg>();
          NodeQueryReplyMsg reply{q.req_id, 0, {}, 0, false};
          if (repl > 1 && !d.shard_insync(pl.home(q.hash))) {
            // Harmonia-style dirty gate: this replica missed batches for the
            // hash's home shard and has not been re-synced — serving now
            // could return stale or empty data as truth. Refuse cheaply (no
            // compute charge) and let the requester fail over.
            reply.refused = true;
            const std::size_t body = 8 + 8 + 8 + 1;
            d.fabric().send_reliable(net::make_message(
                d.id(), m.src, net::MsgType::kNodeQueryReply, std::move(reply), body));
            return;
          }
          reply.compute_time = timed([&] {
            reply.num_copies = d.store().num_entities(q.hash);
            if (q.want_entities) reply.entities = d.store().entities(q.hash);
          });
          const std::size_t body = 8 + 8 + reply.entities.size() * sizeof(EntityId) + 8 +
                                   (repl > 1 ? 1 : 0);
          // Charge the local computation before the reply leaves the node.
          simu.after(reply.compute_time, [&d, m, reply = std::move(reply), body]() mutable {
            d.fabric().send_reliable(
                net::make_message(d.id(), m.src, net::MsgType::kNodeQueryReply,
                                  std::move(reply), body));
          });
        });
  }
  cluster_.daemon(from).set_handler(
      net::MsgType::kNodeQueryReply, [&](core::ServiceDaemon&, const net::Message& m) {
        const auto& r = m.as<NodeQueryReplyMsg>();
        if (r.req_id != req_id) return;
        if (r.refused) {
          ++refusals;
          return;
        }
        answer.num_copies = r.num_copies;
        answer.entities = r.entities;
        answer.compute_time = r.compute_time;
        answer.latency = simu.now() - t0;
        done = true;
      });

  // Try candidates in order until one serves. Each attempt resolves inside
  // one simu.run(): a breaker fast-fail (kUnavailable) resolves at send
  // time, a timeout after the retry budget, a refusal via the reply handler.
  std::size_t attempts = 0;
  for (const NodeId cand : candidates) {
    fabric.send_reliable(net::make_message(from, cand, net::MsgType::kNodeQuery,
                                           NodeQueryMsg{req_id, h, want_entities},
                                           kNodeQueryBytes));
    simu.run();
    ++attempts;
    if (done) break;
  }
  if (!done) answer.latency = simu.now() - t0;  // every candidate failed
  answer.status = done ? Status::kOk : Status::kDegraded;
  if (attempts > 1) read_failover_.inc(attempts - 1);
  read_refused_.inc(refusals);
  return answer;
}

QueryEngine::CollectivePartial QueryEngine::run_collective(NodeId from,
                                                           std::span<const EntityId> set,
                                                           std::size_t k, bool collect_hashes,
                                                           sim::Time& latency) {
  sim::Simulation& simu = cluster_.sim();
  net::Fabric& fabric = cluster_.fabric();
  const std::uint64_t req_id = next_req_id_++;

  auto query_set = std::make_shared<Bitmap>(cluster_.params().max_entities);
  for (const EntityId e : set) query_set->set(raw(e));

  // The DHT spans placement().num_nodes() shards (1 in the Fig. 9 "single"
  // configuration); only shard holders participate.
  std::vector<NodeId> shard_nodes;
  for (std::uint32_t n = 0; n < cluster_.placement().num_nodes(); ++n) {
    shard_nodes.push_back(node_id(n));
  }

  CollectivePartial aggregate;
  const sim::Time t0 = simu.now();
  sim::Time done_at = t0;

  for (const NodeId n : shard_nodes) {
    cluster_.daemon(n).set_handler(
        net::MsgType::kCollectiveRequest, [&](core::ServiceDaemon& d, const net::Message& m) {
          const auto& req = m.as<CollectiveReqMsg>();
          CollectiveReplyMsg reply{req.req_id, {}};
          reply.partial = compute_partial(d, *req.set, req.k, req.collect_hashes);
          // Charged via the calibrated per-entry scan cost so the shard
          // computation is deterministic (see core/cost_model.hpp).
          const sim::Time cost =
              core::CostModel::instance().scan_cost(d.store().unique_hashes());
          const std::size_t body = 8 + 5 * 8 + reply.partial.k_hashes.size() * sizeof(ContentHash);
          simu.after(cost, [&d, m, reply = std::move(reply), body]() mutable {
            d.fabric().send_reliable(net::make_message(
                d.id(), m.src, net::MsgType::kCollectiveReply, std::move(reply), body));
          });
        });
  }
  cluster_.daemon(from).set_handler(
      net::MsgType::kCollectiveReply, [&](core::ServiceDaemon&, const net::Message& m) {
        const auto& r = m.as<CollectiveReplyMsg>();
        if (r.req_id != req_id) return;
        aggregate.total += r.partial.total;
        aggregate.unique += r.partial.unique;
        aggregate.intra += r.partial.intra;
        aggregate.inter += r.partial.inter;
        aggregate.k_count += r.partial.k_count;
        aggregate.k_hashes.insert(aggregate.k_hashes.end(), r.partial.k_hashes.begin(),
                                  r.partial.k_hashes.end());
        done_at = simu.now();
      });

  const std::size_t set_bytes = (cluster_.params().max_entities + 7) / 8;
  fabric.broadcast_reliable(from, net::MsgType::kCollectiveRequest,
                            std::any(CollectiveReqMsg{req_id, query_set, k, collect_hashes}),
                            8 + set_bytes + 8 + 1, shard_nodes);
  simu.run();
  latency = done_at - t0;
  return aggregate;
}

SharingAnswer QueryEngine::sharing(NodeId from, std::span<const EntityId> set) {
  SharingAnswer ans;
  const CollectivePartial p =
      run_collective(from, set, /*k=*/~std::size_t{0}, /*collect=*/false, ans.latency);
  ans.total_copies = p.total;
  ans.unique_hashes = p.unique;
  ans.sharing = p.total - p.unique;
  ans.intra_sharing = p.intra;
  ans.inter_sharing = p.inter;
  return ans;
}

KCopyAnswer QueryEngine::num_shared_content(NodeId from, std::span<const EntityId> set,
                                            std::size_t k) {
  KCopyAnswer ans;
  const CollectivePartial p = run_collective(from, set, k, /*collect=*/false, ans.latency);
  ans.num_hashes = p.k_count;
  return ans;
}

KCopyAnswer QueryEngine::shared_content(NodeId from, std::span<const EntityId> set,
                                        std::size_t k) {
  KCopyAnswer ans;
  CollectivePartial p = run_collective(from, set, k, /*collect=*/true, ans.latency);
  ans.num_hashes = p.k_count;
  ans.hashes = std::move(p.k_hashes);
  return ans;
}

}  // namespace concord::query
