// concord-lint: emit-path — bytes or messages produced here must not depend on
// hash-map iteration order.
#include "services/migration.hpp"

#include <memory>
#include <map>
#include <utility>

#include "obs/host_clock.hpp"

namespace concord::services {

namespace {

template <typename Fn>
sim::Time timed(Fn&& fn) {
  return obs::host_timed_ns(std::forward<Fn>(fn));
}

/// Batched residency probe: "which of these hashes does an entity hosted at
/// `where` hold?" — one message per shard instead of one per block.
struct ResidencyReq {
  std::uint64_t req_id;
  NodeId where{};
  std::shared_ptr<const std::vector<ContentHash>> hashes;
};

struct ResidencyReply {
  std::uint64_t req_id;
  // For each probed hash: the id of one entity at `where` believed to hold
  // it, or ~0u when none.
  std::shared_ptr<const std::vector<std::uint32_t>> holder;
};

struct BlockShip {
  std::uint64_t req_id;
  std::uint32_t new_entity;
  BlockIndex block;
  std::shared_ptr<const std::vector<std::byte>> data;
};

constexpr std::uint32_t kNoHolder = ~std::uint32_t{0};

}  // namespace

MigrationStats CollectiveMigration::migrate(std::span<const MigrationPlanItem> plan) {
  MigrationStats stats;
  sim::Simulation& simu = cluster_.sim();
  net::Fabric& fabric = cluster_.fabric();
  const sim::Time t0 = simu.now();
  std::uint64_t req_counter = 1;

  // Residency probes answer from the shard owner's slice of the DHT.
  for (std::uint32_t n = 0; n < cluster_.num_nodes(); ++n) {
    cluster_.daemon(node_id(n)).set_handler(
        net::MsgType::kNodeQuery, [this, &simu](core::ServiceDaemon& d, const net::Message& m) {
          const auto& req = m.as<ResidencyReq>();
          auto holder = std::make_shared<std::vector<std::uint32_t>>();
          const sim::Time cost = timed([&] {
            holder->reserve(req.hashes->size());
            for (const ContentHash& h : *req.hashes) {
              std::uint32_t found = kNoHolder;
              for (const EntityId e : d.store().entities(h)) {
                if (cluster_.registry().alive(e) &&
                    cluster_.registry().host_of(e) == req.where) {
                  found = raw(e);
                  break;
                }
              }
              holder->push_back(found);
            }
          });
          const std::size_t body = 8 + holder->size() * 4;
          simu.after(cost, [&d, m, req_id = req.req_id, holder, body]() {
            d.fabric().send_reliable(net::make_message(d.id(), m.src,
                                                       net::MsgType::kNodeQueryReply,
                                                       ResidencyReply{req_id, holder}, body));
          });
        });
  }

  for (const MigrationPlanItem& item : plan) {
    if (!cluster_.registry().alive(item.entity)) {
      stats.status = Status::kNotFound;
      continue;
    }
    const mem::MemoryEntity& src = cluster_.entity(item.entity);
    const NodeId src_node = src.host();
    const NodeId dst_node = item.destination;

    // Stand up the destination entity (same geometry).
    mem::MemoryEntity& dst =
        cluster_.create_entity(dst_node, src.kind(), src.num_blocks(), src.block_size());
    stats.new_ids.push_back(dst.id());

    // 1. Ground-truth hashes for every block (the NSM's view, fresh).
    const hash::BlockHasher& hasher = cluster_.daemon(src_node).monitor().hasher();
    std::vector<ContentHash> block_hash(src.num_blocks());
    const sim::Time hash_cost = timed([&] { hasher.hash_many(src.blocks(), block_hash); });
    simu.run_until(simu.now() + hash_cost);

    // 2. Batched residency probes, one per shard owner.
    std::map<std::uint32_t, std::vector<std::size_t>> by_shard;  // shard -> block idx, ordered: probes are emitted per shard
    for (std::size_t b = 0; b < block_hash.size(); ++b) {
      by_shard[raw(cluster_.placement().owner(block_hash[b]))].push_back(b);
    }
    std::vector<std::uint32_t> holder(block_hash.size(), kNoHolder);
    for (const auto& [shard, blocks] : by_shard) {
      auto hashes = std::make_shared<std::vector<ContentHash>>();
      hashes->reserve(blocks.size());
      for (const std::size_t b : blocks) hashes->push_back(block_hash[b]);
      const std::uint64_t rid = req_counter++;

      cluster_.daemon(src_node).set_handler(
          net::MsgType::kNodeQueryReply,
          [&, blocks_copy = blocks](core::ServiceDaemon&, const net::Message& m) {
            const auto& rep = m.as<ResidencyReply>();
            // Replies are matched by arrival: probes are serialized below,
            // so each handler invocation answers the probe just sent.
            for (std::size_t i = 0; i < rep.holder->size() && i < blocks_copy.size(); ++i) {
              holder[blocks_copy[i]] = (*rep.holder)[i];
            }
          });
      fabric.send_reliable(net::make_message(src_node, node_id(shard),
                                             net::MsgType::kNodeQuery,
                                             ResidencyReq{rid, dst_node, hashes},
                                             8 + 4 + hashes->size() * sizeof(ContentHash)));
      simu.run();  // serialize probes so the single reply handler is unambiguous
    }

    // 3. Reconstruct locally where the DHT was right; ship the rest.
    for (BlockIndex b = 0; b < src.num_blocks(); ++b) {
      ++stats.blocks_total;
      bool reconstructed = false;
      if (holder[b] != kNoHolder) {
        // Verify the claimed destination-resident replica by rehashing.
        const auto donor_id = entity_id(holder[b]);
        const auto* locs = cluster_.daemon(dst_node).block_map().find(block_hash[b]);
        if (locs != nullptr) {
          for (const mem::BlockLocation& loc : *locs) {
            if (loc.entity != donor_id) continue;
            const auto donor_block = cluster_.entity(loc.entity).block(loc.block);
            if (hasher(donor_block) == block_hash[b]) {
              dst.write_block(b, donor_block);
              reconstructed = true;
              ++stats.blocks_reconstructed;
            }
            break;
          }
        }
        if (!reconstructed) ++stats.stale_claims;
      }
      if (!reconstructed) {
        // Ship the block. Data rides the reliable class (a real migration
        // retransmits until delivered).
        auto data = std::make_shared<std::vector<std::byte>>(src.block(b).begin(),
                                                             src.block(b).end());
        const std::uint32_t dst_id = raw(dst.id());
        cluster_.daemon(dst_node).set_handler(
            net::MsgType::kData, [this](core::ServiceDaemon&, const net::Message& m) {
              const auto& ship = m.as<BlockShip>();
              cluster_.entity(entity_id(ship.new_entity)).write_block(ship.block, *ship.data);
            });
        fabric.send_reliable(net::make_message(src_node, dst_node, net::MsgType::kData,
                                               BlockShip{req_counter++, dst_id, b, data},
                                               8 + 4 + 8 + data->size()));
        stats.wire_bytes += data->size();
        ++stats.blocks_shipped;
      }
    }
    simu.run();  // drain shipments

    // 4. Retire the source; the new entity enters the DHT on the next
    // monitor epoch, run eagerly so the rest of the gang can lean on the
    // image that just landed.
    cluster_.depart_entity(item.entity);
    (void)cluster_.scan_all();
  }

  stats.latency = simu.now() - t0;
  return stats;
}

}  // namespace concord::services
