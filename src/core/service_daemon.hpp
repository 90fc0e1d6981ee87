// ServiceDaemon: the per-node ConCORD instance (Fig. 2).
//
// Each node of the emulated machine runs one daemon holding:
//   * its shard of the distributed content-tracing DHT,
//   * the node-specific module's memory update monitor + ground-truth
//     local block map for the entities hosted here,
//   * the message dispatch glue between the two and the fabric.
//
// The daemon is deliberately thin: collective query execution and the
// content-aware service command engine (src/query, src/svc) drive it
// through public methods and fabric messages.
#pragma once

#include <functional>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "core/update_batcher.hpp"
#include "dht/dht_store.hpp"
#include "dht/placement.hpp"
#include "mem/update_monitor.hpp"
#include "net/fabric.hpp"

namespace concord::core {

/// Payload of kDhtInsert / kDhtRemove datagrams. Wire layout (§3.3) is a
/// content hash plus entity id plus op tag.
struct DhtUpdateMsg {
  ContentHash hash;
  EntityId entity{};
  bool insert = true;
};
inline constexpr std::size_t kDhtUpdateBytes = sizeof(ContentHash) + sizeof(EntityId) + 1;

/// Payload of kCreditGrant datagrams: a shard owner telling an update sender
/// how many more batch datagrams it is willing to absorb. Control-plane
/// traffic — it bypasses ingress shedding, since it is the signal that
/// relieves the pressure.
struct CreditGrantMsg {
  std::uint64_t credits = 0;
};
inline constexpr std::size_t kCreditGrantBytes = sizeof(std::uint64_t);

/// Payload of kReplicaSync messages: one chunk of a donor replica's replay of
/// a dirty home shard to a rejoining group member (DESIGN.md §14). `last`
/// marks the stream's final chunk — receiving it at `epoch` clears the home
/// shard's dirty counter. Wire layout mirrors codec::ReplicaSync.
struct ReplicaSyncMsg {
  std::uint32_t home = 0;
  std::uint64_t epoch = 0;
  bool last = false;
  std::vector<dht::UpdateRecord> records;
};
/// Body bytes of a kReplicaSync chunk carrying `records` update records.
[[nodiscard]] constexpr std::size_t replica_sync_body_bytes(std::size_t records) noexcept {
  return net::codec::kReplicaSyncFixedBytes +
         records * net::codec::kDhtUpdateRecordBytes;
}

class ServiceDaemon {
 public:
  /// The DHT shard, update monitor and batcher account into the fabric's
  /// registry, labeled with `id`, as do the daemon's own update-routing
  /// counters (subsystem "core": updates_local applied to the co-located
  /// shard, updates_remote sent over the fabric).
  ServiceDaemon(NodeId id, std::uint32_t max_entities, dht::AllocMode alloc_mode,
                const dht::Placement& placement, net::Fabric& fabric,
                hash::BlockHasher hasher, mem::DetectMode detect_mode,
                BatchPolicy batching = {});

  [[nodiscard]] NodeId id() const noexcept { return id_; }

  // --- local entity tracking (NSM surface) ---
  void track(mem::MemoryEntity& entity) { monitor_.attach(entity); }
  void untrack(EntityId id) { monitor_.detach(id); }

  /// One monitor epoch: hash changed blocks and push each update to its
  /// shard owner over the unreliable datagram class — batched per owner when
  /// batching is enabled, with a deterministic flush of every destination at
  /// the scan boundary. Returns monitor stats.
  mem::ScanStats scan_and_publish();

  /// Emits removes for every block of a departing entity (best effort), so
  /// the DHT stops advertising it. Ground truth is dropped immediately.
  void publish_departure(EntityId id);

  /// Re-publishes one ground-truth fact to the hash's *current* shard owner
  /// through the same routing/batching pipeline as scan updates. Used by
  /// shard recovery after an epoch change remaps ownership.
  void publish_update(const ContentHash& hash, EntityId entity, bool insert) {
    route_update(mem::ContentUpdate{
        insert ? mem::ContentUpdate::Op::kInsert : mem::ContentUpdate::Op::kRemove, hash,
        entity});
  }
  /// Ships every buffered update batch now.
  void flush_updates() { batcher_.flush_all(); }
  /// Crash path: buffered batches are volatile state and die with the node.
  void drop_pending_updates() noexcept { batcher_.drop_all(); }

  // --- DHT shard surface ---
  [[nodiscard]] dht::DhtStore& store() noexcept { return store_; }
  [[nodiscard]] const dht::DhtStore& store() const noexcept { return store_; }

  // --- ground truth surface ---
  [[nodiscard]] const mem::LocalBlockMap& block_map() const noexcept {
    return monitor_.block_map();
  }
  [[nodiscard]] mem::MemoryUpdateMonitor& monitor() noexcept { return monitor_; }

  /// Fabric receive entry point; non-DHT types go to the handler registered
  /// for that message type by the query / service-command engines.
  void handle_message(net::Message& msg);

  using ExtraHandler = std::function<void(ServiceDaemon&, const net::Message&)>;
  void set_handler(net::MsgType type, ExtraHandler h) {
    handlers_[static_cast<std::uint16_t>(type)] = std::move(h);
  }

  [[nodiscard]] net::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] const dht::Placement& placement() const noexcept { return placement_; }
  [[nodiscard]] UpdateBatcher& batcher() noexcept { return batcher_; }

  // --- replica dirty-shard surface (R > 1 only; Harmonia-style counters) ---
  //
  // A home shard is *dirty* on this daemon when the daemon may have missed
  // update batches for it: it just joined the shard's replica group after an
  // epoch change, or its store was wiped by a crash. Dirty shards refuse
  // read service (the query engine fails over to an in-sync replica) until a
  // ReplicaSync stream — or a clean site-wide DhtAudit pass — clears them.
  // All of this state stays empty at R = 1, where the single owner is
  // authoritative by definition.

  /// True when this daemon may serve reads for `home` (always true at R=1).
  [[nodiscard]] bool shard_insync(std::uint32_t home) const noexcept {
    return dirty_shards_.find(home) == dirty_shards_.end();
  }
  /// Marks `home` dirty as of membership `epoch` (join/wipe path).
  void mark_shard_dirty(std::uint32_t home, std::uint64_t epoch) {
    dirty_shards_[home] = epoch;
  }
  /// Clears `home`'s dirty counter (resync stream completed at `epoch`).
  void mark_shard_clean(std::uint32_t home, std::uint64_t epoch) {
    dirty_shards_.erase(home);
    if (dirty_shards_.empty() && epoch > applied_epoch_) applied_epoch_ = epoch;
  }
  /// Crash path: the wiped store misses everything, so every home shard this
  /// daemon replicates under the current view goes dirty. No-op at R = 1.
  void mark_wiped(std::uint64_t epoch);
  /// Convergence oracle (clean DhtAudit pass at R>1): everything is in sync.
  void mark_all_insync(std::uint64_t epoch) {
    dirty_shards_.clear();
    if (epoch > applied_epoch_) applied_epoch_ = epoch;
  }
  /// Highest membership epoch this daemon is known fully caught up to —
  /// the donor-selection key for replica re-sync.
  [[nodiscard]] std::uint64_t applied_epoch() const noexcept { return applied_epoch_; }
  void set_applied_epoch(std::uint64_t epoch) noexcept {
    if (epoch > applied_epoch_) applied_epoch_ = epoch;
  }
  [[nodiscard]] const std::map<std::uint32_t, std::uint64_t>& dirty_shards() const noexcept {
    return dirty_shards_;
  }

  /// When on, this daemon answers every applied update batch with a
  /// kCreditGrant sized to its ingress headroom — the owner half of the
  /// credit-based flow-control loop (the sender half lives in the batcher).
  void set_credit_grants(bool on) noexcept { credit_grants_ = on; }
  [[nodiscard]] bool credit_grants() const noexcept { return credit_grants_; }

  // --- sharded-scan staging surface (core::Cluster only) ---

  /// Arms (`on`) or disarms this daemon's send stage. Armed, every fabric
  /// send its scan work produces (direct updates and batcher datagrams
  /// alike) is appended to the stage instead of being issued, so
  /// scan_and_publish can run on a worker thread. Arming clears what the
  /// previous epoch staged — by then that epoch's datagrams are delivered
  /// and applied — and disarming seals the stage for the cluster to replay
  /// in canonical node order.
  void set_send_staging(bool on) noexcept {
    if (on) {
      stage_.clear();
    } else {
      stage_.seal();
    }
    send_stage_ = on ? &stage_ : nullptr;
    batcher_.set_send_stage(send_stage_);
  }
  [[nodiscard]] SendStage& send_stage() noexcept { return stage_; }

  /// The message replaying one staged send: a kDhtUpdateBatch referencing
  /// the stage when batching is on, else the single kDhtInsert/kDhtRemove
  /// it stands for.
  [[nodiscard]] net::Message staged_message(StagedSend& s);

  /// While on, delivered DHT updates (kDhtInsert/kDhtRemove/kDhtUpdateBatch)
  /// are buffered in arrival order instead of being applied — the fabric's
  /// event loop stays pure dispatch, and apply_staged() replays the inbox on
  /// a worker thread once the epoch's deliveries drain. Delivery-time
  /// observables (apply-span trace markers, credit grants, which read only
  /// fabric state) still happen at delivery.
  void set_apply_staging(bool on) noexcept { apply_staging_ = on; }

  /// Applies the staged inbox in arrival order, preserving per-datagram
  /// apply_batch grouping. Also the crash path's first step: a batch that
  /// was delivered before the crash was applied in the serial pipeline, so
  /// its accounting must land before the shard is wiped.
  void apply_staged();

 private:
  void route_update(const mem::ContentUpdate& u);
  void route_update_to(NodeId dst, const dht::UpdateRecord& rec);
  [[nodiscard]] std::uint64_t compute_grant() const;
  /// Appends one delivered datagram to the inbox: by reference, or (when
  /// the message owns `records` and dies after delivery) as a copy.
  void stage_apply(std::span<const dht::UpdateRecord> records, bool owned);

  NodeId id_;
  const dht::Placement& placement_;
  net::Fabric& fabric_;
  dht::DhtStore store_;
  mem::MemoryUpdateMonitor monitor_;
  UpdateBatcher batcher_;
  bool credit_grants_ = false;
  // This daemon's scan-epoch sends (see SendStage). Records stay here until
  // the next epoch arms the stage again: the datagrams replayed from it, and
  // the receivers' inboxes, reference them in place.
  // concord-lint: unguarded(staged-send discipline: armed/disarmed by the
  // cluster on the simulation thread; during the parallel phase exactly one
  // worker owns this daemon and appends to the stage — daemons are never
  // shared across workers, so the buffer needs no lock)
  SendStage stage_;
  SendStage* send_stage_ = nullptr;  // &stage_ while armed
  bool apply_staging_ = false;
  // One entry per delivered datagram, in arrival order (a single update is
  // a 1-record batch): batches must not be concatenated, because
  // apply_batch's per-datagram ordering is part of the observable
  // accounting. An entry references a staged batch in its sender's stage;
  // an entry with a null `first` stands for the next `count` records of
  // inbox_records_, which holds copies of payloads the message owned.
  // concord-lint: unguarded(staged-apply discipline: filled by the fabric's
  // event loop on the simulation thread, drained by apply_staged() — which
  // the cluster runs one-worker-per-daemon after deliveries quiesce; the two
  // phases never overlap)
  struct InboxEntry {
    const dht::UpdateRecord* first = nullptr;
    std::size_t count = 0;
  };
  std::vector<InboxEntry> inbox_;
  std::vector<dht::UpdateRecord> inbox_records_;
  // Dirty home shards (home index -> epoch dirtied) and the highest epoch
  // this daemon is fully caught up to. Ordered map: the resync service and
  // shell status iterate it on emit paths. Always empty at R = 1.
  std::map<std::uint32_t, std::uint64_t> dirty_shards_;
  std::uint64_t applied_epoch_ = 0;
  std::unordered_map<std::uint16_t, ExtraHandler> handlers_;
  obs::Counter& updates_local_;   // shard co-located: applied directly
  obs::Counter& updates_remote_;  // shipped to the owner over the fabric
  obs::Counter& unhandled_msgs_;  // arrived with no registered handler
};

}  // namespace concord::core
