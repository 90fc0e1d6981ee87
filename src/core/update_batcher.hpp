// UpdateBatcher: per-daemon owner-batched DHT update coalescing.
//
// The update stream is the bulk of ConCORD's traffic (§3.4, Fig. 7), and an
// unbatched pipeline pays a full wire header plus one fabric event per 21-byte
// record. The batcher coalesces route_update traffic per destination shard
// owner and ships one kDhtUpdateBatch datagram carrying up to an MTU's worth
// of (op, hash, entity) records. Flush policy:
//   * size-triggered — a destination's buffer reaching max_records() flushes
//     immediately, so no batch ever exceeds the configured MTU;
//   * scan-boundary — the daemon flushes all destinations at the end of every
//     scan epoch (and before entity departure takes effect), bounding the
//     staleness a batch can add to well under one scan period.
// Loss semantics coarsen with batching: the fabric drops whole datagrams, so
// one lost datagram now loses every record in the batch (quantified in the
// fig07 loss sweep).
//
// Two robustness layers ride on top of the buffering:
//   * epoch-aware remap — buffered records are re-routed through the current
//     dht::Placement view at flush time, so a batch enqueued for an owner
//     that crashed (and was detected) mid-epoch ships to the successor
//     instead of the blackhole (counter core/updates_remapped). Records are
//     routed by their caller under the view current when they are added, so
//     the remap only runs when Placement::generation() moved since the last
//     one — a steady-state flush costs nothing per record;
//   * credit-based flow control — when enabled, each shipped datagram spends
//     one credit granted by shard owners (kCreditGrant, sized by their
//     ingress headroom). Out of credits, a flush defers (core/flush_deferred)
//     and the buffer is bounded: past a few datagrams' worth per owner, new
//     records are shed locally (core/updates_shed_local) rather than
//     amplifying the overload — the update stream is best-effort by design
//     (§4.1) and DhtAudit heals whatever pressure dropped.
// concord-lint: emit-path — bytes or messages produced here must not depend on
// hash-map iteration order.
#pragma once

#include <any>
#include <cstdint>
#include <map>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "dht/dht_store.hpp"
#include "dht/placement.hpp"
#include "net/codec.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"

namespace concord::core {

/// Payload of a kDhtUpdateBatch sent outside a scan epoch (departures,
/// republish, resync flushes): the records in arrival order, owned by the
/// message. Read it through batch_records().
using DhtUpdateBatchMsg = std::vector<dht::UpdateRecord>;

/// One fabric send captured during a sharded scan epoch instead of being
/// issued immediately: `count` records of the owning SendStage's record
/// buffer, bound for `dst`. Workers compute node-local scan work in parallel
/// and append their sends to their own node's stage; the cluster's
/// sequential merge pass then replays them in canonical node order, so the
/// fabric's rng draws, flow-event stream, and egress bookkeeping are
/// byte-identical to the serial pipeline. `ctx` carries the causal context a
/// deferred batch was filled under (invalid = stamp from the ambient context
/// at replay time, exactly like a direct send).
struct StagedSend {
  NodeId dst{};
  std::uint32_t count = 0;
  dht::UpdateRecord* first = nullptr;  // set by SendStage::seal()
  net::TraceContext ctx{};
};

/// A daemon's scan-epoch send stage, kept (with its capacity) across epochs.
/// The scan phase appends each datagram's records to one contiguous buffer;
/// seal() then points every send at its records, and from there until the
/// next epoch's clear() the buffer never moves: the datagrams replayed from
/// it carry references into it, not copies.
struct SendStage {
  std::vector<StagedSend> sends;
  std::vector<dht::UpdateRecord> records;

  /// Stages one datagram of `recs` for `dst`.
  void add(NodeId dst, std::span<const dht::UpdateRecord> recs,
           net::TraceContext ctx = {}) {
    sends.push_back(StagedSend{dst, static_cast<std::uint32_t>(recs.size()), nullptr, ctx});
    records.insert(records.end(), recs.begin(), recs.end());
  }
  /// Resolves every send's `first`; call once appending has stopped.
  void seal() noexcept {
    dht::UpdateRecord* next = records.data();
    for (StagedSend& s : sends) {
      s.first = next;
      next += s.count;
    }
  }
  void clear() noexcept {
    sends.clear();
    records.clear();
  }
};

/// Payload of a kDhtUpdateBatch replayed from a SendStage: a reference to
/// the staged send, whose records stay in the sender's stage until the next
/// scan epoch clears it. No scan-epoch batch payload owns heap memory, so
/// nothing a scan worker allocates for one is freed on another thread.
struct StagedBatchRef {
  StagedSend* send = nullptr;
};
// std::any keeps a payload in its own storage (no holder allocation) only
// when it is pointer-sized and nothrow-movable.
static_assert(sizeof(StagedBatchRef) <= sizeof(void*) &&
                  alignof(StagedBatchRef) <= alignof(void*) &&
                  std::is_nothrow_move_constructible_v<StagedBatchRef>,
              "StagedBatchRef must fit std::any's local storage");

/// The records of a kDhtUpdateBatch message, whichever payload form it
/// carries. The only reader of batch payloads.
[[nodiscard]] inline std::span<dht::UpdateRecord> batch_records(net::Message& msg) {
  if (auto* ref = std::any_cast<StagedBatchRef>(&msg.payload)) {
    return {ref->send->first, ref->send->count};
  }
  return std::any_cast<DhtUpdateBatchMsg&>(msg.payload);
}

/// Batching knobs shared by every daemon of a cluster.
struct BatchPolicy {
  bool enabled = true;
  /// Datagram size budget, including the emulated wire header. The default
  /// matches Ethernet's MTU, giving 68 records per datagram.
  std::size_t mtu_bytes = 1500;

  /// Records that fit in one datagram under mtu_bytes (always at least 1,
  /// and never more than the codec's decode-side bound).
  [[nodiscard]] std::size_t max_records() const noexcept {
    const std::size_t overhead =
        net::kWireHeaderBytes + net::codec::kDhtUpdateBatchCountBytes;
    if (mtu_bytes < overhead + net::codec::kDhtUpdateRecordBytes) return 1;
    const std::size_t n = (mtu_bytes - overhead) / net::codec::kDhtUpdateRecordBytes;
    return n < net::codec::kMaxDhtBatchRecords ? n : net::codec::kMaxDhtBatchRecords;
  }
};

/// Wire size of a batch datagram carrying `records` update records.
[[nodiscard]] constexpr std::size_t batch_wire_size(std::size_t records) noexcept {
  return net::kWireHeaderBytes + net::codec::kDhtUpdateBatchCountBytes +
         records * net::codec::kDhtUpdateRecordBytes;
}

/// A kDhtUpdateBatch datagram of `records` records carrying `payload`
/// (a DhtUpdateBatchMsg or a StagedBatchRef).
template <typename Payload>
[[nodiscard]] net::Message batch_message(NodeId src, NodeId dst, std::size_t records,
                                         Payload payload) {
  return net::make_message(src, dst, net::MsgType::kDhtUpdateBatch, std::move(payload),
                           batch_wire_size(records) - net::kWireHeaderBytes);
}

class UpdateBatcher {
 public:
  /// `placement`, when given, enables the flush-time remap: records buffered
  /// for a dead owner re-route to the epoch-aware successor instead of
  /// relying on DhtAudit to heal the loss. Accounting lands in the fabric's
  /// registry, labeled with `self`: core.updates_batched (records shipped
  /// inside batch datagrams) and net.batch_fill (log2 histogram of records
  /// per flushed datagram).
  UpdateBatcher(NodeId self, net::Fabric& fabric, BatchPolicy policy,
                const dht::Placement* placement = nullptr);

  /// Buffers one record for `dst`, flushing that destination when its buffer
  /// reaches the policy's per-datagram record budget. `dst` must be where
  /// the placement routes the record now; the flush-time remap only revisits
  /// records after the placement's generation changes.
  void add(NodeId dst, const dht::UpdateRecord& rec);

  /// Ships `dst`'s buffered records (no-op when empty).
  void flush(NodeId dst);

  /// Ships every destination's buffer in ascending NodeId order, so flush
  /// traffic is deterministic regardless of buffering history.
  void flush_all();

  [[nodiscard]] const BatchPolicy& policy() const noexcept { return policy_; }
  /// Records currently buffered across all destinations (test surface).
  [[nodiscard]] std::size_t pending_records() const noexcept;

  /// Discards every buffered record without shipping it — the node crashed
  /// and its un-flushed batches die with it.
  void drop_all() noexcept {
    pending_.clear();
    pending_trace_.clear();
  }

  // --- credit-based flow control (PressureController / daemon surface) ---

  /// Enables credit accounting: every shipped datagram spends one credit and
  /// flushes defer when the purse is empty. Disabled (the default), credits
  /// are ignored and behavior is byte-identical to the legacy batcher.
  void set_flow_control(bool enabled, std::uint64_t initial_credits);
  /// Adds credits granted by a shard owner (capped; excess is dropped).
  void grant_credits(std::uint64_t n);
  [[nodiscard]] std::uint64_t credits() const noexcept { return credits_; }
  [[nodiscard]] bool flow_control() const noexcept { return flow_control_; }

  /// While non-null, ship() appends its datagrams to `stage` instead of
  /// touching the fabric — the sharded-scan staging surface. The cluster
  /// arms this only for the duration of a scan epoch's parallel phase.
  void set_send_stage(SendStage* stage) noexcept { send_stage_ = stage; }

  /// Caps datagrams shipped per flush_all (0 = unlimited). The
  /// PressureController's AIMD loop drives this.
  void set_flush_quota(std::uint64_t per_flush) noexcept { flush_quota_ = per_flush; }
  [[nodiscard]] std::uint64_t flush_quota() const noexcept { return flush_quota_; }

  /// Cumulative pressure signals (0 until the first event — the counters
  /// behind them are created lazily).
  [[nodiscard]] std::uint64_t deferred_events() const noexcept {
    return flush_deferred_ != nullptr ? flush_deferred_->value() : 0;
  }
  [[nodiscard]] std::uint64_t shed_local_records() const noexcept {
    return updates_shed_local_ != nullptr ? updates_shed_local_->value() : 0;
  }

 private:
  /// Ships `records` in MTU-sized chunks, spending one credit and one unit
  /// of `*quota` per datagram; stops (deferring the remainder in place) when
  /// either runs out.
  void ship(NodeId dst, std::vector<dht::UpdateRecord>& records, std::uint64_t* quota);
  /// Re-routes every buffered record through the current placement view;
  /// returns at once while the placement's generation is unchanged.
  void remap_pending();
  /// `dst`'s buffer, growing the dense buffer array on first use.
  std::vector<dht::UpdateRecord>& buffer_for(NodeId dst);
  [[nodiscard]] bool consume_credit();
  [[nodiscard]] std::size_t pending_cap() const noexcept;
  [[nodiscard]] std::int32_t label() const noexcept {
    return static_cast<std::int32_t>(raw(self_));
  }

  NodeId self_;
  net::Fabric& fabric_;
  BatchPolicy policy_;
  const dht::Placement* placement_;
  // Placement generation every buffered record is routed under.
  std::uint64_t routed_generation_;
  // Buffers indexed by raw(dst): flush_all walks them in ascending NodeId
  // order, so flush traffic is deterministic. A drained buffer keeps its
  // capacity for the next epoch.
  std::vector<std::vector<dht::UpdateRecord>> pending_;
  // Causal context captured when a destination's buffer first receives a
  // record under a live ambient context: a batch deferred past its scan
  // epoch still ships attributed to the scan that produced it.
  std::map<NodeId, net::TraceContext> pending_trace_;
  // concord-lint: unguarded(staged-send discipline: during a scan epoch's
  // parallel phase each worker owns exactly one node's batcher — and with it
  // this stage pointer and the buffers above — exclusively; the sequential
  // merge pass is the only other reader. No two threads ever alias one
  // batcher, so a lock would serialize the very phase the pool parallelizes.)
  SendStage* send_stage_ = nullptr;  // sharded-scan staging
  bool flow_control_ = false;
  std::uint64_t credits_ = 0;
  std::uint64_t flush_quota_ = 0;  // datagrams per flush_all; 0 = unlimited
  obs::Counter& updates_batched_;
  obs::Histogram& batch_fill_;
  // Lazy cells: created on first event, so a run without that event has no
  // such cell in its snapshot.
  obs::Counter* updates_remapped_ = nullptr;
  obs::Counter* flush_deferred_ = nullptr;
  obs::Counter* updates_shed_local_ = nullptr;
};

}  // namespace concord::core
