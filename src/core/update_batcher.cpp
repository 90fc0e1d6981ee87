// concord-lint: emit-path — bytes or messages produced here must not depend on
// hash-map iteration order.
#include "core/update_batcher.hpp"

#include <algorithm>
#include <optional>
#include <utility>

namespace concord::core {

namespace {
/// Ceiling on banked credits: grants are sized to ingress headroom, so a
/// long quiet stretch must not accumulate a purse that later defeats the
/// whole point of flow control.
constexpr std::uint64_t kMaxCredits = 1u << 20;
/// Buffered datagrams per destination before local shedding kicks in (only
/// under flow control; the legacy size-trigger keeps buffers at one batch).
constexpr std::size_t kPendingCapBatches = 8;
}  // namespace

UpdateBatcher::UpdateBatcher(NodeId self, net::Fabric& fabric, BatchPolicy policy,
                             const dht::Placement* placement)
    : self_(self),
      fabric_(fabric),
      policy_(policy),
      placement_(placement),
      routed_generation_(placement != nullptr ? placement->generation() : 0),
      updates_batched_(fabric.metrics().counter("core", "updates_batched", label())),
      batch_fill_(fabric.metrics().histogram("net", "batch_fill", label())) {}

void UpdateBatcher::set_flow_control(bool enabled, std::uint64_t initial_credits) {
  flow_control_ = enabled;
  credits_ = enabled ? std::min(initial_credits, kMaxCredits) : 0;
}

void UpdateBatcher::grant_credits(std::uint64_t n) {
  if (!flow_control_) return;
  credits_ = std::min(credits_ + n, kMaxCredits);
}

bool UpdateBatcher::consume_credit() {
  if (!flow_control_) return true;
  if (credits_ == 0) return false;
  --credits_;
  return true;
}

std::size_t UpdateBatcher::pending_cap() const noexcept {
  return kPendingCapBatches * policy_.max_records();
}

std::vector<dht::UpdateRecord>& UpdateBatcher::buffer_for(NodeId dst) {
  const std::size_t i = raw(dst);
  if (i >= pending_.size()) {
    // One allocation sized to the site when the placement names it, rather
    // than geometric growth leaving up to 2x slack in every daemon.
    const std::size_t site = placement_ != nullptr ? placement_->num_nodes() : 0;
    pending_.resize(std::max(i + 1, site));
  }
  return pending_[i];
}

void UpdateBatcher::add(NodeId dst, const dht::UpdateRecord& rec) {
  std::vector<dht::UpdateRecord>& buf = buffer_for(dst);
  if (flow_control_ && buf.size() >= pending_cap()) {
    // Bounded buffer: under sustained pressure the newest records are shed
    // here rather than growing an unbounded queue the owner cannot absorb.
    if (updates_shed_local_ == nullptr) {
      updates_shed_local_ = &fabric_.metrics().counter("core", "updates_shed_local", label());
    }
    updates_shed_local_->inc();
    return;
  }
  buf.push_back(rec);
  if (fabric_.trace_propagation()) {
    const net::TraceContext ctx = fabric_.ambient_trace_context();
    if (ctx.valid()) pending_trace_.try_emplace(dst, ctx);
  }
  if (buf.size() >= policy_.max_records() && (!flow_control_ || credits_ > 0)) {
    ship(dst, buf, /*quota=*/nullptr);
  }
}

void UpdateBatcher::remap_pending() {
  if (placement_ == nullptr || placement_->generation() == routed_generation_) return;
  routed_generation_ = placement_->generation();
  // Records whose owner moved (the buffered-for node died and the epoch
  // advanced) migrate between buffers; everything else stays put. Collected
  // first so the pending_ walk never mutates a buffer it has yet to visit.
  //
  // At R > 1 the same hash is legitimately buffered for several replicas at
  // once, so the keep test is group membership, not primary equality —
  // re-routing every copy to the primary would collapse the fan-out into R
  // duplicate records for one node. A record whose destination fell out of
  // the group (the buffered-for replica died) re-routes to the primary.
  const bool replicated = placement_->replication() > 1;
  std::vector<std::pair<NodeId, dht::UpdateRecord>> moved;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    std::vector<dht::UpdateRecord>& buf = pending_[i];
    const NodeId dst = node_id(static_cast<std::uint32_t>(i));
    std::size_t kept = 0;
    for (dht::UpdateRecord& rec : buf) {
      const bool keep = replicated
                            ? placement_->is_replica(placement_->home(rec.hash), dst)
                            : placement_->owner(rec.hash) == dst;
      if (keep) {
        buf[kept++] = rec;
      } else {
        moved.emplace_back(placement_->owner(rec.hash), rec);
      }
    }
    buf.resize(kept);
  }
  if (moved.empty()) return;
  if (updates_remapped_ == nullptr) {
    updates_remapped_ = &fabric_.metrics().counter("core", "updates_remapped", label());
  }
  updates_remapped_->inc(moved.size());
  for (auto& [owner, rec] : moved) buffer_for(owner).push_back(rec);
}

void UpdateBatcher::flush(NodeId dst) {
  remap_pending();
  const std::size_t i = raw(dst);
  if (i >= pending_.size() || pending_[i].empty()) return;
  ship(dst, pending_[i], /*quota=*/nullptr);
}

void UpdateBatcher::flush_all() {
  remap_pending();
  std::uint64_t quota = flush_quota_;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].empty()) continue;
    ship(node_id(static_cast<std::uint32_t>(i)), pending_[i],
         flush_quota_ > 0 ? &quota : nullptr);
  }
}

std::size_t UpdateBatcher::pending_records() const noexcept {
  std::size_t n = 0;
  for (const std::vector<dht::UpdateRecord>& buf : pending_) n += buf.size();
  return n;
}

void UpdateBatcher::ship(NodeId dst, std::vector<dht::UpdateRecord>& records,
                         std::uint64_t* quota) {
  // Ship under the context the buffer was filled under, not whatever is
  // ambient now — a deferred batch belongs to the scan that produced it.
  // When a send stage is armed (sharded scan epoch), the fabric must not be
  // touched from a worker thread: the datagram's records go to the stage
  // with that same context, and the cluster's sequential merge pass replays
  // them instead.
  std::optional<net::Fabric::TraceScope> trace_scope;
  const auto tit = pending_trace_.find(dst);
  if (tit != pending_trace_.end() && send_stage_ == nullptr) {
    trace_scope.emplace(fabric_, tit->second);
  }
  const net::TraceContext staged_ctx =
      tit != pending_trace_.end() ? tit->second : net::TraceContext{};
  const std::size_t cap = policy_.max_records();
  std::size_t off = 0;
  while (off < records.size()) {
    if (quota != nullptr && *quota == 0) break;  // flush quota exhausted
    if (!consume_credit()) break;                // owner has granted no room
    const std::size_t n = std::min(cap, records.size() - off);
    updates_batched_.inc(n);
    batch_fill_.record(n);
    const auto chunk = std::span<const dht::UpdateRecord>(records).subspan(off, n);
    if (send_stage_ != nullptr) {
      send_stage_->add(dst, chunk, staged_ctx);
    } else {
      fabric_.send_unreliable(
          batch_message(self_, dst, n, DhtUpdateBatchMsg(chunk.begin(), chunk.end())));
    }
    if (quota != nullptr) --*quota;
    off += n;
  }
  if (off < records.size()) {
    if (flush_deferred_ == nullptr) {
      flush_deferred_ = &fabric_.metrics().counter("core", "flush_deferred", label());
    }
    flush_deferred_->inc();
  }
  records.erase(records.begin(), records.begin() + static_cast<std::ptrdiff_t>(off));
  if (records.empty()) pending_trace_.erase(dst);
}

}  // namespace concord::core
