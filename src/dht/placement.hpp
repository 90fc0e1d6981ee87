// Zero-hop shard placement, epoch-aware, with optional replica groups.
//
// Every ConCORD daemon knows the full (low-churn) membership of the site, so
// the owner of a content hash is computed locally: one hash evaluation, one
// message, no routing hops — the property the paper's DHT shares with ZHT
// and C-MPI. "The originator of an update can not only readily determine
// which node and daemon is the target of the update, but, in principle, also
// the specific address and bit that will be changed in that node" (§3.3).
//
// Membership changes are handled ZHT-style: the modulo-N "home" node of a
// hash never changes, but when the home node is dead under the installed
// MembershipView the shard deterministically remaps to the next alive
// successor (home+1, home+2, ... mod N). Every survivor computes the same
// owner from the same epoch-stamped view, and ownership returns to the home
// node as soon as it is observed alive again.
//
// Replication (R > 1, DESIGN.md §14) generalizes the single owner to a
// *replica group*: the first R distinct alive nodes on the successor walk
// from home. owner() is always the group's first member (the primary), so
// R = 1 reproduces the original single-owner placement bit-for-bit. The
// group is a pure function of (hash, view, R) — every survivor computes the
// same set, which is what makes single-phase write fan-out and local read
// failover possible without any group-membership protocol.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace concord::dht {

class Placement {
 public:
  explicit Placement(std::uint32_t num_nodes)
      : num_nodes_(num_nodes), alive_(num_nodes, true) {
    assert(num_nodes_ > 0);
  }

  /// Home shard index of a hash: the modulo-N node the successor walk
  /// starts from. Never changes with membership — it names the *shard*,
  /// while owner()/replicas() name who currently serves it.
  [[nodiscard]] std::uint32_t home(const ContentHash& h) const noexcept {
    return static_cast<std::uint32_t>(h.well_mixed() % num_nodes_);
  }

  /// Owner (primary replica) under the currently installed view.
  [[nodiscard]] NodeId owner(const ContentHash& h) const noexcept {
    return owner_in(alive_, h);
  }

  /// Owner under an arbitrary view (used to diff two epochs during shard
  /// recovery). Indices beyond `alive.size()` are treated as alive, so a
  /// short (or empty, "everyone up") vector is fine; if every node is dead
  /// the home node is returned.
  [[nodiscard]] NodeId owner_in(const std::vector<bool>& alive,
                                const ContentHash& h) const noexcept {
    const std::uint32_t home_idx = home(h);
    for (std::uint32_t probe = 0; probe < num_nodes_; ++probe) {
      const std::uint32_t cand = (home_idx + probe) % num_nodes_;
      if (cand >= alive.size() || alive[cand]) return node_id(cand);
    }
    return node_id(home_idx);
  }

  // --- replica groups (R >= 1) -------------------------------------------

  /// Replica group size. Clamped to [1, num_nodes]; 1 (the default) is the
  /// original single-owner behavior.
  void set_replication(std::uint32_t r) noexcept {
    replication_ = r < 1 ? 1 : (r > num_nodes_ ? num_nodes_ : r);
    ++generation_;
  }
  [[nodiscard]] std::uint32_t replication() const noexcept { return replication_; }

  /// The hash's replica group under the current view: the first R distinct
  /// alive nodes on the successor walk from home, primary first (so
  /// replicas(h)[0] == owner(h) always). If every node is dead the home
  /// node alone is returned, mirroring owner_in.
  [[nodiscard]] std::vector<NodeId> replicas(const ContentHash& h) const {
    return shard_replicas_in(alive_, home(h));
  }

  /// Replica group of a home shard index (replicas() without re-hashing;
  /// per-shard enumeration during resync walks all homes once).
  [[nodiscard]] std::vector<NodeId> shard_replicas(std::uint32_t home_idx) const {
    return shard_replicas_in(alive_, home_idx);
  }
  [[nodiscard]] std::vector<NodeId> shard_replicas_in(const std::vector<bool>& alive,
                                                      std::uint32_t home_idx) const {
    std::vector<NodeId> out;
    out.reserve(replication_);
    for (std::uint32_t probe = 0;
         probe < num_nodes_ && out.size() < replication_; ++probe) {
      const std::uint32_t cand = (home_idx + probe) % num_nodes_;
      if (cand >= alive.size() || alive[cand]) out.push_back(node_id(cand));
    }
    if (out.empty()) out.push_back(node_id(home_idx));
    return out;
  }

  /// Allocation-free membership test: is `n` in home's replica group under
  /// the current view? (Hot path of the batcher's flush-time remap.)
  [[nodiscard]] bool is_replica(std::uint32_t home_idx, NodeId n) const noexcept {
    return is_replica_in(alive_, home_idx, n);
  }
  [[nodiscard]] bool is_replica_in(const std::vector<bool>& alive,
                                   std::uint32_t home_idx, NodeId n) const noexcept {
    std::uint32_t found = 0;
    for (std::uint32_t probe = 0;
         probe < num_nodes_ && found < replication_; ++probe) {
      const std::uint32_t cand = (home_idx + probe) % num_nodes_;
      if (cand >= alive.size() || alive[cand]) {
        if (cand == raw(n)) return true;
        ++found;
      }
    }
    // All-dead fallback: the group degenerates to the home node alone.
    return found == 0 && home_idx == raw(n);
  }

  /// Installs a membership view. An empty alive vector means everyone up.
  void set_view(std::uint64_t epoch, std::vector<bool> alive) {
    epoch_ = epoch;
    if (alive.empty()) alive.assign(num_nodes_, true);
    alive_ = std::move(alive);
    ++generation_;
  }

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  /// Bumped by every set_view() and set_replication(), whether or not the
  /// epoch number moved: while it is unchanged, every owner()/replicas()
  /// answer is unchanged too, so cached routing decisions stay valid.
  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }
  [[nodiscard]] const std::vector<bool>& alive() const noexcept { return alive_; }
  [[nodiscard]] std::uint32_t num_nodes() const noexcept { return num_nodes_; }

 private:
  std::uint32_t num_nodes_;
  std::uint32_t replication_ = 1;
  std::uint64_t epoch_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<bool> alive_;  // indexed by raw(NodeId)
};

}  // namespace concord::dht
