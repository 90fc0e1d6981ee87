// FaultInjector: deliberate, seeded breakage of the emulated site.
//
// The paper's stance is that ConCORD's tracking plane is best-effort —
// "losing one only costs efficiency, never correctness" (§3.4) — which is
// only testable if nodes actually fail. This injector drives the Fabric's
// fault surface with the failure modes a real cluster exhibits:
//
//   * crash/restart — the node goes network-silent AND loses volatile state
//     (its DHT shard, pending update batches); registered crash/restart
//     hooks let the owning Cluster model that state loss. NSM ground truth
//     (the entity memory and local block maps) survives, like a process
//     whose host rebooted.
//   * pause/resume — network-silent but state intact (GC pause, overloaded
//     kernel, livelock). Indistinguishable from a crash on the wire.
//   * asymmetric link cuts and symmetric partitions.
//   * per-link loss rates (a flaky cable rather than a cut one).
//   * per-link and global payload corruption (bit-flips in flight) and
//     datagram duplication — the data-integrity hazards: with the fabric's
//     checksums on, corruption is detected and dropped; off, it silently
//     poisons typed payloads through the cluster's corruptor hook.
//
// Faults can be applied immediately, or scheduled on the virtual clock from
// a FaultEvent list — including a seeded random schedule — so chaos runs
// are bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"

namespace concord::net {

enum class FaultKind : std::uint8_t {
  kCrash,
  kRestart,
  kPause,
  kResume,
  kCutLink,       // a -> b only
  kHealLink,      // a -> b only
  kCorruptLink,   // a -> b only; bit-flip rate from FaultEvent::rate
  kHealCorrupt,   // a -> b only
};

[[nodiscard]] constexpr std::string_view to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRestart: return "restart";
    case FaultKind::kPause: return "pause";
    case FaultKind::kResume: return "resume";
    case FaultKind::kCutLink: return "cut-link";
    case FaultKind::kHealLink: return "heal-link";
    case FaultKind::kCorruptLink: return "corrupt-link";
    case FaultKind::kHealCorrupt: return "heal-corrupt";
  }
  return "unknown";
}

struct FaultEvent {
  sim::Time at = 0;
  FaultKind kind = FaultKind::kCrash;
  NodeId a{};
  NodeId b{};         // only meaningful for link faults
  double rate = 0.0;  // only meaningful for kCorruptLink
};

class FaultInjector {
 public:
  using NodeHook = std::function<void(NodeId)>;

  FaultInjector(sim::Simulation& simulation, Fabric& fabric)
      : sim_(simulation), fabric_(fabric) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- node faults ------------------------------------------------------
  void crash(NodeId n);
  void restart(NodeId n);
  void pause(NodeId n);
  void resume(NodeId n);

  // --- link faults ------------------------------------------------------
  void cut_link(NodeId a, NodeId b);   // one direction
  void heal_link(NodeId a, NodeId b);
  void partition(NodeId a, NodeId b);  // both directions
  void heal_partition(NodeId a, NodeId b);
  [[nodiscard]] bool partitioned(NodeId a, NodeId b) const {
    return fabric_.link_blocked(a, b) && fabric_.link_blocked(b, a);
  }
  void set_link_loss(NodeId a, NodeId b, double p);
  /// Per-link payload bit-flip rate (stacks on the fabric's global rate).
  void set_link_corrupt(NodeId a, NodeId b, double p);
  /// Global payload bit-flip rate on every link.
  void set_corrupt_rate(double p) { fabric_.set_corrupt_rate(p); }

  /// Restarts every crashed node, resumes every paused one, reopens every
  /// cut link and clears every per-link loss and corruption rate set through
  /// this injector. Global rates (loss, corruption, duplication) are fabric
  /// parameters and stay as set.
  void heal_all();

  // --- state ------------------------------------------------------------
  [[nodiscard]] bool is_crashed(NodeId n) const { return crashed_.contains(raw(n)); }
  [[nodiscard]] bool is_paused(NodeId n) const { return paused_.contains(raw(n)); }
  [[nodiscard]] bool is_down(NodeId n) const { return is_crashed(n) || is_paused(n); }
  [[nodiscard]] std::size_t down_count() const { return crashed_.size() + paused_.size(); }
  /// Crashed + paused nodes, ascending.
  [[nodiscard]] std::vector<NodeId> down_nodes() const;

  /// Hooks fire synchronously inside crash(), after the fabric state flips.
  /// The Cluster uses them to drop the node's volatile state.
  void on_crash(NodeHook h) { crash_hooks_.push_back(std::move(h)); }

  // --- scheduling -------------------------------------------------------
  void apply(const FaultEvent& e);
  /// Schedules each event at its absolute virtual time.
  void schedule(const std::vector<FaultEvent>& events);

  /// Deterministic random schedule of `faults` fault/heal pairs over
  /// [now, now+horizon): crashes, pauses, and partitions, each healed after
  /// a random dwell. Node 0 is never faulted (keep the controller alive).
  /// Requires num_nodes >= 3 so at least two nodes can be faulted.
  [[nodiscard]] static std::vector<FaultEvent> random_schedule(Rng& rng,
                                                               std::uint32_t num_nodes,
                                                               std::size_t faults,
                                                               sim::Time horizon);

 private:
  sim::Simulation& sim_;
  Fabric& fabric_;
  std::unordered_set<std::uint32_t> crashed_;
  std::unordered_set<std::uint32_t> paused_;
  std::unordered_set<std::uint64_t> cut_links_;      // keys we blocked
  std::unordered_set<std::uint64_t> lossy_links_;    // keys we set loss on
  std::unordered_set<std::uint64_t> corrupt_links_;  // keys we set corruption on
  std::vector<NodeHook> crash_hooks_;
};

}  // namespace concord::net
