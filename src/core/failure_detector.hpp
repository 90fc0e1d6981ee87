// FailureDetector: heartbeat-based membership for the site.
//
// Rides the unreliable datagram class (§3.4 — membership is best-effort
// control-plane traffic like everything else in the tracking plane). Two
// operating modes, both deterministic:
//
//   * run_window() — the periodic detection sweep. Every node unicasts a
//     small kHeartbeat datagram to every other node for kRoundsPerWindow
//     rounds, the simulation is pumped through the window, and a
//     node that NO peer heard from is suspected. When the resulting alive
//     set differs from the current view the epoch advances and listeners
//     (placement remap, shard recovery) fire. This pumps the event loop
//     itself (sim.run_until), so call it only from the top level — never
//     from inside an event handler.
//
//   * probe() — an event-driven single-target liveness check usable while
//     the simulation is already running (the command engine uses it when a
//     phase deadline expires): a probe datagram is sent, the target's
//     daemon answers with a probe-reply, and the callback fires with the
//     verdict when the reply lands or the probe timeout passes.
//
// Suspicion is strictly heard-within-the-window (not absolute last-seen
// timestamps), so long idle stretches of virtual time never produce false
// suspicions. A paused node is indistinguishable from a crashed one on the
// wire — both are suspected; a restarted/resumed node is readmitted by the
// next window, advancing the epoch again.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "core/membership.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"

namespace concord::core {

class ServiceDaemon;

/// Payload of kHeartbeat datagrams.
struct HeartbeatMsg {
  enum class Kind : std::uint8_t { kBeat, kProbe, kProbeReply } kind = Kind::kBeat;
  std::uint64_t epoch = 0;     // sender's view of the membership epoch
  std::uint64_t probe_id = 0;  // matches probe replies to probes
};
inline constexpr std::size_t kHeartbeatBytes = 1 + 8 + 8;

class FailureDetector {
 public:
  using EpochListener = std::function<void(const MembershipView&)>;
  using ProbeCallback = std::function<void(bool alive)>;

  /// Timing, sized for the emulated fabric's millisecond latencies: a
  /// window is kRoundsPerWindow heartbeat rounds kPeriod apart plus kMargin
  /// for stragglers to land; a probe waits kProbeTimeout for its reply.
  static constexpr sim::Time kPeriod = 5 * sim::kMillisecond;
  static constexpr int kRoundsPerWindow = 3;
  static constexpr sim::Time kMargin = 5 * sim::kMillisecond;
  static constexpr sim::Time kProbeTimeout = 10 * sim::kMillisecond;

  FailureDetector(sim::Simulation& simulation, net::Fabric& fabric, std::uint32_t num_nodes)
      : sim_(simulation), fabric_(fabric), num_nodes_(num_nodes) {
    view_.alive.assign(num_nodes_, true);
  }

  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  /// One detection window (see header). Returns the view in force after the
  /// window; the epoch advanced iff membership changed. Top-level only.
  const MembershipView& run_window();

  /// Event-driven probe: `from` asks whether `target` answers within
  /// kProbeTimeout. Safe to call from inside event handlers.
  void probe(NodeId from, NodeId target, ProbeCallback cb);

  /// Fabric receive hook for kHeartbeat, wired through each daemon.
  /// `self` is the receiving node.
  void handle_heartbeat(NodeId self, const net::Message& msg);

  [[nodiscard]] const MembershipView& view() const noexcept { return view_; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return view_.epoch; }

  /// Listeners fire (in registration order) whenever a window changes the
  /// view, after view() already reflects the new epoch.
  void on_epoch_change(EpochListener l) { listeners_.push_back(std::move(l)); }

  /// External suspicion hint (the fabric's circuit breaker feeds this when a
  /// link trips). Hints do not change the view directly — heartbeats stay
  /// the single source of truth — but a hinted node that is then heard from
  /// during the next window clears its hint, while a hinted node that stays
  /// silent is suspected exactly as the window evidence already dictates.
  /// The hint set is observable so operators (shell `pressure`) can see
  /// which nodes the breakers distrust between windows.
  void hint_suspect(NodeId n);

  /// Currently hinted nodes, ascending. Cleared per node when the node is
  /// heard from in a detection window.
  [[nodiscard]] std::vector<NodeId> hinted() const;

 private:
  struct PendingProbe {
    ProbeCallback cb;
    bool settled = false;
  };

  void send_round();

  sim::Simulation& sim_;
  net::Fabric& fabric_;
  std::uint32_t num_nodes_;
  MembershipView view_;
  std::vector<std::uint32_t> heard_;  // per node: beats received this window
  std::vector<bool> hinted_;          // per node: breaker-sourced suspicion
  bool window_open_ = false;
  std::uint64_t next_probe_id_ = 1;
  std::unordered_map<std::uint64_t, PendingProbe> probes_;
  std::vector<EpochListener> listeners_;
};

}  // namespace concord::core
