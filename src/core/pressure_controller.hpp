// PressureController: AIMD adaptation of the update pipeline under load.
//
// The paper makes monitor throttling a first-class knob (§4.1): content
// tracking is best-effort and must yield to the applications it serves. This
// controller closes the loop that the static `set_update_budget` knob left
// open. Once per scan epoch it reads each daemon's local pressure signals —
// deferred flushes (credits exhausted), locally shed records (bounded batch
// buffers), tail-drops at its own ingress queue, and site-wide breaker trips
// — and runs AIMD over two knobs per daemon:
//
//   * the monitor's per-scan update budget (multiplicative decrease under
//     pressure, additive recovery when calm), and
//   * the batcher's flush quota (datagrams per scan-boundary flush).
//
// So monitors self-throttle when shard owners fall behind instead of
// amplifying the collapse, and probe their way back up when pressure clears.
// Everything is deterministic: daemons are visited in the order the
// constructor receives them (node ascending), and the only inputs are
// counters.
// concord-lint: emit-path — bytes or messages produced here must not depend
// on hash-map iteration order.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"

namespace concord::core {

class ServiceDaemon;

/// What every attached daemon starts from: the credits seeded into its
/// batcher (and granted again when a calm epoch finds its purse empty), the
/// monitor's per-scan update budget (records emitted) and the batcher's
/// per-flush datagram quota.
inline constexpr std::uint64_t kInitialCredits = 8;
inline constexpr std::uint64_t kInitialUpdateBudget = 4096;
inline constexpr std::uint64_t kInitialFlushQuota = 32;

class PressureController {
 public:
  /// Wires every daemon into the loop: enables credit flow control and
  /// grants in both roles, installs the initial budget/quota, and publishes
  /// them with the daemon's credits as per-node update_budget / flush_quota /
  /// flow_credits gauges (subsystem "core", in the fabric's registry).
  /// `daemons` come in ascending node order for deterministic adaptation.
  PressureController(net::Fabric& fabric,
                     const std::vector<std::unique_ptr<ServiceDaemon>>& daemons);

  PressureController(const PressureController&) = delete;
  PressureController& operator=(const PressureController&) = delete;

  /// One AIMD step per attached daemon. Call at the scan boundary, after
  /// the simulation has drained the epoch's traffic.
  void after_scan();

  /// Point-in-time view for the shell's `pressure` command.
  struct NodeSnapshot {
    NodeId node{};
    std::uint64_t update_budget = 0;
    std::uint64_t flush_quota = 0;
    std::uint64_t credits = 0;
    std::size_t ingress_depth = 0;
    std::uint64_t shed_at_ingress = 0;   // fabric tail-drops at this node
    std::uint64_t flush_deferred = 0;    // cumulative deferral events
    std::uint64_t shed_local = 0;        // records shed at the batch buffer
    bool throttled = false;              // last step was a decrease
  };
  [[nodiscard]] std::vector<NodeSnapshot> snapshot() const;

  /// AIMD steps taken so far that decreased at least one daemon's knobs.
  [[nodiscard]] std::uint64_t throttle_events() const noexcept { return throttle_events_; }

 private:
  struct Tracked {
    ServiceDaemon* daemon = nullptr;
    std::uint64_t budget = 0;
    std::uint64_t quota = 0;
    std::uint64_t prev_shed_local = 0;
    std::uint64_t prev_ingress_shed = 0;
    bool throttled = false;
    obs::Gauge* budget_gauge = nullptr;
    obs::Gauge* quota_gauge = nullptr;
    obs::Gauge* credits_gauge = nullptr;
  };

  void apply(Tracked& t);

  net::Fabric& fabric_;
  std::vector<Tracked> tracked_;  // node ascending
  std::uint64_t prev_breaker_trips_ = 0;
  std::uint64_t throttle_events_ = 0;
};

}  // namespace concord::core
