// The distributed collective command execution engine (§3.1, §4.3).
//
// "At a high level, it can be viewed as a purpose-specific map-reduce
// engine that operates over the data in the tracing engine."
//
// Execution protocol for one content-aware service command:
//
//   init        controller ─reliable bcast→ scope nodes: service_init();
//               barrier on acks.
//   coll-start  controller ─bcast→ scope nodes: collective_start() per local
//               scope entity, with the advisory hash set from the local DHT
//               shard; barrier.
//   drive       controller ─bcast→ all shard nodes. Each shard owner
//               enumerates its slice of distinct hashes intersecting the
//               SEs, selects a replica among SEs∪PEs (collective_select()
//               or random), and dispatches collective_command() to the
//               replica's host — pipelined, with retry on a different
//               replica when the host reports the content stale/gone
//               (verified against the current content before use).
//               Successful handling is redistributed to SE hosts as
//               best-effort "handled(hash, private)" datagrams — the
//               content-hash-exchange traffic of §3.4; losing one only costs
//               efficiency, never correctness. Barrier when every shard
//               drains.
//   coll-fin    collective_finalize() per scope entity; barrier.
//   local       local_start(); then for each SE block: take the hash of the
//               *current* content and invoke local_command() with the
//               handled private value if this node received one for that
//               hash; local_finalize(); barrier.
//   deinit      service_deinit() on scope nodes; barrier; command completes.
//
// Ground truth comes from the SE host's memory update monitor, which keeps
// a hash of every block current between scans: its last scanned hash is
// exact for each block that is clean, not pending and scanned, and only the
// other blocks are rehashed (MemoryUpdateMonitor::current_hashes). The
// first time an SE's host needs ground truth (a dispatch verified against
// the SE, or else its local phase), it takes the hash of every block of the
// SE that way, once per command, and both steps read that array. The array
// is retaken whenever the entity's writes() count has moved since, so
// content rewritten mid-command is never trusted under its old hash. A
// dispatch to a participant takes just that block's hash by the same rule.
// The virtual clock still charges one block hash per verification and per
// local-phase block; only host time is saved.
//
// All computation is charged to virtual time by measuring the real cost on
// the host clock; all messages ride the Fabric with its latency/bandwidth/
// loss model.
#pragma once

#include <unordered_map>
#include <vector>

#include "core/cluster.hpp"
#include "svc/app_service.hpp"
#include "svc/wire.hpp"

namespace concord::svc {

struct CommandSpec {
  std::vector<EntityId> service_entities;
  std::vector<EntityId> participants;
  Mode mode = Mode::kInteractive;
  Config config;
  NodeId controller = node_id(0);

  /// Per-phase barrier deadline. When a phase's barrier is still open this
  /// long after the phase started, the controller probes every unresponsive
  /// node: probe-dead nodes are excluded from the command (recorded in
  /// CommandStats::failures, final status kDegraded), probe-alive nodes buy
  /// the phase another deadline, up to kMaxDeadlineExtensions. 0 disables
  /// deadlines (a dead node then stalls the command forever, as before).
  sim::Time phase_deadline = 250 * sim::kMillisecond;
};

/// Extensions granted while stragglers still answer probes. Bounds how long
/// a command can wait on a live-but-slow node before force-excluding it with
/// kTimeout — commands terminate under any fault schedule.
inline constexpr int kMaxDeadlineExtensions = 64;

/// One node excluded from a command, and why: kUnavailable = failed a
/// liveness probe at a phase deadline; kTimeout = kept answering probes but
/// never completed the phase within the extension budget.
struct NodeFailure {
  NodeId node{};
  wire::CtlPhase phase{};
  Status reason = Status::kUnavailable;
};

/// Per-command result view. The running totals live in the cluster's metrics
/// registry (subsystem "svc", site-wide); execute() snapshots the counters on
/// entry and returns the per-command difference, so the registry keeps
/// lifetime series while callers see exactly this command's numbers.
struct CommandStats {
  Status status = Status::kOk;
  sim::Time start = 0;
  sim::Time end = 0;

  /// Nodes excluded from the command (suspected dead or past the extension
  /// budget), in exclusion order. Non-empty ⇒ status is kDegraded unless an
  /// ack reported something worse. The command still completed: surviving
  /// scope/SE/shard nodes ran every phase.
  std::vector<NodeFailure> failures;

  std::uint64_t distinct_hashes = 0;     // driven during the collective phase
  std::uint64_t collective_handled = 0;  // collective_command() successes
  std::uint64_t collective_retries = 0;  // replica retries after staleness
  std::uint64_t collective_stale = 0;    // hashes with every replica stale
  std::uint64_t local_blocks = 0;        // local_command() invocations
  std::uint64_t local_covered = 0;       // blocks resolved via handled info
  std::uint64_t local_uncovered = 0;     // blocks the service covered itself

  /// Overload evidence accrued while the command ran: breaker fast-fails on
  /// collective dispatches plus datagrams shed at bounded ingress queues.
  /// Non-zero ⇒ status degrades to kDegraded (unless something worse
  /// happened) — the collective phase is advisory, so pressure costs
  /// efficiency, never correctness: the local ground-truth phase still ran
  /// exactly.
  std::uint64_t pressure_events = 0;

  [[nodiscard]] sim::Time latency() const noexcept { return end - start; }
};

class CommandEngine {
 public:
  explicit CommandEngine(core::Cluster& cluster);

  /// Synchronously executes one service command (pumps the simulation until
  /// the command completes). Commands execute one at a time.
  CommandStats execute(ApplicationService& service, const CommandSpec& spec);

 private:
  struct Execution;  // per-command state, defined in the .cpp

  void install_handlers();

  // Controller side.
  void start_phase(wire::CtlPhase phase, const std::vector<NodeId>& targets);
  void advance_after(wire::CtlPhase finished);
  void handle_ack(core::ServiceDaemon& d, const net::Message& m);

  // Failure handling (controller side).
  void arm_deadline();
  void on_phase_deadline();
  void exclude_node(NodeId n, Status reason);

  // Per-node side.
  void handle_control(core::ServiceDaemon& d, const net::Message& m);
  void handle_exchange(core::ServiceDaemon& d, const net::Message& m);
  void send_ack(core::ServiceDaemon& d, wire::CtlPhase phase, Status status);

  // Collective phase at a shard owner.
  void drive_shard(core::ServiceDaemon& d);
  void dispatch_hash(core::ServiceDaemon& d, std::uint64_t seq);
  void handle_dispatch(core::ServiceDaemon& d, const wire::DispatchMsg& dm, NodeId reply_to);
  void handle_dispatch_reply(core::ServiceDaemon& d, const wire::DispatchReplyMsg& r);
  void finish_seq(core::ServiceDaemon& d, std::uint64_t seq, bool success);
  void check_shard_drained(core::ServiceDaemon& d);

  // Ground truth at an SE host: the current hash of every block of SE `e`,
  // from the host monitor's current_hashes() once per command, retaken when
  // e.writes() moved.
  const std::vector<ContentHash>& se_ground_truth(core::ServiceDaemon& d,
                                                  const mem::MemoryEntity& e);

  // Local phase at an SE host.
  [[nodiscard]] Status run_local_phase(core::ServiceDaemon& d, sim::Time& cost);

  core::Cluster& cluster_;
  std::uint64_t next_cmd_id_ = 1;
  Execution* active_ = nullptr;  // non-owning; valid only inside execute()

  /// Pre-resolved cells in the cluster registry (subsystem "svc"; site-wide
  /// because commands span nodes). Phase counters index by CtlPhase.
  struct Cells {
    obs::Counter* commands = nullptr;
    obs::Counter* phase[6] = {};  // completions, one per CtlPhase
    obs::Counter* distinct_hashes = nullptr;
    obs::Counter* collective_handled = nullptr;
    obs::Counter* collective_retries = nullptr;
    obs::Counter* collective_stale = nullptr;
    obs::Counter* local_blocks = nullptr;
    obs::Counter* local_covered = nullptr;
    obs::Counter* local_uncovered = nullptr;
    obs::Counter* nodes_excluded = nullptr;
    obs::Counter* commands_degraded = nullptr;
    obs::Counter* pressure_events = nullptr;  // breaker fast-fails on dispatch
  };
  Cells cells_;
};

}  // namespace concord::svc
