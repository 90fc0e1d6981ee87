// Fabric: the emulated site network connecting ConCORD daemons.
//
// Models a single switched network (the paper's gigabit / InfiniBand
// clusters) with:
//   * per-node egress serialization (bandwidth): messages from one node
//     queue behind each other at ns-per-byte cost;
//   * a base propagation/switching latency plus uniform jitter;
//   * i.i.d. datagram loss applied to the unreliable class only;
//   * a reliable class built from the unreliable one by ack + retransmit
//     (out-of-order tolerant), as in §3.4;
//   * injected faults (net::FaultInjector): unreachable nodes, blocked
//     (partitioned) directed links, and per-link loss rates. A down node
//     silently drops all egress and delivery; such datagrams are counted as
//     msgs_blackholed;
//   * overload protection (all off by default, see FabricParams): bounded
//     per-node ingress queues with deterministic tail-drop (msgs_shed) that
//     control-plane types bypass, a per-destination ingress service rate,
//     seeded-jitter exponential backoff with a per-send retry budget on the
//     reliable class, and a per-(src, dst) circuit breaker that fails fast
//     after consecutive timeouts and re-probes half-open after a cooldown.
// All delays are charged to the Simulation's virtual clock. Per-node and
// per-type traffic is accounted for the Fig. 7 / §5.4 volume results, in the
// registry given at construction (subsystem "net"); a fabric built without
// one accounts into a private registry of its own. Every cell the fabric
// increments exists from construction (per-type and site-wide cells) or from
// the moment a node's slot is appended (per-node cells), and reads zero until
// its event happens; the watchdog's conservation identity reads all of its
// terms from these cells.
//
// Reliable-class delivery semantics are AT-LEAST-ONCE from the receiver's
// point of view and best-effort-exactly-once from the sender's: the data
// frame is retransmitted until acked (the receiver dedups, so its handler
// runs exactly once), but when the data frame arrives and every ack is then
// lost, the sender's `on_done` reports kTimeout even though the receiver has
// already handled the message. Callers that act on kTimeout must therefore
// tolerate the receiver having processed the "failed" send (the command
// engine's barriers use idempotent per-node ack sets for exactly this
// reason). kTimeout is also reported after max_retries data attempts all
// fail (lossy or partitioned link, unreachable destination).
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "net/message.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulation.hpp"

namespace concord::net {

/// Reliable-class retransmit backoff: the k-th consecutive failure of one
/// send waits kAckTimeout * 2^(k-1), capped at kMaxBackoff, plus a seeded
/// jitter draw in [0, FabricParams::backoff_jitter).
inline constexpr sim::Time kAckTimeout = 2 * sim::kMillisecond;  // first retransmit wait
inline constexpr sim::Time kMaxBackoff = 4 * sim::kMillisecond;
/// How long a tripped circuit breaker fails sends fast before its first
/// half-open probe; each failed probe doubles it, up to 16 * kBreakerCooldown.
inline constexpr sim::Time kBreakerCooldown = 50 * sim::kMillisecond;

struct FabricParams {
  sim::Time base_latency = 50 * sim::kMicrosecond;  // switch + stack traversal
  sim::Time jitter = 20 * sim::kMicrosecond;        // uniform [0, jitter)
  double ns_per_byte = 8.0;                         // ~1 Gbit/s
  double loss_rate = 0.0;                           // unreliable class only
  int max_retries = 16;                             // attempt budget per send

  // --- overload protection ----------------------------------------------
  /// Upper bound of the seeded jitter added to every retransmit backoff.
  sim::Time backoff_jitter = 250 * sim::kMicrosecond;
  /// Per-send retry *time* budget: once the cumulative backoff wait would
  /// cross this, the send gives up (the final wait is clamped so a fully
  /// blackholed send reports kTimeout at exactly the budget). 0 = bounded
  /// by max_retries only.
  sim::Time retry_budget = 0;
  /// Bounded per-node ingress queue: at most this many sheddable datagrams
  /// may be in flight / queued toward one destination; excess arrivals are
  /// tail-dropped (net/msgs_shed). Control-plane types (is_control_plane)
  /// bypass the bound. 0 = unbounded (legacy behavior).
  std::size_t ingress_queue_limit = 0;
  /// Per-datagram receive-processing cost, charged serially per destination
  /// (the daemon's ingress service rate — what makes a hot owner actually
  /// fall behind). 0 = delivery at arrival time (legacy behavior).
  sim::Time ingress_service = 0;
  /// Circuit breaker: this many consecutive reliable-send timeouts to one
  /// destination trip the (src, dst) breaker; further sends fail fast with
  /// kUnavailable until kBreakerCooldown passes, then one half-open probe
  /// send decides (success closes, failure re-opens with doubled cooldown).
  /// 0 = disabled.
  int breaker_threshold = 0;

  // --- data integrity (all off by default) --------------------------------
  /// When on, every non-loopback datagram carries the codec's 8-byte
  /// FNV-1a-64 checksum (the version byte's checksummed flag): traffic
  /// accounting grows by
  /// kWireChecksumBytes per datagram, and a corrupted datagram is detected
  /// at the receiver, dropped, and counted (net/msgs_corrupt_dropped plus
  /// per-type cells) instead of being delivered — the reliable class then
  /// retries it through the normal backoff machinery. Off: no extra bytes,
  /// and the corruption cells read zero.
  bool checksum_enabled = false;
  /// I.i.d. payload bit-flip probability per transmitted datagram; per-link
  /// corruption rates stack multiplicatively on top, like loss. With
  /// checksums on, a corrupted datagram is detected and dropped; with
  /// checksums off it is *silently* poisoned through the payload-corruptor
  /// hook and delivered — the hazard the quarantine scrub exists to heal.
  double corrupt_rate = 0.0;
  /// I.i.d. duplication probability per delivered unreliable datagram: the
  /// receiver sees the same datagram twice (a checksum cannot help — both
  /// copies verify). Receivers tolerate this by idempotence; the DHT's
  /// insert/remove records already are.
  double duplicate_rate = 0.0;
};

/// Intra-node messages bypass the NIC entirely (shared-memory handoff):
/// tiny fixed latency, no egress charge, no loss, no traffic accounting.
inline constexpr sim::Time kLoopbackLatency = 2 * sim::kMicrosecond;

/// Per-node traffic view. The cells live in the metrics registry (subsystem
/// "net", labeled by node); this struct is materialized on demand so legacy
/// callers keep their plain-integer API.
struct NodeTraffic {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t msgs_dropped = 0;     // unreliable datagrams lost in flight
  std::uint64_t retransmits = 0;      // reliable-class data/ack resends
  std::uint64_t msgs_blackholed = 0;  // silenced by a fault (down node / cut link)
  std::uint64_t msgs_shed = 0;        // tail-dropped at this node's full ingress queue
};

/// Per-(src, dst) circuit-breaker state, exposed for tests and the shell.
enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

/// Per-message-type traffic view (registry subsystem "net", site-wide).
struct TypeTraffic {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};

class Fabric {
 public:
  /// Receives the delivered message by mutable reference: the datagram is
  /// consumed by its delivery, so a handler may move the payload out.
  using Handler = std::function<void(Message&)>;
  /// Invoked on the sender when a reliable send completes (acked or failed).
  using SendCallback = std::function<void(Status)>;

  /// Accounts into `registry` when given, else into a private registry.
  Fabric(sim::Simulation& simulation, FabricParams params,
         obs::Registry* registry = nullptr);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Registers the receive handler for a node. One handler per node.
  void register_node(NodeId node, Handler handler);

  /// Unreliable datagram: may be silently dropped (loss_rate).
  void send_unreliable(Message msg);

  /// Reliable message: delivered exactly once (acks + retransmits are
  /// simulated and charged to virtual time and traffic accounting).
  /// `on_done` fires on the sender when the ack arrives or retries are
  /// exhausted.
  void send_reliable(Message msg, SendCallback on_done = {});

  /// Reliable 1-to-n broadcast; `on_done` fires once all destinations acked.
  void broadcast_reliable(NodeId src, MsgType type, const std::any& body,
                          std::size_t body_bytes, const std::vector<NodeId>& dsts,
                          SendCallback on_done = {});

  /// The registry all traffic accounting lands in (subsystem "net").
  [[nodiscard]] obs::Registry& metrics() noexcept { return metrics_; }

  [[nodiscard]] NodeTraffic traffic(NodeId node) const;
  [[nodiscard]] NodeTraffic total_traffic() const;
  /// Per-type accounting: message counts and byte volume (loopback excluded,
  /// as it never touches the NIC).
  [[nodiscard]] TypeTraffic type_traffic(MsgType t) const;
  [[nodiscard]] std::uint64_t type_bytes(MsgType t) const { return type_traffic(t).bytes; }
  [[nodiscard]] std::uint64_t type_msgs(MsgType t) const { return type_traffic(t).msgs; }
  /// Zeroes every "net" metric: per-node traffic, per-type counts/bytes and
  /// the site-wide conservation terms alike.
  void reset_traffic();

  [[nodiscard]] const FabricParams& params() const noexcept { return params_; }
  /// Changes the i.i.d. loss rate for all *subsequent* transmissions;
  /// datagrams already scheduled for delivery are unaffected.
  void set_loss_rate(double p) noexcept { params_.loss_rate = p; }
  /// Re-bounds the ingress queues at runtime (0 = unbounded). Operators lift
  /// the bound once the overload condition ends so recovery traffic (audit
  /// repair bursts) is not shed; already-shed datagrams stay shed.
  void set_ingress_queue_limit(std::size_t limit) noexcept {
    params_.ingress_queue_limit = limit;
  }

  // --- overload surface --------------------------------------------------
  /// Backoff wait after the k-th consecutive failure of one reliable send
  /// (k >= 1), before jitter: min(kAckTimeout * 2^(k-1), kMaxBackoff).
  [[nodiscard]] sim::Time backoff_base(int failures) const noexcept;
  /// Sheddable datagrams currently in flight / queued toward `node`.
  [[nodiscard]] std::size_t ingress_depth(NodeId node) const;
  [[nodiscard]] BreakerState breaker_state(NodeId src, NodeId dst) const;
  /// Open/half-open transition count, site-wide.
  [[nodiscard]] std::uint64_t breaker_trips() const noexcept {
    return breaker_trips_.value();
  }
  /// Datagrams tail-dropped with this message type, site-wide.
  [[nodiscard]] std::uint64_t shed_of_type(MsgType t) const noexcept {
    return type_cells_[static_cast<std::size_t>(t)].shed->value();
  }
  /// Fires on every breaker open transition (trip or half-open probe
  /// failure); wired to membership suspicion by the cluster.
  using BreakerTripFn = std::function<void(NodeId src, NodeId dst)>;
  void on_breaker_trip(BreakerTripFn fn) { on_breaker_trip_ = std::move(fn); }

  // --- causal tracing ----------------------------------------------------
  /// When on, outgoing messages without a context are stamped from the
  /// sender's *ambient* trace context (growing by kTraceCtxBytes on the
  /// wire, exactly the codec's traced layout), and each non-loopback
  /// stamped message emits a flow-event pair in the bound tracer linking
  /// the send tid to the delivery tid. Off by default: wire bytes, traffic
  /// accounting, and trace output are byte-identical to a build without
  /// tracing.
  void set_trace_propagation(bool on) noexcept { trace_propagation_ = on; }
  [[nodiscard]] bool trace_propagation() const noexcept { return trace_propagation_; }
  /// Tracer that receives flow events (optional).
  void bind_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }
  /// Flight recorder that receives per-node message events (optional).
  void bind_flight_recorder(obs::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }
  /// Installs `ctx` as the ambient context, returning the previous one.
  /// Deliveries set the ambient context to the arriving message's before
  /// invoking the handler (and restore it after), so replies and forwarded
  /// work inherit causality with no plumbing in the handlers themselves.
  TraceContext exchange_trace_context(TraceContext ctx) noexcept {
    const TraceContext prev = ambient_trace_;
    ambient_trace_ = ctx;
    return prev;
  }
  [[nodiscard]] TraceContext ambient_trace_context() const noexcept {
    return ambient_trace_;
  }
  /// RAII ambient-context scope. Deferred work (sim.after callbacks) does
  /// not run under a delivery handler, so callers that captured a context at
  /// schedule time reinstall it around their sends with one of these.
  class TraceScope {
   public:
    TraceScope(Fabric& fabric, TraceContext ctx) noexcept
        : fabric_(fabric), prev_(fabric.exchange_trace_context(ctx)) {}
    ~TraceScope() { fabric_.exchange_trace_context(prev_); }
    TraceScope(const TraceScope&) = delete;
    TraceScope& operator=(const TraceScope&) = delete;

   private:
    Fabric& fabric_;
    TraceContext prev_;
  };

  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }

  /// Bulk delivery, held on by the cluster's scan-epoch merge pass. While
  /// on, a delivery is parked with the seq the event heap would have given
  /// it instead of becoming a heap event. Turning it off sorts the parked
  /// keys by time, stably (they were parked in seq order, so the result is
  /// (time, seq) order), and loads them into the simulation as its sorted
  /// run: every delivery fires exactly when and in the order the heap would
  /// have fired it, so every observable stays the same. The parked buffers
  /// keep their capacity from epoch to epoch.
  void set_bulk(bool on);

  // --- fault surface (driven by net::FaultInjector) ---------------------
  // A node that is not reachable neither sends nor receives: its egress is
  // blackholed at the source and anything addressed to it vanishes in
  // flight. A blocked directed link (src -> dst) silently eats datagrams in
  // that direction only; per-link loss stacks on top of the global rate.
  // Both classes are affected; for the reliable class the sender observes
  // kTimeout once max_retries attempts are gone.
  void set_node_reachable(NodeId node, bool up) { slot(node).reachable = up; }
  [[nodiscard]] bool node_reachable(NodeId node) const {
    return raw(node) >= nodes_.size() || nodes_[raw(node)].reachable;
  }
  void set_link_blocked(NodeId src, NodeId dst, bool blocked);
  [[nodiscard]] bool link_blocked(NodeId src, NodeId dst) const {
    return !blocked_links_.empty() && blocked_links_.contains(link_key(src, dst));
  }
  void set_link_loss(NodeId src, NodeId dst, double p);
  [[nodiscard]] double link_loss(NodeId src, NodeId dst) const;

  // --- data integrity surface --------------------------------------------
  void set_checksum_enabled(bool on) noexcept { params_.checksum_enabled = on; }
  [[nodiscard]] bool checksum_enabled() const noexcept {
    return params_.checksum_enabled;
  }
  /// Global per-datagram bit-flip probability (stacks with per-link rates).
  void set_corrupt_rate(double p) noexcept { params_.corrupt_rate = p; }
  /// Per-link bit-flip probability, stacking multiplicatively on the global
  /// rate (same composition as per-link loss).
  void set_link_corrupt(NodeId src, NodeId dst, double p);
  /// Hook that flips a bit in a message's *typed* payload when a corruption
  /// roll fires with checksums disabled. The fabric cannot mutate a
  /// std::any it does not understand, so the cluster — which knows the
  /// payload types — installs this. Must be deterministic.
  using CorruptFn = std::function<void(Message&)>;
  void set_payload_corruptor(CorruptFn fn) { corruptor_ = std::move(fn); }

 private:
  [[nodiscard]] static std::uint64_t link_key(NodeId src, NodeId dst) noexcept {
    return (static_cast<std::uint64_t>(raw(src)) << 32) | raw(dst);
  }
  /// Site-wide cells for one message type, resolved in the constructor.
  struct TypeCells {
    obs::Counter* msgs;
    obs::Counter* bytes;
    obs::Counter* shed;     // tail-dropped at a full ingress queue
    obs::Counter* corrupt;  // dropped by the receiver's checksum check
  };
  /// Per-(src, dst) breaker. Reliable-send outcomes resolve synchronously at
  /// send time (the whole retry protocol is simulated inline), so breaker
  /// state advances in call order — deterministic by construction.
  struct Breaker {
    int consecutive = 0;       // timeouts since the last success
    bool open = false;
    sim::Time open_until = 0;  // when the next half-open probe is allowed
    sim::Time cooldown = 0;    // doubles on a failed probe, capped
    bool half_open = false;    // the in-progress send is the probe
  };
  /// Everything the fabric keeps per node, with the node's registry cells
  /// (the hot path touches these, never the registry itself).
  struct NodeSlot {
    NodeSlot(obs::Registry& r, std::int32_t node);

    Handler handler;
    bool reachable = true;
    sim::Time next_tx_free = 0;
    sim::Time next_rx_free = 0;     // ingress service
    std::size_t ingress_depth = 0;  // sheddable datagrams in flight
    obs::Counter& msgs_sent;
    obs::Counter& bytes_sent;
    obs::Counter& msgs_received;
    obs::Counter& bytes_received;
    obs::Counter& msgs_dropped;
    obs::Counter& retransmits;
    obs::Counter& msgs_blackholed;
    obs::Counter& msgs_shed;
    obs::Counter& msgs_corrupt_dropped;
    obs::Histogram& depth;  // ingress depth seen by each queued arrival
  };
  /// How a delivery was scheduled: loopback (no accounting), a plain
  /// datagram, or one admitted to a bounded ingress queue (depth-tracked).
  enum class Delivery : std::uint8_t { kLoopback, kDatagram, kQueued };

  /// One transmission attempt: charges egress, returns arrival time, or -1
  /// if the datagram is lost (loss is charged to traffic but not delivered).
  /// Checks fault state on the (src, dst) pair: a blocked or down endpoint
  /// blackholes the attempt (counted at src), per-link loss stacks on the
  /// global rate. `type` feeds the flight recorder only.
  sim::Time transmit(NodeId src, NodeId dst, std::size_t wire_size, bool lossy,
                     MsgType type);

  void deliver_at(sim::Time when, Message msg, Delivery how);
  /// A delivery firing: the ingress bookkeeping, the in-flight fault
  /// re-check, receive accounting, and the handler under the message's trace
  /// context. Heap events and run entries alike end here.
  void arrive(Message& m, Delivery how);
  /// LSD radix sort of run_keys_ by time (stable); returns the sorted keys.
  std::span<const sim::RunKey> sort_run_keys();

  /// Tail-drop admission for a datagram headed to msg.dst. Returns kQueued /
  /// kDatagram on admission; counts the shed and returns nullopt when the
  /// destination's bounded queue is full (control-plane types always pass).
  [[nodiscard]] std::optional<Delivery> admit_ingress(const Message& msg);
  /// Ingress service serialization: returns the delivery completion time for
  /// a datagram arriving at `dst` at `arrival` (identity when disabled).
  sim::Time rx_schedule(NodeId dst, sim::Time arrival);
  /// Backoff wait for the k-th consecutive failure, jitter included.
  sim::Time backoff_wait(int failures);

  Breaker* breaker_for(NodeId src, NodeId dst);  // nullptr when disabled
  void breaker_record_timeout(NodeId src, NodeId dst);
  void breaker_record_success(NodeId src, NodeId dst);

  /// `node`'s slot, appended (with every slot below it) on first sight.
  NodeSlot& slot(NodeId node);
  void account_send(Message& msg);

  /// Stamps an untraced message from the ambient context (when propagation is
  /// on) — the only place a context ever attaches to a message, so the
  /// kTraceCtxBytes wire charge happens exactly once — and, for non-loopback
  /// stamped messages with a live tracer, allocates a flow id and emits the
  /// send-side ("s") flow event.
  void maybe_stamp(Message& msg);
  /// Delivery-side recorder + tracer hooks: flight-recorder kMsgRecv and the
  /// finish-side ("f") flow event matching maybe_stamp's "s".
  void note_delivery(const Message& m);
  /// Flight-recorder append, null-safe (recorder events carry the message
  /// type in `a`, the peer node in `peer`, and the wire size in `d1`).
  void fr_record(NodeId node, obs::FrEvent type, MsgType mt, NodeId peer,
                 std::uint64_t d1 = 0) {
    if (recorder_ != nullptr) {
      recorder_->record(raw(node), sim_.now(), type,
                        static_cast<std::uint16_t>(mt), raw(peer), d1);
    }
  }

  /// Rolls the (src, dst) corruption hazard. Returns false without drawing
  /// from the RNG when no corruption is configured, so default runs stay
  /// byte-identical.
  [[nodiscard]] bool roll_corrupt(NodeId src, NodeId dst);
  /// Accounts one checksum-detected corrupt datagram dropped at msg.dst.
  void count_corrupt_drop(const Message& msg);
  /// Charges the checksum field's wire bytes on non-loopback datagrams when
  /// checksums are enabled (the codec's checksummed layout).
  void maybe_checksum_charge(Message& msg) const noexcept {
    if (params_.checksum_enabled && msg.src != msg.dst) {
      msg.wire_size += kWireChecksumBytes;
    }
  }

  sim::Simulation& sim_;
  FabricParams params_;
  std::unique_ptr<obs::Registry> owned_metrics_;  // standalone fabrics only
  obs::Registry& metrics_;
  // Indexed by raw(NodeId). A deque, not a vector: a handler may send to a
  // node never seen before, and growing must not move the running handler.
  std::deque<NodeSlot> nodes_;
  std::array<TypeCells, kNumMsgTypes> type_cells_{};
  // Site-wide cells. The last three close the conservation identity: an
  // acked reliable exchange is one msgs_sent (the ack) with no
  // msgs_received; a loopback delivery and a manufactured duplicate are
  // msgs_received (or shed, or blackholed in flight) with no msgs_sent.
  obs::Counter& breaker_trips_;
  obs::Counter& breaker_fastfail_;
  obs::Counter& blackholed_inflight_;
  obs::Counter& acks_completed_;
  obs::Counter& loopback_delivered_;
  obs::Counter& msgs_duplicated_;
  // Per-link fault state by link_key, read only while non-empty.
  std::unordered_map<std::uint64_t, double> corrupt_links_;  // per-link bit-flip
  std::unordered_map<std::uint64_t, Breaker> breakers_;
  std::unordered_set<std::uint64_t> blocked_links_;        // directed cuts
  std::unordered_map<std::uint64_t, double> lossy_links_;  // per-link loss
  CorruptFn corruptor_;  // silent-poisoning hook (checksums off)
  BreakerTripFn on_breaker_trip_;

  // Bulk delivery (set_bulk): parked messages in seq order, their run keys
  // (index = position in parked_), the radix sort's second buffer, and how
  // many of the loaded run have yet to fire.
  struct Parked {
    Message msg;
    Delivery how;
  };
  bool bulk_ = false;
  std::vector<Parked> parked_;
  std::vector<sim::RunKey> run_keys_;
  std::vector<sim::RunKey> sort_buf_;
  std::size_t unfired_ = 0;

  // Causal tracing (all inert unless trace_propagation_ is set).
  bool trace_propagation_ = false;
  TraceContext ambient_trace_{};
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  std::uint64_t next_flow_id_ = 0;
};

}  // namespace concord::net
