#include "net/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "common/log.hpp"

namespace concord::net {

Fabric::NodeSlot::NodeSlot(obs::Registry& r, std::int32_t node)
    : msgs_sent(r.counter("net", "msgs_sent", node)),
      bytes_sent(r.counter("net", "bytes_sent", node)),
      msgs_received(r.counter("net", "msgs_received", node)),
      bytes_received(r.counter("net", "bytes_received", node)),
      msgs_dropped(r.counter("net", "msgs_dropped", node)),
      retransmits(r.counter("net", "retransmits", node)),
      msgs_blackholed(r.counter("net", "msgs_blackholed", node)),
      msgs_shed(r.counter("net", "msgs_shed", node)),
      msgs_corrupt_dropped(r.counter("net", "msgs_corrupt_dropped", node)),
      depth(r.histogram("net", "ingress_depth", node)) {}

Fabric::Fabric(sim::Simulation& simulation, FabricParams params, obs::Registry* registry)
    : sim_(simulation),
      params_(params),
      metrics_(obs::given_or_owned(registry, owned_metrics_)),
      breaker_trips_(metrics_.counter("net", "breaker_trips")),
      breaker_fastfail_(metrics_.counter("net", "breaker_fastfail")),
      blackholed_inflight_(metrics_.counter("net", "msgs_blackholed_inflight")),
      acks_completed_(metrics_.counter("net", "acks_completed")),
      loopback_delivered_(metrics_.counter("net", "loopback_delivered")),
      msgs_duplicated_(metrics_.counter("net", "msgs_duplicated")) {
  for (std::size_t i = 0; i < kNumMsgTypes; ++i) {
    const std::string label(to_string(static_cast<MsgType>(i)));
    type_cells_[i] = TypeCells{&metrics_.counter("net", "type_msgs." + label),
                               &metrics_.counter("net", "type_bytes." + label),
                               &metrics_.counter("net", "shed_msgs." + label),
                               &metrics_.counter("net", "corrupt_msgs." + label)};
  }
}

Fabric::NodeSlot& Fabric::slot(NodeId node) {
  while (nodes_.size() <= raw(node)) {
    nodes_.emplace_back(metrics_, static_cast<std::int32_t>(nodes_.size()));
  }
  return nodes_[raw(node)];
}

void Fabric::register_node(NodeId node, Handler handler) {
  assert(handler);
  slot(node).handler = std::move(handler);
}

void Fabric::set_link_blocked(NodeId src, NodeId dst, bool blocked) {
  if (blocked) {
    blocked_links_.insert(link_key(src, dst));
  } else {
    blocked_links_.erase(link_key(src, dst));
  }
}

void Fabric::set_link_loss(NodeId src, NodeId dst, double p) {
  if (p <= 0.0) {
    lossy_links_.erase(link_key(src, dst));
  } else {
    lossy_links_[link_key(src, dst)] = p;
  }
}

double Fabric::link_loss(NodeId src, NodeId dst) const {
  const auto it = lossy_links_.find(link_key(src, dst));
  return it == lossy_links_.end() ? 0.0 : it->second;
}

void Fabric::set_link_corrupt(NodeId src, NodeId dst, double p) {
  if (p <= 0.0) {
    corrupt_links_.erase(link_key(src, dst));
  } else {
    corrupt_links_[link_key(src, dst)] = p;
  }
}

bool Fabric::roll_corrupt(NodeId src, NodeId dst) {
  double p = params_.corrupt_rate;
  if (!corrupt_links_.empty()) {
    const auto it = corrupt_links_.find(link_key(src, dst));
    if (it != corrupt_links_.end()) p = p + it->second - p * it->second;
  }
  if (p <= 0.0) return false;  // no RNG draw: fault-free runs stay byte-identical
  return sim_.rng().chance(p);
}

void Fabric::count_corrupt_drop(const Message& msg) {
  slot(msg.dst).msgs_corrupt_dropped.inc();
  type_cells_[static_cast<std::size_t>(msg.type)].corrupt->inc();
  fr_record(msg.dst, obs::FrEvent::kMsgCorrupt, msg.type, msg.src, msg.wire_size);
}

sim::Time Fabric::transmit(NodeId src, NodeId dst, std::size_t wire_size, bool lossy,
                           MsgType type) {
  // A down endpoint or a cut link silences the attempt before it ever
  // occupies the NIC: no egress charge, no send accounting, just the
  // blackhole count at the source.
  NodeSlot& s = slot(src);
  if (!s.reachable || !node_reachable(dst) || link_blocked(src, dst)) {
    s.msgs_blackholed.inc();
    fr_record(src, obs::FrEvent::kMsgBlackholed, type, dst, wire_size);
    return -1;
  }
  s.msgs_sent.inc();
  s.bytes_sent.inc(wire_size);
  fr_record(src, obs::FrEvent::kMsgSend, type, dst, wire_size);

  // Egress serialization: this datagram occupies the NIC for tx_time.
  sim::Time& free_at = s.next_tx_free;
  const sim::Time start = std::max(sim_.now(), free_at);
  const auto tx_time =
      static_cast<sim::Time>(static_cast<double>(wire_size) * params_.ns_per_byte);
  free_at = start + tx_time;

  if (lossy) {
    // Per-link loss (independent of the global rate) stacks multiplicatively.
    double p = params_.loss_rate;
    if (!lossy_links_.empty()) {
      const auto it = lossy_links_.find(link_key(src, dst));
      if (it != lossy_links_.end()) p = p + it->second - p * it->second;
    }
    if (sim_.rng().chance(p)) {
      s.msgs_dropped.inc();
      fr_record(src, obs::FrEvent::kMsgDrop, type, dst, wire_size);
      return -1;
    }
  }

  const sim::Time jitter =
      params_.jitter > 0 ? static_cast<sim::Time>(sim_.rng().below(
                               static_cast<std::uint64_t>(params_.jitter)))
                         : 0;
  return free_at + params_.base_latency + jitter;
}

sim::Time Fabric::backoff_base(int failures) const noexcept {
  sim::Time wait = kAckTimeout;
  for (int i = 1; i < failures; ++i) {
    wait *= 2;
    if (wait >= kMaxBackoff) return kMaxBackoff;
  }
  return std::min(wait, kMaxBackoff);
}

sim::Time Fabric::backoff_wait(int failures) {
  sim::Time wait = backoff_base(failures);
  if (params_.backoff_jitter > 0) {
    wait += static_cast<sim::Time>(
        sim_.rng().below(static_cast<std::uint64_t>(params_.backoff_jitter)));
  }
  return wait;
}

std::size_t Fabric::ingress_depth(NodeId node) const {
  return raw(node) < nodes_.size() ? nodes_[raw(node)].ingress_depth : 0;
}

std::optional<Fabric::Delivery> Fabric::admit_ingress(const Message& msg) {
  if (params_.ingress_queue_limit == 0) return Delivery::kDatagram;
  if (is_control_plane(msg.type)) return Delivery::kDatagram;  // priority class
  const std::size_t depth = ingress_depth(msg.dst);
  if (depth >= params_.ingress_queue_limit) {
    slot(msg.dst).msgs_shed.inc();
    type_cells_[static_cast<std::size_t>(msg.type)].shed->inc();
    fr_record(msg.dst, obs::FrEvent::kMsgShed, msg.type, msg.src, msg.wire_size);
    return std::nullopt;
  }
  return Delivery::kQueued;
}

sim::Time Fabric::rx_schedule(NodeId dst, sim::Time arrival) {
  if (params_.ingress_service <= 0) return arrival;
  sim::Time& free_at = slot(dst).next_rx_free;
  free_at = std::max(arrival, free_at) + params_.ingress_service;
  return free_at;
}

void Fabric::deliver_at(sim::Time when, Message msg, Delivery how) {
  if (how == Delivery::kQueued) {
    NodeSlot& s = slot(msg.dst);
    s.depth.record(++s.ingress_depth);
  }
  if (bulk_) {
    run_keys_.push_back(
        sim::RunKey{when, sim_.take_seq(), static_cast<std::uint32_t>(parked_.size())});
    parked_.push_back(Parked{std::move(msg), how});
    return;
  }
  sim_.at(when, [this, how, m = std::move(msg)]() mutable { arrive(m, how); });
}

void Fabric::arrive(Message& m, Delivery how) {
  NodeSlot& s = slot(m.dst);
  if (how == Delivery::kQueued) --s.ingress_depth;
  if (!s.handler) {
    log::warn("fabric: message for unregistered node %u dropped", raw(m.dst));
    return;
  }
  // Re-check at delivery time: the destination may have crashed while the
  // datagram was in flight (or a loopback sender may itself be down).
  if (!s.reachable) {
    s.msgs_blackholed.inc();
    fr_record(m.dst, obs::FrEvent::kMsgBlackholed, m.type, m.src, m.wire_size);
    // Conservation accounting: unlike an egress blackhole (never counted
    // sent), this datagram did leave a NIC — track it separately so
    // sent == received + dropped + shed + blackholed_inflight holds.
    if (how != Delivery::kLoopback) blackholed_inflight_.inc();
    return;
  }
  s.msgs_received.inc();
  s.bytes_received.inc(m.wire_size);
  if (how == Delivery::kLoopback) loopback_delivered_.inc();
  note_delivery(m);
  // The handler runs under the arriving message's context (empty for an
  // untraced message — deliberately, so its sends don't inherit whatever
  // context happened to be ambient at the sender's end of this callback).
  const TraceContext prev = exchange_trace_context(m.trace);
  s.handler(m);
  exchange_trace_context(prev);
}

void Fabric::set_bulk(bool on) {
  if (on) {
    assert(!bulk_ && parked_.empty());  // the previous run has fired
    bulk_ = true;
    return;
  }
  bulk_ = false;
  if (parked_.empty()) return;
  unfired_ = parked_.size();
  sim_.load_run(sort_run_keys(), [this](std::uint32_t i) {
    arrive(parked_[i].msg, parked_[i].how);
    if (--unfired_ == 0) {
      parked_.clear();
      run_keys_.clear();
    }
  });
}

std::span<const sim::RunKey> Fabric::sort_run_keys() {
  // One stable counting pass per byte of (time - earliest), least
  // significant first; a 256-node epoch's deliveries span 150-300 virtual
  // us, so three passes. Stability keeps equal times in park (= seq) order.
  sim::Time lo = run_keys_.front().time;
  sim::Time hi = lo;
  for (const sim::RunKey& k : run_keys_) {
    lo = std::min(lo, k.time);
    hi = std::max(hi, k.time);
  }
  const auto span = static_cast<std::uint64_t>(hi - lo);
  sort_buf_.resize(run_keys_.size());
  std::vector<sim::RunKey>* from = &run_keys_;
  std::vector<sim::RunKey>* to = &sort_buf_;
  for (unsigned shift = 0; shift < 64 && (span >> shift) != 0; shift += 8) {
    const auto digit = [lo, shift](const sim::RunKey& k) {
      return (static_cast<std::uint64_t>(k.time - lo) >> shift) & 0xff;
    };
    std::array<std::size_t, 257> start{};
    for (const sim::RunKey& k : *from) ++start[digit(k) + 1];
    for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
    for (const sim::RunKey& k : *from) (*to)[start[digit(k)]++] = k;
    std::swap(from, to);
  }
  return *from;
}

void Fabric::maybe_stamp(Message& msg) {
  if (!trace_propagation_) return;
  if (!msg.trace.valid()) {
    if (!ambient_trace_.valid()) return;
    msg.trace = ambient_trace_;
    // Loopback never touches the wire, so only inter-node datagrams pay the
    // trace context bytes.
    if (msg.src != msg.dst) msg.wire_size += kTraceCtxBytes;
  }
  if (msg.src != msg.dst && msg.flow_id == 0 && tracer_ != nullptr && tracer_->enabled()) {
    msg.flow_id = ++next_flow_id_;
    std::string name("msg:");
    name += to_string(msg.type);
    tracer_->flow_event(name, "net", raw(msg.src), sim_.now(), msg.flow_id,
                        obs::FlowDir::kStart, msg.trace.root);
  }
}

void Fabric::note_delivery(const Message& m) {
  fr_record(m.dst, obs::FrEvent::kMsgRecv, m.type, m.src, m.wire_size);
  if (m.flow_id != 0 && tracer_ != nullptr && tracer_->enabled()) {
    std::string name("msg:");
    name += to_string(m.type);
    tracer_->flow_event(name, "net", raw(m.dst), sim_.now(), m.flow_id,
                        obs::FlowDir::kFinish, m.trace.root);
  }
}

// ------------------------------------------------------------ circuit breaker

Fabric::Breaker* Fabric::breaker_for(NodeId src, NodeId dst) {
  if (params_.breaker_threshold <= 0) return nullptr;
  return &breakers_[link_key(src, dst)];
}

void Fabric::breaker_record_timeout(NodeId src, NodeId dst) {
  Breaker* b = breaker_for(src, dst);
  if (b == nullptr) return;
  if (b->half_open) {
    // The half-open probe failed: re-open with a doubled (capped) cooldown.
    b->half_open = false;
    b->cooldown = std::min<sim::Time>(b->cooldown * 2, 16 * kBreakerCooldown);
    b->open_until = sim_.now() + b->cooldown;
    breaker_trips_.inc();
    if (recorder_ != nullptr) {
      recorder_->record(raw(src), sim_.now(), obs::FrEvent::kBreakerTrip, 1, raw(dst));
    }
    if (on_breaker_trip_) on_breaker_trip_(src, dst);
    return;
  }
  ++b->consecutive;
  if (!b->open && b->consecutive >= params_.breaker_threshold) {
    b->open = true;
    b->cooldown = kBreakerCooldown;
    b->open_until = sim_.now() + b->cooldown;
    breaker_trips_.inc();
    if (recorder_ != nullptr) {
      recorder_->record(raw(src), sim_.now(), obs::FrEvent::kBreakerTrip, 0, raw(dst));
    }
    if (on_breaker_trip_) on_breaker_trip_(src, dst);
  }
}

void Fabric::breaker_record_success(NodeId src, NodeId dst) {
  if (params_.breaker_threshold <= 0) return;
  const auto it = breakers_.find(link_key(src, dst));
  if (it == breakers_.end()) return;
  it->second.consecutive = 0;
  it->second.open = false;
  it->second.half_open = false;
}

BreakerState Fabric::breaker_state(NodeId src, NodeId dst) const {
  const auto it = breakers_.find(link_key(src, dst));
  if (it == breakers_.end() || !it->second.open) return BreakerState::kClosed;
  return sim_.now() < it->second.open_until ? BreakerState::kOpen : BreakerState::kHalfOpen;
}

void Fabric::account_send(Message& msg) {
  const TypeCells& tc = type_cells_[static_cast<std::size_t>(msg.type)];
  tc.msgs->inc();
  tc.bytes->inc(msg.wire_size);
}

void Fabric::send_unreliable(Message msg) {
  maybe_stamp(msg);
  maybe_checksum_charge(msg);
  if (msg.src == msg.dst) {
    deliver_at(sim_.now() + kLoopbackLatency, std::move(msg), Delivery::kLoopback);
    return;
  }
  account_send(msg);
  const sim::Time arrival =
      transmit(msg.src, msg.dst, msg.wire_size, /*lossy=*/true, msg.type);
  if (arrival < 0) return;  // lost in flight or blackholed
  if (roll_corrupt(msg.src, msg.dst)) {
    if (params_.checksum_enabled) {
      // The receiver's checksum verification fails: the datagram is counted
      // and dropped before it reaches a handler. For this class that is the
      // end of it — updates are best-effort by design.
      count_corrupt_drop(msg);
      return;
    }
    // No checksum: the bit-flip rides through undetected. The typed payload
    // is poisoned in place (the cluster's corruptor knows the types); the
    // quarantine scrub is what eventually finds the damage.
    if (corruptor_) corruptor_(msg);
  }
  const std::optional<Delivery> admitted = admit_ingress(msg);
  if (!admitted.has_value()) return;  // tail-dropped at the full ingress queue
  if (params_.duplicate_rate > 0 && sim_.rng().chance(params_.duplicate_rate)) {
    // Duplication: the receiver sees the datagram twice. Both copies verify
    // (a checksum cannot catch a faithful duplicate); handlers cope by
    // idempotence. Counted at manufacture so the conservation identity can
    // subtract it whichever way the copy ends (delivered, shed, blackholed).
    msgs_duplicated_.inc();
    Message dup = msg;
    const std::optional<Delivery> dup_admitted = admit_ingress(dup);
    if (dup_admitted.has_value()) {
      deliver_at(rx_schedule(dup.dst, arrival), std::move(dup), *dup_admitted);
    }
  }
  deliver_at(rx_schedule(msg.dst, arrival), std::move(msg), *admitted);
}

void Fabric::send_reliable(Message msg, SendCallback on_done) {
  maybe_stamp(msg);
  maybe_checksum_charge(msg);
  if (msg.src == msg.dst) {
    // Loopback: intra-node messages never touch the NIC and cannot be lost.
    const sim::Time when = sim_.now() + kLoopbackLatency;
    deliver_at(when, std::move(msg), Delivery::kLoopback);
    if (on_done) sim_.at(when, [cb = std::move(on_done)]() { cb(Status::kOk); });
    return;
  }

  // Circuit breaker: while the (src, dst) breaker is open, fail fast with
  // kUnavailable instead of burning a full retransmit chain toward a
  // destination that has stopped answering. Once the cooldown passes, the
  // next send is allowed through as the half-open probe.
  Breaker* br = breaker_for(msg.src, msg.dst);
  if (br != nullptr && br->open) {
    if (sim_.now() < br->open_until) {
      breaker_fastfail_.inc();
      fr_record(msg.src, obs::FrEvent::kBreakerFastFail, msg.type, msg.dst);
      if (on_done) sim_.after(0, [cb = std::move(on_done)]() { cb(Status::kUnavailable); });
      return;
    }
    br->half_open = true;
  }
  account_send(msg);

  // Simulate the ack protocol: data attempts separated by seeded-jitter
  // exponential backoff (the k-th consecutive failure waits backoff_base(k)
  // plus jitter, bounded by the per-send retry budget), then an acked
  // completion. Ack datagrams are small; their loss triggers a retransmit of
  // the data as well. A tail-drop at the destination's bounded ingress queue
  // looks exactly like loss to the sender — that is what makes the sender
  // back off instead of amplifying the overload.
  const std::size_t kAckBytes =
      kWireHeaderBytes + (params_.checksum_enabled ? kWireChecksumBytes : 0);
  const NodeId src = msg.src;
  const NodeId dst = msg.dst;
  sim::Time elapsed = 0;
  int attempt = 0;
  int failures = 0;
  bool budget_spent = false;
  while (attempt < params_.max_retries && !budget_spent) {
    ++attempt;
    if (attempt > 1) slot(src).retransmits.inc();
    sim::Time arrival = transmit(src, dst, msg.wire_size, /*lossy=*/true, msg.type);
    if (arrival >= 0 && roll_corrupt(src, dst)) {
      if (params_.checksum_enabled) {
        // The receiver verifies the checksum, drops the frame, and never
        // acks: to the sender this attempt is indistinguishable from loss,
        // so the normal backoff/retry machinery re-sends it.
        count_corrupt_drop(msg);
        arrival = -1;
      } else if (corruptor_) {
        // Undetected: the poisoned frame is delivered and acked like any
        // other. (A second corrupt roll on a retransmit re-flips the same
        // bit — the corruptor is deterministic per message.)
        corruptor_(msg);
      }
    }
    std::optional<Delivery> admitted;
    if (arrival >= 0) {
      admitted = admit_ingress(msg);
      if (!admitted.has_value()) arrival = -1;  // shed: indistinguishable from loss
    }
    if (arrival < 0) {
      ++failures;
      const sim::Time wait = backoff_wait(failures);
      if (params_.retry_budget > 0 && elapsed + wait >= params_.retry_budget) {
        elapsed = params_.retry_budget;  // clamp: give up at exactly the budget
        budget_spent = true;
      } else {
        elapsed += wait;  // sender waits out the backoff timer
      }
      continue;
    }
    // Data arrived. The receiver acks; a lost ack costs another backoff and
    // a retransmission, but the receiver dedups, so deliver only once.
    const sim::Time deliver_time = rx_schedule(dst, arrival + elapsed);
    deliver_at(deliver_time, std::move(msg), *admitted);

    sim::Time ack_elapsed = 0;
    int ack_attempt = 0;
    int ack_failures = 0;
    while (ack_attempt < params_.max_retries) {
      ++ack_attempt;
      if (ack_attempt > 1) slot(dst).retransmits.inc();
      // Acks are priority traffic: never shed, never queued behind load.
      const sim::Time ack_arrival =
          transmit(dst, src, kAckBytes, /*lossy=*/true, MsgType::kCommandAck);
      if (ack_arrival < 0) {
        ++ack_failures;
        ack_elapsed += backoff_wait(ack_failures);
        continue;
      }
      breaker_record_success(src, dst);
      acks_completed_.inc();  // one msgs_sent (the ack) with no msgs_received
      if (on_done) {
        sim_.at(deliver_time + ack_elapsed +
                    std::max<sim::Time>(ack_arrival - sim_.now(), 0),
                [cb = std::move(on_done)]() { cb(Status::kOk); });
      }
      return;
    }
    // Ack never made it; report timeout to the sender.
    breaker_record_timeout(src, dst);
    if (on_done) {
      sim_.at(deliver_time + ack_elapsed, [cb = std::move(on_done)]() { cb(Status::kTimeout); });
    }
    return;
  }
  breaker_record_timeout(src, dst);
  if (on_done) {
    sim_.at(sim_.now() + elapsed, [cb = std::move(on_done)]() { cb(Status::kTimeout); });
  }
}

void Fabric::broadcast_reliable(NodeId src, MsgType type, const std::any& body,
                                std::size_t body_bytes, const std::vector<NodeId>& dsts,
                                SendCallback on_done) {
  if (dsts.empty()) {
    if (on_done) sim_.after(0, [cb = std::move(on_done)]() { cb(Status::kOk); });
    return;
  }
  struct BcastState {
    std::size_t pending;
    Status worst = Status::kOk;
    SendCallback on_done;
  };
  auto state = std::make_shared<BcastState>(BcastState{dsts.size(), Status::kOk, std::move(on_done)});
  for (const NodeId dst : dsts) {
    Message m{src, dst, type, kWireHeaderBytes + body_bytes, body};
    send_reliable(std::move(m), [state](Status s) {
      if (!ok(s)) state->worst = s;
      if (--state->pending == 0 && state->on_done) state->on_done(state->worst);
    });
  }
}

NodeTraffic Fabric::traffic(NodeId node) const {
  if (raw(node) >= nodes_.size()) return NodeTraffic{};
  const NodeSlot& s = nodes_[raw(node)];
  return NodeTraffic{s.msgs_sent.value(),       s.bytes_sent.value(),
                     s.msgs_received.value(),   s.bytes_received.value(),
                     s.msgs_dropped.value(),    s.retransmits.value(),
                     s.msgs_blackholed.value(), s.msgs_shed.value()};
}

NodeTraffic Fabric::total_traffic() const {
  NodeTraffic sum;
  for (std::uint32_t n = 0; n < nodes_.size(); ++n) {
    const NodeTraffic t = traffic(node_id(n));
    sum.msgs_sent += t.msgs_sent;
    sum.bytes_sent += t.bytes_sent;
    sum.msgs_received += t.msgs_received;
    sum.bytes_received += t.bytes_received;
    sum.msgs_dropped += t.msgs_dropped;
    sum.retransmits += t.retransmits;
    sum.msgs_blackholed += t.msgs_blackholed;
    sum.msgs_shed += t.msgs_shed;
  }
  return sum;
}

TypeTraffic Fabric::type_traffic(MsgType t) const {
  const TypeCells& c = type_cells_[static_cast<std::size_t>(t)];
  return TypeTraffic{c.msgs->value(), c.bytes->value()};
}

void Fabric::reset_traffic() {
  // Every fabric metric lives under the "net" subsystem, so one sweep zeroes
  // all of them together and the conservation identity keeps balancing.
  metrics_.reset("net");
}

}  // namespace concord::net
