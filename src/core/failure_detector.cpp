#include "core/failure_detector.hpp"

#include "net/message.hpp"

namespace concord::core {

void FailureDetector::send_round() {
  // Full mesh of tiny datagrams. The fabric applies fault state: a down
  // node's beats are blackholed at the source, a partitioned link eats them
  // in flight — which is exactly what makes detection work.
  for (std::uint32_t s = 0; s < num_nodes_; ++s) {
    for (std::uint32_t d = 0; d < num_nodes_; ++d) {
      if (s == d) continue;
      fabric_.send_unreliable(net::make_message(
          node_id(s), node_id(d), net::MsgType::kHeartbeat,
          HeartbeatMsg{HeartbeatMsg::Kind::kBeat, view_.epoch, 0}, kHeartbeatBytes));
    }
  }
}

const MembershipView& FailureDetector::run_window() {
  if (num_nodes_ < 2) return view_;  // a lone node has no peers to hear it
  heard_.assign(num_nodes_, 0);
  window_open_ = true;
  for (int r = 0; r < kRoundsPerWindow; ++r) {
    send_round();
    sim_.run_until(sim_.now() + kPeriod);
  }
  sim_.run_until(sim_.now() + kMargin);  // let stragglers land
  window_open_ = false;

  std::vector<bool> alive(num_nodes_);
  bool changed = false;
  for (std::uint32_t n = 0; n < num_nodes_; ++n) {
    alive[n] = heard_[n] > 0;
    if (alive[n] != view_.is_alive(node_id(n))) changed = true;
  }
  if (changed) {
    ++view_.epoch;
    view_.alive = std::move(alive);
    for (const auto& l : listeners_) l(view_);
  }
  return view_;
}

void FailureDetector::hint_suspect(NodeId n) {
  if (raw(n) >= num_nodes_) return;
  if (hinted_.size() < num_nodes_) hinted_.resize(num_nodes_, false);
  hinted_[raw(n)] = true;
}

std::vector<NodeId> FailureDetector::hinted() const {
  std::vector<NodeId> out;
  for (std::uint32_t n = 0; n < hinted_.size(); ++n) {
    if (hinted_[n]) out.push_back(node_id(n));
  }
  return out;
}

void FailureDetector::probe(NodeId from, NodeId target, ProbeCallback cb) {
  const std::uint64_t id = next_probe_id_++;
  probes_.emplace(id, PendingProbe{std::move(cb), false});
  // A small burst so ordinary datagram loss rarely masquerades as death;
  // duplicate replies are ignored (the first settles the probe).
  for (int i = 0; i < 3; ++i) {
    fabric_.send_unreliable(net::make_message(
        from, target, net::MsgType::kHeartbeat,
        HeartbeatMsg{HeartbeatMsg::Kind::kProbe, view_.epoch, id}, kHeartbeatBytes));
  }
  sim_.after(kProbeTimeout, [this, id]() {
    const auto it = probes_.find(id);
    if (it == probes_.end()) return;
    PendingProbe pending = std::move(it->second);
    probes_.erase(it);
    if (!pending.settled && pending.cb) pending.cb(false);
  });
}

void FailureDetector::handle_heartbeat(NodeId self, const net::Message& msg) {
  const auto& hb = msg.as<HeartbeatMsg>();
  switch (hb.kind) {
    case HeartbeatMsg::Kind::kBeat:
      if (window_open_ && raw(msg.src) < heard_.size()) {
        ++heard_[raw(msg.src)];
        // A node we hear from is not suspect, whatever the breakers said.
        if (raw(msg.src) < hinted_.size()) hinted_[raw(msg.src)] = false;
      }
      break;
    case HeartbeatMsg::Kind::kProbe:
      // Answer from the probed node; the fabric decides whether the reply
      // can make it back.
      fabric_.send_unreliable(net::make_message(
          self, msg.src, net::MsgType::kHeartbeat,
          HeartbeatMsg{HeartbeatMsg::Kind::kProbeReply, view_.epoch, hb.probe_id},
          kHeartbeatBytes));
      break;
    case HeartbeatMsg::Kind::kProbeReply: {
      const auto it = probes_.find(hb.probe_id);
      if (it == probes_.end()) return;  // timer already declared it dead
      PendingProbe pending = std::move(it->second);
      probes_.erase(it);
      pending.settled = true;
      if (pending.cb) pending.cb(true);
      break;
    }
  }
}

}  // namespace concord::core
