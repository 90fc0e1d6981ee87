// concord-lint: emit-path — bytes or messages produced here must not depend on
// hash-map iteration order.
#include "obs/flight_recorder.hpp"

#include <cinttypes>
#include <cstdio>

#include "obs/json.hpp"

namespace concord::obs {

std::string_view to_string(FrEvent e) noexcept {
  switch (e) {
    case FrEvent::kMsgSend: return "msg_send";
    case FrEvent::kMsgRecv: return "msg_recv";
    case FrEvent::kMsgDrop: return "msg_drop";
    case FrEvent::kMsgShed: return "msg_shed";
    case FrEvent::kMsgBlackholed: return "msg_blackholed";
    case FrEvent::kBreakerTrip: return "breaker_trip";
    case FrEvent::kBreakerFastFail: return "breaker_fastfail";
    case FrEvent::kEpochChange: return "epoch_change";
    case FrEvent::kPhaseStart: return "phase_start";
    case FrEvent::kPhaseDone: return "phase_done";
    case FrEvent::kNodeExcluded: return "node_excluded";
    case FrEvent::kPressure: return "pressure";
    case FrEvent::kDegradedCommand: return "degraded_command";
    case FrEvent::kAuditMismatch: return "audit_mismatch";
    case FrEvent::kWatchdogViolation: return "watchdog_violation";
    case FrEvent::kMsgCorrupt: return "msg_corrupt";
    case FrEvent::kEntryQuarantined: return "entry_quarantined";
    case FrEvent::kEntryRepaired: return "entry_repaired";
    case FrEvent::kCkptRecordBad: return "ckpt_record_bad";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(Registry& registry, std::uint32_t nodes, std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      rings_(nodes),
      dump_cell_(registry.counter("obs", "blackbox_dumps")) {
  for (Ring& r : rings_) r.ev.reserve(capacity_);
}

void FlightRecorder::record(std::uint32_t node, sim::Time ts, FrEvent type,
                            std::uint16_t a, std::uint32_t peer, std::uint64_t d1) noexcept {
  if (node >= rings_.size()) return;
  Ring& r = rings_[node];
  const FlightEvent e{ts, type, a, peer, d1};
  if (r.ev.size() < capacity_) {
    r.ev.push_back(e);
  } else {
    r.ev[r.head] = e;
    r.head = (r.head + 1) % capacity_;
  }
  ++r.total;
}

void FlightRecorder::record_all(sim::Time ts, FrEvent type, std::uint16_t a,
                                std::uint32_t peer, std::uint64_t d1) noexcept {
  for (std::uint32_t n = 0; n < rings_.size(); ++n) record(n, ts, type, a, peer, d1);
}

std::uint64_t FlightRecorder::recorded(std::uint32_t node) const noexcept {
  return node < rings_.size() ? rings_[node].total : 0;
}

void FlightRecorder::append_ring_json(std::string& out, std::uint32_t node, const Ring& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "{\"node\":%u,\"recorded\":%" PRIu64 ",\"events\":[", node,
                r.total);
  out += buf;
  const std::size_t n = r.ev.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Oldest first: once the ring wrapped, head is the oldest slot.
    const FlightEvent& e = r.ev[(r.head + i) % n];
    if (i != 0) out += ',';
    std::snprintf(buf, sizeof buf, "{\"ts\":%" PRId64 ",\"ev\":\"", e.ts);
    out += buf;
    json::escape(out, to_string(e.type));
    std::snprintf(buf, sizeof buf, "\",\"a\":%u,\"peer\":%u,\"d1\":%" PRIu64 "}",
                  static_cast<unsigned>(e.a), e.peer, e.d1);
    out += buf;
  }
  out += "]}";
}

std::string FlightRecorder::to_json(std::uint32_t node) const {
  if (node >= rings_.size()) return "{}";
  std::string out;
  append_ring_json(out, node, rings_[node]);
  return out;
}

std::string FlightRecorder::to_json_all(std::string_view reason) const {
  return rings_json(reason, rings_);
}

std::string FlightRecorder::rings_json(std::string_view reason,
                                       const std::vector<Ring>& rings) const {
  std::string out = "{\"reason\":\"";
  json::escape(out, reason);
  char buf[64];
  std::snprintf(buf, sizeof buf, "\",\"capacity\":%zu,\"nodes\":[", capacity_);
  out += buf;
  for (std::uint32_t n = 0; n < rings.size(); ++n) {
    if (n != 0) out += ',';
    append_ring_json(out, n, rings[n]);
  }
  out += "]}";
  return out;
}

void FlightRecorder::dump(std::string_view reason) {
  snapshot_ = rings_;  // copy-assigned: reuses the snapshot's storage
  last_reason_.assign(reason);
  pending_ = true;
  dump_cell_.inc();
  if (sink_) sink_(reason, last_dump());
}

const std::string& FlightRecorder::last_dump() const {
  if (pending_) {
    last_dump_ = rings_json(last_reason_, snapshot_);
    pending_ = false;
  }
  return last_dump_;
}

}  // namespace concord::obs
