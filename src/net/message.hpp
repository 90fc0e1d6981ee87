// Message envelope for the emulated site network.
//
// ConCORD separates two traffic classes (§3.4): unreliable "send and forget"
// peer-to-peer datagrams (updates, hash exchange — the bulk of traffic) and
// reliable 1-to-n synchronizing messages (query/command control). Both ride
// this envelope. The payload crosses the fabric as a typed value (we are in
// one address space) but every message declares its *wire size* — the bytes
// it would occupy on a real network — which is what the latency/bandwidth
// model and the traffic accounting consume. Senders compute wire sizes from
// the real serialized layout of each message type.
#pragma once

#include <any>
#include <cstdint>
#include <iterator>
#include <string_view>
#include <utility>

#include "common/types.hpp"
#include "net/trace_context.hpp"

namespace concord::net {

/// Message type tags. One flat space so traffic accounting can break volume
/// down by protocol.
enum class MsgType : std::uint16_t {
  kDhtInsert,        // monitor -> shard owner (unreliable, one update)
  kDhtRemove,        // monitor -> shard owner (unreliable, one update)
  kDhtUpdateBatch,   // monitor -> shard owner (unreliable, many updates)
  kNodeQuery,        // client -> shard owner (reliable request/response)
  kNodeQueryReply,
  kCollectiveRequest,   // controller -> all daemons (reliable bcast)
  kCollectiveReply,     // daemon -> controller (reliable)
  kCommandControl,      // service command phase control (reliable bcast)
  kCommandHashExchange, // daemon <-> daemon hash sets (unreliable)
  kCommandAck,          // daemon -> controller phase completion (reliable)
  kData,                // bulk content transfer (migration etc.)
  kControl,             // modeled check traffic (DhtAudit); deliberately unhandled
  kHeartbeat,           // failure-detector probe/reply (unreliable)
  kCreditGrant,         // shard owner -> update sender flow-control credits
  kReplicaSync,         // donor replica -> rejoining replica shard stream (reliable)
};

/// Stable lower-case label per message type, used by the traffic accounting
/// and the metrics registry to break volume down by protocol.
[[nodiscard]] constexpr std::string_view to_string(MsgType t) noexcept {
  switch (t) {
    case MsgType::kDhtInsert: return "dht_insert";
    case MsgType::kDhtRemove: return "dht_remove";
    case MsgType::kDhtUpdateBatch: return "dht_update_batch";
    case MsgType::kNodeQuery: return "node_query";
    case MsgType::kNodeQueryReply: return "node_query_reply";
    case MsgType::kCollectiveRequest: return "collective_request";
    case MsgType::kCollectiveReply: return "collective_reply";
    case MsgType::kCommandControl: return "command_control";
    case MsgType::kCommandHashExchange: return "command_hash_exchange";
    case MsgType::kCommandAck: return "command_ack";
    case MsgType::kData: return "data";
    case MsgType::kControl: return "control";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kCreditGrant: return "credit_grant";
    case MsgType::kReplicaSync: return "replica_sync";
  }
  return "unknown";
}

/// Number of MsgType values (for dense per-type tables).
inline constexpr std::size_t kNumMsgTypes = static_cast<std::size_t>(MsgType::kReplicaSync) + 1;

/// Priority (control-plane) traffic bypasses ingress shedding: heartbeats /
/// probes keep the failure detector honest under overload, phase-completion
/// acks keep command barriers from deadlocking, and credit grants are the
/// very signal that relieves the pressure. Everything else — updates, hash
/// exchange, bulk data — is load, and load is what bounded queues shed.
[[nodiscard]] constexpr bool is_control_plane(MsgType t) noexcept {
  return t == MsgType::kHeartbeat || t == MsgType::kCommandAck ||
         t == MsgType::kCommandControl || t == MsgType::kCreditGrant;
}

/// How a message type is dispatched when it reaches a daemon.
enum class MsgDispatch : std::uint8_t {
  kDaemonSwitch,  // a `case MsgType::k...` in ServiceDaemon::handle_message
  kHandler,       // a subsystem registers a handler via set_handler()
  kSink,          // deliberately unhandled: models wire volume only
};

/// One row of the protocol ground-truth table: how a message type binds to
/// the rest of the system. `codec_struct` names the net::codec struct whose
/// byte layout the fabric charges for this type (empty = the sender computes
/// its own wire size; every payload travels as a typed std::any either way).
///
/// This table is what `concord-lint --proto` (W1) checks the tree against:
/// every enumerator must have a row, every row's codec struct must have an
/// encode/decode pair and a truncation-fuzz fixture, every dispatch claim
/// must match an actual dispatch site, and the control_plane flags must match
/// is_control_plane(). The static_asserts below keep the table itself honest
/// against the enum; the linter keeps the *rest of the tree* honest against
/// the table. To add a MsgType, follow the checklist in DESIGN.md §10.
struct MsgTypeBinding {
  MsgType type{};
  std::string_view codec_struct;  // net::codec struct name; empty = no codec layout
  bool control_plane = false;
  MsgDispatch dispatch = MsgDispatch::kHandler;
};

inline constexpr MsgTypeBinding kMsgTypeBindings[] = {
    {MsgType::kDhtInsert, "DhtUpdate", false, MsgDispatch::kDaemonSwitch},
    {MsgType::kDhtRemove, "DhtUpdate", false, MsgDispatch::kDaemonSwitch},
    {MsgType::kDhtUpdateBatch, "DhtUpdateBatch", false, MsgDispatch::kDaemonSwitch},
    {MsgType::kNodeQuery, "", false, MsgDispatch::kHandler},
    {MsgType::kNodeQueryReply, "", false, MsgDispatch::kHandler},
    {MsgType::kCollectiveRequest, "", false, MsgDispatch::kHandler},
    {MsgType::kCollectiveReply, "", false, MsgDispatch::kHandler},
    {MsgType::kCommandControl, "", true, MsgDispatch::kHandler},
    {MsgType::kCommandHashExchange, "", false, MsgDispatch::kHandler},
    {MsgType::kCommandAck, "", true, MsgDispatch::kHandler},
    {MsgType::kData, "", false, MsgDispatch::kHandler},
    {MsgType::kControl, "", false, MsgDispatch::kSink},
    {MsgType::kHeartbeat, "", true, MsgDispatch::kHandler},
    {MsgType::kCreditGrant, "", true, MsgDispatch::kDaemonSwitch},
    {MsgType::kReplicaSync, "ReplicaSync", false, MsgDispatch::kDaemonSwitch},
};

// The table must cover the enum exactly, in order, and agree with the
// constexpr classification functions — a new enumerator without a row (or a
// drifted flag) fails right here, before lint or any test runs.
static_assert(std::size(kMsgTypeBindings) == kNumMsgTypes,
              "kMsgTypeBindings must have one row per MsgType");
static_assert(
    [] {
      for (std::size_t i = 0; i < kNumMsgTypes; ++i) {
        if (static_cast<std::size_t>(kMsgTypeBindings[i].type) != i) return false;
      }
      return true;
    }(),
    "kMsgTypeBindings rows must appear in enum order");
static_assert(
    [] {
      for (const MsgTypeBinding& b : kMsgTypeBindings) {
        if (is_control_plane(b.type) != b.control_plane) return false;
        if (to_string(b.type) == "unknown") return false;
      }
      return true;
    }(),
    "kMsgTypeBindings must agree with is_control_plane() and to_string()");

/// The binding row for `t` (the table is indexed by enumerator value).
[[nodiscard]] constexpr const MsgTypeBinding& binding(MsgType t) noexcept {
  return kMsgTypeBindings[static_cast<std::size_t>(t)];
}

/// Fixed per-datagram overhead we charge on the wire: Ethernet + IP + UDP
/// headers plus ConCORD's own message header.
inline constexpr std::size_t kWireHeaderBytes = 14 + 20 + 8 + 16;

/// Extra wire bytes per datagram when the integrity checksum is enabled —
/// the codec's 8-byte FNV-1a-64 field (kFlagChecksummed). The emulated fabric
/// charges the same amount so modeled and real wire volume agree.
inline constexpr std::size_t kWireChecksumBytes = 8;

struct Message {
  NodeId src{};
  NodeId dst{};
  MsgType type{};
  std::size_t wire_size = kWireHeaderBytes;  // total bytes on the wire
  std::any payload;
  // Causal tracing. `trace` is stamped by the fabric (from the sender's
  // ambient context) when trace propagation is on — it then also costs
  // kTraceCtxBytes of wire. `flow_id` is emulation-only bookkeeping pairing
  // the send-side "s" flow event with the delivery-side "f"; never on the
  // wire.
  TraceContext trace{};
  std::uint64_t flow_id = 0;

  template <typename T>
  [[nodiscard]] const T& as() const {
    return std::any_cast<const T&>(payload);
  }
};

/// Builds a message whose wire size is header + declared body bytes.
template <typename T>
Message make_message(NodeId src, NodeId dst, MsgType type, T body, std::size_t body_bytes) {
  return Message{src, dst, type, kWireHeaderBytes + body_bytes, std::any(std::move(body))};
}

}  // namespace concord::net
