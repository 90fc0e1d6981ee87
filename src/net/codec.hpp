// Wire codec: the reference byte layout behind the emulator's charged sizes.
//
// The emulated Fabric passes typed payloads within one address space and
// charges each datagram its wire *size*. For the bulk traffic — DHT updates
// and replica re-sync streams, which the paper sends as UDP datagrams (§3.4)
// — those sizes come from the layouts defined here: a fixed little-endian
// header (magic, version, type, body length), the optional trace context and
// checksum its version byte's flag bits announce, then a per-type body.
// `update_batcher.hpp` and `service_daemon.hpp` read the size constants; the
// encoders and decoders exist so the round-trip tests tie every charged byte
// to a real encoding. The layout is explicit (no struct dumping) so it is
// stable across compilers and architectures, and every decoder rejects
// malformed input.
// concord-lint: emit-path — bytes or messages produced here must not depend on
// hash-map iteration order.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "net/trace_context.hpp"

namespace concord::net::codec {

inline constexpr std::uint32_t kMagic = 0x434e4344;  // "CNCD"
/// The version byte is kVersion with the flag bits below OR-ed in, so a
/// datagram with neither leg is 0x01. Decoders reject any other bit.
inline constexpr std::uint8_t kVersion = 1;
/// Flag bit: a 16-byte causal trace context (u64 root, u64 parent) sits
/// between the fixed header and the body.
inline constexpr std::uint8_t kFlagTraced = 1u << 1;
/// Flag bit: an 8-byte FNV-1a-64 checksum over the whole datagram (computed
/// with the checksum field itself zeroed) sits after the fixed header — and
/// after the trace context, when present — directly before the body.
/// Decoders verify it before handing out a body reader, so a corrupted
/// datagram is rejected at the header instead of half-decoded.
inline constexpr std::uint8_t kFlagChecksummed = 1u << 2;

enum class WireType : std::uint8_t {
  kDhtInsert = 1,
  kDhtRemove = 2,
  // 3-7 are retired and must not be reused: decoders reject them.
  kDhtUpdateBatch = 8,
  kReplicaSync = 9,
};

struct WireHeader {
  WireType type{};
  std::uint32_t body_len = 0;
  bool traced = false;       // trace context follows the fixed header
  bool checksummed = false;  // verified FNV-1a-64 checksum precedes the body
};
inline constexpr std::size_t kHeaderLen = 4 + 1 + 1 + 4;  // magic, ver, type, len
/// Size of the optional checksum field (kFlagChecksummed).
inline constexpr std::size_t kChecksumBytes = 8;

struct DhtUpdate {
  ContentHash hash;
  EntityId entity{};
  bool insert = true;
};

/// Owner-batched update datagram: many (op, hash, entity) records for one
/// shard owner in a single datagram. This is the bulk of real traffic, so the
/// per-datagram header is amortized across up to an MTU's worth of records.
/// Body layout: u16 record count, then per record u8 op (1 = insert), the
/// 128-bit hash, and the 32-bit entity id.
struct DhtUpdateBatch {
  std::vector<DhtUpdate> records;
};

/// Per-record bytes in a kDhtUpdateBatch body (op + hash + entity). The
/// emulated fabric charges the same layout, so modeled and real wire volume
/// agree byte-for-byte.
inline constexpr std::size_t kDhtUpdateRecordBytes = 1 + 16 + 4;
/// Fixed batch body overhead (the u16 record count).
inline constexpr std::size_t kDhtUpdateBatchCountBytes = 2;
/// Bound on a batch's record count, checked by decoders and asserted by
/// encoders; 4096 records already exceeds any UDP datagram.
inline constexpr std::size_t kMaxDhtBatchRecords = 4096;

/// One chunk of a replica re-sync stream: a donor replica replaying a dirty
/// home shard's records to a rejoining group member (DESIGN.md §14). Body
/// layout: u32 home shard index, u64 membership epoch the stream was cut at,
/// u8 last-chunk flag, u16 record count, then kDhtUpdateBatch-layout records.
struct ReplicaSync {
  std::uint32_t home = 0;
  std::uint64_t epoch = 0;
  bool last = false;
  std::vector<DhtUpdate> records;
};

/// Fixed ReplicaSync body overhead (home + epoch + last flag + record count).
inline constexpr std::size_t kReplicaSyncFixedBytes = 4 + 8 + 1 + 2;

// --- encoders: append one datagram (header, then body) to `out`. A valid
// `trace` sets kFlagTraced and emits the context; nullptr or an invalid
// context emits none. `checksummed = true` sets kFlagChecksummed and emits
// the checksum between header (and trace context, when present) and body.

void encode(const DhtUpdate& msg, std::vector<std::byte>& out,
            const TraceContext* trace = nullptr, bool checksummed = false);
void encode(const DhtUpdateBatch& msg, std::vector<std::byte>& out,
            const TraceContext* trace = nullptr, bool checksummed = false);
void encode(const ReplicaSync& msg, std::vector<std::byte>& out,
            const TraceContext* trace = nullptr, bool checksummed = false);

// --- decoding: header first, then the matching body.

[[nodiscard]] Result<WireHeader> decode_header(std::span<const std::byte> datagram);
/// The trace context of a traced datagram. kNotFound for a well-formed
/// untraced datagram; kInvalidArgument for malformed input.
[[nodiscard]] Result<TraceContext> decode_trace_context(
    std::span<const std::byte> datagram);
[[nodiscard]] Result<DhtUpdate> decode_dht_update(std::span<const std::byte> datagram);
[[nodiscard]] Result<DhtUpdateBatch> decode_dht_update_batch(
    std::span<const std::byte> datagram);
[[nodiscard]] Result<ReplicaSync> decode_replica_sync(
    std::span<const std::byte> datagram);

}  // namespace concord::net::codec
