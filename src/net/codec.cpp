// concord-lint: emit-path — bytes or messages produced here must not depend on
// hash-map iteration order.
#include "net/codec.hpp"

#include <cassert>

#include "common/fnv.hpp"

namespace concord::net::codec {

namespace {

void put_u8(std::vector<std::byte>& out, std::uint8_t v) {
  out.push_back(static_cast<std::byte>(v));
}
void put_u16(std::vector<std::byte>& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
}
void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
}
void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
}

class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] bool u8(std::uint8_t& v) {
    if (pos_ + 1 > data_.size()) return false;
    v = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }
  [[nodiscard]] bool u16(std::uint16_t& v) {
    if (pos_ + 2 > data_.size()) return false;
    v = 0;
    for (int i = 1; i >= 0; --i) {
      v = static_cast<std::uint16_t>(
          (v << 8) | static_cast<std::uint16_t>(data_[pos_ + static_cast<std::size_t>(i)]));
    }
    pos_ += 2;
    return true;
  }
  [[nodiscard]] bool u32(std::uint32_t& v) {
    if (pos_ + 4 > data_.size()) return false;
    v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)]);
    }
    pos_ += 4;
    return true;
  }
  [[nodiscard]] bool u64(std::uint64_t& v) {
    if (pos_ + 8 > data_.size()) return false;
    v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)]);
    }
    pos_ += 8;
    return true;
  }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

void put_header(std::vector<std::byte>& out, WireType type, std::uint32_t body_len,
                const TraceContext* trace, bool checksummed) {
  const bool traced = trace != nullptr && trace->valid();
  put_u32(out, kMagic);
  put_u8(out, static_cast<std::uint8_t>(kVersion | (traced ? kFlagTraced : 0) |
                                        (checksummed ? kFlagChecksummed : 0)));
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u32(out, body_len);
  if (traced) {
    put_u64(out, trace->root);
    put_u64(out, trace->parent);
  }
  // Checksum placeholder; seal() patches it once the body is appended. The
  // digest is computed with this field zeroed, so the placeholder bytes
  // participate in their own checksum without a copy.
  if (checksummed) put_u64(out, 0);
}

/// Patches the checksum field of the datagram that starts at `start`, after
/// its body has been appended. No-op for unchecksummed datagrams.
void seal(std::vector<std::byte>& out, std::size_t start, const TraceContext* trace,
          bool checksummed) {
  if (!checksummed) return;
  const bool traced = trace != nullptr && trace->valid();
  const std::size_t off = start + kHeaderLen + (traced ? kTraceCtxBytes : 0);
  const std::uint64_t sum =
      fnv1a64(std::span<const std::byte>(out).subspan(start));
  for (std::size_t i = 0; i < kChecksumBytes; ++i) {
    out[off + i] = static_cast<std::byte>((sum >> (8 * i)) & 0xff);
  }
}

/// Recomputes a received datagram's digest — header and body with the
/// checksum field substituted by zeroes — and compares it to the stored one.
[[nodiscard]] bool checksum_ok(std::span<const std::byte> datagram, bool traced) {
  const std::size_t off = kHeaderLen + (traced ? kTraceCtxBytes : 0);
  constexpr std::byte kZeros[kChecksumBytes] = {};
  std::uint64_t sum = fnv1a64(datagram.first(off));
  sum = fnv1a64(std::span<const std::byte>(kZeros, kChecksumBytes), sum);
  sum = fnv1a64(datagram.subspan(off + kChecksumBytes), sum);
  std::uint64_t stored = 0;
  for (std::size_t i = kChecksumBytes; i-- > 0;) {
    stored = (stored << 8) | static_cast<std::uint64_t>(datagram[off + i]);
  }
  return stored == sum;
}

/// A validated datagram: its header and a reader positioned at the body.
struct Body {
  WireHeader header;
  Reader reader;
};

/// Validates the header — including the checksum, when present — and returns
/// it with a reader positioned at the body (past the trace context and
/// checksum).
[[nodiscard]] Result<Body> open_body(std::span<const std::byte> datagram, WireType expect_a,
                                     WireType expect_b) {
  const Result<WireHeader> h = decode_header(datagram);
  if (!h.has_value()) return h.status();
  const WireHeader& hdr = h.value();
  if (hdr.type != expect_a && hdr.type != expect_b) return Status::kInvalidArgument;
  if (hdr.checksummed && !checksum_ok(datagram, hdr.traced)) return Status::kInvalidArgument;
  return Body{hdr, Reader(datagram.subspan(kHeaderLen + (hdr.traced ? kTraceCtxBytes : 0) +
                                           (hdr.checksummed ? kChecksumBytes : 0)))};
}

}  // namespace

void encode(const DhtUpdate& msg, std::vector<std::byte>& out, const TraceContext* trace,
            bool checksummed) {
  const std::size_t start = out.size();
  put_header(out, msg.insert ? WireType::kDhtInsert : WireType::kDhtRemove, 16 + 4, trace,
             checksummed);
  put_u64(out, msg.hash.hi);
  put_u64(out, msg.hash.lo);
  put_u32(out, raw(msg.entity));
  seal(out, start, trace, checksummed);
}

void encode(const DhtUpdateBatch& msg, std::vector<std::byte>& out,
            const TraceContext* trace, bool checksummed) {
  assert(msg.records.size() <= kMaxDhtBatchRecords);
  const std::size_t start = out.size();
  const auto count = static_cast<std::uint16_t>(msg.records.size());
  put_header(out, WireType::kDhtUpdateBatch,
             static_cast<std::uint32_t>(kDhtUpdateBatchCountBytes +
                                        msg.records.size() * kDhtUpdateRecordBytes),
             trace, checksummed);
  put_u16(out, count);
  for (const DhtUpdate& rec : msg.records) {
    put_u8(out, rec.insert ? 1 : 0);
    put_u64(out, rec.hash.hi);
    put_u64(out, rec.hash.lo);
    put_u32(out, raw(rec.entity));
  }
  seal(out, start, trace, checksummed);
}

void encode(const Query& msg, std::vector<std::byte>& out, const TraceContext* trace,
            bool checksummed) {
  const std::size_t start = out.size();
  put_header(out, msg.want_entities ? WireType::kEntitiesQuery : WireType::kNumCopiesQuery,
             8 + 16, trace, checksummed);
  put_u64(out, msg.req_id);
  put_u64(out, msg.hash.hi);
  put_u64(out, msg.hash.lo);
  seal(out, start, trace, checksummed);
}

void encode(const QueryReply& msg, std::vector<std::byte>& out, const TraceContext* trace,
            bool checksummed) {
  const std::size_t start = out.size();
  const auto count = static_cast<std::uint32_t>(msg.entities.size());
  put_header(out, WireType::kQueryReply, 8 + 4 + 4 + count * 4, trace, checksummed);
  put_u64(out, msg.req_id);
  put_u32(out, msg.num_copies);
  put_u32(out, count);
  for (const EntityId e : msg.entities) put_u32(out, raw(e));
  seal(out, start, trace, checksummed);
}

Result<WireHeader> decode_header(std::span<const std::byte> datagram) {
  Reader r(datagram);
  std::uint32_t magic = 0, body_len = 0;
  std::uint8_t version = 0, type = 0;
  if (!r.u32(magic) || !r.u8(version) || !r.u8(type) || !r.u32(body_len)) {
    return Status::kInvalidArgument;
  }
  if (magic != kMagic) return Status::kInvalidArgument;
  if ((version & ~(kFlagTraced | kFlagChecksummed)) != kVersion) {
    return Status::kInvalidArgument;  // base version missing or an unknown bit set
  }
  const bool traced = (version & kFlagTraced) != 0;
  const bool checksummed = (version & kFlagChecksummed) != 0;
  if (type < 1 || type > kMaxWireType) return Status::kInvalidArgument;
  if (datagram.size() != kHeaderLen + (traced ? kTraceCtxBytes : 0) +
                             (checksummed ? kChecksumBytes : 0) + body_len) {
    return Status::kInvalidArgument;
  }
  return WireHeader{static_cast<WireType>(type), body_len, traced, checksummed};
}

Result<TraceContext> decode_trace_context(std::span<const std::byte> datagram) {
  const Result<WireHeader> h = decode_header(datagram);
  if (!h.has_value()) return h.status();
  if (!h.value().traced) return Status::kNotFound;
  Reader r(datagram.subspan(kHeaderLen, kTraceCtxBytes));
  TraceContext ctx;
  if (!r.u64(ctx.root) || !r.u64(ctx.parent)) return Status::kInvalidArgument;
  return ctx;
}

void encode(const CollectiveQuery& msg, std::vector<std::byte>& out,
            const TraceContext* trace, bool checksummed) {
  const std::size_t start = out.size();
  const auto words = static_cast<std::uint32_t>(msg.scope_words.size());
  put_header(out, WireType::kCollectiveQuery, 8 + 8 + 1 + 4 + words * 8, trace, checksummed);
  put_u64(out, msg.req_id);
  put_u64(out, msg.k);
  put_u8(out, msg.collect_hashes ? 1 : 0);
  put_u32(out, words);
  for (const std::uint64_t w : msg.scope_words) put_u64(out, w);
  seal(out, start, trace, checksummed);
}

void encode(const CollectiveReply& msg, std::vector<std::byte>& out,
            const TraceContext* trace, bool checksummed) {
  const std::size_t start = out.size();
  const auto count = static_cast<std::uint32_t>(msg.k_hashes.size());
  put_header(out, WireType::kCollectiveReply, 8 + 5 * 8 + 4 + count * 16, trace, checksummed);
  put_u64(out, msg.req_id);
  put_u64(out, msg.total);
  put_u64(out, msg.unique);
  put_u64(out, msg.intra);
  put_u64(out, msg.inter);
  put_u64(out, msg.k_count);
  put_u32(out, count);
  for (const ContentHash& h : msg.k_hashes) {
    put_u64(out, h.hi);
    put_u64(out, h.lo);
  }
  seal(out, start, trace, checksummed);
}

Result<CollectiveQuery> decode_collective_query(std::span<const std::byte> datagram) {
  Result<Body> body =
      open_body(datagram, WireType::kCollectiveQuery, WireType::kCollectiveQuery);
  if (!body.has_value()) return body.status();
  CollectiveQuery msg;
  Reader& r = body.value().reader;
  std::uint8_t collect = 0;
  std::uint32_t words = 0;
  if (!r.u64(msg.req_id) || !r.u64(msg.k) || !r.u8(collect) || !r.u32(words)) {
    return Status::kInvalidArgument;
  }
  if (words > 1u << 16) return Status::kInvalidArgument;  // 4M entities is plenty
  if (collect > 1) return Status::kInvalidArgument;  // non-canonical bool byte
  msg.collect_hashes = collect == 1;
  msg.scope_words.reserve(words);
  for (std::uint32_t i = 0; i < words; ++i) {
    std::uint64_t w = 0;
    if (!r.u64(w)) return Status::kInvalidArgument;
    msg.scope_words.push_back(w);
  }
  if (!r.done()) return Status::kInvalidArgument;
  return msg;
}

Result<CollectiveReply> decode_collective_reply(std::span<const std::byte> datagram) {
  Result<Body> body =
      open_body(datagram, WireType::kCollectiveReply, WireType::kCollectiveReply);
  if (!body.has_value()) return body.status();
  CollectiveReply msg;
  Reader& r = body.value().reader;
  std::uint32_t count = 0;
  if (!r.u64(msg.req_id) || !r.u64(msg.total) || !r.u64(msg.unique) || !r.u64(msg.intra) ||
      !r.u64(msg.inter) || !r.u64(msg.k_count) || !r.u32(count)) {
    return Status::kInvalidArgument;
  }
  if (count > 1u << 20) return Status::kInvalidArgument;
  msg.k_hashes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ContentHash h;
    if (!r.u64(h.hi) || !r.u64(h.lo)) return Status::kInvalidArgument;
    msg.k_hashes.push_back(h);
  }
  if (!r.done()) return Status::kInvalidArgument;
  return msg;
}

void encode(const ReplicaSync& msg, std::vector<std::byte>& out,
            const TraceContext* trace, bool checksummed) {
  assert(msg.records.size() <= kMaxDhtBatchRecords);
  const std::size_t start = out.size();
  const auto count = static_cast<std::uint16_t>(msg.records.size());
  put_header(out, WireType::kReplicaSync,
             static_cast<std::uint32_t>(kReplicaSyncFixedBytes +
                                        msg.records.size() * kDhtUpdateRecordBytes),
             trace, checksummed);
  put_u32(out, msg.home);
  put_u64(out, msg.epoch);
  put_u8(out, msg.last ? 1 : 0);
  put_u16(out, count);
  for (const DhtUpdate& rec : msg.records) {
    put_u8(out, rec.insert ? 1 : 0);
    put_u64(out, rec.hash.hi);
    put_u64(out, rec.hash.lo);
    put_u32(out, raw(rec.entity));
  }
  seal(out, start, trace, checksummed);
}

Result<ReplicaSync> decode_replica_sync(std::span<const std::byte> datagram) {
  Result<Body> body =
      open_body(datagram, WireType::kReplicaSync, WireType::kReplicaSync);
  if (!body.has_value()) return body.status();
  ReplicaSync msg;
  Reader& r = body.value().reader;
  std::uint8_t last = 0;
  std::uint16_t count = 0;
  if (!r.u32(msg.home) || !r.u64(msg.epoch) || !r.u8(last) || !r.u16(count)) {
    return Status::kInvalidArgument;
  }
  if (last > 1) return Status::kInvalidArgument;
  if (count > kMaxDhtBatchRecords) return Status::kInvalidArgument;
  msg.last = last == 1;
  msg.records.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    DhtUpdate rec;
    std::uint8_t op = 0;
    std::uint32_t entity = 0;
    if (!r.u8(op) || !r.u64(rec.hash.hi) || !r.u64(rec.hash.lo) || !r.u32(entity)) {
      return Status::kInvalidArgument;
    }
    if (op > 1) return Status::kInvalidArgument;
    rec.insert = op == 1;
    rec.entity = entity_id(entity);
    msg.records.push_back(rec);
  }
  if (!r.done()) return Status::kInvalidArgument;
  return msg;
}

Result<DhtUpdate> decode_dht_update(std::span<const std::byte> datagram) {
  Result<Body> body = open_body(datagram, WireType::kDhtInsert, WireType::kDhtRemove);
  if (!body.has_value()) return body.status();
  DhtUpdate msg;
  msg.insert = body.value().header.type == WireType::kDhtInsert;
  std::uint32_t entity = 0;
  Reader& r = body.value().reader;
  if (!r.u64(msg.hash.hi) || !r.u64(msg.hash.lo) || !r.u32(entity) || !r.done()) {
    return Status::kInvalidArgument;
  }
  msg.entity = entity_id(entity);
  return msg;
}

Result<DhtUpdateBatch> decode_dht_update_batch(std::span<const std::byte> datagram) {
  Result<Body> body =
      open_body(datagram, WireType::kDhtUpdateBatch, WireType::kDhtUpdateBatch);
  if (!body.has_value()) return body.status();
  DhtUpdateBatch msg;
  Reader& r = body.value().reader;
  std::uint16_t count = 0;
  if (!r.u16(count)) return Status::kInvalidArgument;
  if (count > kMaxDhtBatchRecords) return Status::kInvalidArgument;
  msg.records.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    DhtUpdate rec;
    std::uint8_t op = 0;
    std::uint32_t entity = 0;
    if (!r.u8(op) || !r.u64(rec.hash.hi) || !r.u64(rec.hash.lo) || !r.u32(entity)) {
      return Status::kInvalidArgument;
    }
    if (op > 1) return Status::kInvalidArgument;  // only insert/remove ops exist
    rec.insert = op == 1;
    rec.entity = entity_id(entity);
    msg.records.push_back(rec);
  }
  if (!r.done()) return Status::kInvalidArgument;
  return msg;
}

Result<Query> decode_query(std::span<const std::byte> datagram) {
  Result<Body> body =
      open_body(datagram, WireType::kNumCopiesQuery, WireType::kEntitiesQuery);
  if (!body.has_value()) return body.status();
  Query msg;
  msg.want_entities = body.value().header.type == WireType::kEntitiesQuery;
  Reader& r = body.value().reader;
  if (!r.u64(msg.req_id) || !r.u64(msg.hash.hi) || !r.u64(msg.hash.lo) || !r.done()) {
    return Status::kInvalidArgument;
  }
  return msg;
}

Result<QueryReply> decode_query_reply(std::span<const std::byte> datagram) {
  Result<Body> body = open_body(datagram, WireType::kQueryReply, WireType::kQueryReply);
  if (!body.has_value()) return body.status();
  QueryReply msg;
  Reader& r = body.value().reader;
  std::uint32_t count = 0;
  if (!r.u64(msg.req_id) || !r.u32(msg.num_copies) || !r.u32(count)) {
    return Status::kInvalidArgument;
  }
  if (count > 1u << 20) return Status::kInvalidArgument;  // sanity bound
  msg.entities.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t e = 0;
    if (!r.u32(e)) return Status::kInvalidArgument;
    msg.entities.push_back(entity_id(e));
  }
  if (!r.done()) return Status::kInvalidArgument;
  return msg;
}

}  // namespace concord::net::codec
