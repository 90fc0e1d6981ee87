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

/// Whether `type` names a WireType. The numbering has a gap (3-7 are retired),
/// so a range check would admit bytes no decoder reads.
[[nodiscard]] bool known_type(std::uint8_t type) {
  switch (static_cast<WireType>(type)) {
    case WireType::kDhtInsert:
    case WireType::kDhtRemove:
    case WireType::kDhtUpdateBatch:
    case WireType::kReplicaSync:
      return true;
  }
  return false;
}

/// Appends a u16 record count and the kDhtUpdateRecordBytes-layout records
/// shared by kDhtUpdateBatch and kReplicaSync bodies.
void put_records(std::vector<std::byte>& out, const std::vector<DhtUpdate>& records) {
  assert(records.size() <= kMaxDhtBatchRecords);
  put_u16(out, static_cast<std::uint16_t>(records.size()));
  for (const DhtUpdate& rec : records) {
    put_u8(out, rec.insert ? 1 : 0);
    put_u64(out, rec.hash.hi);
    put_u64(out, rec.hash.lo);
    put_u32(out, raw(rec.entity));
  }
}

/// Reads what put_records wrote, which must end the body exactly.
[[nodiscard]] bool read_records(Reader& r, std::vector<DhtUpdate>& records) {
  std::uint16_t count = 0;
  if (!r.u16(count) || count > kMaxDhtBatchRecords) return false;
  records.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    DhtUpdate rec;
    std::uint8_t op = 0;
    std::uint32_t entity = 0;
    if (!r.u8(op) || !r.u64(rec.hash.hi) || !r.u64(rec.hash.lo) || !r.u32(entity)) {
      return false;
    }
    if (op > 1) return false;  // only insert/remove ops exist
    rec.insert = op == 1;
    rec.entity = entity_id(entity);
    records.push_back(rec);
  }
  return r.done();
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
  const std::size_t start = out.size();
  put_header(out, WireType::kDhtUpdateBatch,
             static_cast<std::uint32_t>(kDhtUpdateBatchCountBytes +
                                        msg.records.size() * kDhtUpdateRecordBytes),
             trace, checksummed);
  put_records(out, msg.records);
  seal(out, start, trace, checksummed);
}

void encode(const ReplicaSync& msg, std::vector<std::byte>& out,
            const TraceContext* trace, bool checksummed) {
  const std::size_t start = out.size();
  put_header(out, WireType::kReplicaSync,
             static_cast<std::uint32_t>(kReplicaSyncFixedBytes +
                                        msg.records.size() * kDhtUpdateRecordBytes),
             trace, checksummed);
  put_u32(out, msg.home);
  put_u64(out, msg.epoch);
  put_u8(out, msg.last ? 1 : 0);
  put_records(out, msg.records);
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
  if (!known_type(type)) return Status::kInvalidArgument;
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
  if (!read_records(body.value().reader, msg.records)) return Status::kInvalidArgument;
  return msg;
}

Result<ReplicaSync> decode_replica_sync(std::span<const std::byte> datagram) {
  Result<Body> body = open_body(datagram, WireType::kReplicaSync, WireType::kReplicaSync);
  if (!body.has_value()) return body.status();
  ReplicaSync msg;
  Reader& r = body.value().reader;
  std::uint8_t last = 0;
  if (!r.u32(msg.home) || !r.u64(msg.epoch) || !r.u8(last) || last > 1) {
    return Status::kInvalidArgument;
  }
  msg.last = last == 1;
  if (!read_records(r, msg.records)) return Status::kInvalidArgument;
  return msg;
}

}  // namespace concord::net::codec
