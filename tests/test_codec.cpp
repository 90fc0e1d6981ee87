// Tests for the wire codec: encode/decode round trips and malformed-input
// rejection for every layout whose size the emulated fabric charges.
#include <gtest/gtest.h>

#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "common/rng.hpp"
#include "net/codec.hpp"
#include "net/message.hpp"

namespace concord::net {
namespace {

using codec::DhtUpdate;

TEST(Codec, DhtUpdateRoundTrip) {
  for (const bool insert : {true, false}) {
    std::vector<std::byte> wire;
    codec::encode(DhtUpdate{{0x1122334455667788ULL, 0x99aabbccddeeff00ULL},
                            entity_id(42), insert},
                  wire);
    const auto back = codec::decode_dht_update(wire);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back.value().hash, (ContentHash{0x1122334455667788ULL, 0x99aabbccddeeff00ULL}));
    EXPECT_EQ(back.value().entity, entity_id(42));
    EXPECT_EQ(back.value().insert, insert);
  }
}

TEST(Codec, RejectsMalformedInput) {
  // Truncated header.
  EXPECT_FALSE(codec::decode_header(std::vector<std::byte>(5)).has_value());

  // Wrong magic.
  std::vector<std::byte> wire;
  codec::encode(DhtUpdate{{1, 2}, entity_id(0), true}, wire);
  auto bad = wire;
  bad[0] = std::byte{0x00};
  EXPECT_FALSE(codec::decode_header(bad).has_value());

  // Length mismatch (truncated body).
  bad = wire;
  bad.pop_back();
  EXPECT_FALSE(codec::decode_header(bad).has_value());
  EXPECT_FALSE(codec::decode_dht_update(bad).has_value());

  // Type confusion: a single update is neither a batch nor a re-sync chunk.
  EXPECT_FALSE(codec::decode_dht_update_batch(wire).has_value());
  EXPECT_FALSE(codec::decode_replica_sync(wire).has_value());
}

TEST(Codec, DhtUpdateBatchRoundTrip) {
  codec::DhtUpdateBatch batch;
  for (std::uint32_t i = 0; i < 68; ++i) {
    batch.records.push_back(
        DhtUpdate{{0x1000 + i, 0x2000 + i}, entity_id(i % 7), (i % 3) != 0});
  }
  std::vector<std::byte> wire;
  codec::encode(batch, wire);
  EXPECT_EQ(wire.size(), codec::kHeaderLen + codec::kDhtUpdateBatchCountBytes +
                             batch.records.size() * codec::kDhtUpdateRecordBytes);
  const auto back = codec::decode_dht_update_batch(wire);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back.value().records.size(), batch.records.size());
  for (std::size_t i = 0; i < batch.records.size(); ++i) {
    EXPECT_EQ(back.value().records[i].hash, batch.records[i].hash);
    EXPECT_EQ(back.value().records[i].entity, batch.records[i].entity);
    EXPECT_EQ(back.value().records[i].insert, batch.records[i].insert);
  }
}

TEST(Codec, DhtUpdateBatchEmptyRoundTrip) {
  std::vector<std::byte> wire;
  codec::encode(codec::DhtUpdateBatch{}, wire);
  const auto back = codec::decode_dht_update_batch(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back.value().records.empty());
}

TEST(Codec, DhtUpdateBatchRejectsMalformed) {
  codec::DhtUpdateBatch batch;
  batch.records.push_back(DhtUpdate{{1, 2}, entity_id(3), true});
  batch.records.push_back(DhtUpdate{{4, 5}, entity_id(6), false});
  std::vector<std::byte> wire;
  codec::encode(batch, wire);
  ASSERT_TRUE(codec::decode_dht_update_batch(wire).has_value());

  // Truncated body (header length check catches it).
  auto bad = wire;
  bad.pop_back();
  EXPECT_FALSE(codec::decode_dht_update_batch(bad).has_value());

  // Op byte outside {0, 1}: first record's op sits right after the count.
  bad = wire;
  bad[codec::kHeaderLen + codec::kDhtUpdateBatchCountBytes] = std::byte{2};
  EXPECT_FALSE(codec::decode_dht_update_batch(bad).has_value());

  // Tampered count: fewer records claimed than present -> trailing bytes.
  bad = wire;
  bad[codec::kHeaderLen] = std::byte{1};
  EXPECT_FALSE(codec::decode_dht_update_batch(bad).has_value());

  // More records claimed than present -> reader runs dry.
  bad = wire;
  bad[codec::kHeaderLen] = std::byte{3};
  EXPECT_FALSE(codec::decode_dht_update_batch(bad).has_value());

  // Type confusion: a batch is not a single update, and vice versa.
  EXPECT_FALSE(codec::decode_dht_update(wire).has_value());
  std::vector<std::byte> single;
  codec::encode(DhtUpdate{{1, 2}, entity_id(3), true}, single);
  EXPECT_FALSE(codec::decode_dht_update_batch(single).has_value());
}

/// `wire`, an untraced unchecksummed datagram whose u16 record count sits at
/// byte `count_at`, grown by one more copy of its last record: the count and
/// the header's body length grow to match, so every byte is valid except the
/// count's bound. (Encoders assert the bound, so they cannot build this.)
std::vector<std::byte> with_extra_record(std::vector<std::byte> wire, std::size_t count_at) {
  const std::vector<std::byte> last(wire.end() - codec::kDhtUpdateRecordBytes, wire.end());
  wire.insert(wire.end(), last.begin(), last.end());
  const auto bump = [&](std::size_t at, std::size_t width, std::uint32_t by) {
    std::uint32_t v = 0;
    for (std::size_t i = width; i-- > 0;) v = (v << 8) | static_cast<std::uint32_t>(wire[at + i]);
    v += by;
    for (std::size_t i = 0; i < width; ++i) wire[at + i] = static_cast<std::byte>(v >> (8 * i));
  };
  bump(count_at, 2, 1);
  bump(6, 4, codec::kDhtUpdateRecordBytes);  // body_len follows magic, version, type
  return wire;
}

TEST(Codec, DhtUpdateBatchRejectsOversizeCount) {
  // A datagram whose self-consistent count exceeds the decoder's sanity
  // bound; every byte is valid except the bound itself.
  codec::DhtUpdateBatch batch;
  batch.records.resize(codec::kMaxDhtBatchRecords, DhtUpdate{{7, 8}, entity_id(0), true});
  std::vector<std::byte> wire;
  codec::encode(batch, wire);
  ASSERT_TRUE(codec::decode_dht_update_batch(wire).has_value());
  EXPECT_FALSE(
      codec::decode_dht_update_batch(with_extra_record(wire, codec::kHeaderLen)).has_value());
}

TEST(Codec, ReplicaSyncRoundTrip) {
  codec::ReplicaSync sync;
  sync.home = 5;
  sync.epoch = 0x1122334455667788ULL;
  sync.last = true;
  for (std::uint32_t i = 0; i < 37; ++i) {
    sync.records.push_back(
        DhtUpdate{{0x5000 + i, 0x6000 + i}, entity_id(i % 11), true});
  }
  std::vector<std::byte> wire;
  codec::encode(sync, wire);
  EXPECT_EQ(wire.size(), codec::kHeaderLen + codec::kReplicaSyncFixedBytes +
                             sync.records.size() * codec::kDhtUpdateRecordBytes);
  const auto back = codec::decode_replica_sync(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back.value().home, sync.home);
  EXPECT_EQ(back.value().epoch, sync.epoch);
  EXPECT_EQ(back.value().last, sync.last);
  ASSERT_EQ(back.value().records.size(), sync.records.size());
  for (std::size_t i = 0; i < sync.records.size(); ++i) {
    EXPECT_EQ(back.value().records[i].hash, sync.records[i].hash);
    EXPECT_EQ(back.value().records[i].entity, sync.records[i].entity);
    EXPECT_EQ(back.value().records[i].insert, sync.records[i].insert);
  }
}

TEST(Codec, ReplicaSyncEmptyChunkRoundTrip) {
  // An empty shard still streams one last-chunk marker so the target can
  // flip clean — the empty payload must survive the wire.
  codec::ReplicaSync sync;
  sync.home = 2;
  sync.epoch = 9;
  sync.last = true;
  std::vector<std::byte> wire;
  codec::encode(sync, wire);
  const auto back = codec::decode_replica_sync(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back.value().home, 2u);
  EXPECT_EQ(back.value().epoch, 9u);
  EXPECT_TRUE(back.value().last);
  EXPECT_TRUE(back.value().records.empty());
}

TEST(Codec, ReplicaSyncRejectsMalformed) {
  codec::ReplicaSync sync;
  sync.home = 1;
  sync.epoch = 2;
  sync.last = false;
  sync.records.push_back(DhtUpdate{{1, 2}, entity_id(3), true});
  std::vector<std::byte> wire;
  codec::encode(sync, wire);
  ASSERT_TRUE(codec::decode_replica_sync(wire).has_value());

  // Truncated body.
  auto bad = wire;
  bad.pop_back();
  EXPECT_FALSE(codec::decode_replica_sync(bad).has_value());

  // Last-chunk flag outside {0, 1}.
  bad = wire;
  bad[codec::kHeaderLen + 12] = std::byte{2};
  EXPECT_FALSE(codec::decode_replica_sync(bad).has_value());

  // Record op byte outside {0, 1}: first op sits after the fixed fields.
  bad = wire;
  bad[codec::kHeaderLen + codec::kReplicaSyncFixedBytes] = std::byte{2};
  EXPECT_FALSE(codec::decode_replica_sync(bad).has_value());

  // Tampered count in both directions.
  bad = wire;
  bad[codec::kHeaderLen + 13] = std::byte{0};
  EXPECT_FALSE(codec::decode_replica_sync(bad).has_value());
  bad = wire;
  bad[codec::kHeaderLen + 13] = std::byte{2};
  EXPECT_FALSE(codec::decode_replica_sync(bad).has_value());

  // Type confusion with the update batch.
  EXPECT_FALSE(codec::decode_dht_update_batch(wire).has_value());
  std::vector<std::byte> batch_wire;
  codec::encode(codec::DhtUpdateBatch{}, batch_wire);
  EXPECT_FALSE(codec::decode_replica_sync(batch_wire).has_value());
}

TEST(Codec, ReplicaSyncRejectsOversizeCount) {
  codec::ReplicaSync sync;
  sync.records.resize(codec::kMaxDhtBatchRecords, DhtUpdate{{7, 8}, entity_id(0), true});
  std::vector<std::byte> wire;
  codec::encode(sync, wire);
  ASSERT_TRUE(codec::decode_replica_sync(wire).has_value());
  // The count follows home (u32), epoch (u64) and the last flag (u8).
  EXPECT_FALSE(
      codec::decode_replica_sync(with_extra_record(wire, codec::kHeaderLen + 4 + 8 + 1))
          .has_value());
}

TEST(Codec, FuzzedBytesNeverDecode) {
  Rng rng(31337);
  int decoded = 0;
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::byte> junk(rng.below(64));
    for (auto& b : junk) b = static_cast<std::byte>(rng() & 0xff);
    if (codec::decode_header(junk).has_value()) ++decoded;
  }
  EXPECT_EQ(decoded, 0);  // magic + version + exact length gate random junk
}

// ------------------------------------------------- trace context (traced flag)

TEST(Codec, UntracedBytesAreByteIdenticalToVersion1) {
  // With tracing off (nullptr or an invalid context), the codec must emit
  // the exact pre-tracing version-1 layout — checked against a hand-built
  // datagram so a codec regression cannot hide behind its own decoder.
  const DhtUpdate msg{{0x1122334455667788ULL, 0x99aabbccddeeff00ULL}, entity_id(42), true};
  std::vector<std::byte> plain, null_ctx, invalid_ctx;
  codec::encode(msg, plain);
  codec::encode(msg, null_ctx, nullptr);
  const TraceContext empty{};  // root 0: invalid, must not set the traced flag
  codec::encode(msg, invalid_ctx, &empty);
  EXPECT_EQ(plain, null_ctx);
  EXPECT_EQ(plain, invalid_ctx);

  const std::uint8_t expect[] = {
      0x44, 0x43, 0x4e, 0x43,  // magic "CNCD", little-endian
      0x01,                    // version 1 (untraced)
      0x01,                    // kDhtInsert
      0x14, 0x00, 0x00, 0x00,  // body_len = 20
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // hash.hi LE
      0x00, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99,  // hash.lo LE
      0x2a, 0x00, 0x00, 0x00,  // entity 42
  };
  ASSERT_EQ(plain.size(), sizeof expect);
  for (std::size_t i = 0; i < sizeof expect; ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>(plain[i]), expect[i]) << "byte " << i;
  }
  const auto h = codec::decode_header(plain);
  ASSERT_TRUE(h.has_value());
  EXPECT_FALSE(h.value().traced);
  EXPECT_EQ(codec::decode_trace_context(plain).status(), Status::kNotFound);
}

TEST(Codec, TracedDatagramsRoundTripEveryType) {
  const TraceContext ctx{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  const auto check_ctx = [&](const std::vector<std::byte>& wire,
                             const std::vector<std::byte>& plain) {
    EXPECT_EQ(wire.size(), plain.size() + kTraceCtxBytes);
    const auto h = codec::decode_header(wire);
    ASSERT_TRUE(h.has_value());
    EXPECT_TRUE(h.value().traced);
    const auto back = codec::decode_trace_context(wire);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back.value(), ctx);
  };

  const DhtUpdate upd{{1, 2}, entity_id(3), false};
  std::vector<std::byte> wire, plain;
  codec::encode(upd, wire, &ctx);
  codec::encode(upd, plain);
  check_ctx(wire, plain);
  const auto upd_back = codec::decode_dht_update(wire);
  ASSERT_TRUE(upd_back.has_value());
  EXPECT_EQ(upd_back.value().hash, (ContentHash{1, 2}));
  EXPECT_FALSE(upd_back.value().insert);

  codec::DhtUpdateBatch batch;
  batch.records = {{{7, 8}, entity_id(1), true}, {{9, 10}, entity_id(2), false}};
  wire.clear(), plain.clear();
  codec::encode(batch, wire, &ctx);
  codec::encode(batch, plain);
  check_ctx(wire, plain);
  const auto batch_back = codec::decode_dht_update_batch(wire);
  ASSERT_TRUE(batch_back.has_value());
  ASSERT_EQ(batch_back.value().records.size(), 2u);
  EXPECT_EQ(batch_back.value().records[1].hash, (ContentHash{9, 10}));

  codec::ReplicaSync rs;
  rs.home = 1;
  rs.epoch = 2;
  rs.last = true;
  rs.records = {{{3, 4}, entity_id(5), true}};
  wire.clear(), plain.clear();
  codec::encode(rs, wire, &ctx);
  codec::encode(rs, plain);
  check_ctx(wire, plain);
  EXPECT_EQ(codec::decode_replica_sync(wire).value().home, 1u);
}

TEST(Codec, TracedTruncationNeverDecodes) {
  // Every proper prefix of a traced datagram must be rejected by the header
  // check (the length field covers header + context + body), the context
  // decoder, and the body decoder — truncation can't smuggle a partial
  // context through as payload bytes.
  const TraceContext ctx{42, 7};
  codec::DhtUpdateBatch batch;
  batch.records = {{{0xaaaa, 0xbbbb}, entity_id(9), true},
                   {{0xcccc, 0xdddd}, entity_id(10), false}};
  std::vector<std::byte> wire;
  codec::encode(batch, wire, &ctx);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const std::span<const std::byte> prefix(wire.data(), len);
    EXPECT_FALSE(codec::decode_header(prefix).has_value()) << "prefix " << len;
    EXPECT_FALSE(codec::decode_trace_context(prefix).has_value()) << "prefix " << len;
    EXPECT_FALSE(codec::decode_dht_update_batch(prefix).has_value()) << "prefix " << len;
  }
  EXPECT_TRUE(codec::decode_dht_update_batch(wire).has_value());
}

// ------------------------------------------------- truncation-fuzz fixtures
//
// Every wire struct registers one fixture: a representative message whose
// every proper byte prefix must be rejected by its decoder (the header's
// exact-length field makes truncation detectable), while the full datagram
// decodes. The CONCORD_TRUNC_FIXTURE(Struct, ...) token is also what
// `concord-lint --proto` (W1) requires for each codec struct named in
// net::kMsgTypeBindings — adding a wire struct without a fixture here fails
// the lint gate before it can fail in production.

struct TruncFixture {
  std::string_view struct_name;
  std::function<void()> run;
};

#define CONCORD_TRUNC_FIXTURE(Struct, decode_fn, ...)                           \
  TruncFixture {                                                                \
    #Struct, [] {                                                               \
      const codec::Struct msg = __VA_ARGS__;                                    \
      std::vector<std::byte> wire;                                              \
      codec::encode(msg, wire);                                                 \
      for (std::size_t len = 0; len < wire.size(); ++len) {                     \
        EXPECT_FALSE(codec::decode_fn(std::span<const std::byte>(wire.data(),   \
                                                                 len))          \
                         .has_value())                                          \
            << #Struct << " accepted a " << len << "-byte prefix";              \
      }                                                                         \
      EXPECT_TRUE(codec::decode_fn(wire).has_value())                           \
          << #Struct << " full datagram must decode";                           \
    }                                                                           \
  }

const TruncFixture kTruncFixtures[] = {
    CONCORD_TRUNC_FIXTURE(DhtUpdate, decode_dht_update,
                          DhtUpdate{{0x1111, 0x2222}, entity_id(3), true}),
    CONCORD_TRUNC_FIXTURE(DhtUpdateBatch, decode_dht_update_batch, [] {
      codec::DhtUpdateBatch b;
      b.records = {{{1, 2}, entity_id(3), true}, {{4, 5}, entity_id(6), false}};
      return b;
    }()),
    CONCORD_TRUNC_FIXTURE(ReplicaSync, decode_replica_sync, [] {
      codec::ReplicaSync s;
      s.home = 1;
      s.epoch = 2;
      s.last = true;
      s.records = {{{3, 4}, entity_id(5), true}};
      return s;
    }()),
};

TEST(Codec, TruncationFuzzEveryWireStruct) {
  for (const TruncFixture& f : kTruncFixtures) {
    SCOPED_TRACE(std::string(f.struct_name));
    f.run();
  }
}

// ----------------------------------------------- checksum leg (checksummed flag)

TEST(Codec, ChecksumFlagOffIsByteIdentical) {
  // The default-off invariant: not asking for a checksum must emit the exact
  // same bytes as a build that has never heard of checksums.
  const DhtUpdate msg{{0x1111, 0x2222}, entity_id(3), true};
  std::vector<std::byte> plain, off;
  codec::encode(msg, plain);
  codec::encode(msg, off, nullptr, /*checksummed=*/false);
  EXPECT_EQ(plain, off);
}

TEST(Codec, ChecksummedRoundTripEveryType) {
  // Every wire struct encoded with the checksum leg grows by exactly the
  // checksum, advertises the flag in its header, and still round-trips.
  const auto check = [](const std::vector<std::byte>& wire,
                        const std::vector<std::byte>& plain) {
    EXPECT_EQ(wire.size(), plain.size() + codec::kChecksumBytes);
    const auto h = codec::decode_header(wire);
    ASSERT_TRUE(h.has_value());
    EXPECT_TRUE(h.value().checksummed);
    EXPECT_FALSE(h.value().traced);
  };

  const DhtUpdate upd{{1, 2}, entity_id(3), false};
  std::vector<std::byte> wire, plain;
  codec::encode(upd, wire, nullptr, true);
  codec::encode(upd, plain);
  check(wire, plain);
  ASSERT_TRUE(codec::decode_dht_update(wire).has_value());
  EXPECT_EQ(codec::decode_dht_update(wire).value().hash, (ContentHash{1, 2}));

  codec::DhtUpdateBatch batch;
  batch.records = {{{7, 8}, entity_id(1), true}, {{9, 10}, entity_id(2), false}};
  wire.clear(), plain.clear();
  codec::encode(batch, wire, nullptr, true);
  codec::encode(batch, plain);
  check(wire, plain);
  ASSERT_TRUE(codec::decode_dht_update_batch(wire).has_value());
  EXPECT_EQ(codec::decode_dht_update_batch(wire).value().records.size(), 2u);

  codec::ReplicaSync rs;
  rs.home = 1;
  rs.epoch = 2;
  rs.last = true;
  rs.records = {{{3, 4}, entity_id(5), true}};
  wire.clear(), plain.clear();
  codec::encode(rs, wire, nullptr, true);
  codec::encode(rs, plain);
  check(wire, plain);
  EXPECT_EQ(codec::decode_replica_sync(wire).value().home, 1u);
}

TEST(Codec, ChecksummedAndTracedCompose) {
  // Both flags: trace context and checksum stack; both optional legs cost
  // their exact documented bytes and both decode.
  const TraceContext ctx{0xaaaabbbbccccddddULL, 0x1111222233334444ULL};
  const DhtUpdate msg{{21, 22}, entity_id(7), true};
  std::vector<std::byte> wire, plain;
  codec::encode(msg, wire, &ctx, true);
  codec::encode(msg, plain);
  EXPECT_EQ(wire.size(), plain.size() + kTraceCtxBytes + codec::kChecksumBytes);
  const auto h = codec::decode_header(wire);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(h.value().traced);
  EXPECT_TRUE(h.value().checksummed);
  EXPECT_EQ(codec::decode_trace_context(wire).value(), ctx);
  const auto back = codec::decode_dht_update(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back.value().hash, (ContentHash{21, 22}));
}

// ------------------------------------------------- corruption-fuzz fixtures
//
// The byte-flip twin of the truncation fixtures: for every wire struct, a
// corrupted datagram must either be rejected by its decoder or decode to a
// *different* message (re-encoding proves it) — silently absorbing a flip
// as the original message is the one forbidden outcome, and nothing may
// crash under ASan/UBSan. With the checksum leg on, every single-bit flip
// must be rejected outright.

struct CorruptFixture {
  std::string_view struct_name;
  std::function<void()> run;
};

#define CONCORD_CORRUPT_FIXTURE(Struct, decode_fn, ...)                          \
  CorruptFixture {                                                               \
    #Struct, [] {                                                                \
      const codec::Struct msg = __VA_ARGS__;                                     \
      std::vector<std::byte> clean;                                              \
      codec::encode(msg, clean);                                                 \
      Rng rng(0xc0de0000ULL + clean.size());                                     \
      for (int it = 0; it < 400; ++it) {                                         \
        auto bad = clean;                                                        \
        const auto flips = 1 + rng.below(3);                                     \
        for (std::uint64_t f = 0; f < flips; ++f) {                              \
          bad[rng.below(bad.size())] ^=                                          \
              static_cast<std::byte>(1u << rng.below(8));                        \
        }                                                                        \
        if (bad == clean) continue;                                              \
        const auto back = codec::decode_fn(bad);                                 \
        if (!back.has_value()) continue; /* rejected: fine */                    \
        std::vector<std::byte> re;                                               \
        codec::encode(back.value(), re);                                         \
        EXPECT_NE(re, clean)                                                     \
            << #Struct << " silently absorbed a corrupting flip (iter " << it    \
            << ")";                                                              \
      }                                                                          \
      /* Checksummed: exhaustive single-bit flips are all detected. */           \
      std::vector<std::byte> sealed;                                             \
      codec::encode(msg, sealed, nullptr, true);                                 \
      ASSERT_EQ(sealed.size(), clean.size() + codec::kChecksumBytes);            \
      for (std::size_t pos = 0; pos < sealed.size(); ++pos) {                    \
        for (unsigned bit = 0; bit < 8; ++bit) {                                 \
          auto bad = sealed;                                                     \
          bad[pos] ^= static_cast<std::byte>(1u << bit);                         \
          EXPECT_FALSE(codec::decode_fn(bad).has_value())                        \
              << #Struct << " byte " << pos << " bit " << bit                    \
              << " slipped past the checksum";                                   \
        }                                                                        \
      }                                                                          \
    }                                                                            \
  }

const CorruptFixture kCorruptFixtures[] = {
    CONCORD_CORRUPT_FIXTURE(DhtUpdate, decode_dht_update,
                            DhtUpdate{{0x1111, 0x2222}, entity_id(3), true}),
    CONCORD_CORRUPT_FIXTURE(DhtUpdateBatch, decode_dht_update_batch, [] {
      codec::DhtUpdateBatch b;
      b.records = {{{1, 2}, entity_id(3), true}, {{4, 5}, entity_id(6), false}};
      return b;
    }()),
    CONCORD_CORRUPT_FIXTURE(ReplicaSync, decode_replica_sync, [] {
      codec::ReplicaSync s;
      s.home = 1;
      s.epoch = 2;
      s.last = true;
      s.records = {{{3, 4}, entity_id(5), true}};
      return s;
    }()),
};

TEST(Codec, CorruptionFuzzEveryWireStruct) {
  for (const CorruptFixture& f : kCorruptFixtures) {
    SCOPED_TRACE(std::string(f.struct_name));
    f.run();
  }
}

TEST(Codec, CorruptionFixturesCoverEveryBoundStruct) {
  // Same coverage gate as the truncation twin: every codec struct named in
  // the binding table must have a corruption fixture.
  for (std::size_t i = 0; i < kNumMsgTypes; ++i) {
    const MsgTypeBinding& b = binding(static_cast<MsgType>(i));
    if (b.codec_struct.empty()) continue;
    bool covered = false;
    for (const CorruptFixture& f : kCorruptFixtures) {
      if (f.struct_name == b.codec_struct) covered = true;
    }
    EXPECT_TRUE(covered) << "MsgType::" << to_string(static_cast<MsgType>(i))
                         << " binds codec struct " << b.codec_struct
                         << " but no CONCORD_CORRUPT_FIXTURE covers it";
  }
}

TEST(Codec, BindingTableCoversEveryMsgType) {
  // Walk every MsgType value through the protocol ground-truth table: the
  // row must self-index, carry a real label, agree on the control-plane
  // flag, and — when it names a codec struct — that struct must have a
  // truncation fixture above. This is the runtime twin of the lint W1 pass.
  for (std::size_t i = 0; i < kNumMsgTypes; ++i) {
    const MsgType t = static_cast<MsgType>(i);
    const MsgTypeBinding& b = binding(t);
    EXPECT_EQ(b.type, t);
    EXPECT_NE(to_string(t), "unknown");
    EXPECT_EQ(b.control_plane, is_control_plane(t));
    if (b.codec_struct.empty()) continue;
    bool covered = false;
    for (const TruncFixture& f : kTruncFixtures) {
      if (f.struct_name == b.codec_struct) covered = true;
    }
    EXPECT_TRUE(covered) << "MsgType::" << to_string(t) << " binds codec struct "
                         << b.codec_struct << " but no CONCORD_TRUNC_FIXTURE covers it";
  }
}

// ------------------------------------------------- version byte flag bits

/// Offsets of the version byte (after the 4-byte magic) and the type byte.
constexpr std::size_t kVersionOffset = 4;
constexpr std::size_t kTypeOffset = 5;

/// One wire type's sample message: `encode` emits it under the given legs;
/// `reencode` decodes a datagram and encodes the result under the same legs
/// (empty when the decoder rejects the datagram).
struct FlagCase {
  std::string_view name;
  std::function<std::vector<std::byte>(const TraceContext*, bool)> encode;
  std::function<std::vector<std::byte>(const std::vector<std::byte>&, const TraceContext*, bool)>
      reencode;
};

template <typename Msg, typename Decode>
FlagCase flag_case(std::string_view name, Msg msg, Decode decode) {
  return FlagCase{name,
                  [msg](const TraceContext* trace, bool checksummed) {
                    std::vector<std::byte> out;
                    codec::encode(msg, out, trace, checksummed);
                    return out;
                  },
                  [decode](const std::vector<std::byte>& wire, const TraceContext* trace,
                           bool checksummed) {
                    std::vector<std::byte> out;
                    const auto back = decode(wire);
                    if (back.has_value()) codec::encode(back.value(), out, trace, checksummed);
                    return out;
                  }};
}

/// A sample of every WireType.
std::vector<FlagCase> flag_cases() {
  codec::DhtUpdateBatch batch;
  batch.records = {{{7, 8}, entity_id(1), true}, {{9, 10}, entity_id(2), false}};
  codec::ReplicaSync rs;
  rs.home = 1;
  rs.epoch = 2;
  rs.last = true;
  rs.records = {{{3, 4}, entity_id(5), true}};
  return {
      flag_case("insert", DhtUpdate{{1, 2}, entity_id(3), true}, codec::decode_dht_update),
      flag_case("remove", DhtUpdate{{1, 2}, entity_id(3), false}, codec::decode_dht_update),
      flag_case("update_batch", batch, codec::decode_dht_update_batch),
      flag_case("replica_sync", rs, codec::decode_replica_sync),
  };
}

TEST(Codec, EveryFlagCombinationRoundTripsEveryWireType) {
  const TraceContext ctx{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  for (const FlagCase& fc : flag_cases()) {
    const std::size_t plain_size = fc.encode(nullptr, false).size();
    for (const bool traced : {false, true}) {
      for (const bool checksummed : {false, true}) {
        SCOPED_TRACE(std::string(fc.name) + " traced=" + std::to_string(traced) +
                     " checksummed=" + std::to_string(checksummed));
        const TraceContext* trace = traced ? &ctx : nullptr;
        const std::vector<std::byte> wire = fc.encode(trace, checksummed);
        EXPECT_EQ(static_cast<unsigned>(wire[kVersionOffset]),
                  1u | (traced ? 2u : 0u) | (checksummed ? 4u : 0u));
        EXPECT_EQ(wire.size(), plain_size + (traced ? kTraceCtxBytes : 0) +
                                   (checksummed ? codec::kChecksumBytes : 0));
        const auto h = codec::decode_header(wire);
        ASSERT_TRUE(h.has_value());
        EXPECT_EQ(h.value().traced, traced);
        EXPECT_EQ(h.value().checksummed, checksummed);
        EXPECT_EQ(fc.reencode(wire, trace, checksummed), wire);
        if (traced) {
          EXPECT_EQ(codec::decode_trace_context(wire).value(), ctx);
        }
      }
    }
  }
}

TEST(Codec, UnknownVersionBitsAreRejected) {
  const TraceContext ctx{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  for (const FlagCase& fc : flag_cases()) {
    for (const bool traced : {false, true}) {
      for (const bool checksummed : {false, true}) {
        SCOPED_TRACE(std::string(fc.name) + " traced=" + std::to_string(traced) +
                     " checksummed=" + std::to_string(checksummed));
        const TraceContext* trace = traced ? &ctx : nullptr;
        const std::vector<std::byte> wire = fc.encode(trace, checksummed);
        for (unsigned bit = 3; bit < 8; ++bit) {
          std::vector<std::byte> bad = wire;
          bad[kVersionOffset] |= static_cast<std::byte>(1u << bit);
          EXPECT_FALSE(codec::decode_header(bad).has_value()) << "bit " << bit;
          EXPECT_TRUE(fc.reencode(bad, trace, checksummed).empty()) << "bit " << bit;
        }
        std::vector<std::byte> no_base = wire;
        no_base[kVersionOffset] &= ~std::byte{1};
        EXPECT_FALSE(codec::decode_header(no_base).has_value());
        EXPECT_TRUE(fc.reencode(no_base, trace, checksummed).empty());
      }
    }
  }
}

TEST(Codec, RetiredWireTypesAreRejected) {
  // Type bytes 3-7 once named node-wise and collective query datagrams. A
  // header carrying one, valid in every other field, must be rejected; the
  // same header with a live type byte decodes, so only the type is at fault.
  std::vector<std::byte> wire;
  codec::encode(DhtUpdate{{1, 2}, entity_id(3), true}, wire);
  const auto with_type = [&](unsigned type) {
    std::vector<std::byte> out = wire;
    out[kTypeOffset] = static_cast<std::byte>(type);
    return out;
  };
  for (const unsigned live : {1u, 2u, 8u, 9u}) {
    EXPECT_TRUE(codec::decode_header(with_type(live)).has_value()) << "type " << live;
  }
  for (unsigned retired = 3; retired <= 7; ++retired) {
    EXPECT_FALSE(codec::decode_header(with_type(retired)).has_value()) << "type " << retired;
  }
  for (const unsigned unknown : {0u, 10u, 255u}) {
    EXPECT_FALSE(codec::decode_header(with_type(unknown)).has_value()) << "type " << unknown;
  }
}

}  // namespace
}  // namespace concord::net
