// Tests for the content-aware service command engine (§4): phase ordering,
// coverage invariants, replica retry on staleness, batch mode, select
// callback, participant entities, and an independent rehash of everything
// the engine hands a service.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "hash/block_hasher.hpp"
#include "services/null_service.hpp"
#include "svc/command_engine.hpp"
#include "workload/workloads.hpp"

namespace concord::svc {
namespace {

constexpr std::size_t kBlk = 256;

std::unique_ptr<core::Cluster> make_cluster(std::uint32_t nodes, std::uint64_t seed = 42,
                                            double loss = 0.0,
                                            mem::DetectMode mode = mem::DetectMode::kFullScan) {
  core::ClusterParams p;
  p.num_nodes = nodes;
  p.max_entities = 64;
  p.seed = seed;
  p.fabric.loss_rate = loss;
  p.detect_mode = mode;
  return std::make_unique<core::Cluster>(p);
}

EntityId add_entity(core::Cluster& c, std::uint32_t node, workload::Kind kind,
                    std::uint64_t seed, std::size_t blocks = 32) {
  mem::MemoryEntity& e = c.create_entity(node_id(node), EntityKind::kProcess, blocks, kBlk);
  auto wp = workload::defaults_for(kind, seed);
  wp.pool_pages = 64;
  workload::fill(e, wp);
  return e.id();
}

/// Records every callback invocation so protocol-order invariants can be
/// asserted.
class RecordingService : public ApplicationService {
 public:
  enum Event {
    kInit,
    kCollStart,
    kCollCmd,
    kCollFin,
    kLocalStart,
    kLocalCmd,
    kLocalFin,
    kDeinit
  };
  std::vector<Event> events;
  std::set<ContentHash> collective_hashes;
  std::uint64_t local_cmds = 0;
  std::uint64_t local_handled = 0;
  std::vector<Role> start_roles;

  Status service_init(NodeId, Mode, const Config&) override {
    events.push_back(kInit);
    return Status::kOk;
  }
  Status collective_start(NodeId, Role role, EntityId, std::span<const ContentHash>) override {
    events.push_back(kCollStart);
    start_roles.push_back(role);
    return Status::kOk;
  }
  Result<std::uint64_t> collective_command(NodeId, EntityId, const ContentHash& h,
                                           std::span<const std::byte>) override {
    events.push_back(kCollCmd);
    EXPECT_TRUE(collective_hashes.insert(h).second) << "hash driven twice: " << h.to_string();
    return std::uint64_t{7};
  }
  Status collective_finalize(NodeId, Role, EntityId) override {
    events.push_back(kCollFin);
    return Status::kOk;
  }
  Status local_start(NodeId, EntityId) override {
    events.push_back(kLocalStart);
    return Status::kOk;
  }
  Status local_command(NodeId, EntityId, BlockIndex, const ContentHash&,
                       std::span<const std::byte>, const std::uint64_t* handled) override {
    events.push_back(kLocalCmd);
    ++local_cmds;
    if (handled != nullptr) {
      EXPECT_EQ(*handled, 7u);
      ++local_handled;
    }
    return Status::kOk;
  }
  Status local_finalize(NodeId, EntityId) override {
    events.push_back(kLocalFin);
    return Status::kOk;
  }
  Status service_deinit(NodeId) override {
    events.push_back(kDeinit);
    return Status::kOk;
  }
};

TEST(CommandEngine, PhasesRunInOrder) {
  auto c = make_cluster(4);
  const EntityId a = add_entity(*c, 0, workload::Kind::kMoldy, 1);
  const EntityId b = add_entity(*c, 1, workload::Kind::kMoldy, 2);
  (void)c->scan_all();

  RecordingService svc;
  CommandEngine engine(*c);
  CommandSpec spec;
  spec.service_entities = {a, b};
  const CommandStats stats = engine.execute(svc, spec);
  ASSERT_TRUE(ok(stats.status));

  // Strict phase ordering: no callback of a later phase may precede one of
  // an earlier phase.
  const auto first = [&](RecordingService::Event e) {
    for (std::size_t i = 0; i < svc.events.size(); ++i) {
      if (svc.events[i] == e) return static_cast<std::ptrdiff_t>(i);
    }
    return static_cast<std::ptrdiff_t>(-1);
  };
  const auto last = [&](RecordingService::Event e) {
    std::ptrdiff_t at = -1;
    for (std::size_t i = 0; i < svc.events.size(); ++i) {
      if (svc.events[i] == e) at = static_cast<std::ptrdiff_t>(i);
    }
    return at;
  };
  EXPECT_LT(last(RecordingService::kInit), first(RecordingService::kCollStart));
  EXPECT_LT(last(RecordingService::kCollStart), first(RecordingService::kCollCmd));
  EXPECT_LT(last(RecordingService::kCollCmd), first(RecordingService::kCollFin));
  EXPECT_LT(last(RecordingService::kCollFin), first(RecordingService::kLocalStart));
  EXPECT_LT(last(RecordingService::kLocalCmd), first(RecordingService::kDeinit));
  EXPECT_GT(stats.latency(), 0);
}

TEST(CommandEngine, LocalPhaseCoversEveryBlockExactlyOnce) {
  auto c = make_cluster(4);
  std::vector<EntityId> ses;
  std::size_t total_blocks = 0;
  for (std::uint32_t n = 0; n < 4; ++n) {
    ses.push_back(add_entity(*c, n, workload::Kind::kMoldy, n + 1, 24));
    total_blocks += 24;
  }
  (void)c->scan_all();

  RecordingService svc;
  CommandEngine engine(*c);
  CommandSpec spec;
  spec.service_entities = ses;
  const CommandStats stats = engine.execute(svc, spec);
  ASSERT_TRUE(ok(stats.status));
  EXPECT_EQ(svc.local_cmds, total_blocks);
  EXPECT_EQ(stats.local_blocks, total_blocks);
  EXPECT_EQ(stats.local_covered + stats.local_uncovered, total_blocks);
}

TEST(CommandEngine, FreshScanNoLossMeansFullCoverage) {
  auto c = make_cluster(4);
  std::vector<EntityId> ses;
  for (std::uint32_t n = 0; n < 4; ++n) {
    ses.push_back(add_entity(*c, n, workload::Kind::kMoldy, n + 10, 24));
  }
  (void)c->scan_all();

  RecordingService svc;
  CommandEngine engine(*c);
  CommandSpec spec;
  spec.service_entities = ses;
  const CommandStats stats = engine.execute(svc, spec);
  ASSERT_TRUE(ok(stats.status));
  // With a fresh DHT and no datagram loss, every distinct hash is handled
  // collectively, no replica goes stale, and every block resolves.
  EXPECT_EQ(stats.collective_stale, 0u);
  EXPECT_EQ(stats.collective_handled, stats.distinct_hashes);
  EXPECT_EQ(stats.local_uncovered, 0u);
}

TEST(CommandEngine, StaleDhtStillCorrectViaLocalPhase) {
  auto c = make_cluster(4, 77);
  std::vector<EntityId> ses;
  for (std::uint32_t n = 0; n < 4; ++n) {
    ses.push_back(add_entity(*c, n, workload::Kind::kMoldy, n + 20, 24));
  }
  (void)c->scan_all();
  // Mutate memory *after* the scan: the DHT now advertises stale hashes and
  // misses the new content.
  for (const EntityId e : ses) workload::mutate(c->entity(e), 0.5, 1234);

  RecordingService svc;
  CommandEngine engine(*c);
  CommandSpec spec;
  spec.service_entities = ses;
  const CommandStats stats = engine.execute(svc, spec);
  ASSERT_TRUE(ok(stats.status));
  EXPECT_GT(stats.collective_stale, 0u);     // stale entries detected
  EXPECT_GT(stats.local_uncovered, 0u);      // new content handled locally
  EXPECT_EQ(stats.local_blocks, 4u * 24u);   // but every block still covered
}

TEST(CommandEngine, UpdateLossDegradesCoverageNotCorrectness) {
  auto c = make_cluster(4, 5, /*loss=*/0.4);
  std::vector<EntityId> ses;
  for (std::uint32_t n = 0; n < 4; ++n) {
    ses.push_back(add_entity(*c, n, workload::Kind::kMoldy, n + 30, 24));
  }
  (void)c->scan_all();  // many updates dropped

  RecordingService svc;
  CommandEngine engine(*c);
  CommandSpec spec;
  spec.service_entities = ses;
  const CommandStats stats = engine.execute(svc, spec);
  ASSERT_TRUE(ok(stats.status));
  EXPECT_EQ(stats.local_blocks, 4u * 24u);  // correctness invariant holds
}

TEST(CommandEngine, ParticipantsContributeReplicasButAreNotCheckpointed) {
  auto c = make_cluster(2, 3);
  // SE on node 0 and an identical-content PE on node 1.
  mem::MemoryEntity& se = c->create_entity(node_id(0), EntityKind::kProcess, 16, kBlk);
  mem::MemoryEntity& pe = c->create_entity(node_id(1), EntityKind::kProcess, 16, kBlk);
  auto wp = workload::defaults_for(workload::Kind::kRandom, 9);
  workload::fill(se, wp);
  for (BlockIndex b = 0; b < 16; ++b) {
    pe.write_block(b, se.block(b));  // byte-identical copy
  }
  (void)c->scan_all();

  RecordingService svc;
  CommandEngine engine(*c);
  CommandSpec spec;
  spec.service_entities = {se.id()};
  spec.participants = {pe.id()};
  const CommandStats stats = engine.execute(svc, spec);
  ASSERT_TRUE(ok(stats.status));

  // Both roles saw collective_start; only the SE ran the local phase.
  EXPECT_EQ(svc.start_roles.size(), 2u);
  EXPECT_EQ(stats.local_blocks, 16u);
  EXPECT_EQ(svc.local_cmds, 16u);
}

TEST(CommandEngine, CollectiveSelectIsHonored) {
  class SelectingService final : public RecordingService {
   public:
    EntityId preferred{};
    std::vector<EntityId> commanded;
    std::optional<EntityId> collective_select(NodeId, const ContentHash&,
                                              std::span<const EntityId> candidates) override {
      for (const EntityId e : candidates) {
        if (e == preferred) return preferred;
      }
      return std::nullopt;
    }
    Result<std::uint64_t> collective_command(NodeId n, EntityId e, const ContentHash& h,
                                             std::span<const std::byte> d) override {
      commanded.push_back(e);
      return RecordingService::collective_command(n, e, h, d);
    }
  };

  auto c = make_cluster(2, 3);
  mem::MemoryEntity& a = c->create_entity(node_id(0), EntityKind::kProcess, 8, kBlk);
  mem::MemoryEntity& b = c->create_entity(node_id(1), EntityKind::kProcess, 8, kBlk);
  workload::fill(a, workload::defaults_for(workload::Kind::kRandom, 4));
  for (BlockIndex i = 0; i < 8; ++i) b.write_block(i, a.block(i));
  (void)c->scan_all();

  SelectingService svc;
  svc.preferred = b.id();
  CommandEngine engine(*c);
  CommandSpec spec;
  spec.service_entities = {a.id()};
  spec.participants = {b.id()};
  const CommandStats stats = engine.execute(svc, spec);
  ASSERT_TRUE(ok(stats.status));
  ASSERT_FALSE(svc.commanded.empty());
  for (const EntityId e : svc.commanded) EXPECT_EQ(e, b.id());
  EXPECT_EQ(stats.collective_handled, stats.distinct_hashes);
}

TEST(CommandEngine, BatchAndInteractiveTouchTheSameData) {
  for (const Mode mode : {Mode::kInteractive, Mode::kBatch}) {
    auto c = make_cluster(4, 6);
    std::vector<EntityId> ses;
    for (std::uint32_t n = 0; n < 4; ++n) {
      ses.push_back(add_entity(*c, n, workload::Kind::kMoldy, n + 40, 16));
    }
    (void)c->scan_all();

    services::NullService null;
    CommandEngine engine(*c);
    CommandSpec spec;
    spec.service_entities = ses;
    spec.mode = mode;
    const CommandStats stats = engine.execute(null, spec);
    ASSERT_TRUE(ok(stats.status));
    // Collective phase touches each distinct block once; local phase every
    // block once.
    EXPECT_EQ(null.bytes_touched(),
              (stats.collective_handled + stats.local_blocks) * kBlk);
  }
}

TEST(CommandEngine, EmptyScopeCompletesTrivially) {
  auto c = make_cluster(2);
  RecordingService svc;
  CommandEngine engine(*c);
  const CommandStats stats = engine.execute(svc, CommandSpec{});
  EXPECT_TRUE(ok(stats.status));
  EXPECT_EQ(stats.distinct_hashes, 0u);
  EXPECT_TRUE(svc.events.empty());
}

TEST(CommandEngine, DepartedReplicaTriggersRetry) {
  auto c = make_cluster(3, 8);
  // Three entities share all content; the DHT will offer all three as
  // replicas. Depart one after the scan without scrubbing the DHT (simulate
  // the scrub datagrams being lost) so the engine must retry past it.
  core::ClusterParams loss_params;
  mem::MemoryEntity& a = c->create_entity(node_id(0), EntityKind::kProcess, 8, kBlk);
  mem::MemoryEntity& b = c->create_entity(node_id(1), EntityKind::kProcess, 8, kBlk);
  mem::MemoryEntity& d = c->create_entity(node_id(2), EntityKind::kProcess, 8, kBlk);
  (void)loss_params;
  workload::fill(a, workload::defaults_for(workload::Kind::kRandom, 15));
  for (BlockIndex i = 0; i < 8; ++i) {
    b.write_block(i, a.block(i));
    d.write_block(i, a.block(i));
  }
  (void)c->scan_all();
  // Depart b but keep its DHT entries: registry says dead, DHT says alive.
  c->registry().deregister(b.id());

  RecordingService svc;
  CommandEngine engine(*c);
  CommandSpec spec;
  spec.service_entities = {a.id()};
  spec.participants = {d.id()};
  const CommandStats stats = engine.execute(svc, spec);
  ASSERT_TRUE(ok(stats.status));
  EXPECT_EQ(stats.collective_handled, stats.distinct_hashes);  // a or d served all
  EXPECT_EQ(stats.local_uncovered, 0u);
}

/// Independent oracle: rehashes every (hash, data) pair the engine hands
/// out, in both phases, with its own BlockHasher, and counts mismatches. It
/// also records what the local phase said about each SE block, so coverage
/// and the hash of rewritten blocks can be checked.
class VerifyingService : public RecordingService {
 public:
  struct LocalSeen {
    int calls = 0;
    ContentHash hash;
    bool handled = false;
  };
  hash::BlockHasher oracle{hash::Algorithm::kMd5};
  std::uint64_t mismatches = 0;
  std::set<EntityId> commanded;  // entities collective_command() ran on
  std::map<std::pair<std::uint32_t, BlockIndex>, LocalSeen> local_seen;

  Result<std::uint64_t> collective_command(NodeId n, EntityId e, const ContentHash& h,
                                           std::span<const std::byte> d) override {
    if (oracle(d) != h) ++mismatches;
    commanded.insert(e);
    return RecordingService::collective_command(n, e, h, d);
  }
  Status local_command(NodeId n, EntityId e, BlockIndex b, const ContentHash& h,
                       std::span<const std::byte> d, const std::uint64_t* handled) override {
    if (oracle(d) != h) ++mismatches;
    LocalSeen& seen = local_seen[{raw(e), b}];
    ++seen.calls;
    seen.hash = h;
    seen.handled = handled != nullptr;
    return RecordingService::local_command(n, e, b, h, d, handled);
  }
};

TEST(CommandEngine, OracleAgreesOnStaleDht) {
  auto c = make_cluster(4, 77);
  std::vector<EntityId> ses;
  for (std::uint32_t n = 0; n < 4; ++n) {
    ses.push_back(add_entity(*c, n, workload::Kind::kMoldy, n + 20, 24));
  }
  // A participant holding a copy of the first SE: its replicas, stale or
  // not, go through the single-block verification path, the SEs' through
  // the batched pass.
  mem::MemoryEntity& copy = c->create_entity(node_id(1), EntityKind::kProcess, 24, kBlk);
  for (BlockIndex b = 0; b < 24; ++b) copy.write_block(b, c->entity(ses[0]).block(b));
  const EntityId pe = copy.id();
  (void)c->scan_all();
  for (const EntityId e : ses) workload::mutate(c->entity(e), 0.5, 1234);
  workload::mutate(c->entity(pe), 0.5, 4321);

  VerifyingService svc;
  CommandEngine engine(*c);
  CommandSpec spec;
  spec.service_entities = ses;
  spec.participants = {pe};
  const CommandStats stats = engine.execute(svc, spec);
  ASSERT_TRUE(ok(stats.status));
  EXPECT_EQ(svc.mismatches, 0u);
  EXPECT_TRUE(svc.commanded.contains(pe));
  EXPECT_GT(stats.collective_retries, 0u);
  EXPECT_GT(stats.collective_stale, 0u);
  EXPECT_EQ(stats.collective_handled + stats.collective_stale, stats.distinct_hashes);
  EXPECT_EQ(svc.local_seen.size(), 4u * 24u);
  for (const auto& [key, seen] : svc.local_seen) EXPECT_EQ(seen.calls, 1);
}

TEST(CommandEngine, OracleAgreesAfterAThrottledScan) {
  // Ground truth reads the monitors' last scanned hashes: blocks a throttled
  // scan left pending are clean but stale, and must be rehashed.
  for (const mem::DetectMode mode : {mem::DetectMode::kFullScan, mem::DetectMode::kDirtyBit}) {
    auto c = make_cluster(4, 83, 0.0, mode);
    std::vector<EntityId> ses;
    for (std::uint32_t n = 0; n < 4; ++n) {
      ses.push_back(add_entity(*c, n, workload::Kind::kMoldy, n + 30, 24));
    }
    mem::MemoryEntity& copy = c->create_entity(node_id(1), EntityKind::kProcess, 24, kBlk);
    for (BlockIndex b = 0; b < 24; ++b) copy.write_block(b, c->entity(ses[0]).block(b));
    const EntityId pe = copy.id();
    (void)c->scan_all();
    for (const EntityId e : ses) workload::mutate(c->entity(e), 0.5, 777);
    workload::mutate(c->entity(pe), 0.5, 778);
    for (std::uint32_t n = 0; n < 4; ++n) c->daemon(node_id(n)).monitor().set_update_budget(4);
    const mem::ScanStats scan = c->scan_all();
    ASSERT_GT(scan.throttled_blocks, 0u);

    VerifyingService svc;
    CommandEngine engine(*c);
    CommandSpec spec;
    spec.service_entities = ses;
    spec.participants = {pe};
    const CommandStats stats = engine.execute(svc, spec);
    ASSERT_TRUE(ok(stats.status));
    EXPECT_EQ(svc.mismatches, 0u);
    EXPECT_EQ(stats.collective_handled + stats.collective_stale, stats.distinct_hashes);
    EXPECT_EQ(svc.local_seen.size(), 4u * 24u);
    for (const auto& [key, seen] : svc.local_seen) EXPECT_EQ(seen.calls, 1);
  }
}

TEST(CommandEngine, OracleAgreesOnSesWrittenAfterAFullScan) {
  // Full-scan mode: the SEs are rewritten after the scan, and again between
  // two commands with no scan in between.
  auto c = make_cluster(4, 87, 0.0, mem::DetectMode::kFullScan);
  std::vector<EntityId> ses;
  for (std::uint32_t n = 0; n < 4; ++n) {
    ses.push_back(add_entity(*c, n, workload::Kind::kMoldy, n + 40, 24));
  }
  (void)c->scan_all();
  CommandEngine engine(*c);
  CommandSpec spec;
  spec.service_entities = ses;
  for (std::uint64_t round = 0; round < 2; ++round) {
    for (const EntityId e : ses) workload::mutate(c->entity(e), 0.3, 900 + round);
    VerifyingService svc;
    const CommandStats stats = engine.execute(svc, spec);
    ASSERT_TRUE(ok(stats.status));
    EXPECT_EQ(svc.mismatches, 0u) << "round " << round;
    EXPECT_EQ(svc.local_seen.size(), 4u * 24u);
    for (const auto& [key, seen] : svc.local_seen) EXPECT_EQ(seen.calls, 1);
  }
}

TEST(CommandEngine, OracleAgreesWhenAnSeIsRewrittenMidCommand) {
  // The first collective_command() on SE `b` rewrites another block of `b`
  // with fresh unique content: hashes the engine took of `b` before that
  // write must not be trusted after it.
  class RewritingService final : public VerifyingService {
   public:
    core::Cluster* cluster = nullptr;
    EntityId target{};
    std::optional<BlockIndex> rewritten;
    std::vector<std::byte> fresh;

    Result<std::uint64_t> collective_command(NodeId n, EntityId e, const ContentHash& h,
                                             std::span<const std::byte> d) override {
      auto r = VerifyingService::collective_command(n, e, h, d);
      if (e == target && !rewritten.has_value()) {
        mem::MemoryEntity& ent = cluster->entity(e);
        const auto at = static_cast<BlockIndex>((d.data() - ent.block(0).data()) /
                                                static_cast<std::ptrdiff_t>(kBlk));
        rewritten = (at + 1) % ent.num_blocks();
        fresh.assign(kBlk, std::byte{0xa5});
        fresh[0] = std::byte{0x17};
        fresh[kBlk - 1] = std::byte{0x71};
        ent.write_block(*rewritten, fresh);
      }
      return r;
    }
  };

  auto c = make_cluster(4, 91);
  std::vector<EntityId> ses;
  for (std::uint32_t n = 0; n < 4; ++n) {
    ses.push_back(add_entity(*c, n, workload::Kind::kMoldy, n + 60, 24));
  }
  (void)c->scan_all();

  RewritingService svc;
  svc.cluster = c.get();
  svc.target = ses[1];
  CommandEngine engine(*c);
  CommandSpec spec;
  spec.service_entities = ses;
  const CommandStats stats = engine.execute(svc, spec);
  ASSERT_TRUE(ok(stats.status));
  ASSERT_TRUE(svc.rewritten.has_value());
  EXPECT_EQ(svc.mismatches, 0u);

  // The rewritten block reaches the local phase under its new hash, which
  // nothing handled collectively.
  const auto k = svc.local_seen.find({raw(svc.target), *svc.rewritten});
  ASSERT_NE(k, svc.local_seen.end());
  EXPECT_EQ(k->second.hash, svc.oracle(svc.fresh));
  EXPECT_FALSE(k->second.handled);

  // Every block of every SE still covered exactly once.
  EXPECT_EQ(stats.local_blocks, 4u * 24u);
  EXPECT_EQ(svc.local_seen.size(), 4u * 24u);
  for (const auto& [key, seen] : svc.local_seen) EXPECT_EQ(seen.calls, 1);
}

}  // namespace
}  // namespace concord::svc
