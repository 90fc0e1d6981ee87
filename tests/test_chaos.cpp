// Chaos tests: fault injection, failure detection, degraded command
// execution, and shard recovery. The headline invariants, each swept over
// multiple seeds:
//   * commands never hang — every execute() returns under any fault
//     schedule (phase deadlines + probes guarantee termination);
//   * degraded commands name the excluded nodes in CommandStats::failures;
//   * local-phase results on surviving nodes are byte-identical to a
//     fault-free twin run (the local phase is ground truth);
//   * after healing, DHT coverage returns to >= 99% of the fault-free
//     baseline within 3 audit passes (ShardRecovery + DhtAudit).
// Set CONCORD_CHAOS_SEED to sweep an extra seed without recompiling.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "services/dht_audit.hpp"
#include "services/null_service.hpp"
#include "services/shard_recovery.hpp"
#include "svc/command_engine.hpp"
#include "workload/workloads.hpp"

namespace concord {
namespace {

constexpr std::size_t kBlk = 256;

std::unique_ptr<core::Cluster> make_cluster(std::uint32_t nodes, std::uint64_t seed,
                                            double loss = 0.0,
                                            std::size_t hash_workers = 1) {
  core::ClusterParams p;
  p.num_nodes = nodes;
  p.max_entities = 64;
  p.seed = seed;
  p.fabric.loss_rate = loss;
  p.hash_workers = hash_workers;
  return std::make_unique<core::Cluster>(p);
}

std::vector<EntityId> populate(core::Cluster& c, std::uint32_t per_node,
                               std::size_t blocks = 12) {
  std::vector<EntityId> out;
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    for (std::uint32_t i = 0; i < per_node; ++i) {
      mem::MemoryEntity& e = c.create_entity(node_id(n), EntityKind::kProcess, blocks, kBlk);
      workload::fill(e, workload::defaults_for(workload::Kind::kMoldy, n * 10 + i));
      out.push_back(e.id());
    }
  }
  (void)c.scan_all();
  return out;
}

/// Records the ground-truth content seen by the local phase, keyed by
/// (node, entity, block): FNV-1a over the block bytes. Two runs produce
/// equal maps iff the local phase saw byte-identical content.
class DigestService final : public svc::ApplicationService {
 public:
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;

  Status service_init(NodeId, svc::Mode, const Config&) override { return Status::kOk; }
  Status collective_start(NodeId, svc::Role, EntityId,
                          std::span<const ContentHash>) override {
    return Status::kOk;
  }
  Result<std::uint64_t> collective_command(NodeId, EntityId, const ContentHash&,
                                           std::span<const std::byte>) override {
    return std::uint64_t{1};
  }
  Status collective_finalize(NodeId, svc::Role, EntityId) override { return Status::kOk; }
  Status local_start(NodeId, EntityId) override { return Status::kOk; }
  Status local_command(NodeId node, EntityId entity, BlockIndex block, const ContentHash&,
                       std::span<const std::byte> data, const std::uint64_t*) override {
    std::uint64_t fnv = 0xcbf29ce484222325ULL;
    for (const std::byte b : data) {
      fnv = (fnv ^ static_cast<std::uint64_t>(b)) * 0x100000001b3ULL;
    }
    digests_[Key{raw(node), raw(entity), block}] = fnv;
    return Status::kOk;
  }
  Status local_finalize(NodeId, EntityId) override { return Status::kOk; }
  Status service_deinit(NodeId) override { return Status::kOk; }

  [[nodiscard]] const std::map<Key, std::uint64_t>& digests() const { return digests_; }

 private:
  std::map<Key, std::uint64_t> digests_;
};

// ---------------------------------------------------------------------------
// Failure detection and epoch-aware placement.
// ---------------------------------------------------------------------------

TEST(FailureDetector, CrashSuspectedWithinOneWindowAndReadmittedAfterRestart) {
  auto c = make_cluster(4, 21);
  EXPECT_EQ(c->detect().epoch, 0u);  // nothing changed: epoch stays put

  c->fault().crash(node_id(2));
  const core::MembershipView& v1 = c->detect();
  EXPECT_EQ(v1.epoch, 1u);
  EXPECT_FALSE(v1.is_alive(node_id(2)));
  EXPECT_EQ(v1.suspected(), std::vector<NodeId>{node_id(2)});
  EXPECT_EQ(v1.alive_count(), 3u);
  EXPECT_EQ(c->placement().epoch(), 1u);  // placement follows the epoch

  c->fault().restart(node_id(2));
  const core::MembershipView& v2 = c->detect();
  EXPECT_EQ(v2.epoch, 2u);
  EXPECT_TRUE(v2.is_alive(node_id(2)));
  EXPECT_TRUE(v2.suspected().empty());
}

TEST(FailureDetector, PauseLooksLikeCrashOnTheWire) {
  auto c = make_cluster(4, 22);
  c->fault().pause(node_id(1));
  EXPECT_FALSE(c->detect().is_alive(node_id(1)));
  c->fault().resume(node_id(1));
  EXPECT_TRUE(c->detect().is_alive(node_id(1)));
}

TEST(FailureDetector, ProbeVerdictsMatchReality) {
  auto c = make_cluster(3, 23);
  bool alive_verdict = false, dead_verdict = true;
  c->detector().probe(node_id(0), node_id(1), [&](bool alive) { alive_verdict = alive; });
  c->fault().crash(node_id(2));
  c->detector().probe(node_id(0), node_id(2), [&](bool alive) { dead_verdict = alive; });
  c->sim().run();
  EXPECT_TRUE(alive_verdict);
  EXPECT_FALSE(dead_verdict);
}

TEST(Placement, DeadHomeRemapsToNextAliveSuccessorAndSnapsBack) {
  dht::Placement p(4);
  const ContentHash h{0x1234, 0x5678};
  const NodeId home = p.owner(h);

  std::vector<bool> alive(4, true);
  alive[raw(home)] = false;
  p.set_view(1, alive);
  const NodeId successor = p.owner(h);
  EXPECT_NE(successor, home);
  EXPECT_EQ(raw(successor), (raw(home) + 1) % 4);  // next alive neighbor

  // Two dead in a row: skips to the next alive one.
  alive[(raw(home) + 1) % 4] = false;
  p.set_view(2, alive);
  EXPECT_EQ(raw(p.owner(h)), (raw(home) + 2) % 4);

  p.set_view(3, {});  // everyone back up
  EXPECT_EQ(p.owner(h), home);
  // owner_in() diffs arbitrary views without touching the installed one.
  EXPECT_EQ(p.owner_in(alive, h), node_id((raw(home) + 2) % 4));
  EXPECT_EQ(p.owner(h), home);
}

TEST(FaultInjector, CrashClearsShardButPausePreservesIt) {
  auto c = make_cluster(4, 24);
  populate(*c, 1);

  // Find a node whose shard is non-empty, pause it: state intact.
  std::uint32_t victim = 0;
  for (; victim < 4; ++victim) {
    if (c->daemon(node_id(victim)).store().unique_hashes() > 0) break;
  }
  ASSERT_LT(victim, 4u);
  const std::size_t before = c->daemon(node_id(victim)).store().unique_hashes();
  c->fault().pause(node_id(victim));
  EXPECT_EQ(c->daemon(node_id(victim)).store().unique_hashes(), before);
  c->fault().resume(node_id(victim));

  // Crash it: the shard (volatile state) dies with the node.
  c->fault().crash(node_id(victim));
  EXPECT_EQ(c->daemon(node_id(victim)).store().unique_hashes(), 0u);
  EXPECT_TRUE(c->fault().is_crashed(node_id(victim)));
  c->fault().restart(node_id(victim));
  EXPECT_FALSE(c->fault().is_down(node_id(victim)));
}

TEST(FaultInjector, RandomScheduleIsDeterministicAndSparesTheController) {
  Rng a(99), b(99);
  const auto s1 = net::FaultInjector::random_schedule(a, 6, 4, sim::kSecond);
  const auto s2 = net::FaultInjector::random_schedule(b, 6, 4, sim::kSecond);
  ASSERT_EQ(s1.size(), s2.size());
  // Every fault comes paired with its heal (partitions expand to two cut +
  // two heal events), so at least 2 events per scheduled fault.
  EXPECT_GE(s1.size(), 8u);
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].at, s2[i].at);
    EXPECT_EQ(s1[i].kind, s2[i].kind);
    EXPECT_EQ(s1[i].a, s2[i].a);
    EXPECT_EQ(s1[i].b, s2[i].b);
    EXPECT_NE(s1[i].a, node_id(0));  // the spare is never faulted
    EXPECT_LT(s1[i].at, sim::kSecond);
    if (i > 0) {
      EXPECT_GE(s1[i].at, s1[i - 1].at);  // sorted by time
    }
  }
}

// ---------------------------------------------------------------------------
// Degraded command execution.
// ---------------------------------------------------------------------------

TEST(ChaosCommand, KnownDeadNodeIsExcludedUpFront) {
  auto c = make_cluster(4, 31);
  const auto ses = populate(*c, 1);
  c->fault().crash(node_id(2));
  (void)c->detect();  // membership now knows

  services::NullService null;
  svc::CommandEngine engine(*c);
  svc::CommandSpec spec;
  spec.service_entities = ses;
  const svc::CommandStats s = engine.execute(null, spec);

  EXPECT_EQ(s.status, Status::kDegraded);
  ASSERT_EQ(s.failures.size(), 1u);
  EXPECT_EQ(s.failures[0].node, node_id(2));
  EXPECT_EQ(s.failures[0].reason, Status::kUnavailable);
  // The survivors still ran the whole local phase.
  EXPECT_EQ(s.local_blocks, (ses.size() - 1) * 12u);
}

TEST(ChaosCommand, UnknownCrashIsDiscoveredAtThePhaseDeadline) {
  auto c = make_cluster(4, 32);
  const auto ses = populate(*c, 1);
  c->fault().crash(node_id(1));  // no detect(): the engine must find out itself

  services::NullService null;
  svc::CommandEngine engine(*c);
  svc::CommandSpec spec;
  spec.service_entities = ses;
  const svc::CommandStats s = engine.execute(null, spec);

  EXPECT_EQ(s.status, Status::kDegraded);
  ASSERT_GE(s.failures.size(), 1u);
  EXPECT_EQ(s.failures[0].node, node_id(1));
  EXPECT_EQ(s.local_blocks, (ses.size() - 1) * 12u);
}

TEST(ChaosCommand, ZeroDeadlineDisablesFailureHandling) {
  // Sanity for the opt-out: with deadlines off and no faults, commands run
  // exactly as before (the legacy stall-forever contract is only reachable
  // with a fault, which this test does not inject).
  auto c = make_cluster(3, 33);
  const auto ses = populate(*c, 1);
  services::NullService null;
  svc::CommandEngine engine(*c);
  svc::CommandSpec spec;
  spec.service_entities = ses;
  spec.phase_deadline = 0;
  const svc::CommandStats s = engine.execute(null, spec);
  EXPECT_TRUE(ok(s.status));
  EXPECT_TRUE(s.failures.empty());
}

TEST(ChaosCommand, BarrierToleratesAckLossUnderHeavyDatagramLoss) {
  // 30% loss makes reliable-class ack losses (sender kTimeout, receiver
  // already handled) common. Idempotent per-node barriers must neither
  // double-count nor stall, and nothing should be excluded: every node is
  // alive and answers probes.
  auto c = make_cluster(4, 34, /*loss=*/0.3);
  const auto ses = populate(*c, 1);
  services::NullService null;
  svc::CommandEngine engine(*c);
  svc::CommandSpec spec;
  spec.service_entities = ses;
  for (int i = 0; i < 3; ++i) {
    const svc::CommandStats s = engine.execute(null, spec);
    EXPECT_TRUE(ok(s.status)) << to_string(s.status);
    EXPECT_TRUE(s.failures.empty());
    EXPECT_EQ(s.local_blocks, ses.size() * 12u);
  }
}

TEST(ChaosCommand, LocalPhaseResultsByteIdenticalToFaultFreeRun) {
  // Twin clusters, same seed and content; one crashes node 2 mid-fleet.
  // The local phase is driven purely by ground truth, so the digests the
  // surviving nodes record must match the fault-free run byte for byte.
  auto clean = make_cluster(4, 35);
  auto chaos = make_cluster(4, 35);
  const auto ses_clean = populate(*clean, 1);
  const auto ses_chaos = populate(*chaos, 1);
  ASSERT_EQ(ses_clean.size(), ses_chaos.size());

  DigestService clean_svc, chaos_svc;
  svc::CommandEngine clean_engine(*clean), chaos_engine(*chaos);
  svc::CommandSpec spec;
  spec.service_entities = ses_clean;

  const svc::CommandStats cs = clean_engine.execute(clean_svc, spec);
  ASSERT_TRUE(ok(cs.status));

  chaos->fault().crash(node_id(2));
  (void)chaos->detect();
  spec.service_entities = ses_chaos;
  const svc::CommandStats xs = chaos_engine.execute(chaos_svc, spec);
  EXPECT_EQ(xs.status, Status::kDegraded);

  // Every digest the chaos run recorded appears identically in the clean
  // run, and the chaos run recorded everything except node 2's blocks.
  for (const auto& [key, digest] : chaos_svc.digests()) {
    const auto it = clean_svc.digests().find(key);
    ASSERT_NE(it, clean_svc.digests().end());
    EXPECT_EQ(it->second, digest);
  }
  std::size_t clean_on_survivors = 0;
  for (const auto& [key, digest] : clean_svc.digests()) {
    if (std::get<0>(key) != 2u) ++clean_on_survivors;
  }
  EXPECT_EQ(chaos_svc.digests().size(), clean_on_survivors);
}

// ---------------------------------------------------------------------------
// Recovery: the DHT coverage hole closes after healing.
// ---------------------------------------------------------------------------

TEST(ShardRecovery, RepublishesRemappedEntriesAfterCrashAndHeal) {
  auto c = make_cluster(4, 41);
  populate(*c, 1);
  const std::size_t baseline = c->total_unique_hashes();
  ASSERT_GT(baseline, 0u);
  services::ShardRecovery recovery(*c);

  c->fault().crash(node_id(1));
  (void)c->detect();  // epoch 1: survivors republish node 1's hashes
  EXPECT_GT(recovery.last_report().republished, 0u);

  c->fault().restart(node_id(1));
  (void)c->detect();  // epoch 2: ownership snaps back, republish again

  services::DhtAudit audit(*c);
  (void)audit.run_to_convergence(3);
  EXPECT_GE(c->total_unique_hashes() * 100, baseline * 99);
}

/// Ground-truth (hash, alive entity) pairs absent from the hash's current
/// owner shard.
std::size_t missing_pairs(const core::Cluster& c) {
  std::size_t missing = 0;
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    c.daemon(node_id(n)).block_map().for_each(
        [&](const ContentHash& h, const std::vector<mem::BlockLocation>& locs) {
          std::set<std::uint32_t> entities;
          for (const mem::BlockLocation& loc : locs) {
            if (c.registry().alive(loc.entity)) entities.insert(raw(loc.entity));
          }
          for (const std::uint32_t e : entities) {
            if (!c.daemon(c.placement().owner(h)).store().contains(h, entity_id(e))) {
              ++missing;
            }
          }
        });
  }
  return missing;
}

TEST(ShardRecovery, ConstructedWhileANodeIsDownHealsItsReturn) {
  // The service remembers the view the DHT was built under. Attached while
  // node 3 is already out of the view, it must still see node 3's return as
  // an ownership change and republish its home shard — with no audit.
  auto c = make_cluster(8, 44);
  populate(*c, 1);
  const std::size_t baseline = c->total_unique_hashes();
  ASSERT_EQ(missing_pairs(*c), 0u);

  c->fault().crash(node_id(3));
  (void)c->detect();
  services::ShardRecovery recovery(*c);
  c->fault().restart(node_id(3));
  (void)c->detect();
  (void)c->detect();

  EXPECT_GT(recovery.total_republished(), 0u);
  EXPECT_EQ(missing_pairs(*c), 0u);
  EXPECT_GE(c->total_unique_hashes(), baseline);
}

TEST(ShardRecovery, DepartureRacingOwnerCrashConvergesAfterAudit) {
  auto c = make_cluster(4, 42);
  const auto ses = populate(*c, 1);

  // Find an entity with a hash owned by a *different* node, then crash that
  // owner just before the departure scrub: the removes blackhole.
  const EntityId victim = ses[1];
  const NodeId host = c->registry().host_of(victim);
  NodeId owner = host;
  c->daemon(host).block_map().for_each(
      [&](const ContentHash& h, const std::vector<mem::BlockLocation>& locs) {
        if (owner != host) return;
        for (const mem::BlockLocation& loc : locs) {
          if (loc.entity == victim && c->placement().owner(h) != host) {
            owner = c->placement().owner(h);
            return;
          }
        }
      });
  ASSERT_NE(owner, host);

  c->fault().crash(owner);
  c->depart_entity(victim);  // scrub datagrams to the dead owner vanish
  c->fault().restart(owner);
  (void)c->detect();

  services::DhtAudit audit(*c);
  (void)audit.run_to_convergence(3);

  // No shard still advertises the departed entity...
  for (std::uint32_t n = 0; n < c->num_nodes(); ++n) {
    c->daemon(node_id(n)).store().for_each_entry(
        [&](const ContentHash&, const std::uint64_t* words, std::size_t nwords) {
          for (std::size_t w = 0; w < nwords; ++w) {
            if (raw(victim) / 64 == w) {
              EXPECT_EQ(words[w] & (1ULL << (raw(victim) % 64)), 0u);
            }
          }
        });
  }
  // ...and every live entity's coverage is intact.
  const services::AuditReport check = audit.run();
  EXPECT_TRUE(check.clean());
}

TEST(DhtAudit, MidRunLossSpikeHealsOnceLossClears) {
  auto c = make_cluster(4, 43);
  populate(*c, 1);
  services::DhtAudit audit(*c);
  ASSERT_TRUE(audit.run().clean());  // lossless baseline needs no repair

  c->fabric().set_loss_rate(0.6);  // the network degrades mid-run
  for (std::uint32_t n = 0; n < c->num_nodes(); ++n) {
    mem::MemoryEntity& e = c->create_entity(node_id(n), EntityKind::kProcess, 12, kBlk);
    workload::fill(e, workload::defaults_for(workload::Kind::kRandom, 70 + n));
  }
  (void)c->scan_all();  // many of these updates are lost

  c->fabric().set_loss_rate(0.0);  // and recovers
  (void)audit.run_to_convergence();
  EXPECT_TRUE(audit.run().clean());
}

// ---------------------------------------------------------------------------
// Seeded chaos sweep: the acceptance invariants, end to end.
// ---------------------------------------------------------------------------

void run_chaos_sweep(std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  constexpr std::uint32_t kNodes = 6;
  // hash_workers=2 exercises the monitor's scan-hashing WorkerPool threads
  // under chaos (TSan soak).
  auto clean = make_cluster(kNodes, seed, 0.0, /*hash_workers=*/2);
  auto chaos = make_cluster(kNodes, seed, 0.0, /*hash_workers=*/2);
  const auto ses_clean = populate(*clean, 1);
  const auto ses_chaos = populate(*chaos, 1);
  const std::size_t baseline = clean->total_unique_hashes();
  ASSERT_GT(baseline, 0u);

  services::ShardRecovery recovery(*chaos);
  Rng rng(seed * 7919 + 1);
  const auto schedule = net::FaultInjector::random_schedule(
      rng, kNodes, /*faults=*/3, /*horizon=*/800 * sim::kMillisecond);
  chaos->fault().schedule(schedule);

  // Fault-free twin: reference digests for the byte-identical invariant.
  DigestService clean_svc;
  svc::CommandEngine clean_engine(*clean);
  svc::CommandSpec spec;
  spec.service_entities = ses_clean;
  ASSERT_TRUE(ok(clean_engine.execute(clean_svc, spec).status));

  // Chaos run: commands interleave with the fault schedule; detection
  // windows (and the auto-registered recovery) run between commands.
  svc::CommandEngine chaos_engine(*chaos);
  spec.service_entities = ses_chaos;
  for (int round = 0; round < 3; ++round) {
    DigestService round_svc;
    const svc::CommandStats s = chaos_engine.execute(round_svc, spec);
    // Invariant: commands terminate and report any exclusions.
    ASSERT_TRUE(ok(s.status) || s.status == Status::kDegraded) << to_string(s.status);
    EXPECT_EQ(s.status == Status::kDegraded, !s.failures.empty());
    for (const svc::NodeFailure& f : s.failures) {
      EXPECT_NE(f.node, node_id(0));  // the spare controller is never faulted
    }
    // Invariant: surviving nodes' local-phase digests match the clean twin.
    for (const auto& [key, digest] : round_svc.digests()) {
      const auto it = clean_svc.digests().find(key);
      ASSERT_NE(it, clean_svc.digests().end());
      EXPECT_EQ(it->second, digest);
    }
    (void)chaos->detect();
  }

  // Heal everything, let two detection windows readmit + settle, audit.
  chaos->fault().heal_all();
  (void)chaos->detect();
  (void)chaos->detect();
  EXPECT_EQ(chaos->fault().down_count(), 0u);
  EXPECT_EQ(chaos->membership().alive_count(), kNodes);

  services::DhtAudit audit(*chaos);
  (void)audit.run_to_convergence(3);
  // Invariant: post-heal coverage within 99% of the fault-free baseline.
  EXPECT_GE(chaos->total_unique_hashes() * 100, baseline * 99);
}

TEST(ChaosSweep, MixedOverloadAndPauseConvergesAfterRecovery) {
  // Overload protection live (bounded ingress, AIMD, breaker, retry budget)
  // while a node pauses mid-run: full-rate scans overload the fabric, the
  // paused node goes silent, a command executes through the mess. The
  // invariants: commands terminate, control traffic is never shed even at
  // full queues, and once the node resumes and the operator lifts the
  // ingress bound, the audit converges to ground truth.
  constexpr std::uint32_t kN = 6;
  core::ClusterParams p;
  p.num_nodes = kN;
  p.max_entities = 64;
  p.seed = 4242;
  p.update_batching.mtu_bytes = 512;
  p.fabric.ingress_queue_limit = 12;
  p.fabric.ingress_service = 50 * sim::kMicrosecond;
  p.fabric.retry_budget = 20 * sim::kMillisecond;
  p.fabric.breaker_threshold = 6;
  p.pressure = true;
  auto c = std::make_unique<core::Cluster>(p);
  const auto ids = populate(*c, 1, 128);

  svc::CommandEngine engine(*c);
  for (int round = 0; round < 4; ++round) {
    for (const EntityId id : ids) {
      workload::mutate(c->entity(id), 1.0,
                       static_cast<std::uint64_t>(round) * 97 + raw(id));
    }
    if (round == 1) c->fault().pause(node_id(3));
    if (round == 3) c->fault().resume(node_id(3));
    (void)c->scan_all();
    (void)c->detect();
  }
  // A command through the pressured, partially-recovered site terminates.
  DigestService svc_probe;
  svc::CommandSpec spec;
  spec.service_entities = ids;
  const svc::CommandStats s = engine.execute(svc_probe, spec);
  ASSERT_TRUE(ok(s.status) || s.status == Status::kDegraded) << to_string(s.status);

  // Overload really bit, but the priority class held.
  EXPECT_GT(c->fabric().total_traffic().msgs_shed, 0u);
  EXPECT_EQ(c->fabric().shed_of_type(net::MsgType::kHeartbeat), 0u);
  EXPECT_EQ(c->fabric().shed_of_type(net::MsgType::kCommandControl), 0u);
  EXPECT_EQ(c->fabric().shed_of_type(net::MsgType::kCommandAck), 0u);
  EXPECT_EQ(c->fabric().shed_of_type(net::MsgType::kCreditGrant), 0u);

  // Recovery: everyone back, bound lifted, audit closes the gap.
  c->fault().heal_all();
  (void)c->detect();
  (void)c->detect();
  EXPECT_EQ(c->membership().alive_count(), kN);
  c->fabric().set_ingress_queue_limit(0);
  services::DhtAudit audit(*c);
  (void)audit.run_to_convergence();
  EXPECT_TRUE(audit.run().clean());
}

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSweep, InvariantsHoldUnderRandomFaultSchedule) { run_chaos_sweep(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep, ::testing::Values(101, 202, 303, 404, 505));

TEST(ChaosSweep, EnvironmentSeedOverride) {
  const char* env = std::getenv("CONCORD_CHAOS_SEED");
  if (env == nullptr) GTEST_SKIP() << "CONCORD_CHAOS_SEED not set";
  run_chaos_sweep(std::strtoull(env, nullptr, 10));
}

// ---------------------------------------------------------------------------
// Sharded scan epochs: worker-count invariance under faults.
// ---------------------------------------------------------------------------

struct RunFingerprint {
  std::string metrics;
  std::string trace;
  sim::Time now = 0;
};

/// A lossy run with a mid-run crash + heal, causal tracing on, under
/// `workers` scan-pool threads. Every observable the run produces — metric
/// snapshot bytes, Chrome-trace bytes, final virtual clock — is returned so
/// worker counts can be compared bit-for-bit.
RunFingerprint chaos_fingerprint(std::size_t workers) {
  core::ClusterParams p;
  p.num_nodes = 6;
  p.max_entities = 64;
  p.seed = 909;
  p.fabric.loss_rate = 0.05;
  p.trace_propagation = true;
  p.sim_workers = workers;
  auto c = std::make_unique<core::Cluster>(p);
  const auto ids = populate(*c, 1, 24);
  for (int round = 0; round < 4; ++round) {
    for (const EntityId id : ids) {
      workload::mutate(c->entity(id), 0.5,
                       static_cast<std::uint64_t>(round) * 131 + raw(id));
    }
    if (round == 1) c->fault().crash(node_id(2));
    if (round == 2) c->fault().heal_all();
    (void)c->scan_all();
    (void)c->detect();
  }
  return RunFingerprint{c->metrics().to_json(), c->tracer().to_chrome_json(),
                        c->sim().now()};
}

/// What a crash scheduled inside one scan epoch's delivery window leaves.
struct MidEpochCrash {
  std::string snapshot;            // metric snapshot after the epoch
  std::uint64_t applied_before = 0;  // victim's dht inserts + removes
  std::uint64_t applied_at_crash = 0;
  std::uint64_t applied_after = 0;
  std::uint64_t received_before = 0;  // victim's net msgs_received
  std::uint64_t received_at_crash = 0;
  std::uint64_t inflight_before = 0;  // net/msgs_blackholed_inflight
  std::uint64_t inflight_after = 0;
  std::size_t victim_entries = 0;  // victim shard size after the epoch
  std::uint64_t watchdog_runs = 0;
  std::uint64_t watchdog_violations = 0;
};

/// Loss, duplication and a bounded, slow ingress queue on; a crash of node
/// 3 scheduled on the virtual clock to fire after the epoch's first
/// deliveries reach it and before its last.
MidEpochCrash mid_epoch_crash(std::size_t workers) {
  constexpr std::uint32_t kVictim = 3;
  core::ClusterParams p;
  p.num_nodes = 6;
  p.max_entities = 64;
  p.seed = 5151;
  p.update_batching.mtu_bytes = 512;
  p.fabric.loss_rate = 0.05;
  p.fabric.duplicate_rate = 0.05;
  p.fabric.ingress_queue_limit = 12;
  p.fabric.ingress_service = 50 * sim::kMicrosecond;
  p.watchdog.enabled = true;
  p.sim_workers = workers;
  auto c = std::make_unique<core::Cluster>(p);
  const auto ids = populate(*c, 1, 128);
  for (const EntityId id : ids) workload::mutate(c->entity(id), 1.0, 77 + raw(id));

  obs::Registry& m = c->metrics();
  const auto applied = [&m] {
    return m.counter("dht", "inserts", kVictim).value() +
           m.counter("dht", "removes", kVictim).value();
  };
  const auto received = [&m] { return m.counter("net", "msgs_received", kVictim).value(); };
  const auto inflight = [&m] { return m.counter("net", "msgs_blackholed_inflight").value(); };
  MidEpochCrash out;
  out.applied_before = applied();
  out.received_before = received();
  out.inflight_before = inflight();
  // Registered after the cluster's own hook, so it sees the state that
  // hook leaves: the staged inbox applied, then the shard wiped.
  c->fault().on_crash([&](NodeId n) {
    if (raw(n) != kVictim) return;
    out.applied_at_crash = applied();
    out.received_at_crash = received();
  });
  const sim::Time crash_at =
      c->sim().now() + p.fabric.base_latency + 4 * p.fabric.ingress_service;
  c->fault().schedule({net::FaultEvent{crash_at, net::FaultKind::kCrash, node_id(kVictim)}});
  (void)c->scan_all();
  out.applied_after = applied();
  out.inflight_after = inflight();
  out.victim_entries = c->daemon(node_id(kVictim)).store().unique_hashes();
  out.watchdog_runs = c->watchdog().runs();
  out.watchdog_violations = c->watchdog().violations();
  out.snapshot = m.to_json();
  return out;
}

TEST(ShardedScan, CrashInsideAnEpochsDeliveryWindow) {
  // The crash is a heap event that fires between two of the epoch's
  // deliveries to the victim: the ones before it land in the victim's
  // staged inbox and the crash handler applies them before the wipe; the
  // ones after it are blackholed in flight and never applied.
  const MidEpochCrash serial = mid_epoch_crash(1);
  EXPECT_GT(serial.received_at_crash, serial.received_before)
      << "the crash must fire after the first delivery to the victim";
  EXPECT_GT(serial.applied_at_crash, serial.applied_before)
      << "the crash handler applies what was delivered before it";
  EXPECT_EQ(serial.applied_after, serial.applied_at_crash)
      << "nothing reaches the victim's shard after the crash";
  EXPECT_EQ(serial.victim_entries, 0u);
  EXPECT_GT(serial.inflight_after, serial.inflight_before)
      << "deliveries after the crash count as blackholed in flight";
  EXPECT_GE(serial.watchdog_runs, 1u);
  EXPECT_EQ(serial.watchdog_violations, 0u);
  const MidEpochCrash sharded = mid_epoch_crash(4);
  EXPECT_EQ(sharded.snapshot, serial.snapshot);
}

TEST(ShardedScan, ChaosRunByteIdenticalAcrossWorkerCounts) {
  // The sim_workers knob must change real wall-time only: the staged scan
  // pipeline replays sends in canonical node order, so rng draws, losses,
  // crash cleanup, traces, and metric bytes cannot depend on worker count —
  // even with a node crashing (and its staged inbox draining) mid-run.
  const RunFingerprint serial = chaos_fingerprint(1);
  EXPECT_GT(serial.now, 0u);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const RunFingerprint sharded = chaos_fingerprint(workers);
    EXPECT_EQ(serial.metrics, sharded.metrics) << workers << " workers";
    EXPECT_EQ(serial.trace, sharded.trace) << workers << " workers";
    EXPECT_EQ(serial.now, sharded.now) << workers << " workers";
  }
}

}  // namespace
}  // namespace concord
