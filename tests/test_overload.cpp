// Tests for the overload-protection machinery (PR 5): seeded-jitter
// exponential backoff determinism, bounded-ingress tail drop with the
// control-plane priority class, end-to-end datagram conservation under
// mixed loss + overload, the per-link circuit breaker, and the AIMD
// pressure controller.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/pressure_controller.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "workload/workloads.hpp"

namespace concord {
namespace {

net::Message data_msg(NodeId src, NodeId dst, const std::string& s) {
  return net::make_message(src, dst, net::MsgType::kDhtInsert, s, s.size());
}

void register_counting_sink(net::Fabric& fabric, NodeId n, int& received) {
  fabric.register_node(n, [&received](const net::Message&) { ++received; });
}

/// One seeded run: `sends` reliable messages 0->1 under loss, executed
/// sequentially so every rng draw is attributable. Returns the completion
/// (ack or timeout) timestamp of each send.
std::vector<sim::Time> reliable_completion_times(std::uint64_t seed, int sends) {
  sim::Simulation simu{seed};
  net::FabricParams params;
  params.loss_rate = 0.4;
  net::Fabric fabric(simu, params);
  int sunk = 0;
  register_counting_sink(fabric, node_id(0), sunk);
  register_counting_sink(fabric, node_id(1), sunk);
  std::vector<sim::Time> completions;
  for (int i = 0; i < sends; ++i) {
    fabric.send_reliable(data_msg(node_id(0), node_id(1), "payload"),
                         [&](Status) { completions.push_back(simu.now()); });
    simu.run();
  }
  return completions;
}

TEST(OverloadBackoff, RetransmitScheduleIsDeterministicPerSeed) {
  // The whole retransmit schedule — loss draws, backoff jitter draws, ack
  // fates — replays bit-identically for one seed, and moves when the seed
  // does. This is what makes overload runs debuggable post-hoc.
  const std::vector<sim::Time> a = reliable_completion_times(1234, 24);
  const std::vector<sim::Time> b = reliable_completion_times(1234, 24);
  const std::vector<sim::Time> c = reliable_completion_times(999, 24);
  ASSERT_EQ(a.size(), 24u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

core::ClusterParams overload_params(std::uint64_t seed, std::size_t hash_workers) {
  core::ClusterParams p;
  p.num_nodes = 4;
  p.max_entities = 8;
  p.seed = seed;
  p.hash_workers = hash_workers;
  p.fabric.loss_rate = 0.1;
  p.update_batching.mtu_bytes = 256;
  p.fabric.ingress_queue_limit = 8;
  p.fabric.ingress_service = 50 * sim::kMicrosecond;
  p.fabric.retry_budget = 10 * sim::kMillisecond;
  p.fabric.breaker_threshold = 4;
  p.pressure = true;
  return p;
}

/// Three pressured mutate+scan epochs; returns the full deterministic
/// metrics snapshot plus the final virtual clock.
std::pair<std::string, sim::Time> pressured_run(std::uint64_t seed,
                                                std::size_t hash_workers) {
  core::Cluster c(overload_params(seed, hash_workers));
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    mem::MemoryEntity& e =
        c.create_entity(node_id(n), EntityKind::kProcess, 96, 256);
    workload::fill(e, workload::defaults_for(workload::Kind::kRandom, n + 7));
  }
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
      workload::mutate(c.entity(entity_id(n)), 0.5,
                       static_cast<std::uint64_t>(round) * 17 + n);
    }
    (void)c.scan_all();
  }
  return {c.metrics().to_json(), c.sim().now()};
}

TEST(OverloadBackoff, PressuredClusterRunIsIdenticalAcrossHashWorkers) {
  // Same seed => byte-identical metrics snapshot and virtual end time, no
  // matter how many worker threads hashed the scans. Every shed, backoff
  // and credit decision must sit on the virtual clock, never on host
  // scheduling.
  const auto [json1, now1] = pressured_run(52, 1);
  const auto [json4, now4] = pressured_run(52, 4);
  const auto [json1b, now1b] = pressured_run(52, 1);
  EXPECT_EQ(json1, json4);
  EXPECT_EQ(now1, now4);
  EXPECT_EQ(json1, json1b);
  EXPECT_EQ(now1, now1b);
}

TEST(OverloadShedding, TailDropShedsDataButNeverControl) {
  sim::Simulation simu{11};
  net::FabricParams params;
  params.ingress_queue_limit = 4;
  params.ingress_service = sim::kMillisecond;
  net::Fabric fabric(simu, params);
  int got = 0;
  register_counting_sink(fabric, node_id(0), got);
  register_counting_sink(fabric, node_id(1), got);

  // 20 data datagrams burst in at one instant: 4 fit the queue, 16 shed.
  for (int i = 0; i < 20; ++i) {
    fabric.send_unreliable(data_msg(node_id(0), node_id(1), "blk"));
  }
  EXPECT_EQ(fabric.ingress_depth(node_id(1)), 4u);
  // Heartbeats ride the priority class: admitted even at a full queue.
  for (int i = 0; i < 5; ++i) {
    fabric.send_unreliable(net::make_message(node_id(0), node_id(1),
                                             net::MsgType::kHeartbeat,
                                             std::string("hb"), 2));
  }
  simu.run();

  EXPECT_EQ(got, 9);  // 4 queued data + 5 heartbeats
  EXPECT_EQ(fabric.traffic(node_id(1)).msgs_shed, 16u);
  EXPECT_EQ(fabric.shed_of_type(net::MsgType::kDhtInsert), 16u);
  EXPECT_EQ(fabric.shed_of_type(net::MsgType::kHeartbeat), 0u);
  EXPECT_EQ(fabric.ingress_depth(node_id(1)), 0u);  // drained after delivery

  // Lifting the bound at runtime stops the shedding (recovery mode).
  fabric.set_ingress_queue_limit(0);
  for (int i = 0; i < 20; ++i) {
    fabric.send_unreliable(data_msg(node_id(0), node_id(1), "blk"));
  }
  simu.run();
  EXPECT_EQ(got, 29);
  EXPECT_EQ(fabric.traffic(node_id(1)).msgs_shed, 16u);
}

TEST(OverloadShedding, ConservationHoldsUnderMixedLossShedAndBlackholes) {
  // Every non-loopback datagram that was counted sent must end in exactly
  // one bucket: received, dropped in flight, shed at a full ingress queue,
  // or blackholed in flight by a fault. Reliable-class ack datagrams are
  // the one asymmetry: a successful ack completes the exchange without a
  // receive event, so each kOk completion adds one sent-but-not-received.
  sim::Simulation simu{23};
  net::FabricParams params;
  params.loss_rate = 0.25;
  params.ingress_queue_limit = 4;
  params.ingress_service = 200 * sim::kMicrosecond;
  net::Fabric fabric(simu, params);
  int got = 0;
  for (std::uint32_t n = 0; n < 3; ++n) register_counting_sink(fabric, node_id(n), got);

  std::uint64_t ok_acks = 0;
  for (int i = 0; i < 40; ++i) {
    fabric.send_unreliable(data_msg(node_id(0), node_id(1), "a"));
    fabric.send_unreliable(data_msg(node_id(1), node_id(2), "b"));
    if (i % 4 == 0) {
      fabric.send_reliable(data_msg(node_id(0), node_id(2), "r"), [&](Status s) {
        if (ok(s)) ++ok_acks;
      });
    }
  }
  simu.run();

  // A second wave toward node 2, silenced mid-flight: transmitted datagrams
  // must land in the blackholed-in-flight bucket, not vanish.
  for (int i = 0; i < 12; ++i) {
    fabric.send_unreliable(data_msg(node_id(0), node_id(2), "bh"));
  }
  fabric.set_node_reachable(node_id(2), false);
  simu.run();

  const net::NodeTraffic t = fabric.total_traffic();
  const std::uint64_t blackholed_inflight =
      fabric.metrics().counter_total("net", "msgs_blackholed_inflight");
  EXPECT_GT(t.msgs_dropped, 0u);
  EXPECT_GT(t.msgs_shed, 0u);
  EXPECT_GT(blackholed_inflight, 0u);
  EXPECT_GT(ok_acks, 0u);
  EXPECT_EQ(t.msgs_sent, t.msgs_received + t.msgs_dropped + t.msgs_shed +
                             blackholed_inflight + ok_acks);
}

TEST(OverloadBreaker, TripsFastFailsHalfOpensAndRecovers) {
  sim::Simulation simu{31};
  net::FabricParams params;
  params.backoff_jitter = 0;
  params.max_retries = 2;
  params.breaker_threshold = 2;
  net::Fabric fabric(simu, params);
  int got = 0;
  register_counting_sink(fabric, node_id(0), got);
  register_counting_sink(fabric, node_id(1), got);

  std::vector<std::pair<NodeId, NodeId>> trips;
  fabric.on_breaker_trip([&](NodeId s, NodeId d) { trips.emplace_back(s, d); });

  fabric.set_link_blocked(node_id(0), node_id(1), true);
  std::vector<Status> statuses;
  const auto record = [&](Status s) { statuses.push_back(s); };

  fabric.send_reliable(data_msg(node_id(0), node_id(1), "x"), record);
  simu.run();
  EXPECT_EQ(fabric.breaker_state(node_id(0), node_id(1)), net::BreakerState::kClosed);
  fabric.send_reliable(data_msg(node_id(0), node_id(1), "x"), record);
  simu.run();

  // Two consecutive timed-out sends trip the breaker.
  ASSERT_EQ(statuses, (std::vector<Status>{Status::kTimeout, Status::kTimeout}));
  EXPECT_EQ(fabric.breaker_state(node_id(0), node_id(1)), net::BreakerState::kOpen);
  EXPECT_EQ(fabric.breaker_trips(), 1u);
  ASSERT_EQ(trips.size(), 1u);
  EXPECT_EQ(trips[0], std::make_pair(node_id(0), node_id(1)));

  // While open: fail fast with kUnavailable, burning no virtual time.
  const sim::Time before = simu.now();
  fabric.send_reliable(data_msg(node_id(0), node_id(1), "x"), record);
  simu.run();
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_EQ(statuses.back(), Status::kUnavailable);
  EXPECT_EQ(simu.now(), before);
  EXPECT_EQ(fabric.metrics().counter_total("net", "breaker_fastfail"), 1u);

  // After the cooldown the next send is the half-open probe; the link is
  // healed, so it succeeds and the breaker closes.
  fabric.set_link_blocked(node_id(0), node_id(1), false);
  simu.run_until(simu.now() + net::kBreakerCooldown + 1);
  EXPECT_EQ(fabric.breaker_state(node_id(0), node_id(1)), net::BreakerState::kHalfOpen);
  fabric.send_reliable(data_msg(node_id(0), node_id(1), "x"), record);
  simu.run();
  EXPECT_EQ(statuses.back(), Status::kOk);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(fabric.breaker_state(node_id(0), node_id(1)), net::BreakerState::kClosed);
}

TEST(OverloadBreaker, TripFeedsFailureDetectorSuspicion) {
  core::ClusterParams p;
  p.num_nodes = 4;
  p.max_entities = 4;
  p.seed = 41;
  p.fabric.backoff_jitter = 0;
  p.fabric.max_retries = 2;
  p.fabric.breaker_threshold = 2;
  core::Cluster c(p);

  c.fault().cut_link(node_id(0), node_id(1));
  for (int i = 0; i < 2; ++i) {
    c.fabric().send_reliable(data_msg(node_id(0), node_id(1), "probe"));
    c.sim().run();
  }
  EXPECT_EQ(c.fabric().breaker_trips(), 1u);
  // The trip feeds membership suspicion immediately...
  EXPECT_EQ(c.detector().hinted(), std::vector<NodeId>{node_id(1)});
  // ...and a detection window in which the node IS heard from clears it
  // (heartbeats ride other links; a one-way cut is not a dead node).
  (void)c.detect();
  EXPECT_TRUE(c.detector().hinted().empty());
}

TEST(OverloadPressure, AimdThrottlesUnderLoadAndRecoversWhenCalm) {
  core::ClusterParams p;
  p.num_nodes = 4;
  p.max_entities = 8;
  p.seed = 61;
  p.update_batching.mtu_bytes = 256;
  p.fabric.ingress_queue_limit = 8;
  p.fabric.ingress_service = 100 * sim::kMicrosecond;
  p.pressure = true;
  core::Cluster c(p);
  ASSERT_NE(c.pressure(), nullptr);
  const std::uint64_t initial = core::kInitialUpdateBudget;

  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    mem::MemoryEntity& e =
        c.create_entity(node_id(n), EntityKind::kProcess, 256, 256);
    workload::fill(e, workload::defaults_for(workload::Kind::kRandom, n + 3));
  }
  // The initial full publication floods the undersized fabric: multiplicative
  // decrease must bite on every node that shed.
  (void)c.scan_all();
  std::uint64_t pressured_min = ~0ull;
  for (const auto& s : c.pressure()->snapshot()) {
    pressured_min = std::min(pressured_min, s.update_budget);
  }
  EXPECT_LT(pressured_min, initial);
  EXPECT_GE(c.pressure()->throttle_events(), 1u);

  // Calm epochs: additive increase recovers budgets and the regeneration
  // path refills any credit purse that drained to zero.
  for (int i = 0; i < 12; ++i) (void)c.scan_all();
  std::uint64_t calm_min = ~0ull;
  for (const auto& s : c.pressure()->snapshot()) {
    calm_min = std::min(calm_min, s.update_budget);
    EXPECT_GT(s.credits, 0u);
  }
  EXPECT_GT(calm_min, pressured_min);
  // The budget gauges mirror the controller state.
  EXPECT_EQ(c.metrics().gauge_total("core", "update_budget"),
            static_cast<std::int64_t>([&] {
              std::uint64_t sum = 0;
              for (const auto& s : c.pressure()->snapshot()) sum += s.update_budget;
              return sum;
            }()));
}

// The fixed timings and AIMD starting points, written as literals so the
// test pins the values themselves, whatever names carry them.

TEST(OverloadPinned, BackoffDoublesFromTwoMillisecondsUpToFour) {
  sim::Simulation simu{1};
  net::Fabric fabric(simu, net::FabricParams{});
  EXPECT_EQ(fabric.backoff_base(1), 2 * sim::kMillisecond);
  EXPECT_EQ(fabric.backoff_base(2), 4 * sim::kMillisecond);
  EXPECT_EQ(fabric.backoff_base(3), 4 * sim::kMillisecond);
  EXPECT_EQ(fabric.backoff_base(4), 4 * sim::kMillisecond);
}

TEST(OverloadPinned, FailedProbesDoubleTheCooldownUpToSixteenTimesFifty) {
  sim::Simulation simu{7};
  net::FabricParams params;
  params.backoff_jitter = 0;
  params.max_retries = 1;
  params.breaker_threshold = 1;
  net::Fabric fabric(simu, params);
  int got = 0;
  register_counting_sink(fabric, node_id(0), got);
  register_counting_sink(fabric, node_id(1), got);
  fabric.set_link_blocked(node_id(0), node_id(1), true);

  // The first timeout opens the breaker for 50 ms; every failed half-open
  // probe re-opens it for twice as long, capped at 800 ms.
  const std::vector<sim::Time> cooldowns_ms = {50, 100, 200, 400, 800, 800};
  for (const sim::Time ms : cooldowns_ms) {
    fabric.send_reliable(data_msg(node_id(0), node_id(1), "x"));
    const sim::Time opened = simu.now();
    simu.run_until(opened + ms * sim::kMillisecond - 1);
    EXPECT_EQ(fabric.breaker_state(node_id(0), node_id(1)), net::BreakerState::kOpen) << ms;
    simu.run_until(opened + ms * sim::kMillisecond);
    EXPECT_EQ(fabric.breaker_state(node_id(0), node_id(1)), net::BreakerState::kHalfOpen)
        << ms;
  }
  EXPECT_EQ(fabric.breaker_trips(), cooldowns_ms.size());
  EXPECT_EQ(got, 0);
}

TEST(OverloadPinned, DetectionWindowIsThreeFiveMillisecondRoundsPlusFive) {
  core::ClusterParams p;
  p.num_nodes = 4;
  core::Cluster c(p);
  const sim::Time t0 = c.sim().now();
  (void)c.detect();
  EXPECT_EQ(c.sim().now() - t0, (3 * 5 + 5) * sim::kMillisecond);

  // A probe of a crashed node gives up after 10 ms.
  c.fault().crash(node_id(1));
  const sim::Time t1 = c.sim().now();
  sim::Time verdict_at = -1;
  c.detector().probe(node_id(0), node_id(1), [&](bool alive) {
    EXPECT_FALSE(alive);
    verdict_at = c.sim().now();
  });
  c.sim().run();
  EXPECT_EQ(verdict_at - t1, 10 * sim::kMillisecond);
}

TEST(OverloadPinned, PressuredClusterStartsAtBudget4096Quota32Credits8) {
  core::ClusterParams p;
  p.num_nodes = 4;
  p.pressure = true;
  core::Cluster c(p);
  ASSERT_NE(c.pressure(), nullptr);
  for (const auto& s : c.pressure()->snapshot()) {
    EXPECT_EQ(s.update_budget, 4096u);
    EXPECT_EQ(s.flush_quota, 32u);
    EXPECT_EQ(s.credits, 8u);
  }
  // One calm epoch adds 512 to the budget and 4 to the quota.
  (void)c.scan_all();
  for (const auto& s : c.pressure()->snapshot()) {
    EXPECT_EQ(s.update_budget, 4608u);
    EXPECT_EQ(s.flush_quota, 36u);
    EXPECT_FALSE(s.throttled);
  }
}

}  // namespace
}  // namespace concord
