// End-to-end tests for the causal observability plane: cross-node trace
// propagation, the flight recorder's postmortem triggers, and the invariant
// watchdog — including the headline chaos scenario: a node crashes
// mid-command, the command completes kDegraded, and the exported trace
// still shows one connected causal tree spanning the surviving nodes.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "obs/trace_analysis.hpp"
#include "services/null_service.hpp"
#include "svc/command_engine.hpp"
#include "workload/workloads.hpp"

namespace concord {
namespace {

std::unique_ptr<core::Cluster> make_cluster(std::uint32_t nodes, std::uint64_t seed,
                                            bool traced, bool watchdog = false) {
  core::ClusterParams p;
  p.num_nodes = nodes;
  p.max_entities = 64;
  p.seed = seed;
  p.trace_propagation = traced;
  p.watchdog.enabled = watchdog;
  return std::make_unique<core::Cluster>(p);
}

std::vector<EntityId> populate(core::Cluster& c, std::size_t blocks = 12) {
  std::vector<EntityId> out;
  for (std::uint32_t n = 0; n < c.num_nodes(); ++n) {
    mem::MemoryEntity& e =
        c.create_entity(node_id(n), EntityKind::kProcess, blocks, 256);
    workload::fill(e, workload::defaults_for(workload::Kind::kMoldy, n + 1));
    out.push_back(e.id());
  }
  (void)c.scan_all();
  return out;
}

// ----------------------------------------------------- causal propagation

TEST(CausalTrace, HealthyCommandExportsConnectedCrossNodeTree) {
  auto c = make_cluster(4, 101, /*traced=*/true);
  const auto ses = populate(*c);
  services::NullService null;
  svc::CommandEngine engine(*c);
  svc::CommandSpec spec;
  spec.service_entities = ses;
  const svc::CommandStats s = engine.execute(null, spec);
  ASSERT_TRUE(ok(s.status));

  const Result<obs::trace::Analysis> res =
      obs::trace::analyze_text(c->tracer().to_chrome_json());
  ASSERT_TRUE(res.has_value());
  const obs::trace::Analysis& a = res.value();
  EXPECT_TRUE(a.problems.empty()) << obs::trace::report(a);
  EXPECT_GT(a.flows_matched, 0u) << "cross-node sends must link to receives";
  ASSERT_EQ(a.commands.size(), 1u);
  const obs::trace::CommandProfile& cmd = a.commands[0];
  EXPECT_EQ(cmd.nodes.size(), 4u) << "all nodes are causally reachable from the command";
  EXPECT_FALSE(cmd.critical_path.empty());
  EXPECT_EQ(cmd.phases.size(), 6u);
  EXPECT_FALSE(cmd.fanout.empty()) << "flow events must attribute to the command root";
}

TEST(CausalTrace, DegradedCommandStillFormsOneTreeAndDumpsBlackbox) {
  auto c = make_cluster(4, 102, /*traced=*/true);
  const auto ses = populate(*c);
  // Crash an owner behind the detector's back: the engine discovers it at
  // the phase deadline via probes and completes degraded.
  c->fault().crash(node_id(1));

  services::NullService null;
  svc::CommandEngine engine(*c);
  svc::CommandSpec spec;
  spec.service_entities = ses;
  const svc::CommandStats s = engine.execute(null, spec);
  ASSERT_EQ(s.status, Status::kDegraded);

  // The degraded completion is a postmortem trigger: the flight recorder
  // must have dumped, and the dump must carry the excluded-node event.
  EXPECT_GE(c->blackbox().dumps(), 1u);
  EXPECT_EQ(c->blackbox().last_reason(), "degraded_command");
  EXPECT_NE(c->blackbox().last_dump().find("node_excluded"), std::string::npos);

  const Result<obs::trace::Analysis> res =
      obs::trace::analyze_text(c->tracer().to_chrome_json());
  ASSERT_TRUE(res.has_value());
  const obs::trace::Analysis& a = res.value();
  EXPECT_TRUE(a.problems.empty()) << obs::trace::report(a);
  ASSERT_EQ(a.commands.size(), 1u);
  const obs::trace::CommandProfile& cmd = a.commands[0];
  EXPECT_GE(cmd.nodes.size(), 3u) << "survivors stay causally connected to the command";
  EXPECT_FALSE(cmd.critical_path.empty());
  EXPECT_GT(a.flows_matched, 0u);
  // Some sends died with the crashed node: started flows may outnumber
  // finished ones, but never the other way around.
  EXPECT_GE(a.flow_starts, a.flows_matched);
}

TEST(CausalTrace, BatchedUpdatesCarryTheScanRootAcrossNodes) {
  auto c = make_cluster(4, 103, /*traced=*/true);
  (void)populate(*c);  // scan_all ships batched updates under the scan root

  const std::string json = c->tracer().to_chrome_json();
  // The scan's update datagrams must appear as flow events and land on
  // visible apply_batch spans at the owners.
  EXPECT_NE(json.find("msg:dht_update_batch"), std::string::npos);
  EXPECT_NE(json.find("apply_batch"), std::string::npos);
  const Result<obs::trace::Analysis> res = obs::trace::analyze_text(json);
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res.value().problems.empty());
  EXPECT_GT(res.value().msg_counts.count("msg:dht_update_batch"), 0u);
}

// --------------------------------------------------------------- defaults

TEST(CausalTrace, DefaultOffLeavesTraceAndMetricsUntouched) {
  auto c = make_cluster(4, 104, /*traced=*/false);
  const auto ses = populate(*c);
  services::NullService null;
  svc::CommandEngine engine(*c);
  svc::CommandSpec spec;
  spec.service_entities = ses;
  ASSERT_TRUE(ok(engine.execute(null, spec).status));

  const std::string json = c->tracer().to_chrome_json();
  EXPECT_EQ(json.find("\"ph\":\"s\""), std::string::npos)
      << "no flow events without trace propagation";
  EXPECT_EQ(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_EQ(json.find("apply_batch"), std::string::npos)
      << "untraced batches leave no apply markers";

  const obs::Registry& m = c->metrics();
  EXPECT_EQ(m.counter_total("obs", "watchdog_runs"), 0u)
      << "the watchdog is off by default and never evaluated";
  EXPECT_EQ(m.counter_total("obs", "watchdog_violations"), 0u);
  EXPECT_EQ(m.counter_total("obs", "blackbox_dumps"), 0u)
      << "a healthy command dumps nothing";
}

TEST(CausalTrace, PropagationOnlyAddsWireBytesToTracedDatagrams) {
  // Two identical healthy runs, tracing off vs on: the traced run pays
  // exactly 16 bytes per stamped non-loopback datagram and nothing else;
  // message *counts* are identical.
  auto off = make_cluster(4, 105, /*traced=*/false);
  auto on = make_cluster(4, 105, /*traced=*/true);
  (void)populate(*off);
  (void)populate(*on);
  const net::NodeTraffic toff = off->fabric().total_traffic();
  const net::NodeTraffic ton = on->fabric().total_traffic();
  EXPECT_EQ(toff.msgs_sent, ton.msgs_sent);
  EXPECT_GT(ton.bytes_sent, toff.bytes_sent);
  EXPECT_EQ((ton.bytes_sent - toff.bytes_sent) % net::kTraceCtxBytes, 0u);
}

// --------------------------------------------------------------- watchdog

TEST(Watchdog, CleanOnHealthyCluster) {
  auto c = make_cluster(4, 106, /*traced=*/true, /*watchdog=*/true);
  const auto ses = populate(*c);  // scan_all evaluates at its quiescent point
  services::NullService null;
  svc::CommandEngine engine(*c);
  svc::CommandSpec spec;
  spec.service_entities = ses;
  ASSERT_TRUE(ok(engine.execute(null, spec).status));

  EXPECT_EQ(c->check_invariants(), 0u) << [&] {
    std::string all;
    for (const auto& f : c->watchdog().last_findings()) {
      all += f.invariant + ": " + f.detail + "; ";
    }
    return all;
  }();
  EXPECT_GE(c->watchdog().runs(), 2u) << "scan boundary + explicit check";
  EXPECT_EQ(c->watchdog().violations(), 0u);
}

TEST(Watchdog, FlagsInjectedConservationViolation) {
  auto c = make_cluster(3, 107, /*traced=*/false);
  (void)populate(*c);
  ASSERT_EQ(c->check_invariants(), 0u);

  // Forge a phantom send: one message the fabric never delivered, dropped,
  // shed, or blackholed. The conservation identity must notice.
  c->metrics().counter("net", "msgs_sent", 0).inc();
  EXPECT_EQ(c->check_invariants(), 1u);
  ASSERT_EQ(c->watchdog().last_findings().size(), 1u);
  EXPECT_EQ(c->watchdog().last_findings()[0].invariant, "net_conservation");
  EXPECT_EQ(c->metrics().counter_total("obs", "watchdog_viol.net_conservation"), 1u);
  // The violation hook is wired to the flight recorder: evidence captured.
  EXPECT_GE(c->blackbox().dumps(), 1u);
  EXPECT_EQ(c->blackbox().last_reason(), "watchdog:net_conservation");
}

TEST(Watchdog, FlagsInjectedGaugeDrift) {
  auto c = make_cluster(3, 108, /*traced=*/false);
  (void)populate(*c);
  ASSERT_EQ(c->check_invariants(), 0u);
  c->metrics().gauge("dht", "unique_hashes", 1).add(5);  // phantom occupancy
  EXPECT_EQ(c->check_invariants(), 1u);
  EXPECT_EQ(c->watchdog().last_findings()[0].invariant, "dht_gauge_consistency");
}

}  // namespace
}  // namespace concord
