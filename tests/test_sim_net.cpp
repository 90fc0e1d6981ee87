// Tests for the simulation core and the emulated network fabric.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "core/cluster.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "workload/workloads.hpp"

namespace concord {
namespace {

TEST(Simulation, EventsFireInTimeOrder) {
  sim::Simulation s;
  std::vector<int> order;
  s.at(30, [&] { order.push_back(3); });
  s.at(10, [&] { order.push_back(1); });
  s.at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Simulation, EqualTimesFireFifo) {
  sim::Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.at(100, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, HandlersCanScheduleMore) {
  sim::Simulation s;
  int fired = 0;
  s.after(5, [&] {
    ++fired;
    s.after(5, [&] { ++fired; });
  });
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 10);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  sim::Simulation s;
  int fired = 0;
  s.at(10, [&] { ++fired; });
  s.at(100, [&] { ++fired; });
  s.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 50);
  EXPECT_EQ(s.pending_events(), 1u);
}

// ---------------------------------------------------------------------------
// Sorted runs: pre-sorted (time, seq) keys merged with the heap.
// ---------------------------------------------------------------------------

/// Loads `keys` as the run; firing entry i appends `names[i]` to `order`.
void load_named_run(sim::Simulation& s, const std::vector<sim::RunKey>& keys,
                    const std::vector<std::string>& names, std::vector<std::string>& order) {
  s.load_run(keys, [&order, &names](std::uint32_t i) { order.push_back(names[i]); });
}

TEST(SortedRun, EqualTimesInterleaveWithTheHeapBySeq) {
  // Run keys and heap events at one instant, their seqs taken alternately
  // (a heap event first, then a key, and so on): the merge must follow the
  // seqs, whichever side each one came from.
  sim::Simulation s;
  std::vector<std::string> order;
  s.at(100, [&] { order.push_back("h0"); });
  const sim::RunKey r0{100, s.take_seq(), 0};
  s.at(100, [&] { order.push_back("h1"); });
  const sim::RunKey r1{100, s.take_seq(), 1};
  const sim::RunKey r2{100, s.take_seq(), 2};
  s.at(100, [&] { order.push_back("h2"); });
  const std::vector<sim::RunKey> keys{r0, r1, r2};
  const std::vector<std::string> names{"r0", "r1", "r2"};
  load_named_run(s, keys, names, order);
  s.run();
  EXPECT_EQ(order, (std::vector<std::string>{"h0", "r0", "h1", "r1", "r2", "h2"}));
  EXPECT_EQ(s.now(), 100);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(SortedRun, MergesWithTheHeapByTime) {
  sim::Simulation s;
  std::vector<std::string> order;
  const sim::RunKey r0{10, s.take_seq(), 0};
  const sim::RunKey r1{30, s.take_seq(), 1};
  s.at(20, [&] { order.push_back("h20"); });
  s.at(5, [&] { order.push_back("h5"); });
  const std::vector<sim::RunKey> keys{r0, r1};
  const std::vector<std::string> names{"r10", "r30"};
  load_named_run(s, keys, names, order);
  s.run();
  EXPECT_EQ(order, (std::vector<std::string>{"h5", "r10", "h20", "r30"}));
  EXPECT_EQ(s.now(), 30);
}

TEST(SortedRun, RunUntilStopsInsideARunAndRunResumesIt) {
  sim::Simulation s;
  std::vector<std::string> order;
  std::vector<sim::RunKey> keys;
  for (std::uint32_t i = 0; i < 4; ++i) keys.push_back({10 * (i + 1), s.take_seq(), i});
  s.at(25, [&] { order.push_back("h25"); });
  const std::vector<std::string> names{"r10", "r20", "r30", "r40"};
  load_named_run(s, keys, names, order);
  EXPECT_EQ(s.pending_events(), 5u);  // four run entries + one heap event
  s.run_until(20);
  EXPECT_EQ(order, (std::vector<std::string>{"r10", "r20"}));
  EXPECT_EQ(s.now(), 20);
  EXPECT_EQ(s.pending_events(), 3u);
  s.run();
  EXPECT_EQ(order, (std::vector<std::string>{"r10", "r20", "h25", "r30", "r40"}));
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.now(), 40);
}

TEST(SortedRun, SameInstantEventFromARunEntryFiresAfterLowerSeqEntries) {
  // The first entry schedules an event for its own instant. Every entry
  // parked before it took a lower seq, so the event fires after all three,
  // exactly as it would have with the entries on the heap.
  sim::Simulation s;
  std::vector<std::string> order;
  std::vector<sim::RunKey> keys;
  for (std::uint32_t i = 0; i < 3; ++i) keys.push_back({50, s.take_seq(), i});
  s.load_run(keys, [&](std::uint32_t i) {
    order.push_back("r" + std::to_string(i));
    if (i == 0) s.after(0, [&] { order.push_back("spawned"); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<std::string>{"r0", "r1", "r2", "spawned"}));
}

TEST(SortedRun, ANewRunLoadsOnceTheLastIsConsumed) {
  sim::Simulation s;
  std::vector<std::string> order;
  const std::vector<sim::RunKey> first{{10, s.take_seq(), 0}};
  const std::vector<std::string> names{"a", "b"};
  load_named_run(s, first, names, order);
  s.run();
  const std::vector<sim::RunKey> second{{20, s.take_seq(), 1}};
  load_named_run(s, second, names, order);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b"}));
}

net::Message text_msg(NodeId src, NodeId dst, const std::string& s) {
  return net::make_message(src, dst, net::MsgType::kControl, s, s.size());
}

struct FabricFixture : ::testing::Test {
  sim::Simulation simu{7};
  net::FabricParams params;
  void register_sink(net::Fabric& fabric, NodeId n, std::vector<std::string>& sink) {
    fabric.register_node(n, [&sink](const net::Message& m) {
      sink.push_back(m.as<std::string>());
    });
  }
};

TEST_F(FabricFixture, UnreliableDeliversWithoutLoss) {
  net::Fabric fabric(simu, params);
  std::vector<std::string> got;
  register_sink(fabric, node_id(0), got);
  register_sink(fabric, node_id(1), got);
  fabric.send_unreliable(text_msg(node_id(0), node_id(1), "hi"));
  simu.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "hi");
  EXPECT_GT(simu.now(), 0);  // latency was charged
}

TEST_F(FabricFixture, UnreliableLossRateIsRespected) {
  params.loss_rate = 0.3;
  net::Fabric fabric(simu, params);
  std::vector<std::string> got;
  register_sink(fabric, node_id(0), got);
  register_sink(fabric, node_id(1), got);
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    fabric.send_unreliable(text_msg(node_id(0), node_id(1), "m"));
  }
  simu.run();
  const double delivered = static_cast<double>(got.size()) / kN;
  EXPECT_NEAR(delivered, 0.7, 0.03);
  EXPECT_EQ(fabric.traffic(node_id(0)).msgs_dropped + got.size(), static_cast<std::size_t>(kN));
}

TEST_F(FabricFixture, ReliableAlwaysDeliversUnderHeavyLoss) {
  params.loss_rate = 0.4;
  net::Fabric fabric(simu, params);
  std::vector<std::string> got;
  register_sink(fabric, node_id(0), got);
  register_sink(fabric, node_id(1), got);
  int completions = 0;
  constexpr int kN = 500;
  for (int i = 0; i < kN; ++i) {
    fabric.send_reliable(text_msg(node_id(0), node_id(1), "r"),
                         [&](Status s) { completions += ok(s) ? 1 : 0; });
  }
  simu.run();
  EXPECT_EQ(got.size(), static_cast<std::size_t>(kN));  // exactly once each
  EXPECT_EQ(completions, kN);  // ack losses retried internally
}

TEST_F(FabricFixture, ReliableCostsMoreUnderLoss) {
  // The same reliable message should complete later when loss forces
  // retransmits (timeouts are charged to virtual time).
  sim::Time clean_time = 0, lossy_time = 0;
  {
    sim::Simulation s1(7);
    net::Fabric fabric(s1, net::FabricParams{});
    std::vector<std::string> got;
    fabric.register_node(node_id(0), [](const net::Message&) {});
    fabric.register_node(node_id(1), [](const net::Message&) {});
    for (int i = 0; i < 200; ++i) {
      fabric.send_reliable(text_msg(node_id(0), node_id(1), "x"));
    }
    s1.run();
    clean_time = s1.now();
  }
  {
    sim::Simulation s2(7);
    net::FabricParams p;
    p.loss_rate = 0.5;
    net::Fabric fabric(s2, p);
    fabric.register_node(node_id(0), [](const net::Message&) {});
    fabric.register_node(node_id(1), [](const net::Message&) {});
    for (int i = 0; i < 200; ++i) {
      fabric.send_reliable(text_msg(node_id(0), node_id(1), "x"));
    }
    s2.run();
    lossy_time = s2.now();
  }
  EXPECT_GT(lossy_time, clean_time);
}

TEST_F(FabricFixture, BroadcastCompletesAfterAllAcks) {
  net::Fabric fabric(simu, params);
  std::vector<std::string> got;
  for (std::uint32_t n = 0; n < 5; ++n) register_sink(fabric, node_id(n), got);
  std::vector<NodeId> dsts = {node_id(1), node_id(2), node_id(3), node_id(4)};
  bool done = false;
  fabric.broadcast_reliable(node_id(0), net::MsgType::kControl, std::any(std::string("b")), 1,
                            dsts, [&](Status s) {
                              EXPECT_TRUE(ok(s));
                              done = true;
                            });
  simu.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(got.size(), 4u);
}

TEST_F(FabricFixture, EmptyBroadcastCompletesImmediately) {
  net::Fabric fabric(simu, params);
  fabric.register_node(node_id(0), [](const net::Message&) {});
  bool done = false;
  fabric.broadcast_reliable(node_id(0), net::MsgType::kControl, std::any(std::string()), 0, {},
                            [&](Status s) { done = ok(s); });
  simu.run();
  EXPECT_TRUE(done);
}

TEST_F(FabricFixture, TrafficAccountingTracksBytes) {
  net::Fabric fabric(simu, params);
  std::vector<std::string> got;
  register_sink(fabric, node_id(0), got);
  register_sink(fabric, node_id(1), got);
  fabric.send_unreliable(text_msg(node_id(0), node_id(1), std::string(100, 'x')));
  simu.run();
  EXPECT_EQ(fabric.traffic(node_id(0)).bytes_sent, 100 + net::kWireHeaderBytes);
  EXPECT_EQ(fabric.traffic(node_id(0)).msgs_sent, 1u);
  EXPECT_EQ(fabric.traffic(node_id(1)).bytes_received, 100 + net::kWireHeaderBytes);
  EXPECT_EQ(fabric.type_bytes(net::MsgType::kControl), 100 + net::kWireHeaderBytes);
  EXPECT_EQ(fabric.type_msgs(net::MsgType::kControl), 1u);
  EXPECT_EQ(fabric.type_msgs(net::MsgType::kData), 0u);
  const net::TypeTraffic tt = fabric.type_traffic(net::MsgType::kControl);
  EXPECT_EQ(tt.msgs, 1u);
  EXPECT_EQ(tt.bytes, 100 + net::kWireHeaderBytes);

  // reset_traffic clears BOTH the per-node view and the per-type view.
  fabric.reset_traffic();
  EXPECT_EQ(fabric.total_traffic().bytes_sent, 0u);
  EXPECT_EQ(fabric.total_traffic().msgs_sent, 0u);
  EXPECT_EQ(fabric.type_msgs(net::MsgType::kControl), 0u);
  EXPECT_EQ(fabric.type_bytes(net::MsgType::kControl), 0u);

  // Accounting keeps working after a reset (same resolved cells).
  fabric.send_unreliable(text_msg(node_id(0), node_id(1), std::string(50, 'y')));
  simu.run();
  EXPECT_EQ(fabric.traffic(node_id(0)).bytes_sent, 50 + net::kWireHeaderBytes);
  EXPECT_EQ(fabric.type_msgs(net::MsgType::kControl), 1u);
}

TEST_F(FabricFixture, EgressSerializationDelaysBigBursts) {
  // 100 large messages from one node must take at least their serialization
  // time end to end (bandwidth model).
  net::Fabric fabric(simu, params);
  fabric.register_node(node_id(0), [](const net::Message&) {});
  fabric.register_node(node_id(1), [](const net::Message&) {});
  const std::string big(10000, 'x');
  for (int i = 0; i < 100; ++i) {
    fabric.send_unreliable(text_msg(node_id(0), node_id(1), big));
  }
  simu.run();
  const auto min_tx = static_cast<sim::Time>(100 * 10000 * params.ns_per_byte);
  EXPECT_GE(simu.now(), min_tx);
}

TEST_F(FabricFixture, ReliableTimesOutWhenRetriesExhausted) {
  // A cut src->dst link blackholes every data attempt: the sender burns
  // through max_retries backoff waits and reports kTimeout; the receiver
  // never sees the message. Jitter is zeroed so the schedule is exact.
  params.backoff_jitter = 0;
  net::Fabric fabric(simu, params);
  std::vector<std::string> got;
  register_sink(fabric, node_id(0), got);
  register_sink(fabric, node_id(1), got);
  fabric.set_link_blocked(node_id(0), node_id(1), true);
  Status status = Status::kOk;
  fabric.send_reliable(text_msg(node_id(0), node_id(1), "r"),
                       [&](Status s) { status = s; });
  simu.run();
  EXPECT_EQ(status, Status::kTimeout);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(fabric.traffic(node_id(0)).msgs_blackholed,
            static_cast<std::uint64_t>(params.max_retries));
  // The k-th consecutive failure waits backoff_base(k): exponential from
  // kAckTimeout, capped at kMaxBackoff. The give-up time is the exact sum.
  sim::Time expect = 0;
  for (int k = 1; k <= params.max_retries; ++k) expect += fabric.backoff_base(k);
  EXPECT_EQ(simu.now(), expect);
  EXPECT_GT(simu.now(), static_cast<sim::Time>(params.max_retries) * net::kAckTimeout);
}

TEST_F(FabricFixture, ReliableRetryBudgetCapsTheWait) {
  // With a retry budget, a fully-blackholed send gives up at exactly the
  // budget instead of riding the whole exponential schedule out.
  params.backoff_jitter = 0;
  params.retry_budget = 5 * sim::kMillisecond;
  net::Fabric fabric(simu, params);
  std::vector<std::string> got;
  register_sink(fabric, node_id(0), got);
  register_sink(fabric, node_id(1), got);
  fabric.set_link_blocked(node_id(0), node_id(1), true);
  Status status = Status::kOk;
  fabric.send_reliable(text_msg(node_id(0), node_id(1), "r"),
                       [&](Status s) { status = s; });
  simu.run();
  EXPECT_EQ(status, Status::kTimeout);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(simu.now(), params.retry_budget);
}

TEST_F(FabricFixture, ReliableAckLossDeliversButReportsTimeout) {
  // At-least-once in action: data flows 0->1 fine but the reverse link is
  // cut, so every ack vanishes. The receiver handles the message exactly
  // once while the sender sees kTimeout — callers must tolerate this.
  net::Fabric fabric(simu, params);
  std::vector<std::string> got;
  register_sink(fabric, node_id(0), got);
  register_sink(fabric, node_id(1), got);
  fabric.set_link_blocked(node_id(1), node_id(0), true);
  Status status = Status::kOk;
  fabric.send_reliable(text_msg(node_id(0), node_id(1), "r"),
                       [&](Status s) { status = s; });
  simu.run();
  EXPECT_EQ(status, Status::kTimeout);
  ASSERT_EQ(got.size(), 1u);  // receiver deduped: handled exactly once
  EXPECT_EQ(got[0], "r");
  EXPECT_EQ(fabric.traffic(node_id(1)).msgs_blackholed,
            static_cast<std::uint64_t>(params.max_retries));
}

TEST_F(FabricFixture, DownNodeBlackholesBothDirections) {
  net::Fabric fabric(simu, params);
  std::vector<std::string> got;
  register_sink(fabric, node_id(0), got);
  register_sink(fabric, node_id(1), got);
  fabric.set_node_reachable(node_id(1), false);
  // Egress from the down node is silenced at the source...
  fabric.send_unreliable(text_msg(node_id(1), node_id(0), "from-down"));
  // ...and traffic addressed to it is silenced too.
  fabric.send_unreliable(text_msg(node_id(0), node_id(1), "to-down"));
  simu.run();
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(fabric.traffic(node_id(1)).msgs_blackholed, 1u);  // the egress attempt
  EXPECT_EQ(fabric.traffic(node_id(0)).msgs_blackholed, 1u);  // the ingress attempt
  EXPECT_EQ(fabric.traffic(node_id(0)).msgs_sent, 0u);  // never occupied the NIC

  // Restart: traffic flows again.
  fabric.set_node_reachable(node_id(1), true);
  fabric.send_unreliable(text_msg(node_id(0), node_id(1), "after-restart"));
  simu.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "after-restart");
}

TEST_F(FabricFixture, MidFlightCrashDropsDelivery) {
  // The datagram leaves a healthy source, but the destination crashes while
  // it is in flight: delivery-time re-check blackholes it at the dst.
  net::Fabric fabric(simu, params);
  std::vector<std::string> got;
  register_sink(fabric, node_id(0), got);
  register_sink(fabric, node_id(1), got);
  fabric.send_unreliable(text_msg(node_id(0), node_id(1), "doomed"));
  fabric.set_node_reachable(node_id(1), false);  // crash before delivery fires
  simu.run();
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(fabric.traffic(node_id(0)).msgs_sent, 1u);  // it did leave the NIC
  EXPECT_EQ(fabric.traffic(node_id(1)).msgs_blackholed, 1u);
}

TEST_F(FabricFixture, AsymmetricPartitionBlocksOneDirectionOnly) {
  net::Fabric fabric(simu, params);
  std::vector<std::string> got;
  register_sink(fabric, node_id(0), got);
  register_sink(fabric, node_id(1), got);
  fabric.set_link_blocked(node_id(0), node_id(1), true);
  fabric.send_unreliable(text_msg(node_id(0), node_id(1), "blocked"));
  fabric.send_unreliable(text_msg(node_id(1), node_id(0), "open"));
  simu.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "open");
  EXPECT_TRUE(fabric.link_blocked(node_id(0), node_id(1)));
  EXPECT_FALSE(fabric.link_blocked(node_id(1), node_id(0)));
}

TEST_F(FabricFixture, SetLossRateMidRunAffectsSubsequentTrafficOnly) {
  net::Fabric fabric(simu, params);  // starts lossless
  std::vector<std::string> got;
  register_sink(fabric, node_id(0), got);
  register_sink(fabric, node_id(1), got);
  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    fabric.send_unreliable(text_msg(node_id(0), node_id(1), "a"));
  }
  simu.run();
  EXPECT_EQ(got.size(), static_cast<std::size_t>(kN));  // lossless phase

  fabric.set_loss_rate(1.0);  // storm: everything subsequent is lost
  for (int i = 0; i < kN; ++i) {
    fabric.send_unreliable(text_msg(node_id(0), node_id(1), "b"));
  }
  simu.run();
  EXPECT_EQ(got.size(), static_cast<std::size_t>(kN));

  fabric.set_loss_rate(0.25);  // partial loss after the storm clears
  for (int i = 0; i < kN; ++i) {
    fabric.send_unreliable(text_msg(node_id(0), node_id(1), "c"));
  }
  simu.run();
  const double delivered = static_cast<double>(got.size() - kN) / kN;
  EXPECT_NEAR(delivered, 0.75, 0.04);
}

TEST_F(FabricFixture, PerLinkLossStacksOnGlobalRate) {
  params.loss_rate = 0.2;
  net::Fabric fabric(simu, params);
  std::vector<std::string> got;
  register_sink(fabric, node_id(0), got);
  register_sink(fabric, node_id(1), got);
  fabric.set_link_loss(node_id(0), node_id(1), 0.5);
  EXPECT_DOUBLE_EQ(fabric.link_loss(node_id(0), node_id(1)), 0.5);
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    fabric.send_unreliable(text_msg(node_id(0), node_id(1), "m"));
  }
  simu.run();
  // Combined loss = p + q - pq = 0.2 + 0.5 - 0.1 = 0.6.
  const double delivered = static_cast<double>(got.size()) / kN;
  EXPECT_NEAR(delivered, 0.4, 0.03);
  fabric.set_link_loss(node_id(0), node_id(1), 0.0);
  EXPECT_DOUBLE_EQ(fabric.link_loss(node_id(0), node_id(1)), 0.0);
}

/// A burst from three sources to two sinks under jitter-free timing (so
/// arrivals tie across sources), duplication and a bounded ingress queue,
/// with one heap event scheduled mid-burst for an instant inside the
/// delivery window. Returns the log of what fired when, plus the net cells.
std::string burst_log(bool bulk) {
  sim::Simulation simu{11};
  net::FabricParams p;
  p.jitter = 0;
  p.duplicate_rate = 0.3;
  p.ingress_queue_limit = 20;
  net::Fabric fabric(simu, p);
  std::string log;
  for (const std::uint32_t n : {3u, 4u}) {
    fabric.register_node(node_id(n), [&log, &simu](const net::Message& m) {
      log += std::to_string(simu.now()) + " " + m.as<std::string>() + "\n";
    });
  }
  fabric.set_bulk(bulk);
  for (std::uint32_t i = 0; i < 12; ++i) {
    for (std::uint32_t src = 0; src < 3; ++src) {
      const std::string body = std::to_string(src) + "." + std::to_string(i);
      fabric.send_unreliable(text_msg(node_id(src), node_id(3 + (i + src) % 2), body));
    }
    if (i == 5) {
      simu.at(simu.now() + p.base_latency + 2'000, [&] {
        log += std::to_string(simu.now()) + " crash 4\n";
        fabric.set_node_reachable(node_id(4), false);
      });
    }
  }
  fabric.set_bulk(false);
  simu.run();
  return log + fabric.metrics().to_json();
}

TEST(SortedRun, BulkDeliveryMatchesTheHeapPath) {
  // Parking, sorting and merging must reproduce the heap's firing order
  // exactly: same times, same tie order, same crash cut-off, same counters.
  const std::string heap = burst_log(false);
  EXPECT_NE(heap.find("crash 4"), std::string::npos);
  EXPECT_EQ(burst_log(true), heap);
}

// ---------------------------------------------------------------------------
// Sharded scan epochs: worker-count invariance under overload protection.
// ---------------------------------------------------------------------------

/// Runs full-rate scans against a deliberately undersized fabric (bounded
/// ingress, slow service, credit flow control, AIMD pressure controller) and
/// returns the metric snapshot + final virtual clock. The overload machinery
/// exercises every staging edge the serial scan has: deferred flushes, local
/// shedding, credit grants at delivery time, and pressure counters ticking on
/// scan-pool worker threads.
std::pair<std::string, sim::Time> pressured_fingerprint(std::size_t workers) {
  core::ClusterParams p;
  p.num_nodes = 6;
  p.max_entities = 64;
  p.seed = 7117;
  p.update_batching.mtu_bytes = 512;
  p.fabric.ingress_queue_limit = 12;
  p.fabric.ingress_service = 50 * sim::kMicrosecond;
  p.fabric.retry_budget = 20 * sim::kMillisecond;
  p.fabric.breaker_threshold = 6;
  p.pressure = true;
  p.sim_workers = workers;
  auto c = std::make_unique<core::Cluster>(p);
  for (std::uint32_t n = 0; n < p.num_nodes; ++n) {
    mem::MemoryEntity& e =
        c->create_entity(node_id(n), EntityKind::kProcess, 128, 256);
    workload::fill(e, workload::defaults_for(workload::Kind::kMoldy, n));
  }
  for (int round = 0; round < 4; ++round) {
    for (std::uint32_t i = 0; i < c->num_entities(); ++i) {
      workload::mutate(c->entity(entity_id(i)), 1.0,
                       static_cast<std::uint64_t>(round) * 97 + i);
    }
    (void)c->scan_all();
  }
  return {c->metrics().to_json(), c->sim().now()};
}

TEST(ShardedScan, PressuredRunByteIdenticalAcrossWorkerCounts) {
  const auto serial = pressured_fingerprint(1);
  EXPECT_GT(serial.second, 0u);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const auto sharded = pressured_fingerprint(workers);
    EXPECT_EQ(serial.first, sharded.first) << workers << " workers";
    EXPECT_EQ(serial.second, sharded.second) << workers << " workers";
  }
}

}  // namespace
}  // namespace concord
