// Tests for the observability layer: metrics registry, phase-span tracer,
// deterministic snapshots, and agreement between trace args, registry
// counters, and the legacy stats views.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "services/null_service.hpp"
#include "svc/command_engine.hpp"
#include "workload/workloads.hpp"

namespace concord {
namespace {

// ----------------------------------------------------------------- registry

TEST(Registry, CellsAreStableAndLabeled) {
  obs::Registry r;
  obs::Counter& a = r.counter("net", "msgs", 0);
  obs::Counter& b = r.counter("net", "msgs", 1);
  obs::Counter& again = r.counter("net", "msgs", 0);
  EXPECT_EQ(&a, &again) << "same label must resolve to the same cell";
  EXPECT_NE(&a, &b) << "different node labels are different cells";

  a.inc();
  a.inc(4);
  b.inc(10);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(r.counter_total("net", "msgs"), 15u);
  EXPECT_EQ(r.counter_total("net", "nope"), 0u);

  obs::Gauge& g = r.gauge("dht", "occupancy", 2);
  g.set(7);
  g.add(-3);
  EXPECT_EQ(g.value(), 4);
  EXPECT_EQ(r.gauge_total("dht", "occupancy"), 4);
  EXPECT_EQ(r.size(), 3u);
}

TEST(Registry, SubsystemResetIsScoped) {
  obs::Registry r;
  r.counter("net", "msgs").inc(3);
  r.counter("dht", "inserts").inc(9);
  r.histogram("net", "lat").record(16);
  r.reset("net");
  EXPECT_EQ(r.counter_total("net", "msgs"), 0u);
  EXPECT_EQ(r.histogram("net", "lat").count(), 0u);
  EXPECT_EQ(r.counter_total("dht", "inserts"), 9u) << "other subsystems must survive";
  r.reset();
  EXPECT_EQ(r.counter_total("dht", "inserts"), 0u);
}

TEST(Histogram, Log2Bucketing) {
  obs::Histogram h;
  h.record(0);     // bucket 0
  h.record(1);     // bucket 1
  h.record(2);     // bucket 2: [2,4)
  h.record(3);     // bucket 2
  h.record(1024);  // bucket 11: [1024,2048)
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(11), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1030u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1024u);
  EXPECT_EQ(h.mean(), 206u);
  EXPECT_EQ(obs::Histogram::bucket_floor(11), 1024u);
  EXPECT_EQ(obs::Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(obs::Histogram::bucket_of(1024), 11u);
}

TEST(Registry, JsonRoundTripsThroughParser) {
  obs::Registry r;
  r.counter("svc", "commands").inc(2);
  r.gauge("dht", "bytes", 3).set(-12);
  r.histogram("mem", "scan_cost_ns", 1).record(500);

  const Result<obs::json::Value> doc = obs::json::parse(r.to_json());
  ASSERT_TRUE(doc.has_value()) << "registry JSON must parse";
  const obs::json::Value* counters = doc.value().get("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->as_array().size(), 1u);
  const obs::json::Value& c = counters->as_array()[0];
  EXPECT_EQ(c.get("subsystem")->as_string(), "svc");
  EXPECT_EQ(c.get("name")->as_string(), "commands");
  EXPECT_EQ(c.get("value")->as_int(), 2);

  const obs::json::Value* gauges = doc.value().get("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->as_array()[0].get("value")->as_int(), -12);

  const obs::json::Value* hists = doc.value().get("histograms");
  ASSERT_NE(hists, nullptr);
  const obs::json::Value& h = hists->as_array()[0];
  EXPECT_EQ(h.get("count")->as_int(), 1);
  EXPECT_EQ(h.get("sum")->as_int(), 500);
  ASSERT_EQ(h.get("buckets")->as_array().size(), 1u);  // one non-empty bucket
}

// ------------------------------------------------------------------- tracer

TEST(Tracer, SpansNestAndExport) {
  obs::Tracer t;
  const auto outer = t.begin_span("command", "svc", 0, 1000);
  const auto inner = t.begin_span("phase:init", "svc", 0, 1500);
  const auto async = t.begin_async("dispatch", "svc", 2, 1700, 42);
  t.add_arg(inner, "acks", 4);
  t.end_span(inner, 2500);
  t.end_span(async, 2600);
  t.end_span(outer, 3000);
  const auto open = t.begin_span("stalled", "svc", 1, 5000);  // never closed
  (void)open;
  ASSERT_EQ(t.span_count(), 4u);
  EXPECT_GE(t.span(outer).begin, 0);
  EXPECT_LE(t.span(inner).begin, t.span(inner).end);

  const Result<obs::json::Value> doc = obs::json::parse(t.to_chrome_json());
  ASSERT_TRUE(doc.has_value()) << "trace JSON must parse";
  const obs::json::Value* events = doc.value().get("traceEvents");
  ASSERT_NE(events, nullptr);
  // 2 sync X events + b/e pair for the async span; the open span is skipped.
  ASSERT_EQ(events->as_array().size(), 4u);

  std::size_t x = 0, b = 0, e = 0;
  for (const obs::json::Value& ev : events->as_array()) {
    const std::string& ph = ev.get("ph")->as_string();
    if (ph == "X") ++x;
    if (ph == "b") ++b;
    if (ph == "e") ++e;
    EXPECT_NE(ev.get("ts"), nullptr);
    EXPECT_NE(ev.get("tid"), nullptr);
  }
  EXPECT_EQ(x, 2u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(e, 1u);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  obs::Tracer t;
  t.set_enabled(false);
  const auto id = t.begin_span("x", "y", 0, 10);
  EXPECT_EQ(id, obs::Tracer::kInvalid);
  t.end_span(id, 20);  // must be a safe no-op
  t.add_arg(id, "k", 1);
  EXPECT_EQ(t.span_count(), 0u);
}

// ---------------------------------------------------- end-to-end determinism

std::unique_ptr<core::Cluster> make_site(std::uint32_t nodes,
                                         std::size_t blocks_per_entity = 32,
                                         std::size_t hash_workers = 1) {
  core::ClusterParams p;
  p.num_nodes = nodes;
  p.max_entities = 32;
  p.fabric.loss_rate = 0.01;
  p.seed = 77;
  p.hash_workers = hash_workers;
  auto cluster = std::make_unique<core::Cluster>(p);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    mem::MemoryEntity& e = cluster->create_entity(node_id(n), EntityKind::kProcess,
                                                  blocks_per_entity, 512);
    workload::fill(e, workload::defaults_for(workload::Kind::kMoldy, 5));
  }
  (void)cluster->scan_all();
  return cluster;
}

svc::CommandStats run_null_command(core::Cluster& cluster) {
  services::NullService null;
  svc::CommandEngine engine(cluster);
  svc::CommandSpec spec;
  spec.service_entities = cluster.live_entities();
  return engine.execute(null, spec);
}

TEST(Observability, SnapshotsAreDeterministicAcrossIdenticalRuns) {
  auto a = make_site(4);
  auto b = make_site(4);
  (void)run_null_command(*a);
  (void)run_null_command(*b);
  EXPECT_EQ(a->metrics().to_json(), b->metrics().to_json())
      << "same seed, same workload: snapshots must be byte-identical";
  EXPECT_EQ(a->metrics().to_csv(), b->metrics().to_csv());
  EXPECT_EQ(a->tracer().to_chrome_json(), b->tracer().to_chrome_json());
}

TEST(Observability, SnapshotsAreIdenticalForAnyHashWorkerCount) {
  // The parallel hasher must be invisible to every observable: 128 blocks
  // per entity is comfortably above the parallel threshold, so the 4-worker
  // run genuinely exercises the pool while the 1-worker run stays serial.
  auto serial = make_site(4, 128, 1);
  auto pooled = make_site(4, 128, 4);
  (void)run_null_command(*serial);
  (void)run_null_command(*pooled);
  EXPECT_EQ(serial->metrics().to_json(), pooled->metrics().to_json())
      << "thread count must not change any snapshot byte";
  EXPECT_EQ(serial->metrics().to_csv(), pooled->metrics().to_csv());
  EXPECT_EQ(serial->tracer().to_chrome_json(), pooled->tracer().to_chrome_json());
  EXPECT_EQ(serial->sim().now(), pooled->sim().now());
}

TEST(Observability, CommandSpanArgsAgreeWithStatsAndRegistry) {
  auto cluster = make_site(4);
  const svc::CommandStats stats = run_null_command(*cluster);
  ASSERT_TRUE(ok(stats.status));
  ASSERT_GT(stats.distinct_hashes, 0u);

  // One command ran, so registry totals equal the returned delta view.
  const obs::Registry& m = cluster->metrics();
  EXPECT_EQ(m.counter_total("svc", "commands"), 1u);
  EXPECT_EQ(m.counter_total("svc", "distinct_hashes"), stats.distinct_hashes);
  EXPECT_EQ(m.counter_total("svc", "collective_handled"), stats.collective_handled);
  EXPECT_EQ(m.counter_total("svc", "collective_retries"), stats.collective_retries);
  EXPECT_EQ(m.counter_total("svc", "collective_stale"), stats.collective_stale);
  EXPECT_EQ(m.counter_total("svc", "local_blocks"), stats.local_blocks);
  EXPECT_EQ(m.counter_total("svc", "local_covered"), stats.local_covered);
  EXPECT_EQ(m.counter_total("svc", "local_uncovered"), stats.local_uncovered);
  // Every phase of the protocol completed exactly once.
  for (const char* phase : {"phase.init", "phase.coll_start", "phase.drive",
                            "phase.coll_fin", "phase.local", "phase.deinit"}) {
    EXPECT_EQ(m.counter_total("svc", phase), 1u) << phase;
  }

  // The command span's args carry the same numbers.
  const obs::Tracer& t = cluster->tracer();
  const obs::TraceSpan* cmd = nullptr;
  std::size_t phase_spans = 0, dispatch_spans = 0;
  for (std::size_t i = 0; i < t.span_count(); ++i) {
    const obs::TraceSpan& s = t.span(i);
    if (s.name == "command") cmd = &s;
    if (s.name.rfind("phase:", 0) == 0) ++phase_spans;
    if (s.name == "dispatch") ++dispatch_spans;
  }
  ASSERT_NE(cmd, nullptr);
  EXPECT_EQ(phase_spans, 6u);
  EXPECT_EQ(dispatch_spans, stats.distinct_hashes);
  EXPECT_EQ(cmd->begin, stats.start);
  EXPECT_EQ(cmd->end, stats.end);
  auto arg = [&](const std::string& key) -> std::uint64_t {
    for (const obs::TraceArg& a : cmd->args) {
      if (a.key == key) return a.value;
    }
    ADD_FAILURE() << "missing arg " << key;
    return ~std::uint64_t{0};
  };
  EXPECT_EQ(arg("distinct_hashes"), stats.distinct_hashes);
  EXPECT_EQ(arg("collective_handled"), stats.collective_handled);
  EXPECT_EQ(arg("local_blocks"), stats.local_blocks);
  EXPECT_EQ(arg("local_covered"), stats.local_covered);

  // Phase spans cover the command interval and nest inside it.
  for (std::size_t i = 0; i < t.span_count(); ++i) {
    const obs::TraceSpan& s = t.span(i);
    if (s.name.rfind("phase:", 0) != 0) continue;
    EXPECT_GE(s.begin, cmd->begin);
    EXPECT_LE(s.end, cmd->end);
  }
}

TEST(Observability, LegacyStatsViewsMatchRegistry) {
  auto cluster = make_site(3);
  const obs::Registry& m = cluster->metrics();

  // Fabric view == "net" counters.
  const net::NodeTraffic total = cluster->fabric().total_traffic();
  EXPECT_EQ(total.msgs_sent, m.counter_total("net", "msgs_sent"));
  EXPECT_EQ(total.bytes_sent, m.counter_total("net", "bytes_sent"));
  EXPECT_EQ(total.msgs_dropped, m.counter_total("net", "msgs_dropped"));

  // DHT occupancy gauges == store state.
  std::int64_t hashes = 0;
  for (std::uint32_t n = 0; n < cluster->num_nodes(); ++n) {
    hashes += static_cast<std::int64_t>(cluster->daemon(node_id(n)).store().unique_hashes());
  }
  EXPECT_EQ(m.gauge_total("dht", "unique_hashes"), hashes);

  // Monitor counters: one full scan hashed every block of every entity.
  EXPECT_EQ(m.counter_total("mem", "blocks_examined"), 3u * 32u);
  EXPECT_EQ(m.counter_total("mem", "blocks_hashed"), 3u * 32u);
  EXPECT_EQ(m.counter_total("mem", "scans"), 3u);
  // Updates either applied to the co-located shard or shipped remotely.
  EXPECT_EQ(m.counter_total("core", "updates_local") +
                m.counter_total("core", "updates_remote"),
            m.counter_total("mem", "inserts_emitted") +
                m.counter_total("mem", "removes_emitted"));
}

TEST(Observability, ConservationHoldsAfterTrafficReset) {
  // reset_traffic() zeroes every "net" cell. Each term of the conservation
  // identity is one of those cells, so the identity still balances after it.
  auto cluster = make_site(4);
  ASSERT_TRUE(ok(run_null_command(*cluster).status));
  cluster->fabric().reset_traffic();
  EXPECT_EQ(cluster->check_invariants(), 0u) << [&] {
    std::string all;
    for (const auto& f : cluster->watchdog().last_findings()) {
      all += f.invariant + ": " + f.detail + "; ";
    }
    return all;
  }();
}

// ------------------------------------------------------------ clear() fix

TEST(Tracer, ClearInvalidatesOutstandingSpanIds) {
  obs::Tracer t;
  const auto stale_open = t.begin_span("old", "c", 0, 100);
  const auto stale_closed = t.begin_span("older", "c", 0, 150);
  t.end_span(stale_closed, 180);
  EXPECT_EQ(t.span_count(), 2u);

  t.clear();
  EXPECT_EQ(t.span_count(), 2u) << "span ids are absolute: clear() keeps counting";

  // A span recorded after the clear must not be aliased by the stale ids.
  const auto fresh = t.begin_span("new", "c", 1, 1000);
  t.end_span(stale_open, 1234);   // inert: would previously have closed `fresh`
  t.add_arg(stale_open, "k", 9);  // inert: would previously have tagged `fresh`
  EXPECT_EQ(t.span(fresh).end, sim::Time{-1}) << "fresh span must still be open";
  EXPECT_TRUE(t.span(fresh).args.empty());
  t.end_span(fresh, 2000);
  EXPECT_EQ(t.span(fresh).end, 2000);

  // Export skips everything before the clear: exactly one event survives.
  const Result<obs::json::Value> doc = obs::json::parse(t.to_chrome_json());
  ASSERT_TRUE(doc.has_value());
  const obs::json::Value* events = doc.value().get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->as_array().size(), 1u);
  EXPECT_EQ(events->as_array()[0].get("name")->as_string(), "new");
}

// --------------------------------------------------------- JSON escaping

TEST(Json, EscapeRoundTripsThroughParser) {
  const std::string nasty =
      "quote\" backslash\\ newline\n return\r tab\t bell\x07 nul-adjacent\x01 plain";
  std::string doc = "{\"k\":\"";
  obs::json::escape(doc, nasty);
  doc += "\"}";
  const Result<obs::json::Value> back = obs::json::parse(doc);
  ASSERT_TRUE(back.has_value()) << "escaped output must be valid JSON: " << doc;
  EXPECT_EQ(back.value().get("k")->as_string(), nasty);
}

TEST(Json, MetricAndTraceExportsEscapeHostileNames) {
  obs::Registry r;
  r.counter("net", "evil\"name\\with\ncontrol\x02 bytes").inc(3);
  const Result<obs::json::Value> metrics = obs::json::parse(r.to_json());
  ASSERT_TRUE(metrics.has_value()) << "metric export must survive hostile names";

  obs::Tracer t;
  const auto s = t.begin_span("span\"with\tquotes", "cat\\slash", 0, 10);
  t.add_arg(s, "arg\nkey", 1);
  t.end_span(s, 20);
  const Result<obs::json::Value> trace = obs::json::parse(t.to_chrome_json());
  ASSERT_TRUE(trace.has_value()) << "trace export must survive hostile names";
  const obs::json::Value& ev = trace.value().get("traceEvents")->as_array()[0];
  EXPECT_EQ(ev.get("name")->as_string(), "span\"with\tquotes");
}

// -------------------------------------------------------- flight recorder

TEST(FlightRecorder, RingKeepsNewestAndDumpsDeterministically) {
  obs::Registry r;
  obs::FlightRecorder fr(r, 2, /*capacity=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    fr.record(0, static_cast<sim::Time>(i), obs::FrEvent::kMsgSend,
              static_cast<std::uint16_t>(i), 1, i);
  }
  fr.record(99, 0, obs::FrEvent::kMsgDrop);  // out-of-range node: dropped, no crash
  EXPECT_EQ(fr.recorded(0), 10u);
  EXPECT_EQ(fr.recorded(1), 0u);

  const Result<obs::json::Value> ring = obs::json::parse(fr.to_json(0));
  ASSERT_TRUE(ring.has_value());
  const obs::json::Value* events = ring.value().get("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->as_array().size(), 4u) << "ring keeps only the newest capacity events";
  EXPECT_EQ(events->as_array()[0].get("ts")->as_int(), 6) << "oldest surviving event first";
  EXPECT_EQ(events->as_array()[3].get("ts")->as_int(), 9);

  EXPECT_EQ(r.counter_total("obs", "blackbox_dumps"), 0u)
      << "dump counter reads zero before the first dump";
  std::string sink_reason, sink_json;
  fr.set_sink([&](std::string_view reason, const std::string& json) {
    sink_reason = reason;
    sink_json = json;
  });
  fr.record_all(11, obs::FrEvent::kEpochChange, 0, 0, 2);
  fr.dump("test_trigger");
  EXPECT_EQ(fr.dumps(), 1u);
  EXPECT_EQ(fr.last_reason(), "test_trigger");
  EXPECT_EQ(sink_reason, "test_trigger");
  EXPECT_EQ(sink_json, fr.last_dump());
  EXPECT_EQ(r.counter_total("obs", "blackbox_dumps"), 1u);

  const Result<obs::json::Value> doc = obs::json::parse(sink_json);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc.value().get("reason")->as_string(), "test_trigger");
  ASSERT_EQ(doc.value().get("nodes")->as_array().size(), 2u);
  // record_all reached both rings.
  const obs::json::Value& node1 = doc.value().get("nodes")->as_array()[1];
  ASSERT_EQ(node1.get("events")->as_array().size(), 1u);
  EXPECT_EQ(node1.get("events")->as_array()[0].get("ev")->as_string(), "epoch_change");
}

TEST(FlightRecorder, DumpSnapshotsRingsAndFormatsOnRead) {
  obs::Registry r;
  obs::FlightRecorder fr(r, 3, /*capacity=*/4);
  EXPECT_TRUE(fr.last_dump().empty()) << "nothing dumped yet";
  for (std::uint64_t i = 0; i < 6; ++i) {
    fr.record(static_cast<std::uint32_t>(i % 3), static_cast<sim::Time>(i),
              obs::FrEvent::kMsgRecv, 1, 2, i);
  }
  const std::string at_dump = fr.to_json_all("x");
  fr.dump("x");
  // Events after the dump (some wrap the rings) must not reach the dump.
  for (std::uint64_t i = 0; i < 10; ++i) {
    fr.record(static_cast<std::uint32_t>(i % 3), static_cast<sim::Time>(100 + i),
              obs::FrEvent::kMsgShed, 3, 4, i);
  }
  ASSERT_NE(fr.to_json_all("x"), at_dump);
  EXPECT_EQ(fr.last_dump(), at_dump);
  EXPECT_EQ(fr.last_reason(), "x");
  EXPECT_EQ(fr.dumps(), 1u);

  // A set sink receives the same document, formatted at dump time.
  std::string sink_json;
  fr.set_sink([&](std::string_view, const std::string& json) { sink_json = json; });
  const std::string at_second = fr.to_json_all("y");
  fr.dump("y");
  fr.record_all(200, obs::FrEvent::kEpochChange);
  EXPECT_EQ(sink_json, at_second);
  EXPECT_EQ(fr.last_dump(), at_second) << "a second dump replaces the first";
  EXPECT_EQ(fr.last_reason(), "y");
  EXPECT_EQ(fr.dumps(), 2u);
  EXPECT_EQ(r.counter_total("obs", "blackbox_dumps"), 2u);
}

// --------------------------------------------------------------- watchdog

TEST(Watchdog, CountsRunsViolationsAndFiresHook) {
  obs::Registry r;
  obs::Watchdog wd(r);
  bool fail = false;
  wd.add_invariant("always_holds", [] { return std::optional<std::string>{}; });
  wd.add_invariant("flaky", [&]() -> std::optional<std::string> {
    if (fail) return "identity broke by 3";
    return std::nullopt;
  });
  EXPECT_EQ(wd.invariant_count(), 2u);

  EXPECT_EQ(wd.evaluate(), 0u);
  EXPECT_EQ(r.counter_total("obs", "watchdog_runs"), 1u);
  EXPECT_EQ(r.counter_total("obs", "watchdog_violations"), 0u);
  EXPECT_EQ(r.counter_total("obs", "watchdog_viol.flaky"), 0u)
      << "per-invariant cell reads zero before it fires";

  std::vector<std::string> hooked;
  wd.on_violation([&](const obs::Watchdog::Finding& f) { hooked.push_back(f.invariant); });
  fail = true;
  EXPECT_EQ(wd.evaluate(), 1u);
  EXPECT_EQ(wd.runs(), 2u);
  EXPECT_EQ(wd.violations(), 1u);
  EXPECT_EQ(r.counter_total("obs", "watchdog_violations"), 1u);
  EXPECT_EQ(r.counter_total("obs", "watchdog_viol.flaky"), 1u);
  ASSERT_EQ(hooked.size(), 1u);
  EXPECT_EQ(hooked[0], "flaky");
  ASSERT_EQ(wd.last_findings().size(), 1u);
  EXPECT_EQ(wd.last_findings()[0].detail, "identity broke by 3");

  fail = false;
  EXPECT_EQ(wd.evaluate(), 0u);
  EXPECT_TRUE(wd.last_findings().empty()) << "findings are per-run, totals accumulate";
  EXPECT_EQ(wd.violations(), 1u);
}

}  // namespace
}  // namespace concord
