// Overload protection: goodput vs offered load under bounded queues,
// adaptive backoff, and credit-based flow control (PR 5).
//
// The paper's update path is explicitly best-effort — monitor throttling is
// a first-class knob (§4.1) so tracking yields to the applications it
// serves. This bench drives the update pipeline at increasing offered load
// (fraction of every entity's blocks rewritten per scan epoch) against a
// deliberately undersized fabric: small batch MTU, a bounded per-node
// ingress queue with a real per-datagram service time, and the AIMD
// PressureController adapting monitor budgets and flush quotas each epoch.
//
// Graceful degradation means the goodput curve saturates instead of
// collapsing: past the knee, extra offered load is shed at well-defined
// drop points (ingress tail-drop, local batch-buffer shed) while applied
// throughput stays within 20% of its peak, control traffic (heartbeats,
// acks, credit grants) is never shed, and a post-pressure DhtAudit drives
// coverage back to ground truth.
//
// `--smoke` runs the CI subset (3 load levels) and writes BENCH_pr5.json.
// concord-lint: emit-path — bytes or messages produced here must not depend
// on hash-map iteration order.
#include <algorithm>
#include <cstring>
#include <memory>

#include "bench_util.hpp"
#include "services/dht_audit.hpp"
#include "workload/workloads.hpp"

using namespace concord;

namespace {

constexpr std::uint32_t kNodes = 8;
constexpr std::size_t kBlocksPerEntity = 512;
constexpr std::size_t kBlockSize = 256;
constexpr int kRoundsPerLevel = 5;

std::unique_ptr<core::Cluster> make_cluster(std::uint64_t seed) {
  core::ClusterParams p;
  p.num_nodes = kNodes;
  p.max_entities = kNodes + 1;
  p.seed = seed;
  // Undersized transport: ~9 records per datagram, a 16-deep bounded
  // ingress queue, and a 100 us per-datagram receive cost, so a full-rate
  // scan epoch genuinely overruns the owners.
  p.update_batching.mtu_bytes = 256;
  p.fabric.ingress_queue_limit = 16;
  p.fabric.ingress_service = 100 * sim::kMicrosecond;
  p.fabric.retry_budget = 20 * sim::kMillisecond;
  p.fabric.breaker_threshold = 8;
  p.pressure = true;
  return p.num_nodes != 0 ? std::make_unique<core::Cluster>(p) : nullptr;
}

struct Row {
  double fraction = 0;            // blocks rewritten per entity per round
  std::uint64_t offered = 0;      // records the monitors wanted to publish
  std::uint64_t applied = 0;      // records applied across DHT shards
  std::uint64_t shed = 0;         // datagrams tail-dropped at ingress queues
  std::uint64_t shed_local = 0;   // records shed at bounded batch buffers
  std::uint64_t deferred = 0;     // flushes deferred for lack of credits
  std::uint64_t throttled = 0;    // blocks skipped by the AIMD scan budget
  double virtual_ms = 0;          // virtual time the level consumed
  double goodput = 0;             // applied records per virtual second
  std::uint64_t min_budget = 0;   // lowest AIMD budget any node reached
  std::uint64_t ctl_shed = 0;     // control-plane datagrams shed (must be 0)
};

std::uint64_t applied_records(core::Cluster& c) {
  return c.metrics().counter_total("dht", "inserts") +
         c.metrics().counter_total("dht", "removes");
}

std::uint64_t control_shed(core::Cluster& c) {
  return c.fabric().shed_of_type(net::MsgType::kHeartbeat) +
         c.fabric().shed_of_type(net::MsgType::kCommandControl) +
         c.fabric().shed_of_type(net::MsgType::kCommandAck) +
         c.fabric().shed_of_type(net::MsgType::kCreditGrant);
}

Row run_level(double fraction, bench::MetricsSidecar& sidecar, bool& audit_ok) {
  auto c = make_cluster(97);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    mem::MemoryEntity& e =
        c->create_entity(node_id(n), EntityKind::kProcess, kBlocksPerEntity, kBlockSize);
    workload::fill(e, workload::defaults_for(workload::Kind::kRandom, n + 31));
  }
  // Initial publication is warm-up, not offered load: every block of every
  // entity floods the undersized fabric at once, so AIMD clamps down hard.
  // Calm no-mutation epochs afterwards drain the batcher backlog and let the
  // additive-increase path recover budgets, quotas, and credits before the
  // measured rounds start.
  (void)c->scan_all();
  for (int i = 0; i < 10; ++i) (void)c->scan_all();

  Row r;
  r.fraction = fraction;
  const std::uint64_t base_applied = applied_records(*c);
  const std::uint64_t base_shed = c->fabric().total_traffic().msgs_shed;
  std::uint64_t base_deferred = 0, base_shed_local = 0;
  for (const auto& s : c->pressure()->snapshot()) {
    base_deferred += s.flush_deferred;
    base_shed_local += s.shed_local;
  }
  const sim::Time t0 = c->sim().now();

  for (int round = 0; round < kRoundsPerLevel; ++round) {
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      workload::mutate(c->entity(entity_id(n)), fraction,
                       static_cast<std::uint64_t>(round) * 131 + n);
    }
    if (round == kRoundsPerLevel / 2) {
      // Mixed round: publish without draining, then run a detection window
      // so heartbeats contend with the queued update backlog — the priority
      // class must carry them through untouched.
      for (std::uint32_t n = 0; n < kNodes; ++n) {
        const mem::ScanStats s = c->daemon(node_id(n)).scan_and_publish();
        r.offered += s.inserts_emitted + s.removes_emitted + s.throttled_blocks;
        r.throttled += s.throttled_blocks;
      }
      (void)c->detect();
      c->sim().run();
      c->pressure()->after_scan();
    } else {
      const mem::ScanStats s = c->scan_all();
      r.offered += s.inserts_emitted + s.removes_emitted + s.throttled_blocks;
      r.throttled += s.throttled_blocks;
    }
  }

  r.applied = applied_records(*c) - base_applied;
  r.virtual_ms = bench::to_ms(c->sim().now() - t0);
  r.goodput =
      r.virtual_ms > 0 ? static_cast<double>(r.applied) / (r.virtual_ms / 1e3) : 0.0;
  r.shed = c->fabric().total_traffic().msgs_shed - base_shed;
  r.ctl_shed = control_shed(*c);  // over the whole run: control is NEVER shed
  r.min_budget = ~0ull;
  for (const auto& s : c->pressure()->snapshot()) {
    r.deferred += s.flush_deferred;
    r.shed_local += s.shed_local;
    if (s.update_budget < r.min_budget) r.min_budget = s.update_budget;
  }
  r.deferred -= base_deferred;
  r.shed_local -= base_shed_local;

  // Post-pressure convergence: the offered load is gone, so the operator
  // lifts the ingress bound (the repair burst must not be shed) and the
  // audit restores coverage to 100% of ground truth.
  c->fabric().set_ingress_queue_limit(0);
  services::DhtAudit audit(*c);
  (void)audit.run_to_convergence();
  // run_to_convergence returns accumulated repair totals; convergence itself
  // is "a fresh pass finds nothing left to fix".
  if (!audit.run().clean()) {
    audit_ok = false;
    std::fprintf(stderr, "  [audit did not converge at fraction=%g]\n", fraction);
  }

  char label[64];
  std::snprintf(label, sizeof label, "fraction=%g", fraction);
  sidecar.add(label, c->metrics());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  bench::banner(
      "Overload — goodput vs offered load under flow control (PR 5)",
      "tracking is best-effort (§4.1): under overload the site sheds update "
      "traffic at bounded queues and self-throttles via AIMD instead of "
      "collapsing; control traffic is never shed",
      "8 nodes, 1 entity/node, 512 blocks of 256 B; 256 B batch MTU, 16-deep "
      "ingress queues, 100 us/datagram receive cost, 5 rounds per load level");

  std::printf("%9s %9s %9s %7s %9s %9s %9s %9s %11s %8s\n", "fraction", "offered",
              "applied", "shed", "shedlocal", "deferred", "throttled", "virt ms",
              "goodput/s", "budget");

  bench::MetricsSidecar sidecar("overload");
  std::vector<double> levels = {0.0625, 0.125, 0.25, 0.5, 1.0};
  if (smoke) levels = {0.0625, 0.25, 1.0};

  bool audit_ok = true;
  std::uint64_t total_ctl_shed = 0;
  std::vector<Row> rows;
  for (const double f : levels) {
    const Row r = run_level(f, sidecar, audit_ok);
    std::printf("%9g %9llu %9llu %7llu %9llu %9llu %9llu %9.2f %11.0f %8llu\n",
                r.fraction, static_cast<unsigned long long>(r.offered),
                static_cast<unsigned long long>(r.applied),
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.shed_local),
                static_cast<unsigned long long>(r.deferred),
                static_cast<unsigned long long>(r.throttled), r.virtual_ms, r.goodput,
                static_cast<unsigned long long>(r.min_budget));
    total_ctl_shed += r.ctl_shed;
    rows.push_back(r);
  }

  // Acceptance: saturation is the lightest level at which the site first had
  // to shed or throttle anything. The heaviest level must offer at least 2x
  // the saturation load yet still hold goodput within 20% of the peak —
  // graceful saturation, not congestion collapse.
  double peak = 0;
  for (const Row& r : rows) peak = std::max(peak, r.goodput);
  std::uint64_t saturation_offered = 0;
  for (const Row& r : rows) {
    if (r.shed + r.shed_local + r.throttled + r.deferred > 0) {
      saturation_offered = r.offered;
      break;
    }
  }
  const Row& top = rows.back();
  const double top_ratio = peak > 0 ? top.goodput / peak : 0.0;
  const double overload_factor =
      saturation_offered > 0
          ? static_cast<double>(top.offered) / static_cast<double>(saturation_offered)
          : 0.0;
  const bool graceful = top_ratio >= 0.8 && overload_factor >= 2.0;
  const bool ctl_clean = total_ctl_shed == 0;

  std::printf(
      "\nAcceptance: goodput at the heaviest level (%.1fx the saturation offered load)\n"
      "stays within 20%% of peak (got %.0f%%), control traffic is never shed\n"
      "(%llu shed), and post-pressure audits converged to ground truth (%s).\n",
      overload_factor, top_ratio * 100.0, static_cast<unsigned long long>(total_ctl_shed),
      audit_ok ? "yes" : "NO");

  if (smoke) {
    std::FILE* f = std::fopen("BENCH_pr5.json", "w");
    if (f != nullptr) {
      std::fprintf(f, "{\"bench\":\"pr5_overload\",\"nodes\":%u,\"levels\":[", kNodes);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        std::fprintf(f, "%s{\"fraction\":%g,\"offered\":%llu,\"applied\":%llu,"
                     "\"shed\":%llu,\"goodput_per_s\":%.0f}",
                     i == 0 ? "" : ",", rows[i].fraction,
                     static_cast<unsigned long long>(rows[i].offered),
                     static_cast<unsigned long long>(rows[i].applied),
                     static_cast<unsigned long long>(rows[i].shed), rows[i].goodput);
      }
      std::fprintf(f,
                   "],\"goodput_vs_peak_pct\":%.2f,\"overload_factor\":%.2f,"
                   "\"control_shed\":%llu,\"audit_converged\":%s}\n",
                   top_ratio * 100.0, overload_factor,
                   static_cast<unsigned long long>(total_ctl_shed),
                   audit_ok ? "true" : "false");
      std::fclose(f);
      std::printf("\n  [BENCH_pr5.json written]\n");
    }
  }
  return (graceful && ctl_clean && audit_ok) ? 0 : 1;
}
