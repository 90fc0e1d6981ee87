// concord-lint: emit-path — bytes or messages produced here must not depend
// on hash-map iteration order.
#include "core/pressure_controller.hpp"

#include <algorithm>

#include "core/service_daemon.hpp"

namespace concord::core {

namespace {
// AIMD bounds and steps: pressure multiplies both knobs by
// kMultiplicativeDecrease, a calm epoch adds the step back, each clamped to
// its [min, max].
constexpr std::uint64_t kMinUpdateBudget = 64;
constexpr std::uint64_t kMaxUpdateBudget = 65536;
constexpr std::uint64_t kBudgetAdditiveStep = 512;
constexpr std::uint64_t kMinFlushQuota = 1;
constexpr std::uint64_t kMaxFlushQuota = 256;
constexpr std::uint64_t kQuotaAdditiveStep = 4;
constexpr double kMultiplicativeDecrease = 0.5;
}  // namespace

PressureController::PressureController(
    net::Fabric& fabric, const std::vector<std::unique_ptr<ServiceDaemon>>& daemons)
    : fabric_(fabric) {
  obs::Registry& r = fabric_.metrics();
  tracked_.reserve(daemons.size());
  for (const auto& daemon : daemons) {
    daemon->batcher().set_flow_control(true, kInitialCredits);
    daemon->set_credit_grants(true);
    const auto node = static_cast<std::int32_t>(raw(daemon->id()));
    tracked_.push_back(Tracked{.daemon = daemon.get(),
                               .budget = kInitialUpdateBudget,
                               .quota = kInitialFlushQuota,
                               .budget_gauge = &r.gauge("core", "update_budget", node),
                               .quota_gauge = &r.gauge("core", "flush_quota", node),
                               .credits_gauge = &r.gauge("core", "flow_credits", node)});
    apply(tracked_.back());
  }
}

void PressureController::apply(Tracked& t) {
  t.daemon->monitor().set_update_budget(t.budget);
  t.daemon->batcher().set_flush_quota(t.quota);
  t.budget_gauge->set(static_cast<std::int64_t>(t.budget));
  t.quota_gauge->set(static_cast<std::int64_t>(t.quota));
  t.credits_gauge->set(static_cast<std::int64_t>(t.daemon->batcher().credits()));
}

void PressureController::after_scan() {
  // Breaker trips are a site-wide signal: any trip this epoch means some
  // link is timing out end-to-end, so every sender eases off.
  const std::uint64_t trips = fabric_.breaker_trips();
  const bool breaker_pressure = trips > prev_breaker_trips_;
  prev_breaker_trips_ = trips;

  bool any_throttle = false;
  for (Tracked& t : tracked_) {
    UpdateBatcher& batcher = t.daemon->batcher();
    const std::uint64_t shed_local = batcher.shed_local_records();
    const std::uint64_t ingress_shed = fabric_.traffic(t.daemon->id()).msgs_shed;
    // Pressure means *loss*: records dropped at the local buffer bound or
    // datagrams tail-dropped at an ingress queue. Deferred flushes are NOT
    // pressure — deferral is the credit machinery pacing us losslessly, and
    // clamping down on it would turn backpressure into a death spiral.
    const std::uint64_t local_pressure = (shed_local - t.prev_shed_local) +
                                         (ingress_shed - t.prev_ingress_shed);
    t.prev_shed_local = shed_local;
    t.prev_ingress_shed = ingress_shed;

    if (local_pressure > 0 || breaker_pressure) {
      t.budget = std::max(
          kMinUpdateBudget,
          static_cast<std::uint64_t>(static_cast<double>(t.budget) *
                                     kMultiplicativeDecrease));
      t.quota = std::max(
          kMinFlushQuota,
          static_cast<std::uint64_t>(static_cast<double>(t.quota) *
                                     kMultiplicativeDecrease));
      t.throttled = true;
      any_throttle = true;
    } else {
      t.budget = std::min(kMaxUpdateBudget, t.budget + kBudgetAdditiveStep);
      t.quota = std::min(kMaxFlushQuota, t.quota + kQuotaAdditiveStep);
      t.throttled = false;
      // A calm epoch also refills an empty purse. Grants normally ride back
      // on applied batches, so a sender that shed its entire backlog (nothing
      // in flight means nothing applied, means no grants) would starve
      // forever without this liveness escape.
      if (batcher.credits() == 0) batcher.grant_credits(kInitialCredits);
    }
    apply(t);
  }
  if (any_throttle) ++throttle_events_;
}

std::vector<PressureController::NodeSnapshot> PressureController::snapshot() const {
  std::vector<NodeSnapshot> out;
  out.reserve(tracked_.size());
  for (const Tracked& t : tracked_) {
    const NodeId node = t.daemon->id();
    const UpdateBatcher& batcher = t.daemon->batcher();
    NodeSnapshot s;
    s.node = node;
    s.update_budget = t.budget;
    s.flush_quota = t.quota;
    s.credits = batcher.credits();
    s.ingress_depth = fabric_.ingress_depth(node);
    s.shed_at_ingress = fabric_.traffic(node).msgs_shed;
    s.flush_deferred = batcher.deferred_events();
    s.shed_local = batcher.shed_local_records();
    s.throttled = t.throttled;
    out.push_back(s);
  }
  return out;
}

}  // namespace concord::core
