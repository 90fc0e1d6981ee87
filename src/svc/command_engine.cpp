#include "svc/command_engine.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>

#include "common/log.hpp"
#include "core/cost_model.hpp"

namespace concord::svc {


using namespace wire;  // NOLINT(google-build-using-namespace) — protocol payloads

namespace {

/// Stable phase labels shared by span names and counter names.
constexpr std::string_view phase_name(CtlPhase p) {
  switch (p) {
    case CtlPhase::kInit: return "init";
    case CtlPhase::kCollStart: return "coll_start";
    case CtlPhase::kDrive: return "drive";
    case CtlPhase::kCollFin: return "coll_fin";
    case CtlPhase::kLocal: return "local";
    case CtlPhase::kDeinit: return "deinit";
  }
  return "unknown";
}

}  // namespace

struct CommandEngine::Execution {
  std::uint64_t cmd_id = 0;
  ApplicationService* service = nullptr;
  const CommandSpec* spec = nullptr;
  CommandStats stats;
  bool done = false;

  Bitmap se_set;     // service entities
  Bitmap scope_set;  // SEs ∪ PEs
  std::vector<NodeId> scope_nodes;
  std::vector<NodeId> se_nodes;
  std::vector<NodeId> shard_nodes;

  // Controller barrier: the set of nodes whose ack for the current phase is
  // still outstanding. Set-based (not a counter) so a duplicate or late ack
  // — possible when the reliable class loses every ack and the sender
  // retries while the receiver already handled the message — can never
  // double-count: erasing an absent node is a no-op.
  wire::CtlPhase cur_phase = wire::CtlPhase::kInit;
  std::uint64_t phase_gen = 0;  // invalidates stale deadline/probe events
  std::unordered_set<std::uint32_t> barrier_waiting;
  std::unordered_set<std::uint32_t> excluded;  // nodes dropped from the command
  int deadline_extensions_used = 0;

  // Shard-driving state (lives at the respective shard owners; kept here
  // because the emulation shares one address space — traffic is modeled).
  struct PendingHash {
    ContentHash hash;
    std::vector<EntityId> candidates;
    std::size_t next = 0;
    NodeId shard{};
    std::shared_ptr<const std::vector<NodeId>> notify;  // SE hosts believed to hold it
    obs::Tracer::SpanId span = obs::Tracer::kInvalid;   // async dispatch span
    net::TraceContext ctx;  // causal context the dispatch (and retries) send under
  };
  std::unordered_map<std::uint64_t, PendingHash> pending;
  std::unordered_map<std::uint32_t, std::size_t> outstanding;  // shard node -> in flight
  std::unordered_map<std::uint32_t, bool> enumerated;          // shard node -> done
  std::uint64_t next_seq = 1;

  // Per-node handled tables: hash -> private value (SE hosts only).
  std::vector<std::unordered_map<ContentHash, std::uint64_t>> handled;

  // Per-SE ground truth, indexed by raw(EntityId): every block's current
  // hash from the host monitor's current_hashes(), shared by dispatch
  // verification and the local phase. `writes` is the entity's writes() when
  // it was taken; a differing value means the bytes changed since, and it is
  // retaken.
  struct SeHashes {
    std::vector<ContentHash> hashes;
    std::uint64_t writes = 0;
    bool taken = false;
  };
  std::vector<SeHashes> se_hashes;

  // Open trace spans: the whole command, the controller's current phase,
  // and one drive span per shard node.
  obs::Tracer::SpanId cmd_span = obs::Tracer::kInvalid;
  obs::Tracer::SpanId phase_span = obs::Tracer::kInvalid;
  std::unordered_map<std::uint32_t, obs::Tracer::SpanId> drive_spans;

  [[nodiscard]] Role role_of(EntityId e) const {
    return se_set.test(raw(e)) ? Role::kService : Role::kParticipant;
  }
};

CommandEngine::CommandEngine(core::Cluster& cluster) : cluster_(cluster) {
  obs::Registry& r = cluster_.metrics();
  cells_.commands = &r.counter("svc", "commands");
  for (std::size_t p = 0; p < 6; ++p) {
    const std::string name = "phase." + std::string(phase_name(static_cast<CtlPhase>(p)));
    // concord-proto: cell counter svc/phase.*
    cells_.phase[p] = &r.counter("svc", name);
  }
  cells_.distinct_hashes = &r.counter("svc", "distinct_hashes");
  cells_.collective_handled = &r.counter("svc", "collective_handled");
  cells_.collective_retries = &r.counter("svc", "collective_retries");
  cells_.collective_stale = &r.counter("svc", "collective_stale");
  cells_.local_blocks = &r.counter("svc", "local_blocks");
  cells_.local_covered = &r.counter("svc", "local_covered");
  cells_.local_uncovered = &r.counter("svc", "local_uncovered");
  cells_.nodes_excluded = &r.counter("svc", "nodes_excluded");
  cells_.commands_degraded = &r.counter("svc", "commands_degraded");
  cells_.pressure_events = &r.counter("svc", "pressure_events");
  install_handlers();
}

void CommandEngine::install_handlers() {
  for (std::uint32_t n = 0; n < cluster_.num_nodes(); ++n) {
    core::ServiceDaemon& d = cluster_.daemon(node_id(n));

    d.set_handler(net::MsgType::kCommandControl,
                  [this](core::ServiceDaemon& daemon, const net::Message& m) {
                    handle_control(daemon, m);
                  });
    d.set_handler(net::MsgType::kCommandHashExchange,
                  [this](core::ServiceDaemon& daemon, const net::Message& m) {
                    handle_exchange(daemon, m);
                  });
    d.set_handler(net::MsgType::kCommandAck,
                  [this](core::ServiceDaemon& daemon, const net::Message& m) {
                    handle_ack(daemon, m);
                  });
  }
}

// ---------------------------------------------------------------- barriers

void CommandEngine::start_phase(CtlPhase phase, const std::vector<NodeId>& targets) {
  Execution& ex = *active_;
  ex.cur_phase = phase;
  ++ex.phase_gen;
  ex.deadline_extensions_used = 0;
  ex.phase_span = cluster_.tracer().begin_span(
      "phase:" + std::string(phase_name(phase)), "svc",
      raw(ex.spec->controller), cluster_.sim().now());
  cluster_.blackbox().record(raw(ex.spec->controller), cluster_.sim().now(),
                             obs::FrEvent::kPhaseStart,
                             static_cast<std::uint16_t>(phase), 0, ex.cmd_id);

  // Nodes already excluded from the command take no further part.
  std::vector<NodeId> live_targets;
  live_targets.reserve(targets.size());
  for (const NodeId t : targets) {
    if (!ex.excluded.contains(raw(t))) live_targets.push_back(t);
  }
  if (live_targets.empty()) {
    // Nothing to do in this phase; advance immediately from the event loop.
    cluster_.sim().after(0, [this, phase]() {
      if (active_ != nullptr && !active_->done) advance_after(phase);
    });
    return;
  }
  ex.barrier_waiting.clear();
  for (const NodeId t : live_targets) ex.barrier_waiting.insert(raw(t));
  // The command id is the causal root of everything this phase causes; the
  // phase span is the parent hop. Installed explicitly because the first
  // phase starts outside any delivery handler.
  net::Fabric::TraceScope trace_scope(
      cluster_.fabric(), net::TraceContext{ex.cmd_id, ex.phase_span});
  cluster_.fabric().broadcast_reliable(ex.spec->controller, net::MsgType::kCommandControl,
                                       std::any(CtlMsg{ex.cmd_id, phase}), kCtlBytes,
                                       live_targets);
  arm_deadline();
}

void CommandEngine::handle_ack(core::ServiceDaemon& d, const net::Message& m) {
  (void)d;
  Execution& ex = *active_;
  const auto& ack = m.as<AckMsg>();
  if (ack.cmd_id != ex.cmd_id) return;
  if (ack.phase != ex.cur_phase) return;  // straggler from an earlier phase
  if (ex.barrier_waiting.erase(raw(m.src)) == 0) return;  // duplicate / excluded
  if (!ok(ack.status) && ok(ex.stats.status)) ex.stats.status = ack.status;
  if (ex.barrier_waiting.empty()) advance_after(ack.phase);
}

// --------------------------------------------------- deadlines & exclusion

void CommandEngine::arm_deadline() {
  Execution& ex = *active_;
  if (ex.spec->phase_deadline <= 0) return;  // deadlines disabled
  const std::uint64_t cmd = ex.cmd_id;
  const std::uint64_t gen = ex.phase_gen;
  cluster_.sim().after(ex.spec->phase_deadline, [this, cmd, gen]() {
    if (active_ == nullptr) return;
    Execution& exr = *active_;
    if (exr.cmd_id != cmd || exr.phase_gen != gen || exr.done) return;
    if (exr.barrier_waiting.empty()) return;  // barrier closed while queued
    on_phase_deadline();
  });
}

void CommandEngine::on_phase_deadline() {
  Execution& ex = *active_;
  // Probe every node the barrier is still waiting on. Verdicts resolve
  // event-driven (the simulation keeps running); once the last one lands we
  // decide: exclude the dead, extend for the merely slow.
  struct Round {
    std::size_t pending = 0;
    std::vector<std::uint32_t> dead;
  };
  auto round = std::make_shared<Round>();
  round->pending = ex.barrier_waiting.size();
  const std::uint64_t cmd = ex.cmd_id;
  const std::uint64_t gen = ex.phase_gen;
  // Sorted copy: probe order (and thus exclusion order) must be stable.
  std::vector<std::uint32_t> waiting(ex.barrier_waiting.begin(), ex.barrier_waiting.end());
  std::sort(waiting.begin(), waiting.end());
  for (const std::uint32_t n : waiting) {
    cluster_.detector().probe(
        ex.spec->controller, node_id(n), [this, cmd, gen, round, n](bool alive) {
          if (!alive) round->dead.push_back(n);
          if (--round->pending != 0) return;
          if (active_ == nullptr) return;
          Execution& exr = *active_;
          if (exr.cmd_id != cmd || exr.phase_gen != gen || exr.done) return;
          for (const std::uint32_t dead : round->dead) {
            exclude_node(node_id(dead), Status::kUnavailable);
          }
          if (!exr.barrier_waiting.empty()) {
            if (exr.deadline_extensions_used < kMaxDeadlineExtensions) {
              // The stragglers answer probes: alive, just slow. Wait more.
              ++exr.deadline_extensions_used;
              arm_deadline();
            } else {
              // Extension budget exhausted — terminate anyway.
              std::vector<std::uint32_t> rest(exr.barrier_waiting.begin(),
                                              exr.barrier_waiting.end());
              std::sort(rest.begin(), rest.end());
              for (const std::uint32_t n2 : rest) {
                exclude_node(node_id(n2), Status::kTimeout);
              }
            }
          }
          if (exr.barrier_waiting.empty() && !exr.done) advance_after(exr.cur_phase);
        });
  }
}

void CommandEngine::exclude_node(NodeId n, Status reason) {
  Execution& ex = *active_;
  if (!ex.excluded.insert(raw(n)).second) return;
  ex.barrier_waiting.erase(raw(n));
  ex.stats.failures.push_back(NodeFailure{n, ex.cur_phase, reason});
  cells_.nodes_excluded->inc();
  cluster_.blackbox().record(raw(ex.spec->controller), cluster_.sim().now(),
                             obs::FrEvent::kNodeExcluded,
                             static_cast<std::uint16_t>(ex.cur_phase), raw(n),
                             ex.cmd_id);
  log::warn("command %llu: excluding node %u in phase %s (%.*s)",
            static_cast<unsigned long long>(ex.cmd_id), raw(n),
            std::string(phase_name(ex.cur_phase)).c_str(),
            static_cast<int>(to_string(reason).size()), to_string(reason).data());

  if (ex.cur_phase == CtlPhase::kDrive) {
    // The dead node's shard cannot be driven (its slice of hashes is being
    // remapped to survivors by the next epoch anyway): drop its in-flight
    // dispatches so the drive barrier can drain.
    for (auto it = ex.pending.begin(); it != ex.pending.end();) {
      if (it->second.shard == n) {
        if (it->second.span != obs::Tracer::kInvalid) {
          cluster_.tracer().add_arg(it->second.span, "abandoned", 1);
          cluster_.tracer().end_span(it->second.span, cluster_.sim().now());
        }
        it = ex.pending.erase(it);
      } else {
        ++it;
      }
    }
    ex.outstanding[raw(n)] = 0;
    ex.enumerated[raw(n)] = false;
    const auto span = ex.drive_spans.find(raw(n));
    if (span != ex.drive_spans.end()) {
      cluster_.tracer().end_span(span->second, cluster_.sim().now());
      ex.drive_spans.erase(span);
    }
  }
}

void CommandEngine::advance_after(CtlPhase finished) {
  Execution& ex = *active_;
  log::debug("command %llu: phase %d done at %.3f ms",
             static_cast<unsigned long long>(ex.cmd_id), static_cast<int>(finished),
             static_cast<double>(cluster_.sim().now()) / 1e6);
  cluster_.tracer().end_span(ex.phase_span, cluster_.sim().now());
  ex.phase_span = obs::Tracer::kInvalid;
  cells_.phase[static_cast<std::size_t>(finished)]->inc();
  cluster_.blackbox().record(raw(ex.spec->controller), cluster_.sim().now(),
                             obs::FrEvent::kPhaseDone,
                             static_cast<std::uint16_t>(finished), 0, ex.cmd_id);
  switch (finished) {
    case CtlPhase::kInit:
      start_phase(CtlPhase::kCollStart, ex.scope_nodes);
      break;
    case CtlPhase::kCollStart:
      start_phase(CtlPhase::kDrive, ex.shard_nodes);
      break;
    case CtlPhase::kDrive:
      start_phase(CtlPhase::kCollFin, ex.scope_nodes);
      break;
    case CtlPhase::kCollFin:
      start_phase(CtlPhase::kLocal, ex.se_nodes);
      break;
    case CtlPhase::kLocal:
      start_phase(CtlPhase::kDeinit, ex.scope_nodes);
      break;
    case CtlPhase::kDeinit:
      ex.stats.end = cluster_.sim().now();
      ex.done = true;
      break;
  }
}

void CommandEngine::send_ack(core::ServiceDaemon& d, CtlPhase phase, Status status) {
  Execution& ex = *active_;
  d.fabric().send_reliable(net::make_message(d.id(), ex.spec->controller,
                                             net::MsgType::kCommandAck,
                                             AckMsg{ex.cmd_id, phase, status}, kAckBytes));
}

// ----------------------------------------------------------- phase handlers

void CommandEngine::handle_control(core::ServiceDaemon& d, const net::Message& m) {
  Execution& ex = *active_;
  const auto& ctl = m.as<CtlMsg>();
  if (ctl.cmd_id != ex.cmd_id) return;
  const NodeId n = d.id();
  // Acks go out from deferred callbacks (virtual compute cost), which run
  // outside any delivery handler — reinstall the control message's context
  // so the ack datagram stays on the command's causal tree.
  const net::TraceContext ctx = m.trace;

  switch (ctl.phase) {
    case CtlPhase::kInit: {
      const Status st = ex.service->service_init(n, ex.spec->mode, ex.spec->config);
      cluster_.sim().after(core::CostModel::instance().callback_cost(),
                           [this, &d, st, ctx]() {
                             net::Fabric::TraceScope scope(cluster_.fabric(), ctx);
                             send_ack(d, CtlPhase::kInit, st);
                           });
      return;
    }

    case CtlPhase::kCollStart: {
      const core::CostModel& cm = core::CostModel::instance();
      Status st = Status::kOk;
      sim::Time cost = 0;
      for (const EntityId e : cluster_.registry().on_node(n)) {
        if (!ex.scope_set.test(raw(e))) continue;
        // Advisory partial set: hashes in *this* shard believed to belong
        // to e — a "slice of life" of the whole machine (§3.3).
        std::vector<ContentHash> partial;
        // Replicated DHT: only the hashes this shard primarily owns go into
        // the advisory set, so an SE hears about each hash from one shard,
        // not R of them.
        const dht::Placement& pl = cluster_.placement();
        const bool replicated = pl.replication() > 1;
        d.store().for_each_entry(
            [&](const ContentHash& h, const std::uint64_t* words, std::size_t nwords) {
              if (replicated && pl.owner(h) != n) return;
              const std::uint32_t bit = raw(e);
              if ((bit >> 6) < nwords && ((words[bit >> 6] >> (bit & 63)) & 1u)) {
                partial.push_back(h);
              }
            });
        const Status s = ex.service->collective_start(n, ex.role_of(e), e, partial);
        if (!ok(s)) st = s;
        cost += cm.scan_cost(d.store().unique_hashes()) + cm.callback_cost();
      }
      cluster_.sim().after(cost, [this, &d, st, ctx]() {
        net::Fabric::TraceScope scope(cluster_.fabric(), ctx);
        send_ack(d, CtlPhase::kCollStart, st);
      });
      return;
    }

    case CtlPhase::kDrive:
      drive_shard(d);
      return;

    case CtlPhase::kCollFin: {
      Status st = Status::kOk;
      sim::Time cost = 0;
      for (const EntityId e : cluster_.registry().on_node(n)) {
        if (!ex.scope_set.test(raw(e))) continue;
        const Status s = ex.service->collective_finalize(n, ex.role_of(e), e);
        if (!ok(s)) st = s;
        cost += core::CostModel::instance().callback_cost();
      }
      cluster_.sim().after(cost, [this, &d, st, ctx]() {
        net::Fabric::TraceScope scope(cluster_.fabric(), ctx);
        send_ack(d, CtlPhase::kCollFin, st);
      });
      return;
    }

    case CtlPhase::kLocal: {
      sim::Time cost = 0;
      const Status st = run_local_phase(d, cost);
      cluster_.sim().after(cost, [this, &d, st, ctx]() {
        net::Fabric::TraceScope scope(cluster_.fabric(), ctx);
        send_ack(d, CtlPhase::kLocal, st);
      });
      return;
    }

    case CtlPhase::kDeinit: {
      const Status st = ex.service->service_deinit(n);
      cluster_.sim().after(core::CostModel::instance().callback_cost(),
                           [this, &d, st, ctx]() {
                             net::Fabric::TraceScope scope(cluster_.fabric(), ctx);
                             send_ack(d, CtlPhase::kDeinit, st);
                           });
      return;
    }
  }
}

// -------------------------------------------------------- collective phase

void CommandEngine::drive_shard(core::ServiceDaemon& d) {
  Execution& ex = *active_;
  const NodeId n = d.id();
  ex.outstanding[raw(n)] = 0;
  ex.enumerated[raw(n)] = false;
  ex.drive_spans[raw(n)] =
      cluster_.tracer().begin_span("drive", "svc", raw(n), cluster_.sim().now());
  // Running inside the kDrive control delivery: the ambient context (root =
  // cmd id) is captured per pending hash so dispatches — which fire from a
  // deferred callback, possibly retried much later — stay on the tree.
  const net::TraceContext drive_ctx = cluster_.fabric().ambient_trace_context();

  std::vector<std::uint64_t> seqs;
  // Replicated DHT: every replica of a hash would otherwise drive it,
  // dispatching R duplicate work requests; only the primary owner drives.
  const dht::Placement& pl = cluster_.placement();
  const bool replicated = pl.replication() > 1;
  d.store().for_each_entry([&](const ContentHash& h, const std::uint64_t* words,
                               std::size_t nwords) {
      if (replicated && pl.owner(h) != n) return;
      // Only hashes believed to exist in at least one SE are driven.
      bool in_se = false;
      for (std::size_t w = 0; w < nwords && !in_se; ++w) {
        if ((words[w] & ex.se_set.word(w)) != 0) in_se = true;
      }
      if (!in_se) return;

      Execution::PendingHash p;
      p.hash = h;
      p.shard = n;
      p.ctx = drive_ctx;
      auto notify = std::make_shared<std::vector<NodeId>>();
      for (std::size_t w = 0; w < nwords; ++w) {
        std::uint64_t inter = words[w] & ex.scope_set.word(w);
        while (inter != 0) {
          const auto idx = static_cast<std::uint32_t>(
              w * 64 + static_cast<std::size_t>(std::countr_zero(inter)));
          inter &= inter - 1;
          const auto e = entity_id(idx);
          p.candidates.push_back(e);
          // Handled notifications fan out only to SE hosts the DHT
          // associates with this hash (replica-count many, not N).
          if (ex.se_set.test(idx)) {
            const NodeId host = cluster_.registry().host_of(e);
            if (std::find(notify->begin(), notify->end(), host) == notify->end()) {
              notify->push_back(host);
            }
          }
        }
      }
      if (p.candidates.empty()) return;
      p.notify = std::move(notify);

      // Replica choice: the service's collective_select() if it has an
      // opinion (invoked here, on "some node" — the shard owner), otherwise
      // uniform random; the remaining candidates form the retry order.
      std::size_t first = 0;
      const auto pick = ex.service->collective_select(n, h, p.candidates);
      if (pick.has_value()) {
        for (std::size_t i = 0; i < p.candidates.size(); ++i) {
          if (p.candidates[i] == *pick) {
            first = i;
            break;
          }
        }
      } else {
        first = cluster_.sim().rng().below(p.candidates.size());
      }
      std::swap(p.candidates[0], p.candidates[first]);

      const std::uint64_t seq = ex.next_seq++;
      ex.pending.emplace(seq, std::move(p));
      seqs.push_back(seq);
      cells_.distinct_hashes->inc();
  });
  const core::CostModel& cm = core::CostModel::instance();
  const sim::Time cost = cm.scan_cost(d.store().unique_hashes()) +
                         static_cast<sim::Time>(seqs.size()) * cm.callback_cost();

  ex.outstanding[raw(n)] = seqs.size();
  ex.enumerated[raw(n)] = true;
  cluster_.sim().after(cost, [this, &d, seqs = std::move(seqs)]() {
    for (const std::uint64_t seq : seqs) dispatch_hash(d, seq);
    check_shard_drained(d);
  });
}

void CommandEngine::dispatch_hash(core::ServiceDaemon& d, std::uint64_t seq) {
  Execution& ex = *active_;
  const auto it = ex.pending.find(seq);
  if (it == ex.pending.end()) return;
  Execution::PendingHash& p = it->second;
  // Skip replicas hosted on nodes the membership view suspects — a dead
  // host can never answer; spending a full reliable-timeout chain on it
  // only slows the drain.
  while (p.next < p.candidates.size() &&
         !cluster_.membership().is_alive(
             cluster_.registry().host_of(p.candidates[p.next]))) {
    ++p.next;
  }
  if (p.next >= p.candidates.size()) {
    finish_seq(d, seq, /*success=*/false);  // every replica dead or stale
    return;
  }
  if (p.span == obs::Tracer::kInvalid) {
    // One async span covers the whole dispatch including retries; async
    // because a shard keeps many dispatches in flight at once.
    p.span = cluster_.tracer().begin_async("dispatch", "svc", raw(p.shard),
                                           cluster_.sim().now(), seq);
  }
  const EntityId chosen = p.candidates[p.next];
  const NodeId host = cluster_.registry().host_of(chosen);
  // The send callback is the failure path for hosts the view did NOT
  // suspect: a replica host that crashed mid-command (or sits behind a cut
  // link) makes the reliable send report kTimeout after max_retries, and we
  // retry on the next survivor. Guard on p.next: if the reply raced the
  // timeout in (data delivered, every ack lost — at-least-once), the seq
  // has either completed (not in pending) or been re-dispatched already.
  const std::size_t attempt = p.next;
  const std::uint64_t cmd = ex.cmd_id;
  net::Fabric::TraceScope trace_scope(d.fabric(), p.ctx);
  d.fabric().send_reliable(
      net::make_message(d.id(), host, net::MsgType::kCommandHashExchange,
                        DispatchMsg{ex.cmd_id, seq, p.hash, chosen, p.notify},
                        kDispatchBytes + p.notify->size() * sizeof(NodeId)),
      [this, &d, seq, attempt, cmd](Status s) {
        if (ok(s) || active_ == nullptr) return;
        // kUnavailable means the circuit breaker fast-failed the dispatch:
        // overload evidence, distinct from a plain timeout.
        if (s == Status::kUnavailable) {
          cells_.pressure_events->inc();
          cluster_.blackbox().record(raw(d.id()), cluster_.sim().now(),
                                     obs::FrEvent::kPressure, 0, 0, seq);
        }
        Execution& exr = *active_;
        if (exr.cmd_id != cmd || exr.done) return;
        const auto pit = exr.pending.find(seq);
        if (pit == exr.pending.end()) return;          // already completed
        if (pit->second.next != attempt) return;       // newer attempt owns it
        ++pit->second.next;
        if (pit->second.next < pit->second.candidates.size()) {
          cells_.collective_retries->inc();
          dispatch_hash(d, seq);
        } else {
          finish_seq(d, seq, /*success=*/false);
        }
      });
}

void CommandEngine::handle_exchange(core::ServiceDaemon& d, const net::Message& m) {
  Execution& ex = *active_;
  if (m.payload.type() == typeid(DispatchMsg)) {
    const auto dm = m.as<DispatchMsg>();  // copy: handler may run after map churn
    if (dm.cmd_id != ex.cmd_id) return;
    handle_dispatch(d, dm, m.src);
    return;
  }
  if (m.payload.type() == typeid(DispatchReplyMsg)) {
    const auto r = m.as<DispatchReplyMsg>();
    if (r.cmd_id != ex.cmd_id) return;
    handle_dispatch_reply(d, r);
    return;
  }
  if (m.payload.type() == typeid(HandledMsg)) {
    const auto h = m.as<HandledMsg>();
    if (h.cmd_id != ex.cmd_id) return;
    ex.handled[raw(d.id())][h.hash] = h.private_value;
    return;
  }
  log::warn("command engine: unexpected exchange payload");
}

void CommandEngine::handle_dispatch(core::ServiceDaemon& d, const DispatchMsg& dm,
                                    NodeId reply_to) {
  Execution& ex = *active_;
  const NodeId n = d.id();
  // Ambient context of the dispatch delivery: re-installed around the
  // deferred reply/notify sends, and marked as an "exec" span on the
  // replica host's trace thread so the dispatch flow arrow lands on work.
  const net::TraceContext ctx = cluster_.fabric().ambient_trace_context();

  bool success = false;
  std::uint64_t private_value = 0;
  const core::CostModel& cm = core::CostModel::instance();
  const hash::Algorithm algo = cluster_.params().hash_algorithm;
  sim::Time cost = cm.callback_cost();  // lookup + dispatch bookkeeping
  // Ground truth check: does the chosen entity still hold content with this
  // hash? The block map may itself be stale (content mutated after the last
  // scan), so verify against a hash of the current bytes before handing the
  // pointer to the service — this is what makes "handled" trustworthy.
  [&] {
    if (!cluster_.registry().alive(dm.chosen)) return;
    const auto* locs = d.block_map().find(dm.hash);
    if (locs == nullptr) return;
    const bool is_se = ex.se_set.test(raw(dm.chosen));
    for (const mem::BlockLocation& loc : *locs) {
      if (loc.entity != dm.chosen) continue;
      const mem::MemoryEntity& e = cluster_.entity(loc.entity);
      const auto data = e.block(loc.block);
      cost += cm.hash_cost(algo, data.size());  // verification rehash
      // An SE's local phase reads all its blocks anyway, so verification
      // reads that same per-command array; a PE has no local phase, so only
      // this block's hash is taken, by the same monitor rule.
      const ContentHash actual = is_se ? se_ground_truth(d, e)[loc.block]
                                       : d.monitor().current_hash(e, loc.block);
      if (actual != dm.hash) continue;  // stale map entry
      const Result<std::uint64_t> r =
          ex.service->collective_command(n, dm.chosen, dm.hash, data);
      // The service callback's work is charged as memcpy-class access to
      // the block (all bundled services are in that class).
      cost += cm.callback_cost() + cm.touch_cost(data.size());
      if (r.has_value()) {
        success = true;
        private_value = r.value();
      }
      break;
    }
  }();

  obs::Tracer& tracer = cluster_.tracer();
  if (ctx.valid() && tracer.enabled()) {
    const obs::Tracer::SpanId span =
        tracer.begin_span("exec", "svc", raw(n), cluster_.sim().now());
    tracer.add_arg(span, "root", ctx.root);
    tracer.add_arg(span, "seq", dm.seq);
    tracer.add_arg(span, "success", success ? 1 : 0);
    tracer.end_span(span, cluster_.sim().now() + cost);
  }

  cluster_.sim().after(cost, [this, &d, dm, reply_to, success, private_value, ctx]() {
    net::Fabric::TraceScope trace_scope(cluster_.fabric(), ctx);
    Execution& exr = *active_;
    if (success) {
      // Redistribute the handled information to the SE hosts the DHT
      // associates with the hash (best effort): a lost datagram only means
      // that host covers the hash itself in the local phase.
      for (const NodeId se_host : *dm.notify) {
        if (se_host == d.id()) {
          exr.handled[raw(se_host)][dm.hash] = private_value;
        } else {
          d.fabric().send_unreliable(net::make_message(
              d.id(), se_host, net::MsgType::kCommandHashExchange,
              HandledMsg{exr.cmd_id, dm.hash, private_value}, kHandledBytes));
        }
      }
    }
    d.fabric().send_reliable(net::make_message(
        d.id(), reply_to, net::MsgType::kCommandHashExchange,
        DispatchReplyMsg{exr.cmd_id, dm.seq, success, private_value}, kDispatchReplyBytes));
  });
}

void CommandEngine::handle_dispatch_reply(core::ServiceDaemon& d, const DispatchReplyMsg& r) {
  Execution& ex = *active_;
  const auto it = ex.pending.find(r.seq);
  if (it == ex.pending.end()) return;
  Execution::PendingHash& p = it->second;

  if (r.success) {
    finish_seq(d, r.seq, /*success=*/true);
    return;
  }
  ++p.next;
  if (p.next < p.candidates.size()) {
    cells_.collective_retries->inc();
    dispatch_hash(d, r.seq);
    return;
  }
  finish_seq(d, r.seq, /*success=*/false);  // every believed replica was stale
}

void CommandEngine::finish_seq(core::ServiceDaemon& d, std::uint64_t seq, bool success) {
  Execution& ex = *active_;
  const auto it = ex.pending.find(seq);
  if (it == ex.pending.end()) return;
  Execution::PendingHash& p = it->second;
  if (success) {
    cells_.collective_handled->inc();
  } else {
    cells_.collective_stale->inc();
  }
  if (p.span != obs::Tracer::kInvalid) {
    obs::Tracer& tracer = cluster_.tracer();
    tracer.add_arg(p.span, "success", success ? 1 : 0);
    tracer.add_arg(p.span, "retries", p.next);
    tracer.end_span(p.span, cluster_.sim().now());
  }
  const NodeId shard = p.shard;
  ex.pending.erase(it);
  --ex.outstanding[raw(shard)];
  check_shard_drained(d);
}

void CommandEngine::check_shard_drained(core::ServiceDaemon& d) {
  Execution& ex = *active_;
  const std::uint32_t n = raw(d.id());
  if (ex.enumerated[n] && ex.outstanding[n] == 0) {
    ex.enumerated[n] = false;  // ack exactly once
    const auto span = ex.drive_spans.find(n);
    if (span != ex.drive_spans.end()) {
      cluster_.tracer().end_span(span->second, cluster_.sim().now());
      ex.drive_spans.erase(span);
    }
    send_ack(d, CtlPhase::kDrive, Status::kOk);
  }
}

// ------------------------------------------------------------ ground truth

const std::vector<ContentHash>& CommandEngine::se_ground_truth(core::ServiceDaemon& d,
                                                               const mem::MemoryEntity& e) {
  Execution::SeHashes& gt = active_->se_hashes[raw(e.id())];
  if (!gt.taken || gt.writes != e.writes()) {
    d.monitor().current_hashes(e, gt.hashes);
    gt.writes = e.writes();
    gt.taken = true;
  }
  return gt.hashes;
}

// ------------------------------------------------------------- local phase

Status CommandEngine::run_local_phase(core::ServiceDaemon& d, sim::Time& cost) {
  Execution& ex = *active_;
  const NodeId n = d.id();
  const auto& handled = ex.handled[raw(n)];
  const core::CostModel& cm = core::CostModel::instance();
  const hash::Algorithm algo = cluster_.params().hash_algorithm;
  Status st = Status::kOk;
  cost = 0;

  for (const EntityId eid : cluster_.registry().on_node(n)) {
    if (!ex.se_set.test(raw(eid))) continue;
    Status s = ex.service->local_start(n, eid);
    if (!ok(s)) st = s;
    cost += cm.callback_cost();

    // Ground truth: every block's current hash, taken before the service
    // sees any of them — the array dispatch verification took, if the SE is
    // unwritten since.
    const mem::MemoryEntity& e = cluster_.entity(eid);
    const std::vector<ContentHash>& hashes = se_ground_truth(d, e);

    for (BlockIndex b = 0; b < e.num_blocks(); ++b) {
      const auto data = e.block(b);
      const ContentHash h = hashes[b];
      const auto hit = handled.find(h);
      const std::uint64_t* priv = hit == handled.end() ? nullptr : &hit->second;
      cells_.local_blocks->inc();
      if (priv != nullptr) {
        cells_.local_covered->inc();
      } else {
        cells_.local_uncovered->inc();
      }
      s = ex.service->local_command(n, eid, b, h, data, priv);
      if (!ok(s)) st = s;
      // Ground-truth rehash plus the service's memcpy-class block work.
      cost += cm.hash_cost(algo, data.size()) + cm.callback_cost() + cm.touch_cost(data.size());
    }

    s = ex.service->local_finalize(n, eid);
    if (!ok(s)) st = s;
    cost += cm.callback_cost();
  }
  return st;
}

// ------------------------------------------------------------------ driver

CommandStats CommandEngine::execute(ApplicationService& service, const CommandSpec& spec) {
  Execution ex;
  ex.cmd_id = next_cmd_id_++;
  ex.service = &service;
  ex.spec = &spec;
  ex.handled.resize(cluster_.num_nodes());
  ex.se_hashes.resize(cluster_.registry().size());

  ex.se_set = Bitmap(cluster_.params().max_entities);
  ex.scope_set = Bitmap(cluster_.params().max_entities);
  for (const EntityId e : spec.service_entities) {
    ex.se_set.set(raw(e));
    ex.scope_set.set(raw(e));
  }
  for (const EntityId e : spec.participants) ex.scope_set.set(raw(e));

  // Node sets. scope_nodes host at least one scope entity; se_nodes host at
  // least one SE; shard_nodes hold DHT slices (all placement nodes).
  std::vector<bool> is_scope(cluster_.num_nodes(), false);
  std::vector<bool> is_se(cluster_.num_nodes(), false);
  for (const EntityId e : spec.service_entities) {
    if (!cluster_.registry().alive(e)) continue;
    is_scope[raw(cluster_.registry().host_of(e))] = true;
    is_se[raw(cluster_.registry().host_of(e))] = true;
  }
  for (const EntityId e : spec.participants) {
    if (!cluster_.registry().alive(e)) continue;
    is_scope[raw(cluster_.registry().host_of(e))] = true;
  }
  for (std::uint32_t i = 0; i < cluster_.num_nodes(); ++i) {
    if (is_scope[i]) ex.scope_nodes.push_back(node_id(i));
    if (is_se[i]) ex.se_nodes.push_back(node_id(i));
  }
  for (std::uint32_t i = 0; i < cluster_.placement().num_nodes(); ++i) {
    ex.shard_nodes.push_back(node_id(i));
  }

  // Nodes the membership view already suspects are excluded up front —
  // no point burning a full deadline+probe cycle on a known-dead node.
  active_ = &ex;
  const core::MembershipView& view = cluster_.membership();
  for (std::uint32_t i = 0; i < cluster_.num_nodes(); ++i) {
    if (view.is_alive(node_id(i))) continue;
    const bool participates = is_scope[i] || is_se[i] ||
                              (i < cluster_.placement().num_nodes());
    if (participates) exclude_node(node_id(i), Status::kUnavailable);
  }

  // Baselines: the registry accumulates across commands; this command's
  // stats are the counter deltas accrued while it runs.
  const std::uint64_t base_hashes = cells_.distinct_hashes->value();
  const std::uint64_t base_handled = cells_.collective_handled->value();
  const std::uint64_t base_retries = cells_.collective_retries->value();
  const std::uint64_t base_stale = cells_.collective_stale->value();
  const std::uint64_t base_blocks = cells_.local_blocks->value();
  const std::uint64_t base_covered = cells_.local_covered->value();
  const std::uint64_t base_uncovered = cells_.local_uncovered->value();
  const std::uint64_t base_pressure = cells_.pressure_events->value();
  const std::uint64_t base_shed = cluster_.fabric().total_traffic().msgs_shed;
  cells_.commands->inc();

  ex.stats.start = cluster_.sim().now();
  obs::Tracer& tracer = cluster_.tracer();
  ex.cmd_span = tracer.begin_span("command", "svc", raw(spec.controller), ex.stats.start);
  start_phase(CtlPhase::kInit, ex.scope_nodes);
  cluster_.sim().run();
  active_ = nullptr;

  if (!ex.done && ok(ex.stats.status)) {
    ex.stats.status = Status::kInternal;  // protocol stalled
    ex.stats.end = cluster_.sim().now();
  }
  // Overload evidence while the command ran: breaker fast-fails on the
  // dispatch path plus datagrams shed at bounded ingress queues. The
  // collective phase is best-effort, so pressure degrades the command
  // rather than failing it — the local ground-truth phase stayed exact.
  ex.stats.pressure_events = (cells_.pressure_events->value() - base_pressure) +
                             (cluster_.fabric().total_traffic().msgs_shed - base_shed);
  if (!ex.stats.failures.empty() || ex.stats.pressure_events > 0) {
    cells_.commands_degraded->inc();
    // Excluding nodes (or running under pressure) degrades the command
    // unless something worse already happened (a surviving node's callback
    // reported a real error).
    if (ok(ex.stats.status)) ex.stats.status = Status::kDegraded;
    // A degraded completion is exactly what the black box exists for: dump
    // the recent per-node event rings while the evidence is still in them.
    cluster_.blackbox().record_all(cluster_.sim().now(), obs::FrEvent::kDegradedCommand,
                                   static_cast<std::uint16_t>(ex.stats.status), 0,
                                   ex.cmd_id);
    cluster_.blackbox().dump("degraded_command");
  }

  ex.stats.distinct_hashes = cells_.distinct_hashes->value() - base_hashes;
  ex.stats.collective_handled = cells_.collective_handled->value() - base_handled;
  ex.stats.collective_retries = cells_.collective_retries->value() - base_retries;
  ex.stats.collective_stale = cells_.collective_stale->value() - base_stale;
  ex.stats.local_blocks = cells_.local_blocks->value() - base_blocks;
  ex.stats.local_covered = cells_.local_covered->value() - base_covered;
  ex.stats.local_uncovered = cells_.local_uncovered->value() - base_uncovered;

  tracer.add_arg(ex.cmd_span, "cmd_id", ex.cmd_id);
  tracer.add_arg(ex.cmd_span, "status", static_cast<std::uint64_t>(ex.stats.status));
  tracer.add_arg(ex.cmd_span, "distinct_hashes", ex.stats.distinct_hashes);
  tracer.add_arg(ex.cmd_span, "collective_handled", ex.stats.collective_handled);
  tracer.add_arg(ex.cmd_span, "collective_retries", ex.stats.collective_retries);
  tracer.add_arg(ex.cmd_span, "collective_stale", ex.stats.collective_stale);
  tracer.add_arg(ex.cmd_span, "local_blocks", ex.stats.local_blocks);
  tracer.add_arg(ex.cmd_span, "local_covered", ex.stats.local_covered);
  tracer.add_arg(ex.cmd_span, "local_uncovered", ex.stats.local_uncovered);
  tracer.add_arg(ex.cmd_span, "pressure_events", ex.stats.pressure_events);
  tracer.end_span(ex.cmd_span, ex.stats.end);
  return ex.stats;
}

}  // namespace concord::svc
