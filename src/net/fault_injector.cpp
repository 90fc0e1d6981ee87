#include "net/fault_injector.hpp"

#include <algorithm>

namespace concord::net {

namespace {
constexpr std::uint64_t link_key(NodeId a, NodeId b) noexcept {
  return (static_cast<std::uint64_t>(raw(a)) << 32) | raw(b);
}
}  // namespace

void FaultInjector::crash(NodeId n) {
  if (is_crashed(n)) return;
  paused_.erase(raw(n));  // a crash supersedes a pause
  crashed_.insert(raw(n));
  fabric_.set_node_reachable(n, false);
  for (const auto& h : crash_hooks_) h(n);
}

void FaultInjector::restart(NodeId n) {
  if (!is_crashed(n)) return;
  crashed_.erase(raw(n));
  fabric_.set_node_reachable(n, true);
}

void FaultInjector::pause(NodeId n) {
  if (is_down(n)) return;  // pausing a crashed node changes nothing
  paused_.insert(raw(n));
  fabric_.set_node_reachable(n, false);
}

void FaultInjector::resume(NodeId n) {
  if (!is_paused(n)) return;
  paused_.erase(raw(n));
  if (!is_crashed(n)) fabric_.set_node_reachable(n, true);
}

void FaultInjector::cut_link(NodeId a, NodeId b) {
  fabric_.set_link_blocked(a, b, true);
  cut_links_.insert(link_key(a, b));
}

void FaultInjector::heal_link(NodeId a, NodeId b) {
  fabric_.set_link_blocked(a, b, false);
  cut_links_.erase(link_key(a, b));
}

void FaultInjector::partition(NodeId a, NodeId b) {
  cut_link(a, b);
  cut_link(b, a);
}

void FaultInjector::heal_partition(NodeId a, NodeId b) {
  heal_link(a, b);
  heal_link(b, a);
}

void FaultInjector::set_link_loss(NodeId a, NodeId b, double p) {
  fabric_.set_link_loss(a, b, p);
  if (p > 0.0) {
    lossy_links_.insert(link_key(a, b));
  } else {
    lossy_links_.erase(link_key(a, b));
  }
}

void FaultInjector::set_link_corrupt(NodeId a, NodeId b, double p) {
  fabric_.set_link_corrupt(a, b, p);
  if (p > 0.0) {
    corrupt_links_.insert(link_key(a, b));
  } else {
    corrupt_links_.erase(link_key(a, b));
  }
}

std::vector<NodeId> FaultInjector::down_nodes() const {
  std::vector<NodeId> out;
  out.reserve(down_count());
  for (const std::uint32_t n : crashed_) out.push_back(node_id(n));
  for (const std::uint32_t n : paused_) out.push_back(node_id(n));
  std::sort(out.begin(), out.end());
  return out;
}

void FaultInjector::heal_all() {
  // Sorted copies: hook firing order must not depend on hash-set iteration.
  std::vector<std::uint32_t> crashed(crashed_.begin(), crashed_.end());
  std::sort(crashed.begin(), crashed.end());
  for (const std::uint32_t n : crashed) restart(node_id(n));
  std::vector<std::uint32_t> paused(paused_.begin(), paused_.end());
  std::sort(paused.begin(), paused.end());
  for (const std::uint32_t n : paused) resume(node_id(n));
  for (const std::uint64_t key : cut_links_) {
    fabric_.set_link_blocked(node_id(static_cast<std::uint32_t>(key >> 32)),
                             node_id(static_cast<std::uint32_t>(key)), false);
  }
  cut_links_.clear();
  for (const std::uint64_t key : lossy_links_) {
    fabric_.set_link_loss(node_id(static_cast<std::uint32_t>(key >> 32)),
                          node_id(static_cast<std::uint32_t>(key)), 0.0);
  }
  lossy_links_.clear();
  for (const std::uint64_t key : corrupt_links_) {
    fabric_.set_link_corrupt(node_id(static_cast<std::uint32_t>(key >> 32)),
                             node_id(static_cast<std::uint32_t>(key)), 0.0);
  }
  corrupt_links_.clear();
}

void FaultInjector::apply(const FaultEvent& e) {
  switch (e.kind) {
    case FaultKind::kCrash: crash(e.a); break;
    case FaultKind::kRestart: restart(e.a); break;
    case FaultKind::kPause: pause(e.a); break;
    case FaultKind::kResume: resume(e.a); break;
    case FaultKind::kCutLink: cut_link(e.a, e.b); break;
    case FaultKind::kHealLink: heal_link(e.a, e.b); break;
    case FaultKind::kCorruptLink: set_link_corrupt(e.a, e.b, e.rate); break;
    case FaultKind::kHealCorrupt: set_link_corrupt(e.a, e.b, 0.0); break;
  }
}

void FaultInjector::schedule(const std::vector<FaultEvent>& events) {
  for (const FaultEvent& e : events) {
    sim_.at(std::max(e.at, sim_.now()), [this, e]() { apply(e); });
  }
}

std::vector<FaultEvent> FaultInjector::random_schedule(Rng& rng, std::uint32_t num_nodes,
                                                       std::size_t faults, sim::Time horizon) {
  std::vector<FaultEvent> out;
  if (num_nodes < 2 || horizon <= 0) return out;
  const auto pick_node = [&rng, num_nodes]() {
    std::uint32_t n;
    do {
      n = static_cast<std::uint32_t>(rng.below(num_nodes));
    } while (n == 0);  // node 0 is the spare
    return node_id(n);
  };
  for (std::size_t i = 0; i < faults; ++i) {
    const auto start =
        static_cast<sim::Time>(rng.below(static_cast<std::uint64_t>(horizon * 6 / 10)));
    const sim::Time dwell =
        horizon / 10 +
        static_cast<sim::Time>(rng.below(static_cast<std::uint64_t>(horizon * 2 / 10)));
    const sim::Time heal = std::min<sim::Time>(start + dwell, horizon - 1);
    std::uint64_t kind = rng.below(4);
    if (kind == 1 && num_nodes < 4) kind = 2;  // partitions need two non-spare nodes
    if (kind == 0) {
      const NodeId v = pick_node();
      out.push_back({start, FaultKind::kPause, v, v});
      out.push_back({heal, FaultKind::kResume, v, v});
    } else if (kind == 1) {
      const NodeId a = pick_node();
      NodeId b = pick_node();
      while (b == a) b = pick_node();
      out.push_back({start, FaultKind::kCutLink, a, b});
      out.push_back({start, FaultKind::kCutLink, b, a});
      out.push_back({heal, FaultKind::kHealLink, a, b});
      out.push_back({heal, FaultKind::kHealLink, b, a});
    } else {
      const NodeId v = pick_node();
      out.push_back({start, FaultKind::kCrash, v, v});
      out.push_back({heal, FaultKind::kRestart, v, v});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FaultEvent& x, const FaultEvent& y) { return x.at < y.at; });
  return out;
}

}  // namespace concord::net
