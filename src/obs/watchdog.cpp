// concord-lint: emit-path — bytes or messages produced here must not depend on
// hash-map iteration order.
#include "obs/watchdog.hpp"

#include <cstdio>
#include <cstdlib>

namespace concord::obs {

void Watchdog::add_invariant(std::string name, Check check) {
  Counter& cell = registry_.counter("obs", "watchdog_viol." + name);
  invariants_.push_back(Invariant{std::move(name), std::move(check), &cell});
}

std::size_t Watchdog::evaluate() {
  runs_.inc();
  last_findings_.clear();

  for (const Invariant& inv : invariants_) {
    std::optional<std::string> detail = inv.check();
    if (!detail.has_value()) continue;
    last_findings_.push_back(Finding{inv.name, *std::move(detail)});
    violations_.inc();
    inv.violations->inc();
    if (hook_) hook_(last_findings_.back());
  }

  if (hard_fail_ && !last_findings_.empty()) {
    for (const Finding& f : last_findings_) {
      std::fprintf(stderr, "[watchdog] invariant '%s' violated: %s\n", f.invariant.c_str(),
                   f.detail.c_str());
    }
    std::abort();
  }
  return last_findings_.size();
}

}  // namespace concord::obs
