// concord-lint: emit-path — bytes or messages produced here must not depend on
// hash-map iteration order.
#include "obs/metrics.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "obs/json.hpp"

namespace concord::obs {

namespace {

void append_key(std::string& out, const MetricKey& key) {
  char buf[64];
  out += "{\"subsystem\":\"";
  json::escape(out, key.subsystem);
  out += "\",\"name\":\"";
  json::escape(out, key.name);
  std::snprintf(buf, sizeof buf, "\",\"node\":%d", key.node);
  out += buf;
}

void append_u64(std::string& out, const char* field, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, ",\"%s\":%" PRIu64, field, v);
  out += buf;
}

void append_i64(std::string& out, const char* field, std::int64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, ",\"%s\":%" PRId64, field, v);
  out += buf;
}

}  // namespace

template <typename T>
T& Registry::resolve(std::string_view subsystem, std::string_view name, std::int32_t node) {
  // Only the map insertion needs the lock: cell mutation stays on disjoint
  // per-node cells, and references stay valid across later insertions.
  const common::MutexLock lock(resolve_mu_);
  const auto [it, inserted] = metrics_.try_emplace(
      MetricKey{std::string(subsystem), std::string(name), node}, std::in_place_type<T>);
  if (T* cell = std::get_if<T>(&it->second)) return *cell;
  // One label, one kind: a kind clash is a wiring bug, not a runtime state.
  std::fprintf(stderr, "obs: metric %s.%s re-registered with a different kind\n",
               it->first.subsystem.c_str(), it->first.name.c_str());
  std::abort();
}

Counter& Registry::counter(std::string_view subsystem, std::string_view name,
                           std::int32_t node) {
  return resolve<Counter>(subsystem, name, node);
}

Gauge& Registry::gauge(std::string_view subsystem, std::string_view name, std::int32_t node) {
  return resolve<Gauge>(subsystem, name, node);
}

Histogram& Registry::histogram(std::string_view subsystem, std::string_view name,
                               std::int32_t node) {
  return resolve<Histogram>(subsystem, name, node);
}

std::uint64_t Registry::counter_total(std::string_view subsystem, std::string_view name) const {
  std::uint64_t sum = 0;
  for (const auto& [key, cell] : metrics_) {
    if (key.subsystem != subsystem || key.name != name) continue;
    if (const Counter* c = std::get_if<Counter>(&cell)) sum += c->value();
  }
  return sum;
}

std::int64_t Registry::gauge_total(std::string_view subsystem, std::string_view name) const {
  std::int64_t sum = 0;
  for (const auto& [key, cell] : metrics_) {
    if (key.subsystem != subsystem || key.name != name) continue;
    if (const Gauge* g = std::get_if<Gauge>(&cell)) sum += g->value();
  }
  return sum;
}

void Registry::reset() {
  for (auto& [key, cell] : metrics_) {
    std::visit([](auto& c) { c.reset(); }, cell);
  }
}

void Registry::reset(std::string_view subsystem) {
  for (auto& [key, cell] : metrics_) {
    if (key.subsystem != subsystem) continue;
    std::visit([](auto& c) { c.reset(); }, cell);
  }
}

std::string Registry::to_json() const {
  std::string counters, gauges, histograms;
  for (const auto& [key, cell] : metrics_) {
    if (const Counter* c = std::get_if<Counter>(&cell)) {
      if (!counters.empty()) counters += ',';
      append_key(counters, key);
      append_u64(counters, "value", c->value());
      counters += '}';
    } else if (const Gauge* g = std::get_if<Gauge>(&cell)) {
      if (!gauges.empty()) gauges += ',';
      append_key(gauges, key);
      append_i64(gauges, "value", g->value());
      gauges += '}';
    } else if (const Histogram* h = std::get_if<Histogram>(&cell)) {
      if (!histograms.empty()) histograms += ',';
      append_key(histograms, key);
      append_u64(histograms, "count", h->count());
      append_u64(histograms, "sum", h->sum());
      append_u64(histograms, "min", h->min());
      append_u64(histograms, "max", h->max());
      histograms += ",\"buckets\":[";
      bool first = true;
      for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
        if (h->bucket(i) == 0) continue;
        char buf[64];
        std::snprintf(buf, sizeof buf, "%s[%zu,%" PRIu64 "]", first ? "" : ",", i,
                      h->bucket(i));
        histograms += buf;
        first = false;
      }
      histograms += "]}";
    }
  }
  std::string out = "{\"counters\":[";
  out += counters;
  out += "],\"gauges\":[";
  out += gauges;
  out += "],\"histograms\":[";
  out += histograms;
  out += "]}";
  return out;
}

std::string Registry::to_csv() const {
  std::string out = "kind,subsystem,name,node,value,count,sum,min,max\n";
  char buf[256];
  for (const auto& [key, cell] : metrics_) {
    if (const Counter* c = std::get_if<Counter>(&cell)) {
      std::snprintf(buf, sizeof buf, "counter,%s,%s,%d,%" PRIu64 ",,,,\n",
                    key.subsystem.c_str(), key.name.c_str(), key.node, c->value());
    } else if (const Gauge* g = std::get_if<Gauge>(&cell)) {
      std::snprintf(buf, sizeof buf, "gauge,%s,%s,%d,%" PRId64 ",,,,\n",
                    key.subsystem.c_str(), key.name.c_str(), key.node, g->value());
    } else if (const Histogram* h = std::get_if<Histogram>(&cell)) {
      std::snprintf(buf, sizeof buf,
                    "histogram,%s,%s,%d,,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
                    key.subsystem.c_str(), key.name.c_str(), key.node, h->count(), h->sum(),
                    h->min(), h->max());
    } else {
      continue;
    }
    out += buf;
  }
  return out;
}

}  // namespace concord::obs
