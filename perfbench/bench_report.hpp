// Result schema, percentiles and host-clock spans for concord_bench.
//
// Every workload writes one BenchReport. Its full form (to_json) carries the
// provenance a committed trajectory point needs — bench name, revision, host
// fingerprint, seed, threads — and every metric as {value, unit, n}. Its
// one-line form (result_line) is what a caller of the benchmark parses:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
//
// SpanRecorder is the benchmark's own tracer: host-clock spans around each
// public call the benchmark makes into a layer, kept in memory and written
// at exit as Chrome trace_event JSON plus per-span self times. It records
// nothing while disabled, so untraced runs pay one branch per call site.
//
// HostReference is a fixed kernel timed after every measured iteration, so
// that each iteration's wall time can be stated relative to the host's speed
// at that moment.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "obs/json.hpp"

namespace concord::bench {

/// Host monotonic nanoseconds. The benchmark measures real elapsed time by
/// definition; values only ever reach the report, never simulated state.
inline std::int64_t now_ns() {
  const auto now = std::chrono::steady_clock::now();  // NOLINT(concord-determinism)
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now.time_since_epoch()).count();
}

/// The p-th percentile (0..100) of `v`, interpolating linearly between the
/// two nearest ranks (NumPy's default). 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// A fixed amount of work whose wall time tracks the host's speed. On a
/// shared VM the same code runs up to 1.7x slower for seconds to minutes at a
/// time, so an iteration's wall time alone varies more across runs than a
/// change worth detecting. Divided by this kernel's time, measured right
/// after the iteration, most of that variation cancels.
///
/// About half the time is integer mixing shaped like MD5's rounds (a
/// dependent chain of adds, rotates and a boolean function: what scans and
/// checkpoints spend their time on). The other half is random lookups in a
/// std::unordered_map of 200k entries (what the DHT, query and audit paths
/// do). It calls nothing in src/, so making the program faster does not make
/// the reference faster too.
class HostReference {
 public:
  HostReference() : words_(kWords) {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint32_t& w : words_) w = static_cast<std::uint32_t>(next(x));
    table_.reserve(kEntries);
    for (std::uint64_t k = 0; k < kEntries; ++k) table_.emplace(key(k), k);
  }

  /// Runs the kernel once and returns its wall milliseconds.
  double time_ms() {
    const std::int64_t t0 = now_ns();
    std::uint32_t a = 0x67452301u, b = 0xefcdab89u, c = 0x98badcfeu, d = 0x10325476u;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (std::size_t i = 0; i < words_.size(); ++i) {
        const std::uint32_t f = (b & c) | (~b & d);
        const std::uint32_t t = d;
        d = c;
        c = b;
        b += std::rotl(a + f + words_[i], 7 + static_cast<int>(i & 3u) * 5);
        a = t;
      }
    }
    std::uint64_t y = a ^ b ^ c ^ d;
    for (int k = 0; k < kLookups; ++k) sink_ += table_.find(key(next(y) % kEntries))->second;
    sink_ += y;
    return static_cast<double>(now_ns() - t0) / 1e6;
  }

  /// Depends on every result, so the compiler keeps the work.
  [[nodiscard]] std::uint64_t sink() const noexcept { return sink_; }

 private:
  static constexpr std::size_t kWords = 16 * 1024;  // 64 KiB: stays in L2
  static constexpr int kPasses = 24;
  static constexpr std::uint64_t kEntries = 200'000;
  static constexpr int kLookups = 12'000;

  static std::uint64_t next(std::uint64_t& x) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 11;
  }
  static std::uint64_t key(std::uint64_t k) { return k * 0x9E3779B97F4A7C15ull; }

  std::vector<std::uint32_t> words_;
  std::unordered_map<std::uint64_t, std::uint64_t> table_;
  std::uint64_t sink_ = 0;
};

/// CPU brand string from cpuid (no file access), or "unknown".
inline std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.substr(0, s.find('\0'));
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

inline void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

inline void append_string(std::string& out, std::string_view s) {
  out += '"';
  obs::json::escape(out, s);
  out += '"';
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t n = 1;  // samples behind the value
};

class BenchReport {
 public:
  BenchReport(std::string workload, std::uint64_t seed, std::size_t threads, bool traced)
      : workload_(std::move(workload)), seed_(seed), threads_(threads), traced_(traced) {}

  void add(std::string name, double value, std::string unit, std::size_t n = 1) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit), n});
  }
  void set_revision(std::string rev) { rev_ = std::move(rev); }
  void count_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] bool correct() const noexcept { return failed_ == 0; }
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept { return metrics_; }

  /// The result line: exactly correct/attempted/failed/metrics.
  [[nodiscard]] std::string result_line() const {
    return "{" + outcome() + metrics_json(false) + "}";
  }

  /// The full report: provenance plus every metric with its sample count.
  [[nodiscard]] std::string to_json() const {
    std::string out = "{\"bench\":\"concord_bench\",\"workload\":";
    append_string(out, workload_);
    out += ",\"rev\":";
    append_string(out, rev_);
    out += ",\"host\":{\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
    out += ",\"cpu\":";
    append_string(out, cpu_model());
    out += "},\"seed\":" + std::to_string(seed_);
    out += ",\"threads\":" + std::to_string(threads_);
    out += ",\"trace\":";
    out += traced_ ? "true," : "false,";
    return out + outcome() + metrics_json(true) + "}";
  }

 private:
  std::string outcome() const {
    return std::string("\"correct\":") + (correct() ? "true" : "false") +
           ",\"attempted\":" + std::to_string(attempted_) +
           ",\"failed\":" + std::to_string(failed_);
  }

  std::string metrics_json(bool with_n) const {
    std::string out = ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) out += ',';
      append_string(out, metrics_[i].name);
      out += ":{\"value\":";
      append_number(out, metrics_[i].value);
      out += ",\"unit\":";
      append_string(out, metrics_[i].unit);
      if (with_n) out += ",\"n\":" + std::to_string(metrics_[i].n);
      out += '}';
    }
    return out + '}';
  }

  std::string workload_;
  std::string rev_ = "unknown";
  std::uint64_t seed_;
  std::size_t threads_;
  bool traced_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// In-memory host-clock span recorder (single-threaded: the benchmark's own
/// measurement loop). Spans nest by a begin/end stack; each records its parent
/// and the closed-loop iteration it belongs to.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;
    std::uint64_t iter = 0;
  };
  struct SelfTime {
    std::uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;  // total minus the time child spans cover
  };

  void set_enabled(bool on) noexcept { enabled_ = on; }
  void set_iteration(std::uint64_t iter) noexcept { iter_ = iter; }

  /// RAII span; inert while the recorder is disabled.
  class Scope {
   public:
    Scope(SpanRecorder& rec, std::string_view name) : rec_(rec), id_(rec.begin(name)) {}
    ~Scope() { rec_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    std::int64_t id_;
  };

  std::int64_t begin(std::string_view name) {
    if (!enabled_) return -1;
    const auto id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{std::string(name), now_ns(), 0,
                          stack_.empty() ? -1 : stack_.back(), iter_});
    stack_.push_back(id);
    return id;
  }

  void end(std::int64_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// Per span name: count, total and self milliseconds. Children of one
  /// span run sequentially (one measuring thread), so the time they cover is
  /// the sum of their durations.
  [[nodiscard]] std::map<std::string, SelfTime> self_times() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.begin_ns;
    }
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      SelfTime& t = out[s.name];
      const double dur = static_cast<double>(s.end_ns - s.begin_ns) / 1e6;
      ++t.count;
      t.total_ms += dur;
      t.self_ms += dur - static_cast<double>(child_ns[i]) / 1e6;
    }
    return out;
  }

  /// Chrome trace_event JSON ("X" events, microseconds from the first span)
  /// with the self-time table under the extra top-level key "selfTimes".
  [[nodiscard]] std::string to_chrome_json() const {
    std::string out = "{\"traceEvents\":[";
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().begin_ns;
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ',';
      out += "{\"name\":";
      append_string(out, s.name);
      std::snprintf(buf, sizeof buf,
                    ",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%" PRId64
                    ",\"iter\":%" PRIu64 "}}",
                    static_cast<double>(s.begin_ns - t0) / 1e3,
                    static_cast<double>(s.end_ns - s.begin_ns) / 1e3, i, s.parent, s.iter);
      out += buf;
    }
    out += "],\"selfTimes\":{";
    bool first = true;
    for (const auto& [name, t] : self_times()) {
      if (!first) out += ',';
      first = false;
      append_string(out, name);
      out += ":{\"count\":" + std::to_string(t.count) + ",\"total_ms\":";
      append_number(out, t.total_ms);
      out += ",\"self_ms\":";
      append_number(out, t.self_ms);
      out += '}';
    }
    out += "}}";
    return out;
  }

 private:
  bool enabled_ = false;
  std::uint64_t iter_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

}  // namespace concord::bench
