#pragma once
// Shared helpers of the perfbench binary: clock, seeded RNG, order
// statistics, the metric sink, and the in-memory span recorder.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "rt/obs/metrics_writer.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;
using rt::obs::JsonValue;

/// Seconds on the steady clock since the first call in this process.
inline double now_s() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64: a fully specified generator, so one seed gives the same
/// schedule on every standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  long below(long n) {
    return static_cast<long>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t s_;
};

/// Linear-interpolated quantile, q in [0, 1].  0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

inline double geomean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += std::log(x);
  return v.empty() ? 0 : std::exp(s / static_cast<double>(v.size()));
}

/// The tail statistic the benchmark reports: the highest percentile, at
/// most p99, that still has at least @p min_beyond samples above it.  With
/// fewer than min_beyond + 1 samples there is no such percentile and the
/// sample maximum is reported (pct = 100).
struct Tail {
  double value = 0;
  double pct = 0;
  std::size_t samples = 0;
};
inline Tail tail_stat(const std::vector<double>& v,
                      std::size_t min_beyond = 10) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  if (v.size() <= min_beyond) {
    t.value = *std::max_element(v.begin(), v.end());
    t.pct = 100;
    return t;
  }
  const double n = static_cast<double>(v.size());
  const double beyond = static_cast<double>(min_beyond);
  const double pct = std::min(99.0, std::floor(100.0 * (n - beyond) / n));
  t.pct = pct;
  t.value = quantile(v, pct / 100.0);
  return t;
}

/// Named metric values in insertion order, each with its unit; notes are
/// free-form labels (provenance, percentiles used, byte models).
class Metrics {
 public:
  void add(const std::string& name, const std::string& unit, double value) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.unit = unit;
        m.value = value;
        return;
      }
    }
    items_.push_back({name, unit, value});
  }
  bool has(const std::string& name) const {
    for (const auto& m : items_) {
      if (m.name == name) return true;
    }
    return false;
  }
  double get(const std::string& name) const {
    for (const auto& m : items_) {
      if (m.name == name) return m.value;
    }
    return 0;
  }
  void note(const std::string& key, JsonValue v) {
    notes_.set(key, std::move(v));
  }
  const JsonValue& notes() const { return notes_; }

  struct Item {
    std::string name, unit;
    double value;
  };
  const std::vector<Item>& items() const { return items_; }

 private:
  std::vector<Item> items_;
  JsonValue notes_ = JsonValue::object();
};

/// Benchmark-side spans: kept in memory while the workload runs and
/// written once at the end.  A disabled Trace records nothing, so the
/// untraced runs pay one branch per span site.
class Trace {
 public:
  struct Span {
    std::string name;
    double start_s = 0, end_s = 0;
    long id = 0;
    long parent = -1;  ///< span id of the parent, -1 at the root
    long long req = -1;  ///< request id, -1 when not request-scoped
  };

  explicit Trace(bool enabled = false) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Record a finished span; returns its id (-1 when disabled).
  long add(const std::string& name, double start_s, double end_s,
           long parent = -1, long long req = -1) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lk(m_);
    const long id = static_cast<long>(spans_.size());
    spans_.push_back({name, start_s, end_s, id, parent, req});
    return id;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lk(m_);
    return spans_.size();
  }
  JsonValue to_json() const;

 private:
  bool enabled_;
  mutable std::mutex m_;
  std::vector<Span> spans_;
};

inline JsonValue Trace::to_json() const {
  std::lock_guard<std::mutex> lk(m_);
  JsonValue arr = JsonValue::array();
  for (const Span& s : spans_) {
    JsonValue o = JsonValue::object();
    o.set("name", s.name);
    o.set("start_s", s.start_s);
    o.set("end_s", s.end_s);
    o.set("id", s.id);
    o.set("parent", s.parent);
    o.set("req", s.req);
    arr.push_back(std::move(o));
  }
  return arr;
}

/// Times a scope into a Trace (no-op when tracing is off).
class SpanScope {
 public:
  SpanScope(Trace* t, std::string name, long parent = -1, long long req = -1)
      : t_(t), name_(std::move(name)), parent_(parent), req_(req),
        start_(now_s()) {}
  ~SpanScope() {
    if (t_ != nullptr) t_->add(name_, start_, now_s(), parent_, req_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Trace* t_;
  std::string name_;
  long parent_;
  long long req_;
  double start_;
};

}  // namespace pb
