#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <thread>

#include "rt/core/cache_topology.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

/// Largest cache the host reports (bytes; 0 when sysfs is silent).
long long llc_bytes() {
  long long best = 0;
  for (const auto& l : rt::core::host_cache_topology().levels) {
    if (l.type != 'I') best = std::max<long long>(best, l.size_bytes);
  }
  return best;
}

}  // namespace

double triad_gbs(int threads, int reps, Trace* tr, JsonValue* note) {
  const long long llc = std::max<long long>(llc_bytes(), 32ll << 20);
  const std::size_t n = static_cast<std::size_t>(4 * llc / sizeof(double));
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  const int nt = std::max(1, threads);
  auto parallel = [&](auto&& body) {
    std::vector<std::thread> pool;
    for (int t = 0; t < nt; ++t) {
      const std::size_t lo = n * static_cast<std::size_t>(t) / nt;
      const std::size_t hi = n * static_cast<std::size_t>(t + 1) / nt;
      pool.emplace_back([&body, lo, hi] { body(lo, hi); });
    }
    for (auto& th : pool) th.join();
  };
  // First touch on the threads that later stream each chunk.
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  double best = 0;
  const double s = 3.0;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    parallel([&](std::size_t lo, std::size_t hi) {
      double* __restrict pa = a.get();
      const double* __restrict pb = b.get();
      const double* __restrict pc = c.get();
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + s * pc[i];
    });
    const double t1 = now_s();
    if (tr != nullptr) tr->add("probe.triad", t0, t1);
    const double bytes = 3.0 * sizeof(double) * static_cast<double>(n);
    best = std::max(best, bytes / (t1 - t0) / 1e9);
  }
  if (a[n / 2] != 1.0 + s * 2.0) best = 0;  // the probe must have run
  if (note != nullptr) {
    JsonValue t = JsonValue::object();
    t.set("llc_bytes", llc);
    t.set("array_bytes", static_cast<long long>(n * sizeof(double)));
    t.set("threads", nt);
    t.set("passes", reps);
    t.set("bytes", "computed: 3 x 8 B x elements per pass, best pass");
    *note = t;
  }
  return best;
}

JsonValue provenance(int nproc) {
  JsonValue p = JsonValue::object();
  std::ifstream in("/proc/cpuinfo");
  std::string line, model, flags;
  while (std::getline(in, line)) {
    auto value = [&] {
      const auto c = line.find(':');
      return c == std::string::npos ? std::string() : line.substr(c + 2);
    };
    if (model.empty() && line.rfind("model name", 0) == 0) model = value();
    if (flags.empty() && line.rfind("flags", 0) == 0) flags = value();
  }
  p.set("cpu_model", model.empty() ? "unknown" : model);
  JsonValue isa = JsonValue::object();
  const std::string all = " " + flags + " ";
  for (const char* want : {"sse4_2", "avx", "avx2", "fma", "avx512f",
                           "avx512vl", "avx512bw"}) {
    isa.set(want, all.find(std::string(" ") + want + " ") != std::string::npos);
  }
  p.set("isa", isa);
  p.set("nproc", nproc);
  JsonValue caches = JsonValue::array();
  for (const auto& l : rt::core::host_cache_topology().levels) {
    JsonValue c = JsonValue::object();
    c.set("level", l.level);
    c.set("type", std::string(1, l.type));
    c.set("size_bytes", static_cast<long long>(l.size_bytes));
    caches.push_back(c);
  }
  p.set("caches", caches);
  return p;
}

void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void cpu_seconds(double* user_s, double* sys_s) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  *user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec / 1e6;
  *sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec / 1e6;
}

}  // namespace pb
