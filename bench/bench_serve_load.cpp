// Load benchmark for rt::serve: drive an in-process Server over real
// loopback sockets with concurrent clients and measure end-to-end request
// latency (p50/p99) and throughput (req/s), with request batching on vs
// off over the same same-shape JACOBI mix.
//
// Two client disciplines per batching mode:
//
//   closed-loop  each client issues its next request only after receiving
//                the previous response — measures server latency under a
//                fixed concurrency level (batching can only coalesce
//                requests from *different* clients).
//   open-loop    each client pipelines requests at a fixed arrival rate
//                and a reader thread drains responses — measures behaviour
//                under queueing pressure, where batching earns its keep by
//                collapsing the backlog into shared plan/alloc/solve work.
//
// Every response's checksum is verified against the same solve computed
// directly (the batch-binary path: plan_for_checked + runner init + serial
// kernels).  Any mismatch, protocol error, or failed request exits 1 —
// this bench doubles as the end-to-end proof that batching and concurrency
// change scheduling, never results.
//
// Flags: --clients=N --requests=N (per client) --n=SIZE --tsteps=N
//        --rate=REQ_S (open-loop per-client arrival rate)
//        --executors=N --solver-threads=N --full --json=FILE
//        (results/BENCH_8.json schema)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/bench/table.hpp"
#include "rt/core/plan.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/kernels/kernel_info.hpp"
#include "rt/obs/metrics_writer.hpp"
#include "rt/serve/client.hpp"
#include "rt/serve/protocol.hpp"
#include "rt/serve/server.hpp"
#include "rt/serve/solve.hpp"

using rt::guard::Status;
using rt::obs::JsonValue;
using rt::serve::Client;
using rt::serve::Server;
using rt::serve::ServerOptions;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Config {
  int clients = 4;
  int requests = 40;  ///< per client
  long n = 64;
  int tsteps = 2;
  double rate = 400;  ///< open-loop arrivals per second per client
  int executors = 2;
  int solver_threads = 1;
  std::string json;
};

JsonValue solve_req(long long id, long n, int tsteps) {
  JsonValue r = JsonValue::object();
  r.set("id", id);
  r.set("op", "solve");
  r.set("kernel", "JACOBI");
  r.set("n", n);
  r.set("tsteps", tsteps);
  r.set("transform", "gcdpad");
  return r;
}

/// Direct (no server, serial) JACOBI reference checksum — the batch-binary
/// computation the served result must match bit for bit.
std::string reference_checksum(long n, int tsteps) {
  const rt::core::StencilSpec& spec =
      rt::kernels::kernel_info(rt::kernels::KernelId::kJacobi).spec;
  const long cs = rt::serve::serve_cs_elems();
  const rt::core::PlanReport rep =
      rt::core::plan_for_checked(rt::core::Transform::kGcdPad, cs, n, n,
                                 spec, n);
  const rt::array::Dims3 dims =
      rt::array::Dims3::padded(n, n, n, rep.plan.dip, rep.plan.djp);
  rt::array::Array3D<double> a(dims), b(dims);
  for (int idx = 0; idx < 2; ++idx) {
    rt::array::Array3D<double>& g = idx == 0 ? a : b;
    const double scale = 1.0 / (1.0 + idx);
    for (long k = 0; k < g.n3(); ++k) {
      for (long j = 0; j < g.n2(); ++j) {
        for (long i = 0; i < g.n1(); ++i) {
          g(i, j, k) = scale * (0.001 * static_cast<double>(i) +
                                0.002 * static_cast<double>(j) +
                                0.003 * static_cast<double>(k));
        }
      }
    }
  }
  for (int t = 0; t < tsteps; ++t) {
    rt::kernels::jacobi3d(a, b, 1.0 / 6.0, rep.plan);
    rt::kernels::copy_interior(b, a);
  }
  // Byte-serial FNV-1a over the logical columns, restated here so the
  // server's fast hash is checked against the definition, not itself.
  std::uint64_t h = 14695981039346656037ull;
  for (long k = 0; k < a.n3(); ++k) {
    for (long j = 0; j < a.n2(); ++j) {
      const auto* p = reinterpret_cast<const unsigned char*>(&a(0, j, k));
      for (std::size_t x = 0; x < static_cast<std::size_t>(a.n1()) * 8; ++x) {
        h ^= p[x];
        h *= 1099511628211ull;
      }
    }
  }
  return rt::serve::checksum_hex(h);
}

struct ScenarioResult {
  std::string scenario;  ///< "closed" / "open"
  bool batching = false;
  double wall_s = 0;
  long completed = 0;
  long overloaded = 0;
  long errors = 0;       ///< wrong checksum / unexpected status / IO
  std::vector<double> latencies_s;
  JsonValue server_stats;

  double req_per_s() const {
    return wall_s > 0 ? static_cast<double>(completed) / wall_s : 0;
  }
  double percentile(double q) const {
    if (latencies_s.empty()) return 0;
    std::vector<double> v = latencies_s;
    const std::size_t idx = std::min(
        v.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5));
    std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
    return v[idx];
  }
  double mean() const {
    if (latencies_s.empty()) return 0;
    double s = 0;
    for (double x : latencies_s) s += x;
    return s / static_cast<double>(latencies_s.size());
  }
};

/// The mix: same BatchKey throughout (one shape, one transform), two
/// dedup groups (tsteps and tsteps+1 alternating per request).
int tsteps_for(const Config& cfg, int i) {
  return cfg.tsteps + (i % 2);
}

ScenarioResult run_closed(const Config& cfg, bool batching,
                          const std::map<int, std::string>& refs) {
  ScenarioResult res;
  res.scenario = "closed";
  res.batching = batching;

  ServerOptions so;
  so.executors = cfg.executors;
  so.batching = batching;
  so.solver_threads = cfg.solver_threads;
  so.queue_depth = 1024;
  Server server(so);
  std::string why;
  if (server.start(&why) != Status::kOk) {
    std::cerr << "server start failed: " << why << "\n";
    res.errors = 1;
    return res;
  }

  std::mutex m;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < cfg.clients; ++c) {
    threads.emplace_back([&, c] {
      rt::guard::Expected<Client> cl = Client::connect(server.port());
      if (!cl.ok()) {
        std::lock_guard<std::mutex> lk(m);
        ++res.errors;
        return;
      }
      std::vector<double> lats;
      long done = 0, bad = 0;
      for (int i = 0; i < cfg.requests; ++i) {
        const long long id = 1'000'000LL * c + i;
        const int ts = tsteps_for(cfg, i);
        const Clock::time_point sent = Clock::now();
        rt::guard::Expected<JsonValue> resp =
            cl.value().call(solve_req(id, cfg.n, ts));
        const double lat = seconds_since(sent);
        if (!resp.ok()) {
          ++bad;
          continue;
        }
        const JsonValue* st = resp.value().find("status");
        const JsonValue* sum = resp.value().find("checksum");
        if (st == nullptr || st->as_string() != "ok" || sum == nullptr ||
            sum->as_string() != refs.at(ts)) {
          ++bad;
          continue;
        }
        lats.push_back(lat);
        ++done;
      }
      std::lock_guard<std::mutex> lk(m);
      res.latencies_s.insert(res.latencies_s.end(), lats.begin(), lats.end());
      res.completed += done;
      res.errors += bad;
    });
  }
  for (std::thread& t : threads) t.join();
  res.wall_s = seconds_since(t0);
  res.server_stats = server.stats_json();
  server.stop();
  return res;
}

ScenarioResult run_open(const Config& cfg, bool batching,
                        const std::map<int, std::string>& refs) {
  ScenarioResult res;
  res.scenario = "open";
  res.batching = batching;

  ServerOptions so;
  so.executors = cfg.executors;
  so.batching = batching;
  so.solver_threads = cfg.solver_threads;
  so.queue_depth = 1024;
  Server server(so);
  std::string why;
  if (server.start(&why) != Status::kOk) {
    std::cerr << "server start failed: " << why << "\n";
    res.errors = 1;
    return res;
  }

  std::mutex m;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < cfg.clients; ++c) {
    threads.emplace_back([&, c] {
      rt::guard::Expected<Client> cl = Client::connect(server.port());
      if (!cl.ok()) {
        std::lock_guard<std::mutex> lk(m);
        ++res.errors;
        return;
      }
      Client& client = cl.value();

      // Sender paces arrivals; the reader drains responses concurrently so
      // pipelining depth is bounded by the server, not the socket buffer.
      std::mutex sent_m;
      std::map<long long, Clock::time_point> sent_at;
      std::vector<double> lats;
      long done = 0, over = 0, bad = 0;
      std::thread reader([&] {
        for (int got = 0; got < cfg.requests; ++got) {
          JsonValue resp;
          if (client.recv(&resp) != Status::kOk) {
            ++bad;
            return;
          }
          const JsonValue* idv = resp.find("id");
          const JsonValue* st = resp.find("status");
          if (idv == nullptr || st == nullptr) {
            ++bad;
            continue;
          }
          Clock::time_point t_sent;
          {
            std::lock_guard<std::mutex> lk(sent_m);
            t_sent = sent_at[idv->as_int()];
          }
          const std::string status = st->as_string();
          if (status == "overloaded") {
            ++over;
            continue;
          }
          const JsonValue* sum = resp.find("checksum");
          const int ts = cfg.tsteps + static_cast<int>(idv->as_int() % 2);
          if (status != "ok" || sum == nullptr ||
              sum->as_string() != refs.at(ts)) {
            ++bad;
            continue;
          }
          lats.push_back(
              std::chrono::duration<double>(Clock::now() - t_sent).count());
          ++done;
        }
      });

      const double interval_s = cfg.rate > 0 ? 1.0 / cfg.rate : 0;
      const Clock::time_point start = Clock::now();
      for (int i = 0; i < cfg.requests; ++i) {
        const long long id = 1'000'000LL * c + i;
        {
          std::lock_guard<std::mutex> lk(sent_m);
          sent_at[id] = Clock::now();
        }
        if (client.send(solve_req(id, cfg.n, tsteps_for(cfg, i))) !=
            Status::kOk) {
          ++bad;
          break;
        }
        if (interval_s > 0) {
          const double next = static_cast<double>(i + 1) * interval_s;
          const double elapsed =
              std::chrono::duration<double>(Clock::now() - start).count();
          if (next > elapsed) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(next - elapsed));
          }
        }
      }
      reader.join();

      std::lock_guard<std::mutex> lk(m);
      res.latencies_s.insert(res.latencies_s.end(), lats.begin(), lats.end());
      res.completed += done;
      res.overloaded += over;
      res.errors += bad;
    });
  }
  for (std::thread& t : threads) t.join();
  res.wall_s = seconds_since(t0);
  res.server_stats = server.stats_json();
  server.stop();
  return res;
}

std::string fmt(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&a](const char* key) -> const char* {
      const std::string k = std::string(key) + "=";
      return a.rfind(k, 0) == 0 ? a.c_str() + k.size() : nullptr;
    };
    if (a == "--full") {
      cfg.clients = 8;
      cfg.requests = 150;
      cfg.n = 96;
    } else if (const char* v = val("--clients")) {
      cfg.clients = std::atoi(v);
    } else if (const char* v = val("--requests")) {
      cfg.requests = std::atoi(v);
    } else if (const char* v = val("--n")) {
      cfg.n = std::atol(v);
    } else if (const char* v = val("--tsteps")) {
      cfg.tsteps = std::atoi(v);
    } else if (const char* v = val("--rate")) {
      cfg.rate = std::atof(v);
    } else if (const char* v = val("--executors")) {
      cfg.executors = std::atoi(v);
    } else if (const char* v = val("--solver-threads")) {
      cfg.solver_threads = std::atoi(v);
    } else if (const char* v = val("--json")) {
      cfg.json = v;
    } else {
      std::cerr << "unknown flag: " << a << "\n"
                << "usage: bench_serve_load [--clients=N] [--requests=N] "
                   "[--n=SIZE] [--tsteps=N] [--rate=REQ_S] [--executors=N] "
                   "[--solver-threads=N] [--full] [--json=FILE]\n";
      return 2;
    }
  }

  std::cout << "serve load: clients=" << cfg.clients
            << " requests/client=" << cfg.requests << " JACOBI n=" << cfg.n
            << " tsteps=" << cfg.tsteps << "/" << cfg.tsteps + 1
            << " executors=" << cfg.executors
            << " solver_threads=" << cfg.solver_threads
            << " open-loop rate=" << cfg.rate << "/s/client\n\n";

  // Reference checksums for both dedup groups, computed once, directly.
  std::map<int, std::string> refs;
  refs[cfg.tsteps] = reference_checksum(cfg.n, cfg.tsteps);
  refs[cfg.tsteps + 1] = reference_checksum(cfg.n, cfg.tsteps + 1);

  std::vector<ScenarioResult> results;
  for (const bool batching : {false, true}) {
    results.push_back(run_closed(cfg, batching, refs));
    results.push_back(run_open(cfg, batching, refs));
  }

  std::vector<std::vector<std::string>> rows;
  bool failed = false;
  long total_errors = 0;
  for (const ScenarioResult& r : results) {
    total_errors += r.errors;
    const JsonValue* b = r.server_stats.find("batching");
    rows.push_back(
        {r.scenario, r.batching ? "on" : "off",
         std::to_string(r.completed), fmt(r.req_per_s(), 0),
         fmt(r.mean() * 1e3, 2), fmt(r.percentile(0.50) * 1e3, 2),
         fmt(r.percentile(0.99) * 1e3, 2),
         b != nullptr ? std::to_string(b->find("max_batch")->as_int()) : "-",
         b != nullptr ? std::to_string(b->find("dedup_shared")->as_int())
                      : "-",
         std::to_string(r.overloaded),
         r.errors > 0 ? std::to_string(r.errors) + " ERR" : "-"});
    if (r.errors > 0) failed = true;
  }
  rt::bench::print_table({"loop", "batching", "done", "req/s", "mean ms",
                          "p50 ms", "p99 ms", "max_batch", "dedup", "overl",
                          "errors"},
                         rows);

  // Throughput comparison on the same mix (the served-results acceptance
  // check: batching must not lose throughput on a same-shape mix).
  const auto by = [&](const std::string& s, bool b) -> const ScenarioResult* {
    for (const ScenarioResult& r : results) {
      if (r.scenario == s && r.batching == b) return &r;
    }
    return nullptr;
  };
  const ScenarioResult* closed_on = by("closed", true);
  const ScenarioResult* closed_off = by("closed", false);
  const ScenarioResult* open_on = by("open", true);
  const ScenarioResult* open_off = by("open", false);
  const double closed_speedup =
      closed_off != nullptr && closed_on != nullptr &&
              closed_off->req_per_s() > 0
          ? closed_on->req_per_s() / closed_off->req_per_s()
          : 0;
  const double open_speedup =
      open_off != nullptr && open_on != nullptr && open_off->req_per_s() > 0
          ? open_on->req_per_s() / open_off->req_per_s()
          : 0;
  std::cout << "\nbatching speedup (req/s on / off): closed-loop "
            << fmt(closed_speedup, 2) << "x, open-loop "
            << fmt(open_speedup, 2) << "x\n"
            << (total_errors == 0
                    ? "all served checksums match the direct computation\n"
                    : "ERROR: " + std::to_string(total_errors) +
                          " bad responses (checksum/status/protocol)\n");

  if (!cfg.json.empty()) {
    rt::obs::MetricsWriter writer;
    for (const ScenarioResult& r : results) {
      JsonValue& rec = writer.add_record();
      rec.set("bench", "serve_load").set("scenario", r.scenario);
      rec.set("batching", r.batching);
      rec.set("clients", cfg.clients).set("requests_per_client", cfg.requests);
      rec.set("kernel", "JACOBI").set("n", cfg.n);
      rec.set("tsteps_mix",
              std::to_string(cfg.tsteps) + "," + std::to_string(cfg.tsteps + 1));
      rec.set("executors", cfg.executors)
          .set("solver_threads", cfg.solver_threads);
      if (r.scenario == "open") rec.set("rate_per_client", cfg.rate);
      rec.set("completed", r.completed).set("overloaded", r.overloaded);
      rec.set("errors", r.errors);
      // Resilience outcomes are their own columns, not folded into
      // "errors": a breaker trip or a degraded-mode rejection is the
      // server protecting itself, and drowning those in the error count
      // hides exactly the signal a load run exists to surface.
      {
        const JsonValue* resil = r.server_stats.find("resilience");
        const auto counter = [&](const char* key) -> long long {
          if (resil == nullptr) return 0;
          const JsonValue* v = resil->find(key);
          return v != nullptr ? v->as_int() : 0;
        };
        rec.set("breaker_trips", counter("breaker_trips"));
        rec.set("degraded_rejections", counter("degraded_rejections"));
      }
      rec.set("wall_s", r.wall_s).set("req_per_s", r.req_per_s());
      rec.set("lat_mean_ms", r.mean() * 1e3);
      rec.set("lat_p50_ms", r.percentile(0.50) * 1e3);
      rec.set("lat_p99_ms", r.percentile(0.99) * 1e3);
      rec.set("server", r.server_stats);
      rec.set("checksums_verified", r.errors == 0);
    }
    JsonValue& sum = writer.add_record();
    sum.set("bench", "serve_load").set("scenario", "summary");
    sum.set("closed_loop_batching_speedup", closed_speedup);
    sum.set("open_loop_batching_speedup", open_speedup);
    sum.set("all_checksums_verified", total_errors == 0);
    std::string why;
    if (writer.write_file_checked(cfg.json, &why) != Status::kOk) {
      std::cerr << "error: cannot write " << cfg.json << ": " << why << "\n";
      failed = true;
    } else {
      std::cout << "wrote " << writer.num_records() << " records to "
                << cfg.json << "\n";
    }
  }
  return failed ? 1 : 0;
}
