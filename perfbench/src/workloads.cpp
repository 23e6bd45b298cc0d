#include "workloads.hpp"

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>

#include "reference.hpp"
#include "rt/core/plan_cache.hpp"
#include "rt/multigrid/mg_solver.hpp"
#include "rt/serve/client.hpp"
#include "rt/serve/server.hpp"
#include "rt/serve/solve.hpp"
#include "schedule.hpp"

namespace pb {

namespace {

using rt::guard::Status;
using rt::serve::Client;
using rt::serve::Server;
using rt::serve::ServerOptions;

constexpr int kSetupReps = 7;  ///< set-ups per run; setup_s is their median
constexpr Kernel kKernels[] = {Kernel::kJacobi, Kernel::kRedBlack,
                               Kernel::kResid};

rt::core::StencilSpec spec_of(Kernel k) {
  switch (k) {
    case Kernel::kJacobi:
      return rt::core::StencilSpec::jacobi3d();
    case Kernel::kRedBlack:
      return rt::core::StencilSpec::redblack3d();
    case Kernel::kResid:
      return rt::core::StencilSpec::resid27();
  }
  return rt::core::StencilSpec::jacobi3d();
}

std::string cell_name(Kernel k, long n) {
  return std::string(kernel_name(k)) + ".n" + std::to_string(n);
}

// --- reference checksums ---------------------------------------------------

using RefKey = std::tuple<Kernel, long, int>;  // kernel, n, tsteps

/// Reference checksums for @p keys, computed on @p threads threads and
/// memoized for the life of the process (a traced run serves the same
/// cells in several passes).  With @p corrupt set, the returned copy has
/// that cell's checksum flipped: the self-test proves a wrong reference
/// fails the run.
std::map<RefKey, std::string> references(std::vector<RefKey> keys, int threads,
                                         std::optional<RefKey> corrupt) {
  static std::mutex m;
  static std::map<RefKey, std::string> memo;
  std::lock_guard<std::mutex> lk(m);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<RefKey> todo;
  for (const RefKey& k : keys) {
    if (memo.count(k) == 0) todo.push_back(k);
  }
  std::vector<std::string> out(todo.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < todo.size(); i = next++) {
        const auto& [k, n, tsteps] = todo[i];
        out[i] = reference_checksum(k, n, tsteps);
      }
    });
  }
  for (auto& th : pool) th.join();
  for (std::size_t i = 0; i < todo.size(); ++i) memo[todo[i]] = out[i];
  std::map<RefKey, std::string> refs;
  for (const RefKey& k : keys) refs[k] = memo[k];
  if (corrupt && refs.count(*corrupt) != 0) {
    std::string& s = refs[*corrupt];
    s.back() = s.back() == '0' ? '1' : '0';
  }
  return refs;
}

// --- wire helpers -----------------------------------------------------------

JsonValue solve_request(long long id, Kernel k, long n, int tsteps, bool gcdpad,
                        int deadline_ms) {
  JsonValue r = JsonValue::object();
  r.set("id", id);
  r.set("op", "solve");
  r.set("kernel", kernel_name(k));
  r.set("n", n);
  r.set("tsteps", tsteps);
  r.set("transform", gcdpad ? "gcdpad" : "orig");
  if (deadline_ms > 0) r.set("deadline_ms", deadline_ms);
  return r;
}

JsonValue op_request(long long id, const char* op) {
  JsonValue r = JsonValue::object();
  r.set("id", id);
  r.set("op", op);
  return r;
}

double num_field(const JsonValue& d, const char* key) {
  const JsonValue* v = d.find(key);
  return v != nullptr ? v->as_double() : 0.0;
}

/// The response fields the benchmark reads; a run keeps one per request.
struct Reply {
  bool received = false;
  std::string status, checksum;
  double queue_ms = 0, solve_ms = 0, total_ms = 0, batch_size = 0;
  bool shared = false;
};

Reply reply_of(const JsonValue& d) {
  Reply r;
  r.received = true;
  if (const JsonValue* v = d.find("status")) r.status = v->as_string();
  if (const JsonValue* v = d.find("checksum")) r.checksum = v->as_string();
  if (const JsonValue* v = d.find("shared")) r.shared = v->as_bool();
  r.queue_ms = num_field(d, "queue_ms");
  r.solve_ms = num_field(d, "solve_ms");
  r.total_ms = num_field(d, "total_ms");
  r.batch_size = num_field(d, "batch_size");
  return r;
}

/// hits / (hits + misses) of a stats sub-object ("arena", "plan_cache").
double hit_frac(const JsonValue& stats, const char* section) {
  const JsonValue* s = stats.find(section);
  if (s == nullptr) return 0;
  const double h = num_field(*s, "hits"), m = num_field(*s, "misses");
  return h + m > 0 ? h / (h + m) : 0;
}

/// A running in-process server and one client connection to it.
struct Served {
  std::unique_ptr<Server> server;
  Client client;

  void stop() {
    client.close();
    if (server) server->stop();
    server.reset();
  }

  /// The server's "stats" document, read over the wire.
  JsonValue stats() {
    auto st = client.call(op_request(-2, "stats"));
    const JsonValue* s = st.ok() ? st.value().find("stats") : nullptr;
    return s != nullptr ? *s : JsonValue::object();
  }
};

/// One timed set-up: start a server, connect, ping, and run @p warmups
/// synchronously.  Replies land in @p warm for verification after the
/// clock stops.  Returns elapsed seconds, or -1 with @p err set.
double start_served(const ServerOptions& so,
                    const std::vector<JsonValue>& warmups, Served* sv,
                    std::vector<Reply>* warm, std::string* err, Trace* tr) {
  sv->stop();
  const double t0 = now_s();
  sv->server = std::make_unique<Server>(so);
  std::string detail;
  if (sv->server->start(&detail) != Status::kOk) {
    *err = "server start failed: " + detail;
    return -1;
  }
  auto conn = Client::connect(sv->server->port(), 5000);
  if (!conn.ok()) {
    *err = "client connect failed";
    return -1;
  }
  sv->client = std::move(conn.value());
  sv->client.set_timeouts(60000, 120000);
  if (!sv->client.call(op_request(-1, "ping")).ok()) {
    *err = "ping failed";
    return -1;
  }
  warm->clear();
  for (const JsonValue& w : warmups) {
    auto r = sv->client.call(w);
    if (!r.ok()) {
      *err = "warm-up solve failed on the wire";
      return -1;
    }
    warm->push_back(reply_of(r.value()));
  }
  const double t1 = now_s();
  if (tr != nullptr) tr->add("setup.server", t0, t1);
  return t1 - t0;
}

/// True when @p r is an ok solve whose checksum equals the reference; a
/// wrong checksum is also recorded as a correctness failure.
bool check_solve(const Reply& r, const std::string& want,
                 const std::string& what, RunResult* res) {
  if (!r.received || r.status != "ok") return false;
  if (r.checksum != want) {
    res->mismatch(what + ": checksum " + r.checksum + " != reference " + want);
    return false;
  }
  return true;
}

/// Set-ups of one serve workload; every warm-up reply is verified.
/// Returns false (with the failure recorded) when a server cannot start.
bool serve_setups(const ServerOptions& so,
                  const std::vector<JsonValue>& warmups,
                  const std::vector<std::string>& warm_refs, int reps,
                  Served* sv, std::vector<double>* setups, RunResult* res,
                  Trace* tr) {
  std::vector<Reply> warm;
  std::string err;
  for (int r = 0; r < reps; ++r) {
    const double s = start_served(so, warmups, sv, &warm, &err, tr);
    ++res->attempted;
    if (s < 0) {
      ++res->failed;
      res->mismatch(err);
      return false;
    }
    setups->push_back(s);
    for (std::size_t i = 0; i < warm.size(); ++i) {
      if (!check_solve(warm[i], warm_refs[i], "warm-up solve", res)) {
        ++res->failed;
      }
    }
  }
  return true;
}

using PlanKey = std::tuple<rt::core::Transform, Kernel, long>;

/// core.plan_cold_us.p50 / core.plan_hit_us.p50 on the workload's own
/// plan keys, against a fresh PlanCache.
void time_plans(const std::vector<PlanKey>& keys, Metrics* m, Trace* tr) {
  rt::core::PlanCache cache;
  const long cs = rt::serve::serve_cs_elems();
  std::vector<double> cold, hit;
  for (const auto& [tf, k, n] : keys) {
    const rt::core::StencilSpec spec = spec_of(k);
    double t0 = now_s();
    cache.plan(tf, cs, n, n, spec, n);
    double t1 = now_s();
    if (tr != nullptr) tr->add("plan_cache.plan.cold", t0, t1);
    cold.push_back((t1 - t0) * 1e6);
    for (int r = 0; r < 16; ++r) {
      t0 = now_s();
      cache.plan(tf, cs, n, n, spec, n);
      t1 = now_s();
      hit.push_back((t1 - t0) * 1e6);
    }
    if (tr != nullptr) tr->add("plan_cache.plan.hit", t0, t1);
  }
  m->add("core.plan_cold_us.p50", "us", median(cold));
  m->add("core.plan_hit_us.p50", "us", median(hit));
}

/// A request span with derived children: the server-reported queue and
/// solve intervals, placed inside the client's send..recv span with the
/// wire time split evenly between the two directions.
void request_spans(Trace* tr, const std::string& name, long long id,
                   double send_s, double recv_s, const Reply& r) {
  if (tr == nullptr) return;
  const long parent = tr->add(name, send_s, recv_s, -1, id);
  const double wire = std::max(0.0, (recv_s - send_s) - r.total_ms / 1e3);
  const double at = send_s + wire / 2;
  const double q = r.queue_ms / 1e3, s = r.solve_ms / 1e3;
  tr->add("server.queue", at, at + q, parent, id);
  tr->add("server.solve", at + q, at + q + s, parent, id);
}

struct CpuWindow {
  double user0 = 0, sys0 = 0;
  void begin() { cpu_seconds(&user0, &sys0); }
  double sys_frac() const {
    double u = 0, s = 0;
    cpu_seconds(&u, &s);
    const double du = u - user0, ds = s - sys0;
    return du + ds > 0 ? ds / (du + ds) : 0;
  }
};

}  // namespace

// --- serve-small ------------------------------------------------------------

RunResult run_serve_small(const RunConfig& cfg, Trace* tr) {
  RunResult res;
  const std::vector<SmallOp> ops =
      small_schedule(cfg.seed, kSmallRate, cfg.seconds);
  const std::size_t nops = ops.size();

  // Warm-up: one tsteps=2 solve per BatchKey of the mix (kernel x n x
  // transform), so set-up plans every key and primes the arena.
  std::vector<JsonValue> warmups;
  std::vector<RefKey> keys, warm_keys;
  std::vector<PlanKey> plan_keys;
  for (Kernel k : kKernels) {
    for (long n : {32L, 48L, 64L}) {
      for (bool gcdpad : {true, false}) {
        warmups.push_back(solve_request(-10, k, n, 2, gcdpad, 0));
        warm_keys.emplace_back(k, n, 2);
        plan_keys.emplace_back(gcdpad ? rt::core::Transform::kGcdPad
                                      : rt::core::Transform::kOrig,
                               k, n);
      }
    }
  }
  keys = warm_keys;
  for (const SmallOp& op : ops) {
    if (!op.stats) keys.emplace_back(op.kernel, op.n, op.tsteps);
  }
  const double ref0 = now_s();
  const std::optional<RefKey> corrupt =
      cfg.corrupt_reference ? std::optional<RefKey>({Kernel::kJacobi, 64, 2})
                            : std::nullopt;
  const auto refs = references(keys, cfg.nproc, corrupt);
  res.e2e.note("reference_s", now_s() - ref0);
  std::vector<std::string> warm_refs;
  for (const RefKey& k : warm_keys) warm_refs.push_back(refs.at(k));

  if (tr != nullptr) time_plans(plan_keys, &res.layer, tr);

  ServerOptions so;
  so.executors = 2;
  so.solver_threads = 1;
  res.ran.set("executors", so.executors);
  res.ran.set("solver_threads", so.solver_threads);
  res.ran.set("rate_per_s", kSmallRate);
  Served sv;
  std::vector<double> setups;
  if (!serve_setups(so, warmups, warm_refs, kSetupReps, &sv, &setups, &res,
                    tr)) {
    return res;
  }

  // Measured window: the sender paces the schedule on its scheduled times,
  // a reader thread drains responses (matched by id).
  std::vector<double> sent(nops, -1), recvd(nops, -1);
  std::vector<Reply> replies(nops);
  std::atomic<long> expected{static_cast<long>(nops)};
  CpuWindow cpu;
  cpu.begin();
  const double t0 = now_s() + 0.01;
  std::thread reader([&] {
    long got = 0;
    while (got < expected.load()) {
      JsonValue d;
      if (sv.client.recv(&d) != Status::kOk) break;
      const double at = now_s();
      const JsonValue* idv = d.find("id");
      const long long id = idv != nullptr ? idv->as_int(-1) : -1;
      if (id < 0 || id >= static_cast<long long>(nops)) continue;
      const std::size_t i = static_cast<std::size_t>(id);
      if (recvd[i] >= 0) continue;
      recvd[i] = at;
      replies[i] = reply_of(d);
      ++got;
    }
  });
  for (std::size_t i = 0; i < nops; ++i) {
    const SmallOp& op = ops[i];
    const long long id = static_cast<long long>(i);
    const JsonValue req =
        op.stats ? op_request(id, "stats")
                 : solve_request(id, op.kernel, op.n, op.tsteps, op.gcdpad,
                                 op.deadline_ms);
    const double wait = t0 + op.t_s - now_s();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    sent[i] = now_s();
    if (sv.client.send(req) != Status::kOk) {
      sent[i] = -1;
      --expected;
    }
  }
  reader.join();
  const double sys_frac = cpu.sys_frac();
  const JsonValue final_stats = sv.stats();
  sv.stop();

  // Verification and statistics, after the clock.
  std::vector<double> lat, late, queue, solve, wire, stats_ms, batch, rate;
  std::map<Kernel, std::vector<double>> solve_by_kernel;
  double rtt_sum = 0, accounted = 0, last_recv = t0;
  long solves = 0, slo_ok = 0, shared = 0, rejected = 0, timeouts = 0;
  for (std::size_t i = 0; i < nops; ++i) {
    const SmallOp& op = ops[i];
    const Reply& r = replies[i];
    const double sched = t0 + op.t_s;
    ++res.attempted;
    if (sent[i] >= 0) late.push_back((sent[i] - sched) * 1e3);
    if (!op.stats) ++solves;
    if (sent[i] < 0 || recvd[i] < 0) {
      ++res.failed;
      continue;
    }
    last_recv = std::max(last_recv, recvd[i]);
    const double rtt = (recvd[i] - sent[i]) * 1e3;
    if (op.stats) {
      if (r.status == "ok") {
        stats_ms.push_back(rtt);
      } else {
        ++res.failed;
      }
      continue;
    }
    if (r.status == "overloaded") ++rejected;
    if (r.status == "timeout") ++timeouts;
    const std::string what = "solve " + cell_name(op.kernel, op.n) +
                             " tsteps=" + std::to_string(op.tsteps);
    const RefKey rk{op.kernel, op.n, op.tsteps};
    if (!check_solve(r, refs.at(rk), what, &res)) {
      ++res.failed;
      continue;
    }
    request_spans(tr, what, static_cast<long long>(i), sent[i], recvd[i], r);
    const double l = (recvd[i] - sched) * 1e3;
    const double w = rtt - r.total_ms;
    lat.push_back(l);
    queue.push_back(r.queue_ms);
    solve.push_back(r.solve_ms);
    wire.push_back(w);
    solve_by_kernel[op.kernel].push_back(r.solve_ms);
    batch.push_back(r.batch_size);
    if (r.batch_size > 1 || r.shared) ++shared;
    if (l <= kSmallSloMs) ++slo_ok;
    rate.push_back(solve_flops(op.kernel, op.n, op.tsteps) / (l / 1e3) / 1e9);
    rtt_sum += rtt;
    accounted += r.queue_ms + r.solve_ms + w;
  }

  res.e2e.add("setup_s", "s", median(setups));
  res.e2e.add("lat_p50_ms", "ms", quantile(lat, 0.5));
  res.e2e.add("gflops", "GFLOP/s", median(rate));
  res.e2e.note("latency", "ok solves, from each solve's scheduled send");
  res.e2e.note("gflops",
               "median over ok solves of analytic flops / client latency");
  res.e2e.note("ok_solves_per_s",
               static_cast<double>(lat.size()) / (last_recv - t0));
  // Capacity estimate: executors / mean server time per solve (total - queue).
  double busy_ms = 0;
  for (std::size_t i = 0; i < nops; ++i) {
    if (!ops[i].stats) busy_ms += replies[i].total_ms - replies[i].queue_ms;
  }
  if (busy_ms > 0) {
    res.e2e.note("capacity_per_s_est",
                 so.executors * 1e3 * static_cast<double>(solves) / busy_ms);
  }

  Metrics& m = res.layer;
  m.add("serve.lat_p90_ms", "ms", quantile(lat, 0.9));
  const Tail tail = tail_stat(lat);
  m.add("serve.lat_p99_ms", "ms", tail.value);
  m.note("serve.lat_p99_ms", "p" + JsonValue::format_double(tail.pct) + " of " +
                                 std::to_string(tail.samples) + " solves");
  m.add("serve.queue_ms.p50", "ms", quantile(queue, 0.5));
  m.add("serve.queue_ms.p99", "ms", quantile(queue, 0.99));
  m.add("serve.solve_ms.p50", "ms", quantile(solve, 0.5));
  m.add("serve.solve_ms.p99", "ms", quantile(solve, 0.99));
  for (Kernel k : kKernels) {
    m.add(std::string("serve.solve_ms.p50.") + kernel_name(k), "ms",
          median(solve_by_kernel[k]));
  }
  m.add("serve.wire_ms.p50", "ms", quantile(wire, 0.5));
  m.add("serve.wire_ms.p99", "ms", quantile(wire, 0.99));
  m.add("serve.stats_ms.p50", "ms", quantile(stats_ms, 0.5));
  m.add("serve.stats_ms.p99", "ms", quantile(stats_ms, 0.99));
  m.add("serve.batch_size.mean", "count", mean(batch));
  m.add("serve.shared_frac", "frac",
        solves > 0 ? static_cast<double>(shared) / solves : 0);
  m.add("serve.rejected", "count", static_cast<double>(rejected));
  m.add("serve.timeouts", "count", static_cast<double>(timeouts));
  m.add("serve.slo_frac", "frac",
        solves > 0 ? static_cast<double>(slo_ok) / solves : 0);
  m.add("serve.accounted_frac", "frac", rtt_sum > 0 ? accounted / rtt_sum : 0);
  m.add("serve.arena_miss_frac", "frac", 1.0 - hit_frac(final_stats, "arena"));
  m.add("core.plan_hit_frac", "frac", hit_frac(final_stats, "plan_cache"));
  m.add("gen.late_ms.p99", "ms", quantile(late, 0.99));
  m.add("proc.sys_frac", "frac", sys_frac);
  return res;
}

// --- serve-large ------------------------------------------------------------

RunResult run_serve_large(const RunConfig& cfg, Trace* tr) {
  RunResult res;
  const std::vector<LargeCell> cells = large_schedule(cfg.seed, 256);
  const long n_small = kLargeSizes[0];
  std::vector<RefKey> keys;
  std::vector<JsonValue> warmups;
  for (Kernel k : kKernels) {
    for (long n : kLargeSizes) keys.emplace_back(k, n, kLargeTsteps);
    warmups.push_back(solve_request(-10, k, n_small, kLargeTsteps, true, 0));
  }
  const double ref0 = now_s();
  const std::optional<RefKey> corrupt =
      cfg.corrupt_reference
          ? std::optional<RefKey>({Kernel::kJacobi, n_small, kLargeTsteps})
          : std::nullopt;
  const auto refs = references(keys, cfg.nproc, corrupt);
  res.e2e.note("reference_s", now_s() - ref0);
  std::vector<std::string> warm_refs;
  for (Kernel k : kKernels) {
    warm_refs.push_back(refs.at(RefKey{k, n_small, kLargeTsteps}));
  }
  if (tr != nullptr) {
    std::vector<PlanKey> pk;
    for (Kernel k : kKernels) {
      for (long n : kLargeSizes) {
        pk.emplace_back(rt::core::Transform::kGcdPad, k, n);
      }
    }
    time_plans(pk, &res.layer, tr);
  }

  ServerOptions so;
  so.executors = 1;
  so.solver_threads = cfg.nproc;
  res.ran.set("executors", so.executors);
  res.ran.set("solver_threads", so.solver_threads);
  Served sv;
  std::vector<double> setups;
  if (!serve_setups(so, warmups, warm_refs, kSetupReps, &sv, &setups, &res,
                    tr)) {
    return res;
  }

  // Closed loop, one request in flight, whole rounds until the time is up.
  // The first round brings the arena to its steady state for this mix; it
  // is verified but left out of the statistics.
  constexpr std::size_t kRound = 6;
  struct Done {
    LargeCell cell;
    double lat_ms;
    Reply reply;
    bool warm;
  };
  std::vector<Done> done;
  CpuWindow cpu;
  cpu.begin();
  const double t0 = now_s();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i % kRound == 0 && i >= 2 * kRound && now_s() - t0 >= cfg.seconds) {
      break;
    }
    const LargeCell& c = cells[i];
    const long long id = static_cast<long long>(i);
    const double s0 = now_s();
    auto r =
        sv.client.call(solve_request(id, c.kernel, c.n, kLargeTsteps, true, 0));
    const double s1 = now_s();
    const Reply reply = r.ok() ? reply_of(r.value()) : Reply{};
    request_spans(tr, "solve " + cell_name(c.kernel, c.n), id, s0, s1, reply);
    done.push_back({c, (s1 - s0) * 1e3, reply, i < kRound});
  }
  const double sys_frac = cpu.sys_frac();
  const JsonValue final_stats = sv.stats();

  // par.speedup.n200 (traced run only): the n=200 cells again on a
  // solver_threads=1 server.
  std::map<Kernel, std::vector<double>> solve_1t;
  if (tr != nullptr) {
    so.solver_threads = 1;
    std::vector<double> ignored;
    if (serve_setups(so, warmups, warm_refs, 1, &sv, &ignored, &res, tr)) {
      for (int rep = 0; rep < 2; ++rep) {
        for (std::size_t i = 0; i < warmups.size(); ++i) {
          auto r = sv.client.call(warmups[i]);
          const Reply reply = r.ok() ? reply_of(r.value()) : Reply{};
          ++res.attempted;
          if (check_solve(reply, warm_refs[i], "1-thread solve", &res)) {
            solve_1t[kKernels[i]].push_back(reply.solve_ms);
          } else {
            ++res.failed;
          }
        }
      }
    }
  }
  sv.stop();

  std::map<std::pair<Kernel, long>, std::vector<double>> lat, solve;
  std::vector<double> queue, solve_all;
  std::map<Kernel, std::vector<double>> solve_by_kernel;
  for (const Done& d : done) {
    ++res.attempted;
    const RefKey rk{d.cell.kernel, d.cell.n, kLargeTsteps};
    const std::string what = "solve " + cell_name(d.cell.kernel, d.cell.n);
    if (!check_solve(d.reply, refs.at(rk), what, &res)) {
      ++res.failed;
      continue;
    }
    if (d.warm) continue;
    const auto key = std::make_pair(d.cell.kernel, d.cell.n);
    lat[key].push_back(d.lat_ms);
    solve[key].push_back(d.reply.solve_ms);
    solve_all.push_back(d.reply.solve_ms);
    solve_by_kernel[d.cell.kernel].push_back(d.reply.solve_ms);
    queue.push_back(d.reply.queue_ms);
  }

  std::vector<double> p50s, p90s, rates;
  for (const auto& [key, v] : lat) {
    p50s.push_back(quantile(v, 0.5));
    p90s.push_back(quantile(v, 0.9));
  }
  // Per size: the analytic flops of one request of each kernel over the
  // sum of their median client latencies (medians keep one stalled
  // request from moving the rate).
  Metrics& m = res.layer;
  for (long n : kLargeSizes) {
    double flops = 0, secs = 0;
    for (Kernel k : kKernels) {
      flops += solve_flops(k, n, kLargeTsteps);
      secs += median(lat[{k, n}]) / 1e3;
    }
    const double g = secs > 0 ? flops / secs / 1e9 : 0;
    rates.push_back(g);
    m.add("serve.gflops_n" + std::to_string(n), "GFLOP/s", g);
  }
  res.e2e.add("setup_s", "s", median(setups));
  res.e2e.add("lat_p50_ms", "ms", geomean(p50s));
  m.add("serve.lat_p90_ms", "ms", geomean(p90s));
  res.e2e.add("gflops", "GFLOP/s", geomean(rates));
  res.e2e.note("latency",
               "geometric mean over the 6 cells of each cell's percentile");
  res.e2e.note("gflops",
               "geometric mean over n of analytic flops / median client time");
  res.e2e.note("requests", static_cast<long long>(done.size()));
  for (long n : kLargeSizes) {
    const std::string g = "serve.gflops_n" + std::to_string(n);
    res.e2e.note(g, m.get(g));
  }

  for (Kernel k : kKernels) {
    for (long n : kLargeSizes) {
      const std::string tag = cell_name(k, n);
      const double ms = median(solve[{k, n}]);
      const double bytes = solve_bytes(k, n, kLargeTsteps);
      const double gbs = ms > 0 ? bytes / (ms / 1e3) / 1e9 : 0;
      m.add("kernels.ms." + tag, "ms", ms);
      m.add("kernels.gbs." + tag, "GB/s", gbs);
      if (n == kLargeSizes[1] && cfg.triad_gbs > 0) {
        m.add("kernels.bw_frac." + tag, "frac", gbs / cfg.triad_gbs);
      }
    }
  }
  m.note("kernels.gbs",
         "computed bytes (array passes x array size) / server solve_ms");
  if (!solve_1t.empty()) {
    std::vector<double> sp;
    for (Kernel k : kKernels) {
      const double par = median(solve[{k, n_small}]);
      if (par > 0 && !solve_1t[k].empty()) {
        sp.push_back(median(solve_1t[k]) / par);
      }
    }
    m.add("par.speedup.n200", "x", geomean(sp));
  }
  m.add("serve.queue_ms.p50", "ms", quantile(queue, 0.5));
  m.add("serve.queue_ms.p99", "ms", quantile(queue, 0.99));
  m.add("serve.solve_ms.p50", "ms", quantile(solve_all, 0.5));
  m.add("serve.solve_ms.p99", "ms", quantile(solve_all, 0.99));
  for (Kernel k : kKernels) {
    m.add(std::string("serve.solve_ms.p50.") + kernel_name(k), "ms",
          median(solve_by_kernel[k]));
  }
  m.add("serve.arena_miss_frac", "frac", 1.0 - hit_frac(final_stats, "arena"));
  m.add("core.plan_hit_frac", "frac", hit_frac(final_stats, "plan_cache"));
  m.add("proc.sys_frac", "frac", sys_frac);
  return res;
}

// --- mgrid ------------------------------------------------------------------

RunResult run_mgrid(const RunConfig& cfg, Trace* tr) {
  RunResult res;
  constexpr int kLt = 7;               // 130^3, the paper's reference size
  constexpr std::size_t kCompare = 6;  // norms compared across the solvers
  const long n = (1L << kLt) + 2;
  const long cs = rt::serve::serve_cs_elems();
  rt::core::PlanCache cache;
  if (tr != nullptr) {
    time_plans({{rt::core::Transform::kGcdPad, Kernel::kResid, n}}, &res.layer,
               tr);
  }

  using Solver = rt::multigrid::MgSolver;
  /// Construct (planning through the PlanCache) + setup() + first
  /// iterate(); returns that first residual norm.
  auto build = [&](int threads, rt::simd::SimdMode simd,
                   std::unique_ptr<Solver>* out, double* setup_ms) {
    rt::multigrid::MgOptions o;
    o.lt = kLt;
    {
      SpanScope s(tr, "plan_cache.plan");
      o.resid_plan = cache.plan(rt::core::Transform::kGcdPad, cs, n, n,
                                rt::core::StencilSpec::resid27(), n)
                         .plan;
    }
    o.tile_psinv = true;
    o.seed = cfg.seed;
    o.threads = threads;
    o.simd = simd;
    {
      SpanScope s(tr, "mg.construct");
      *out = std::make_unique<Solver>(o);
    }
    const double s0 = now_s();
    (*out)->setup();
    const double s1 = now_s();
    if (tr != nullptr) tr->add("mg.setup", s0, s1);
    if (setup_ms != nullptr) *setup_ms = (s1 - s0) * 1e3;
    const double norm = (*out)->iterate();
    if (tr != nullptr) tr->add("mg.iterate", s1, now_s());
    return norm;
  };

  std::unique_ptr<Solver> solver;
  std::vector<double> setups, setup_ms, norms_par;
  for (int r = 0; r < kSetupReps; ++r) {
    solver.reset();
    const double t0 = now_s();
    double sm = 0;
    const double first =
        build(cfg.nproc, rt::simd::SimdMode::kAuto, &solver, &sm);
    setups.push_back(now_s() - t0);
    setup_ms.push_back(sm);
    norms_par.assign(1, first);
  }

  // Measured window: V-cycles at nproc threads.
  std::vector<double> it_ms;
  CpuWindow cpu;
  cpu.begin();
  const double f0 = static_cast<double>(solver->flops());
  const double t0 = now_s();
  while (it_ms.size() < kCompare || now_s() - t0 < cfg.seconds) {
    const double i0 = now_s();
    const double norm = solver->iterate();
    const double i1 = now_s();
    if (tr != nullptr) tr->add("mg.iterate", i0, i1);
    it_ms.push_back((i1 - i0) * 1e3);
    norms_par.push_back(norm);
  }
  // Flops of one V-cycle over the median V-cycle time.
  const double cycles = static_cast<double>(it_ms.size());
  const double per_cycle = (static_cast<double>(solver->flops()) - f0) / cycles;
  const double gflops = per_cycle / (median(it_ms) / 1e3) / 1e9;
  const double sys_frac = cpu.sys_frac();
  std::vector<double> norm_ms;
  for (int r = 0; r < 5; ++r) {
    const double i0 = now_s();
    solver->residual_norm();
    const double i1 = now_s();
    if (tr != nullptr) tr->add("mg.residual_norm", i0, i1);
    norm_ms.push_back((i1 - i0) * 1e3);
  }
  const int threads_ran = solver->threads();
  const rt::simd::SimdLevel level = solver->simd_level();
  solver.reset();

  // The same problem at threads=1 (timed: the single-thread baseline) and
  // serially with SIMD off (the reference); their first kCompare residual
  // norms must equal the nproc solver's bit for bit.
  std::vector<double> norms_1t, norms_ref, it_1t_ms;
  norms_1t.push_back(build(1, rt::simd::SimdMode::kAuto, &solver, nullptr));
  while (norms_1t.size() < kCompare) {
    const double i0 = now_s();
    norms_1t.push_back(solver->iterate());
    it_1t_ms.push_back((now_s() - i0) * 1e3);
  }
  solver.reset();
  norms_ref.push_back(build(1, rt::simd::SimdMode::kOff, &solver, nullptr));
  while (norms_ref.size() < kCompare) norms_ref.push_back(solver->iterate());
  solver.reset();
  if (cfg.corrupt_reference) norms_ref[0] = std::nextafter(norms_ref[0], 1e300);
  for (std::size_t i = 0; i < kCompare; ++i) {
    ++res.attempted;
    if (std::memcmp(&norms_par[i], &norms_1t[i], sizeof(double)) != 0 ||
        std::memcmp(&norms_par[i], &norms_ref[i], sizeof(double)) != 0) {
      ++res.failed;
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "mgrid norm %zu: nproc %.17g, 1-thread %.17g, "
                    "serial %.17g",
                    i, norms_par[i], norms_1t[i], norms_ref[i]);
      res.mismatch(buf);
    }
  }
  res.attempted += static_cast<long>(it_ms.size());

  const double p50 = median(it_ms);
  res.e2e.add("setup_s", "s", median(setups));
  res.e2e.add("lat_p50_ms", "ms", p50);
  res.e2e.add("gflops", "GFLOP/s", gflops);
  res.e2e.note("latency", "iterate() (one V-cycle) at nproc threads");
  res.e2e.note("gflops",
               "MgSolver::flops() per V-cycle / median iterate() time");

  Metrics& m = res.layer;
  m.add("multigrid.setup_ms", "ms", median(setup_ms));
  m.add("multigrid.norm_ms", "ms", median(norm_ms));
  m.add("multigrid.gflops", "GFLOP/s", gflops);
  m.add("multigrid.vcycle_p90_ms", "ms", quantile(it_ms, 0.9));
  m.add("multigrid.vcycle_1t_ms", "ms", median(it_1t_ms));
  m.add("par.mg_speedup", "x", p50 > 0 ? median(it_1t_ms) / p50 : 0);
  m.add("core.plan_hit_frac", "frac", cache.stats().hit_rate());
  m.add("proc.sys_frac", "frac", sys_frac);
  res.ran.set("threads", threads_ran);
  res.ran.set("simd_level", rt::simd::simd_level_name(level));
  res.ran.set("baselines", "threads=1 simd=auto; threads=1 simd=off");
  return res;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"serve-small", "serve-large",
                                                 "mgrid"};
  return names;
}

bool run_workload(const RunConfig& cfg, Trace* tr, RunResult* out) {
  reset_peak_rss();
  if (cfg.workload == "serve-small") {
    *out = run_serve_small(cfg, tr);
  } else if (cfg.workload == "serve-large") {
    *out = run_serve_large(cfg, tr);
  } else if (cfg.workload == "mgrid") {
    *out = run_mgrid(cfg, tr);
  } else {
    return false;
  }
  out->layer.add("proc.peak_rss_mb", "MB", peak_rss_mb());
  return true;
}

}  // namespace pb
