// End-to-end tests of the rt::serve solve server: protocol correctness
// (including hostile inputs), bit-identity of served results against
// direct kernel/solver computation, batching semantics, admission-queue
// overload rejection, per-request deadlines with watchdog abandonment,
// arena recycling, rt::tune plan-store pinning, and graceful drain.
//
// Every test runs a real Server on an ephemeral loopback port and talks
// to it over actual sockets — the same path production clients take.
// The TSan gate builds and runs this whole binary, which is what makes
// the server's locking story a tested claim rather than a comment.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "rt/core/cache_topology.hpp"
#include "rt/core/plan.hpp"
#include "rt/core/plan_cache.hpp"
#include "rt/guard/fault_injector.hpp"
#include "rt/guard/status.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/kernels/kernel_info.hpp"
#include "rt/kernels/redblack.hpp"
#include "rt/kernels/resid.hpp"
#include "rt/multigrid/mg_solver.hpp"
#include "rt/multigrid/sor_solver.hpp"
#include "rt/serve/client.hpp"
#include "rt/serve/protocol.hpp"
#include "rt/serve/server.hpp"
#include "rt/simd/simd.hpp"
#include "rt/tune/plan_store.hpp"

namespace rt::serve {
namespace {

using rt::array::Array3D;
using rt::array::Dims3;
using rt::guard::Status;
using rt::obs::JsonValue;

constexpr long kCs = 2048;  ///< fixed planning cache size for determinism

ServerOptions base_options() {
  ServerOptions o;
  o.cs_elems = kCs;
  return o;
}

JsonValue solve_req(long long id, const std::string& kernel, long n,
                    int tsteps = 2, const std::string& transform = "gcdpad") {
  JsonValue r = JsonValue::object();
  r.set("id", id);
  r.set("op", "solve");
  r.set("kernel", kernel);
  r.set("n", n);
  r.set("tsteps", tsteps);
  r.set("transform", transform);
  return r;
}

std::string field(const JsonValue& doc, const std::string& key) {
  const JsonValue* v = doc.find(key);
  return v ? v->as_string() : std::string();
}

/// The runner's deterministic init, replicated so the test computes its
/// reference grids exactly the way the batch binaries (and the server) do.
void init_grid(Array3D<double>& a, double scale) {
  for (long k = 0; k < a.n3(); ++k) {
    for (long j = 0; j < a.n2(); ++j) {
      for (long i = 0; i < a.n1(); ++i) {
        a(i, j, k) = scale * (0.001 * static_cast<double>(i) +
                              0.002 * static_cast<double>(j) +
                              0.003 * static_cast<double>(k));
      }
    }
  }
}

/// Direct (no server) reference checksum for a kernel request — the
/// batch-binary computation: plan, padded arrays, runner init, tsteps
/// steps, checksum of the result grid's logical region.
std::string reference_kernel_checksum(ServeKernel kernel, long n, int tsteps,
                                      rt::core::Transform tr) {
  const rt::kernels::KernelId id = kernel == ServeKernel::kJacobi
                                       ? rt::kernels::KernelId::kJacobi
                                   : kernel == ServeKernel::kRedBlack
                                       ? rt::kernels::KernelId::kRedBlack
                                       : rt::kernels::KernelId::kResid;
  const rt::core::StencilSpec& spec = rt::kernels::kernel_info(id).spec;
  const rt::core::PlanReport rep =
      rt::core::plan_for_checked(tr, kCs, n, n, spec, n);
  const Dims3 dims = Dims3::padded(n, n, n, rep.plan.dip, rep.plan.djp);
  std::vector<Array3D<double>> arrays;
  for (int i = 0; i < rt::kernels::kernel_info(id).num_arrays; ++i) {
    arrays.emplace_back(dims);
    init_grid(arrays.back(), 1.0 / (1.0 + i));
  }
  for (int t = 0; t < tsteps; ++t) {
    switch (kernel) {
      case ServeKernel::kJacobi:
        if (rep.plan.tiled) {
          rt::kernels::jacobi3d_tiled(arrays[0], arrays[1], 1.0 / 6.0,
                                      rep.plan.tile);
        } else {
          rt::kernels::jacobi3d(arrays[0], arrays[1], 1.0 / 6.0);
        }
        rt::kernels::copy_interior(arrays[1], arrays[0]);
        break;
      case ServeKernel::kRedBlack:
        if (rep.plan.tiled) {
          rt::kernels::redblack_tiled(arrays[0], 0.4, 0.1, rep.plan.tile);
        } else {
          rt::kernels::redblack_naive(arrays[0], 0.4, 0.1);
        }
        break;
      default:
        if (rep.plan.tiled) {
          rt::kernels::resid_tiled(arrays[0], arrays[1], arrays[2],
                                   rt::kernels::nas_mg_a(), rep.plan.tile);
        } else {
          rt::kernels::resid(arrays[0], arrays[1], arrays[2],
                             rt::kernels::nas_mg_a());
        }
        break;
    }
  }
  return checksum_hex(checksum_region(arrays[0]));
}

class ServeFixture : public ::testing::Test {
 protected:
  void TearDown() override {
    rt::guard::FaultInjector::instance().disarm_all();
  }

  Client connect_to(const Server& s) {
    rt::guard::Expected<Client> c = Client::connect(s.port());
    EXPECT_TRUE(c.ok()) << c.detail();
    return std::move(c.value());
  }
};

TEST_F(ServeFixture, StartPingStatsStopAndIdempotentStop) {
  Server server(base_options());
  std::string why;
  ASSERT_EQ(server.start(&why), Status::kOk) << why;
  ASSERT_GT(server.port(), 0);

  Client c = connect_to(server);
  JsonValue ping = JsonValue::object();
  ping.set("id", 7);
  ping.set("op", "ping");
  rt::guard::Expected<JsonValue> resp = c.call(ping);
  ASSERT_TRUE(resp.ok()) << resp.detail();
  EXPECT_EQ(field(resp.value(), "status"), "ok");
  EXPECT_EQ(resp.value().find("id")->as_int(), 7);

  JsonValue stats = JsonValue::object();
  stats.set("op", "stats");
  resp = c.call(stats);
  ASSERT_TRUE(resp.ok()) << resp.detail();
  const JsonValue* st = resp.value().find("stats");
  ASSERT_NE(st, nullptr);
  EXPECT_GE(st->find("connections")->as_int(), 1);

  server.stop();
  server.stop();  // idempotent
  EXPECT_FALSE(server.running());
  // A stopped server refuses new connections.
  EXPECT_FALSE(Client::connect(server.port()).ok());
}

TEST_F(ServeFixture, StatsReportsTheResolvedSimdLevel) {
  // The server resolves SimdMode::kAuto once at start; kernel batches and
  // app solves run at that level, and the stats op says which it is.
  Server server(base_options());
  ASSERT_EQ(server.start(), Status::kOk);
  Client c = connect_to(server);
  JsonValue stats = JsonValue::object();
  stats.set("op", "stats");
  const rt::guard::Expected<JsonValue> resp = c.call(stats);
  ASSERT_TRUE(resp.ok()) << resp.detail();
  const JsonValue* st = resp.value().find("stats");
  ASSERT_NE(st, nullptr);
  ASSERT_NE(st->find("simd_level"), nullptr);
  EXPECT_EQ(st->find("simd_level")->as_string(),
            rt::simd::simd_level_name(
                rt::simd::resolve(rt::simd::SimdMode::kAuto)));
  EXPECT_NE(st->find("simd_level")->as_string(), "scalar");
}

TEST_F(ServeFixture, ServedKernelChecksumsMatchDirectComputation) {
  Server server(base_options());
  ASSERT_EQ(server.start(), Status::kOk);
  Client c = connect_to(server);
  long long id = 0;
  for (const char* tr : {"gcdpad", "orig", "tile"}) {
    rt::core::Transform tre{};
    ASSERT_TRUE(parse_transform_token(tr, &tre));
    for (const auto& [name, kernel] :
         std::map<std::string, ServeKernel>{
             {"JACOBI", ServeKernel::kJacobi},
             {"REDBLACK", ServeKernel::kRedBlack},
             {"RESID", ServeKernel::kResid}}) {
      JsonValue req = solve_req(++id, name, 20, 2, tr);
      req.set("k", 20);
      rt::guard::Expected<JsonValue> resp = c.call(req);
      ASSERT_TRUE(resp.ok()) << resp.detail();
      ASSERT_EQ(field(resp.value(), "status"), "ok")
          << name << "/" << tr << ": " << field(resp.value(), "detail");
      EXPECT_EQ(field(resp.value(), "checksum"),
                reference_kernel_checksum(kernel, 20, 2, tre))
          << name << "/" << tr;
    }
  }
  server.stop();
}

TEST_F(ServeFixture, ServedAppsMatchDirectSolvers) {
  Server server(base_options());
  ASSERT_EQ(server.start(), Status::kOk);
  Client c = connect_to(server);

  // MGRID: n = 18 = 2^4 + 2; reference is MgSolver with the same options
  // the server builds (plan from the same planner inputs, same seed).
  {
    rt::guard::Expected<JsonValue> resp =
        c.call(solve_req(1, "MGRID", 18, 2));
    ASSERT_TRUE(resp.ok()) << resp.detail();
    ASSERT_EQ(field(resp.value(), "status"), "ok")
        << field(resp.value(), "detail");

    const rt::core::StencilSpec& spec =
        rt::kernels::kernel_info(rt::kernels::KernelId::kResid).spec;
    rt::multigrid::MgOptions mo;
    mo.lt = 4;
    mo.resid_plan =
        rt::core::plan_for_checked(rt::core::Transform::kGcdPad, kCs, 18, 18,
                                   spec, 18)
            .plan;
    mo.seed = 42;  // protocol default
    rt::multigrid::MgSolver ref(mo);
    ref.setup();
    ref.iterate();
    ref.iterate();
    EXPECT_EQ(field(resp.value(), "checksum"),
              checksum_hex(checksum_region(ref.u())));
    EXPECT_EQ(resp.value().find("iters")->as_int(), 2);
  }

  // SOR: plan comes from the red-black spec.
  {
    rt::guard::Expected<JsonValue> resp = c.call(solve_req(2, "SOR", 20, 5));
    ASSERT_TRUE(resp.ok()) << resp.detail();
    ASSERT_EQ(field(resp.value(), "status"), "ok")
        << field(resp.value(), "detail");

    const rt::core::StencilSpec& spec =
        rt::kernels::kernel_info(rt::kernels::KernelId::kRedBlack).spec;
    rt::multigrid::SorOptions so;
    so.n = 20;
    so.plan = rt::core::plan_for_checked(rt::core::Transform::kGcdPad, kCs,
                                         20, 20, spec, 20)
                  .plan;
    rt::multigrid::SorSolver ref(so);
    ref.setup(42);
    const int sweeps = ref.solve(0.0, 5);
    EXPECT_EQ(field(resp.value(), "checksum"),
              checksum_hex(checksum_region(ref.u())));
    EXPECT_EQ(resp.value().find("iters")->as_int(), sweeps);
  }
  server.stop();
}

TEST_F(ServeFixture, SolverThreadsProduceBitIdenticalResults) {
  ServerOptions multi = base_options();
  multi.solver_threads = 4;
  Server s1(base_options()), s4(multi);
  ASSERT_EQ(s1.start(), Status::kOk);
  ASSERT_EQ(s4.start(), Status::kOk);
  Client c1 = connect_to(s1), c4 = connect_to(s4);
  for (const char* kernel : {"JACOBI", "REDBLACK", "RESID", "MGRID", "SOR"}) {
    const long n = std::string(kernel) == "MGRID" ? 18 : 24;
    rt::guard::Expected<JsonValue> r1 = c1.call(solve_req(1, kernel, n));
    rt::guard::Expected<JsonValue> r4 = c4.call(solve_req(1, kernel, n));
    ASSERT_TRUE(r1.ok() && r4.ok());
    ASSERT_EQ(field(r1.value(), "status"), "ok") << kernel;
    ASSERT_EQ(field(r4.value(), "status"), "ok") << kernel;
    EXPECT_EQ(field(r1.value(), "checksum"), field(r4.value(), "checksum"))
        << kernel << ": parallel solve must be bit-identical to serial";
  }
  s1.stop();
  s4.stop();
}

TEST_F(ServeFixture, BatchedResultsBitIdenticalToSingleRequest) {
  ServerOptions opts = base_options();
  opts.executors = 1;  // one consumer => queued requests coalesce
  opts.batch_max = 8;
  Server server(opts);
  ASSERT_EQ(server.start(), Status::kOk);
  Client c = connect_to(server);

  // Wedge the executor deterministically: the priming request hits a
  // one-shot injected hang, so everything sent after it is guaranteed to
  // be sitting in the admission queue when the executor is released.
  rt::guard::FaultInjector::instance().arm(rt::guard::FaultKind::kHang, 0, 1);
  ASSERT_EQ(c.send(solve_req(100, "JACOBI", 12, 1)), Status::kOk);
  // Six same-shape JACOBIs: four identical (dedup candidates) and two with
  // different tsteps (same BatchKey, different group).
  for (long long id = 1; id <= 4; ++id) {
    ASSERT_EQ(c.send(solve_req(id, "JACOBI", 20, 2)), Status::kOk);
  }
  ASSERT_EQ(c.send(solve_req(5, "JACOBI", 20, 3)), Status::kOk);
  ASSERT_EQ(c.send(solve_req(6, "JACOBI", 20, 3)), Status::kOk);

  // Wait until all seven are admitted, then release the wedged executor.
  bool admitted = false;
  for (int i = 0; i < 500 && !admitted; ++i) {
    admitted = server.stats_json().find("admitted")->as_int() == 7;
    if (!admitted) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(admitted) << server.stats_json().dump(2);
  rt::guard::FaultInjector::instance().cancel_hangs();

  std::map<long long, JsonValue> by_id;
  for (int i = 0; i < 7; ++i) {
    JsonValue resp;
    std::string why;
    ASSERT_EQ(c.recv(&resp, &why), Status::kOk) << why;
    by_id[resp.find("id")->as_int()] = resp;
  }
  const std::string ref2 = reference_kernel_checksum(
      ServeKernel::kJacobi, 20, 2, rt::core::Transform::kGcdPad);
  const std::string ref3 = reference_kernel_checksum(
      ServeKernel::kJacobi, 20, 3, rt::core::Transform::kGcdPad);
  for (long long id = 1; id <= 4; ++id) {
    ASSERT_EQ(field(by_id[id], "status"), "ok") << id;
    EXPECT_EQ(field(by_id[id], "checksum"), ref2) << id;
  }
  for (long long id = 5; id <= 6; ++id) {
    ASSERT_EQ(field(by_id[id], "status"), "ok") << id;
    EXPECT_EQ(field(by_id[id], "checksum"), ref3) << id;
  }
  ASSERT_EQ(field(by_id[100], "status"), "ok");

  // All six JACOBIs were queued when the executor was released, so they
  // ran as ONE batch of 6 with two dedup groups (4 + 2 shared members).
  const JsonValue stats = server.stats_json();
  const JsonValue* batching = stats.find("batching");
  ASSERT_NE(batching, nullptr);
  EXPECT_EQ(batching->find("max_batch")->as_int(), 6) << stats.dump(2);
  EXPECT_EQ(batching->find("dedup_shared")->as_int(), 4) << stats.dump(2);
  server.stop();
}

TEST_F(ServeFixture, OverloadRejectionIsTypedAndImmediate) {
  ServerOptions opts = base_options();
  opts.executors = 1;
  opts.queue_depth = 1;
  opts.batching = false;
  Server server(opts);
  ASSERT_EQ(server.start(), Status::kOk);
  Client c = connect_to(server);

  // Wedge the executor on the first request (one-shot injected hang); with
  // queue_depth 1, exactly one follower is admitted and the other four are
  // rejected "overloaded" immediately — the rejections arrive while the
  // executor is still stuck, which is the whole point of bounded admission.
  rt::guard::FaultInjector::instance().arm(rt::guard::FaultKind::kHang, 0, 1);
  ASSERT_EQ(c.send(solve_req(1, "JACOBI", 12, 1)), Status::kOk);
  // Wait until the executor has popped the head and is wedged inside it —
  // only then is the queue guaranteed empty for the followers.
  bool wedged = false;
  for (int i = 0; i < 500 && !wedged; ++i) {
    wedged =
        rt::guard::FaultInjector::instance().fired(rt::guard::FaultKind::kHang) >= 1;
    if (!wedged) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(wedged);
  for (long long id = 2; id <= 6; ++id) {
    ASSERT_EQ(c.send(solve_req(id, "JACOBI", 12, 1)), Status::kOk);
  }
  int overloaded = 0;
  for (int i = 0; i < 4; ++i) {  // the four rejections arrive first
    JsonValue resp;
    std::string why;
    ASSERT_EQ(c.recv(&resp, &why), Status::kOk) << why;
    EXPECT_EQ(field(resp, "status"), "overloaded");
    EXPECT_NE(field(resp, "detail").find("full"), std::string::npos);
    ++overloaded;
  }
  rt::guard::FaultInjector::instance().cancel_hangs();
  int ok = 0;
  for (int i = 0; i < 2; ++i) {  // wedged head + the one queued follower
    JsonValue resp;
    std::string why;
    ASSERT_EQ(c.recv(&resp, &why), Status::kOk) << why;
    EXPECT_EQ(field(resp, "status"), "ok");
    ++ok;
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(overloaded, 4);
  const JsonValue stats = server.stats_json();
  EXPECT_EQ(stats.find("rejected_overloaded")->as_int(), 4);
  server.stop();
}

TEST_F(ServeFixture, HostileInputsGetTypedErrorsNeverCrashes) {
  Server server(base_options());
  ASSERT_EQ(server.start(), Status::kOk);

  {  // Bad JSON in a well-formed frame: typed error, connection survives.
    Client c = connect_to(server);
    const std::string junk = "{this is not json";
    ASSERT_EQ(write_frame(c.fd(), junk), Status::kOk);
    JsonValue resp;
    std::string why;
    ASSERT_EQ(c.recv(&resp, &why), Status::kOk) << why;
    EXPECT_EQ(field(resp, "status"), "invalid_argument");
    EXPECT_NE(field(resp, "detail").find("bad JSON"), std::string::npos);
    // Framing was intact, so the same connection still serves requests.
    JsonValue ping = JsonValue::object();
    ping.set("op", "ping");
    rt::guard::Expected<JsonValue> pong = c.call(ping);
    ASSERT_TRUE(pong.ok()) << pong.detail();
    EXPECT_EQ(field(pong.value(), "status"), "ok");
  }

  {  // Unknown kernel.
    Client c = connect_to(server);
    rt::guard::Expected<JsonValue> resp = c.call(solve_req(1, "FFT", 20));
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(field(resp.value(), "status"), "invalid_argument");
    EXPECT_NE(field(resp.value(), "detail").find("kernel"),
              std::string::npos);
  }

  {  // n*n*k overflow: typed kOverflow before any allocation.
    Client c = connect_to(server);
    rt::guard::Expected<JsonValue> resp =
        c.call(solve_req(2, "JACOBI", 3'000'000));
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(field(resp.value(), "status"), "overflow");
  }

  {  // Missing n, undersized n, policy-capped n.
    Client c = connect_to(server);
    JsonValue req = JsonValue::object();
    req.set("op", "solve");
    req.set("kernel", "JACOBI");
    rt::guard::Expected<JsonValue> resp = c.call(req);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(field(resp.value(), "status"), "invalid_argument");
    resp = c.call(solve_req(3, "JACOBI", 2));
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(field(resp.value(), "status"), "invalid_argument");
    resp = c.call(solve_req(4, "JACOBI", 4096));  // > max_n policy
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(field(resp.value(), "status"), "invalid_argument");
    EXPECT_NE(field(resp.value(), "detail").find("limit"),
              std::string::npos);
  }

  {  // Oversized length prefix: typed rejection, then the server hangs up
     // (the unread payload makes the stream unrecoverable).
    Client c = connect_to(server);
    const unsigned char prefix[4] = {0x7f, 0xff, 0xff, 0xff};
    ASSERT_EQ(c.send_raw(prefix, 4), Status::kOk);
    JsonValue resp;
    std::string why;
    ASSERT_EQ(c.recv(&resp, &why), Status::kOk) << why;
    EXPECT_EQ(field(resp, "status"), "invalid_argument");
    EXPECT_NE(field(resp, "detail").find("exceeds"), std::string::npos);
    EXPECT_NE(c.recv(&resp, &why), Status::kOk);  // closed
  }

  const std::uint64_t errors_before =
      static_cast<std::uint64_t>(server.stats_json()
                                     .find("protocol_errors")
                                     ->as_int());
  {  // Truncated length prefix: half a prefix, then EOF.
    Client c = connect_to(server);
    const unsigned char half[2] = {0x00, 0x00};
    ASSERT_EQ(c.send_raw(half, 2), Status::kOk);
    c.close();
  }
  // The handler notices asynchronously; poll the counter briefly.
  bool counted = false;
  for (int i = 0; i < 100 && !counted; ++i) {
    counted = static_cast<std::uint64_t>(server.stats_json()
                                             .find("protocol_errors")
                                             ->as_int()) > errors_before;
    if (!counted) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(counted) << "truncated prefix was not counted";
  server.stop();
}

TEST_F(ServeFixture, DeadlineTimeoutAbandonsAndServerStaysHealthy) {
  ServerOptions opts = base_options();
  opts.executors = 1;
  opts.watchdog_grace_ms = 0;  // force abandonment on timeout
  Server server(opts);
  ASSERT_EQ(server.start(), Status::kOk);
  Client c = connect_to(server);

  // Wedge the solve with an injected hang; the per-request deadline fires,
  // the watchdog cancels the hang and abandons the worker (zero grace).
  // The grid is sized so the woken worker has milliseconds of sweeps left —
  // it cannot beat the watchdog's immediate post-cancel done-check, so the
  // outcome is deterministically "abandoned", not "finished in the grace".
  rt::guard::FaultInjector::instance().arm(rt::guard::FaultKind::kHang);
  JsonValue req = solve_req(1, "JACOBI", 128, 4);
  req.set("deadline_ms", 150);
  rt::guard::Expected<JsonValue> resp = c.call(req);
  ASSERT_TRUE(resp.ok()) << resp.detail();
  EXPECT_EQ(field(resp.value(), "status"), "timeout");

  // The abandoned worker finished after cancel_hangs; its context must
  // drain (weak_ptr expires) and the loss must be visible in stats.
  bool drained = false;
  for (int i = 0; i < 200 && !drained; ++i) {
    const JsonValue stats = server.stats_json();
    const JsonValue* ab = stats.find("abandonment");
    ASSERT_NE(ab, nullptr);
    EXPECT_GE(ab->find("abandoned_threads")->as_int(), 1);
    EXPECT_GE(ab->find("abandoned_batches")->as_int(), 1);
    drained = ab->find("abandoned_in_flight")->as_int() == 0;
    if (!drained) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(drained) << "abandoned context never expired";

  // Regression core: the server keeps serving correct results afterwards
  // (the watchdog disarmed the injected hang when it cancelled it).
  resp = c.call(solve_req(2, "JACOBI", 20, 2));
  ASSERT_TRUE(resp.ok()) << resp.detail();
  ASSERT_EQ(field(resp.value(), "status"), "ok")
      << field(resp.value(), "detail");
  EXPECT_EQ(field(resp.value(), "checksum"),
            reference_kernel_checksum(ServeKernel::kJacobi, 20, 2,
                                      rt::core::Transform::kGcdPad));
  server.stop();
}

TEST_F(ServeFixture, ArenaRecyclesBuffersAcrossRequests) {
  Server server(base_options());
  ASSERT_EQ(server.start(), Status::kOk);
  Client c = connect_to(server);
  // Buffers go back to the arena after the response is written, so wait
  // for the return between requests — otherwise the next acquire can race
  // the previous release and read as a miss.
  auto arena_quiesced = [&server] {
    for (int i = 0; i < 200; ++i) {
      const JsonValue s = server.stats_json();
      const JsonValue* a = s.find("arena");
      if (a->find("returns")->as_int() ==
          a->find("hits")->as_int() + a->find("misses")->as_int()) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  };
  for (long long id = 1; id <= 3; ++id) {
    rt::guard::Expected<JsonValue> resp = c.call(solve_req(id, "JACOBI", 20));
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(field(resp.value(), "status"), "ok");
    ASSERT_TRUE(arena_quiesced()) << "arena never returned the buffers";
  }
  const JsonValue stats = server.stats_json();
  const JsonValue* arena = stats.find("arena");
  ASSERT_NE(arena, nullptr);
  // Request 1 misses (2 fresh buffers), requests 2 and 3 recycle them.
  EXPECT_GE(arena->find("hits")->as_int(), 4);
  EXPECT_EQ(arena->find("returns")->as_int(),
            arena->find("hits")->as_int() + arena->find("misses")->as_int());
  const JsonValue* pc = stats.find("plan_cache");
  ASSERT_NE(pc, nullptr);
  EXPECT_GE(pc->find("hits")->as_int(), 2);  // one plan lookup per request
  server.stop();
}

TEST_F(ServeFixture, PlanStorePinnedWinnersServeBatches) {
  // Persist a tuned winner for exactly the (transform, cs, n, n, spec, k)
  // key the server will look up, then check the lookup was served pinned.
  const std::string path =
      ::testing::TempDir() + "rt_serve_store_test.json";
  const rt::core::StencilSpec& spec =
      rt::kernels::kernel_info(rt::kernels::KernelId::kJacobi).spec;
  rt::tune::PlanStore store;
  store.fingerprint = rt::core::host_cache_topology().fingerprint();
  rt::tune::StoreEntry e;
  e.key.kernel = "JACOBI";
  e.key.n = 20;
  e.key.n3 = 20;
  e.key.transform = rt::core::Transform::kGcdPad;
  e.plan_key = rt::core::PlanCache::make_key(rt::core::Transform::kGcdPad,
                                             kCs, 20, 20, spec, 20);
  e.plan = rt::core::plan_for_checked(rt::core::Transform::kGcdPad, kCs, 20,
                                      20, spec, 20)
               .plan;
  e.origin = "tuned";
  store.put(e);
  ASSERT_EQ(rt::tune::save_store(store, path), Status::kOk);

  ServerOptions opts = base_options();
  opts.plan_store = path;
  Server server(opts);
  ASSERT_EQ(server.start(), Status::kOk);
  EXPECT_EQ(server.plan_store_status(), Status::kOk);
  Client c = connect_to(server);
  rt::guard::Expected<JsonValue> resp = c.call(solve_req(1, "JACOBI", 20));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(field(resp.value(), "status"), "ok");
  const JsonValue stats = server.stats_json();
  EXPECT_GE(stats.find("plan_cache")->find("pinned_hits")->as_int(), 1);
  server.stop();
  std::remove(path.c_str());
}

TEST_F(ServeFixture, GracefulDrainAnswersEverythingThenRefuses) {
  ServerOptions opts = base_options();
  opts.executors = 2;
  Server server(opts);
  ASSERT_EQ(server.start(), Status::kOk);
  Client c = connect_to(server);
  constexpr int kN = 8;
  for (long long id = 1; id <= kN; ++id) {
    ASSERT_EQ(c.send(solve_req(id, "JACOBI", 16, 1)), Status::kOk);
  }
  int answered = 0;
  for (int i = 0; i < kN; ++i) {
    JsonValue resp;
    std::string why;
    ASSERT_EQ(c.recv(&resp, &why), Status::kOk) << why;
    const std::string st = field(resp, "status");
    EXPECT_TRUE(st == "ok" || st == "overloaded") << st;
    ++answered;
  }
  EXPECT_EQ(answered, kN);
  server.stop();
  // Post-drain: connection is gone and new connections are refused.
  JsonValue resp;
  std::string why;
  EXPECT_NE(c.recv(&resp, &why), Status::kOk);
  EXPECT_FALSE(Client::connect(server.port()).ok());
}

// ---------------------------------------------------------------------------
// Resilience layer (PR 9): client timeouts, health op, watermark hints,
// supervisor respawn + circuit breaker, chaos injection at the frame layer.
// ---------------------------------------------------------------------------

TEST_F(ServeFixture, HealthOpReportsHealthyAndReady) {
  ServerOptions opts = base_options();
  opts.executors = 2;
  Server server(opts);
  ASSERT_EQ(server.start(), Status::kOk);
  Client c = connect_to(server);

  JsonValue req = JsonValue::object();
  req.set("id", 3);
  req.set("op", "health");
  rt::guard::Expected<JsonValue> resp = c.call(req);
  ASSERT_TRUE(resp.ok()) << resp.detail();
  EXPECT_EQ(field(resp.value(), "status"), "ok");
  EXPECT_EQ(resp.value().find("id")->as_int(), 3);
  const JsonValue* h = resp.value().find("health");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("state")->as_string(), "healthy");
  EXPECT_TRUE(h->find("ready")->as_bool());
  EXPECT_EQ(h->find("executors_live")->as_int(), 2);
  EXPECT_EQ(h->find("executors_retired")->as_int(), 0);
  const JsonValue* br = h->find("breaker");
  ASSERT_NE(br, nullptr);
  EXPECT_FALSE(br->find("open")->as_bool());
  server.stop();
}

TEST_F(ServeFixture, ClientRecvTimesOutOnSilentPeerWithTypedStatus) {
  Server server(base_options());
  ASSERT_EQ(server.start(), Status::kOk);
  // A connect deadline against a live listener succeeds promptly.
  rt::guard::Expected<Client> c = Client::connect(server.port(), 1000);
  ASSERT_TRUE(c.ok()) << c.detail();
  ASSERT_EQ(c.value().set_timeouts(500, 150), Status::kOk);

  // Nothing was sent, so the server never answers: recv must come back
  // kTimeout in bounded time instead of blocking forever (the pre-PR-9
  // behaviour this satellite fixes).
  const auto t0 = std::chrono::steady_clock::now();
  JsonValue resp;
  std::string why;
  EXPECT_EQ(c.value().recv(&resp, &why), Status::kTimeout) << why;
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(waited, 0.1);
  EXPECT_LT(waited, 5.0);

  // After a timeout the stream is unsynced by contract: reconnect and the
  // server is still perfectly serviceable.
  Client fresh = connect_to(server);
  JsonValue ping = JsonValue::object();
  ping.set("op", "ping");
  EXPECT_TRUE(fresh.call(ping).ok());
  server.stop();
  // Connect with a deadline against a dead port fails typed, not forever.
  rt::guard::Expected<Client> dead = Client::connect(server.port(), 200);
  EXPECT_FALSE(dead.ok());
}

TEST_F(ServeFixture, WatermarkRejectionCarriesRetryAfterHint) {
  ServerOptions opts = base_options();
  opts.executors = 1;
  opts.queue_depth = 4;
  opts.queue_watermark = 0.5;  // shed at 2 queued, not 4
  opts.retry_after_ms = 70;
  opts.batching = false;
  Server server(opts);
  ASSERT_EQ(server.start(), Status::kOk);
  Client c = connect_to(server);

  rt::guard::FaultInjector::instance().arm(rt::guard::FaultKind::kHang, 0, 1);
  ASSERT_EQ(c.send(solve_req(1, "JACOBI", 12, 1)), Status::kOk);
  bool wedged = false;
  for (int i = 0; i < 500 && !wedged; ++i) {
    wedged = rt::guard::FaultInjector::instance().fired(
                 rt::guard::FaultKind::kHang) >= 1;
    if (!wedged) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(wedged);
  // Head is wedged; the watermark admits 2 of these 4, rejects 2 — and
  // every queue-pressure rejection must carry the configured hint.
  for (long long id = 2; id <= 5; ++id) {
    ASSERT_EQ(c.send(solve_req(id, "JACOBI", 12, 1)), Status::kOk);
  }
  int hinted = 0;
  for (int i = 0; i < 2; ++i) {
    JsonValue resp;
    std::string why;
    ASSERT_EQ(c.recv(&resp, &why), Status::kOk) << why;
    ASSERT_EQ(field(resp, "status"), "overloaded");
    const JsonValue* hint = resp.find("retry_after_ms");
    ASSERT_NE(hint, nullptr);
    EXPECT_EQ(hint->as_int(), 70);
    ++hinted;
  }
  EXPECT_EQ(hinted, 2);
  rt::guard::FaultInjector::instance().cancel_hangs();
  for (int i = 0; i < 3; ++i) {  // wedged head + 2 admitted
    JsonValue resp;
    std::string why;
    ASSERT_EQ(c.recv(&resp, &why), Status::kOk) << why;
    EXPECT_EQ(field(resp, "status"), "ok");
  }
  const JsonValue stats = server.stats_json();
  EXPECT_EQ(stats.find("resilience")->find("retry_hints")->as_int(), 2);
  server.stop();
}

TEST_F(ServeFixture, SupervisorRespawnsWedgedExecutorAndBreakerTripsResets) {
  ServerOptions opts = base_options();
  opts.executors = 1;
  opts.batching = false;
  opts.supervise_interval_ms = 10;
  opts.executor_wedge_ms = 100;
  opts.max_respawns = 2;
  opts.breaker_threshold = 1;
  opts.breaker_window_ms = 500;
  opts.breaker_retry_after_ms = 123;
  Server server(opts);
  ASSERT_EQ(server.start(), Status::kOk);
  Client victim = connect_to(server);
  Client probe = connect_to(server);

  // Wedge the only executor inline (no deadline → run_batch runs the work
  // on the executor thread itself).
  rt::guard::FaultInjector::instance().arm(rt::guard::FaultKind::kHang, 0, 1);
  ASSERT_EQ(victim.send(solve_req(1, "JACOBI", 16, 1)), Status::kOk);

  // The supervisor must retire the wedged executor and spawn a fresh one.
  bool respawned = false;
  for (int i = 0; i < 800 && !respawned; ++i) {
    const JsonValue stats = server.stats_json();
    const JsonValue* rz = stats.find("resilience");
    ASSERT_NE(rz, nullptr);
    respawned = rz->find("executors_wedged")->as_int() >= 1 &&
                rz->find("executors_respawned")->as_int() >= 1;
    if (!respawned) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(respawned) << server.stats_json().dump();

  // One wedge event >= threshold 1: the breaker trips into degraded mode;
  // solves are rejected with the breaker's retry hint, health says so.
  bool degraded = false;
  for (int i = 0; i < 400 && !degraded; ++i) {
    degraded = server.degraded();
    if (!degraded) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(degraded);
  {
    rt::guard::Expected<JsonValue> r = probe.call(solve_req(50, "JACOBI", 16, 1));
    ASSERT_TRUE(r.ok()) << r.detail();
    EXPECT_EQ(field(r.value(), "status"), "overloaded");
    EXPECT_NE(field(r.value(), "detail").find("degraded"), std::string::npos);
    ASSERT_NE(r.value().find("retry_after_ms"), nullptr);
    EXPECT_EQ(r.value().find("retry_after_ms")->as_int(), 123);
  }
  {
    JsonValue hreq = JsonValue::object();
    hreq.set("op", "health");
    rt::guard::Expected<JsonValue> r = probe.call(hreq);
    ASSERT_TRUE(r.ok()) << r.detail();
    EXPECT_EQ(r.value().find("health")->find("state")->as_string(),
              "degraded");
    EXPECT_FALSE(r.value().find("health")->find("ready")->as_bool());
  }

  // Release the wedge: the retired executor finishes its batch, answers
  // the victim, and exits; the replacement owns the queue.
  rt::guard::FaultInjector::instance().cancel_hangs();
  {
    JsonValue resp;
    std::string why;
    ASSERT_EQ(victim.recv(&resp, &why), Status::kOk) << why;
    EXPECT_EQ(field(resp, "status"), "ok");
    EXPECT_EQ(field(resp, "checksum"),
              reference_kernel_checksum(ServeKernel::kJacobi, 16, 1,
                                        rt::core::Transform::kGcdPad));
  }

  // Once the event ages out of the window the breaker resets on its own
  // and the server serves correct results again — self-healed, verified.
  bool healthy = false;
  for (int i = 0; i < 800 && !healthy; ++i) {
    healthy = !server.degraded();
    if (!healthy) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(healthy) << server.stats_json().dump();
  {
    rt::guard::Expected<JsonValue> r = probe.call(solve_req(60, "JACOBI", 20, 2));
    ASSERT_TRUE(r.ok()) << r.detail();
    ASSERT_EQ(field(r.value(), "status"), "ok") << field(r.value(), "detail");
    EXPECT_EQ(field(r.value(), "checksum"),
              reference_kernel_checksum(ServeKernel::kJacobi, 20, 2,
                                        rt::core::Transform::kGcdPad));
  }
  const JsonValue stats = server.stats_json();
  const JsonValue* rz = stats.find("resilience");
  EXPECT_GE(rz->find("breaker_trips")->as_int(), 1);
  EXPECT_GE(rz->find("breaker_resets")->as_int(), 1);
  EXPECT_GE(rz->find("degraded_rejections")->as_int(), 1);
  server.stop();
}

TEST_F(ServeFixture, FrameFaultInjectionsAreTypedAndServerSurvives) {
  Server server(base_options());
  ASSERT_EQ(server.start(), Status::kOk);

  {  // kSockDrop on the CLIENT's own send (trigger 0): typed kIoError.
    Client c = connect_to(server);
    rt::guard::FaultInjector::instance().arm(
        rt::guard::FaultKind::kSockDrop, 0, 1);
    JsonValue ping = JsonValue::object();
    ping.set("op", "ping");
    std::string why;
    EXPECT_EQ(c.send(ping, &why), Status::kIoError);
    EXPECT_NE(why.find("sockdrop"), std::string::npos);
    rt::guard::FaultInjector::instance().disarm_all();
  }
  {  // kSockDrop on the SERVER's response (skip the client's send, fire on
     // the next write_frame = the response): the client sees a torn frame.
    Client c = connect_to(server);
    rt::guard::FaultInjector::instance().arm(
        rt::guard::FaultKind::kSockDrop, 1, 1);
    JsonValue ping = JsonValue::object();
    ping.set("op", "ping");
    ASSERT_EQ(c.send(ping), Status::kOk);
    JsonValue resp;
    std::string why;
    const Status st = c.recv(&resp, &why);
    EXPECT_TRUE(st == Status::kCorrupt || st == Status::kIoError) << why;
    rt::guard::FaultInjector::instance().disarm_all();
  }
  {  // kPartialWrite on the server's response: short frame then hangup →
     // kTruncated at the client, mapped to kCorrupt.
    Client c = connect_to(server);
    rt::guard::FaultInjector::instance().arm(
        rt::guard::FaultKind::kPartialWrite, 1, 1);
    rt::guard::Expected<JsonValue> r = c.call(solve_req(9, "JACOBI", 12, 1));
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.status() == Status::kCorrupt ||
                r.status() == Status::kIoError)
        << r.detail();
    rt::guard::FaultInjector::instance().disarm_all();
  }

  // The server survived all three storms and still serves bit-identical
  // results on a fresh connection.
  Client c = connect_to(server);
  rt::guard::Expected<JsonValue> r = c.call(solve_req(10, "JACOBI", 20, 2));
  ASSERT_TRUE(r.ok()) << r.detail();
  ASSERT_EQ(field(r.value(), "status"), "ok") << field(r.value(), "detail");
  EXPECT_EQ(field(r.value(), "checksum"),
            reference_kernel_checksum(ServeKernel::kJacobi, 20, 2,
                                      rt::core::Transform::kGcdPad));
  const JsonValue stats = server.stats_json();
  EXPECT_GE(stats.find("io_errors")->as_int(), 1);
  server.stop();
}

TEST_F(ServeFixture, BufferArenaHoldsIdleBytesCapUnderConcurrentChurn) {
  // Satellite coverage: the idle-bytes cap is a *concurrent* invariant —
  // eight threads hammering acquire/release must never leave the arena
  // caching more than max_cached_bytes when the dust settles, and every
  // release must either cache or drop (no leaks, no double-counting).
  const Dims3 small = Dims3::padded(12, 12, 12, 13, 14);
  const Dims3 big = Dims3::padded(24, 24, 24, 26, 25);
  const std::size_t big_bytes = static_cast<std::size_t>(
      *big.checked_alloc_elems() * static_cast<long>(sizeof(double)));
  // Room for ~3 big buffers: far fewer than 8 threads churn through.
  BufferArena arena(3 * big_bytes);

  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&arena, &small, &big, t] {
      for (int i = 0; i < 100; ++i) {
        // Hold a batch of four before releasing any: a returning batch of
        // big buffers always overflows the 3-buffer idle cap, so drops
        // happen even when the scheduler serializes the threads.
        std::vector<Array3D<double>> held;
        for (int b = 0; b < 4; ++b) {
          const Dims3& d = ((i + t + b) % 3 == 0) ? small : big;
          held.push_back(arena.acquire(d));
          held.back()(1, 1, 1) = static_cast<double>(i);  // really ours
        }
        for (Array3D<double>& a : held) arena.release(std::move(a));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const BufferArena::Stats s = arena.stats();
  EXPECT_LE(s.cached_bytes, 3 * big_bytes);
  EXPECT_EQ(s.hits + s.misses, 8u * 100u * 4u);
  EXPECT_EQ(s.returns, 8u * 100u * 4u);  // every buffer came home
  EXPECT_LE(s.dropped, s.returns);
  // The cap was genuinely exercised: with 8 threads and room for 3 big
  // buffers, some releases must have been dropped.
  EXPECT_GT(s.dropped, 0u);
}

}  // namespace
}  // namespace rt::serve
