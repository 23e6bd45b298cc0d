// rt::tune — the measurement-driven autotuner.  The calibration engine is
// driven entirely through synthetic CandidateRunner/TemporalRunner
// callbacks here (no kernels): objective and tie-breaking, skip recording,
// the watchdog deadline with an injected hang, the durable plan store's
// round-trip / kStale / kCorrupt contract, PlanCache installation, and the
// background re-tune worker.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "rt/core/plan.hpp"
#include "rt/core/plan_cache.hpp"
#include "rt/core/stencil_spec.hpp"
#include "rt/core/temporal.hpp"
#include "rt/guard/fault_injector.hpp"
#include "rt/guard/status.hpp"
#include "rt/tune/autotuner.hpp"
#include "rt/tune/candidates.hpp"
#include "rt/tune/plan_store.hpp"
#include "rt/tune/tune.hpp"

namespace fs = std::filesystem;
using rt::core::StencilSpec;
using rt::core::TilingPlan;
using rt::core::Transform;
using rt::guard::Status;
using namespace rt::tune;

// ---------------------------------------------------------------------------
// Tokens and keys

TEST(TuneTokens, TuneModeRoundTrips) {
  for (TuneMode m : {TuneMode::kOff, TuneMode::kLoad, TuneMode::kOn}) {
    TuneMode back{};
    ASSERT_TRUE(parse_tune_mode(tune_mode_name(m), &back));
    EXPECT_EQ(back, m);
  }
  TuneMode out{};
  EXPECT_FALSE(parse_tune_mode("auto", &out));
  EXPECT_FALSE(parse_tune_mode("", &out));
}

TEST(TuneTokens, TransformRoundTrips) {
  for (Transform t : rt::core::all_transforms()) {
    Transform back{};
    ASSERT_TRUE(
        parse_transform(std::string(rt::core::transform_name(t)), &back));
    EXPECT_EQ(back, t);
  }
  Transform out{};
  EXPECT_FALSE(parse_transform("gcdpad", &out));  // tokens are case-exact
  EXPECT_FALSE(parse_transform("", &out));
}

TEST(TuneKeyTest, StrIsTheDocumentedStableIdentity) {
  TuneKey k;
  k.kernel = "JACOBI";
  k.n = 400;
  k.n3 = 30;
  k.transform = Transform::kGcdPad;
  k.threads = 4;
  k.simd = "avx2";
  k.temporal = rt::core::TemporalMode::kOff;
  k.tsteps = 0;
  EXPECT_EQ(k.str(),
            "JACOBI/n400x30/GcdPad/model/t4/simd=avx2/temporal=off/ts0");

  TuneKey k2 = k;
  EXPECT_EQ(k, k2);
  k2.simd = "off";
  EXPECT_FALSE(k == k2);  // every field is identity

  // The planner backend is part of the identity: a lattice winner is a
  // different tuning problem (and str() shows which planner it answers).
  TuneKey k3 = k;
  k3.backend = rt::core::Backend::kLattice;
  EXPECT_FALSE(k == k3);
  EXPECT_EQ(k3.str(),
            "JACOBI/n400x30/GcdPad/lattice/t4/simd=avx2/temporal=off/ts0");
}

// ---------------------------------------------------------------------------
// Candidate generation

namespace {

TilingPlan tiled_model() {
  TilingPlan p;
  p.transform = Transform::kGcdPad;
  p.tiled = true;
  p.tile = rt::core::IterTile{16, 16};
  p.dip = 408;  // padded leading dimension (model found a GCD pad)
  p.djp = 400;
  return p;
}

bool has_origin(const std::vector<Candidate>& cands, const std::string& o) {
  for (const Candidate& c : cands) {
    if (c.origin == o) return true;
  }
  return false;
}

}  // namespace

TEST(SpatialCandidates, ModelIsAlwaysFirstAndSetIsDeduplicated) {
  const auto cands = spatial_candidates(tiled_model(), 400, 400, 1);
  ASSERT_GE(cands.size(), 8u);
  EXPECT_EQ(cands[0].origin, "model");
  EXPECT_TRUE(cands[0].plan.tiled);
  EXPECT_EQ(cands[0].plan.tile.ti, 16);

  // Shape-level dedup: no two candidates share (tiled, tile, dip, djp).
  for (std::size_t a = 0; a < cands.size(); ++a) {
    for (std::size_t b = a + 1; b < cands.size(); ++b) {
      EXPECT_FALSE(cands[a].plan.tiled == cands[b].plan.tiled &&
                   cands[a].plan.tile == cands[b].plan.tile &&
                   cands[a].plan.dip == cands[b].plan.dip &&
                   cands[a].plan.djp == cands[b].plan.djp)
          << cands[a].origin << " duplicates " << cands[b].origin;
    }
  }
}

TEST(SpatialCandidates, NeighbourhoodCoversTheHostEffectsTheModelMisses) {
  const auto cands = spatial_candidates(tiled_model(), 400, 400, 1);
  // Tuning must be able to UNDO tiling (prefetchers love long rows)...
  EXPECT_TRUE(has_origin(cands, "untiled"));
  // ...keep the model's padding while untiling...
  EXPECT_TRUE(has_origin(cands, "untiled+pad"));
  // ...grow tiles past the direct-mapped model's conflict bound...
  EXPECT_TRUE(has_origin(cands, "tile*2"));
  EXPECT_TRUE(has_origin(cands, "tile*4"));
  // ...and perturb the padding (dip=408 is even, so pad:odd applies).
  EXPECT_TRUE(has_origin(cands, "pad+8"));
  EXPECT_TRUE(has_origin(cands, "pad:odd"));

  for (const Candidate& c : cands) {
    EXPECT_GE(c.plan.dip, 400) << c.origin;
    EXPECT_GE(c.plan.djp, 400) << c.origin;
    if (c.plan.tiled) {
      EXPECT_GE(c.plan.tile.ti, 1) << c.origin;
      EXPECT_LE(c.plan.tile.ti, 398) << c.origin;  // di - 2*halo
      EXPECT_LE(c.plan.tile.tj, 398) << c.origin;
    }
  }
}

TEST(SpatialCandidates, OversizedTilesClampAndFullInteriorTilesGoUntiled) {
  TilingPlan model = tiled_model();
  model.tile = rt::core::IterTile{100000, 100000};
  model.dip = 100;
  model.djp = 100;
  const auto cands = spatial_candidates(model, 100, 100, 1);
  ASSERT_FALSE(cands.empty());
  // ti clamps to di-2*halo = 98 = the whole interior, which IS the untiled
  // loop — the generator canonicalizes it so dedup can see that.
  EXPECT_EQ(cands[0].origin, "model");
  EXPECT_FALSE(cands[0].plan.tiled);
}

TEST(SpatialCandidates, UntiledCandidatesAreFlat) {
  // The untiled baselines and full-interior tiles drop the model's tiled
  // schedule with its tile, so every winner stays storable.
  TilingPlan model = tiled_model();
  model.schedule = rt::core::LoopSchedule::kTiled;
  const auto cands = spatial_candidates(model, 400, 400, 1);
  ASSERT_TRUE(has_origin(cands, "untiled"));
  for (const Candidate& c : cands) {
    if (!c.plan.tiled) {
      EXPECT_EQ(c.plan.schedule, rt::core::LoopSchedule::kFlat) << c.origin;
    }
  }
}

TEST(SpatialCandidates, UntiledModelStillProbesSquareTiles) {
  TilingPlan model;
  model.transform = Transform::kOrig;
  model.dip = 200;
  model.djp = 200;
  const auto cands = spatial_candidates(model, 200, 200, 1);
  EXPECT_TRUE(has_origin(cands, "square16"));
  EXPECT_TRUE(has_origin(cands, "square32"));
  EXPECT_TRUE(has_origin(cands, "square64"));
}

TEST(SpatialCandidates, CapAndDegenerateInputs) {
  EXPECT_EQ(spatial_candidates(tiled_model(), 400, 400, 1, 3).size(), 3u);
  EXPECT_TRUE(spatial_candidates(tiled_model(), 0, 400, 1).empty());
  EXPECT_TRUE(spatial_candidates(tiled_model(), 400, 400, 1, 0).empty());
}

TEST(TemporalCandidates, ModelFirstDistinctDepthsOffIsEmpty) {
  EXPECT_TRUE(temporal_candidates(rt::core::TemporalMode::kOff, 1 << 20, 200,
                                  200, 200, 4, 2, 1)
                  .empty());

  const auto cands = temporal_candidates(rt::core::TemporalMode::kSkew,
                                         1 << 20, 200, 200, 200, 4, 2, 1);
  ASSERT_GE(cands.size(), 2u);
  EXPECT_EQ(cands[0].origin, "model");
  EXPECT_GT(cands[0].report.plan.bk, 0);
  for (std::size_t a = 0; a < cands.size(); ++a) {
    // Every candidate is a *validated* re-plan, never an unchecked mutation.
    EXPECT_NE(cands[a].report.status, Status::kInvalidArgument)
        << cands[a].origin;
    for (std::size_t b = a + 1; b < cands.size(); ++b) {
      EXPECT_FALSE(cands[a].report.plan.bk == cands[b].report.plan.bk &&
                   cands[a].report.plan.tb == cands[b].report.plan.tb)
          << cands[a].origin << " duplicates " << cands[b].origin;
    }
  }
}

// ---------------------------------------------------------------------------
// Calibration sweep: objective, ties, skips, guardrails

namespace {

/// Hand-built candidate whose measured time is encoded in plan.dip
/// (seconds = dip / 1000), so a synthetic runner can rank them.
Candidate fake(const std::string& origin, long dip_ms) {
  Candidate c;
  c.origin = origin;
  c.plan.dip = dip_ms;
  c.plan.djp = 100;
  return c;
}

Measurement timed(double seconds) {
  Measurement m;
  m.seconds = seconds;
  m.mflops = seconds > 0 ? 1.0 / seconds : 0;
  return m;
}

CandidateRunner dip_runner() {
  return [](const TilingPlan& p) {
    return timed(static_cast<double>(p.dip) / 1000.0);
  };
}

TuneKey any_key() {
  TuneKey k;
  k.kernel = "FAKE";
  k.n = 100;
  k.n3 = 30;
  return k;
}

}  // namespace

TEST(Autotuner, FastestCandidateWinsAndExtremaAreRecorded) {
  Autotuner t({.repeats = 1});
  const std::vector<Candidate> cands = {fake("model", 300), fake("fast", 100),
                                        fake("mid", 200)};
  const TuneResult res = t.tune_spatial(any_key(), cands, dip_runner());
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.winner, 1);
  EXPECT_EQ(res.model, 0);
  EXPECT_EQ(res.worst, 0);
  EXPECT_EQ(res.candidates[1].origin, "fast");
  EXPECT_DOUBLE_EQ(res.candidates[1].m.seconds, 0.1);
  EXPECT_GT(res.mflops_at(res.winner), res.mflops_at(res.model));
  EXPECT_DOUBLE_EQ(res.mflops_at(-1), 0.0);
}

TEST(Autotuner, WithinToleranceTheEarlierCandidateKeepsTheWin) {
  // "fast" is 1% quicker — inside the 2% tie band — and no counters exist
  // to break the tie, so the model (earlier, preference order) keeps the
  // win.  Tuning only moves off the model plan on real evidence.
  Autotuner t({.repeats = 1, .tie_tolerance = 0.02});
  const std::vector<Candidate> cands = {fake("model", 1000), fake("fast", 990)};
  const TuneResult res = t.tune_spatial(any_key(), cands, dip_runner());
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.winner, 0);
}

TEST(Autotuner, CountersBreakTiesLlcThenDtlbThenIpc) {
  Autotuner t({.repeats = 1, .tie_tolerance = 0.02});
  const std::vector<Candidate> cands = {fake("model", 100), fake("cool", 100),
                                        fake("warm", 100)};
  // All three candidates measure the same time; the runner counts calls so
  // it can hand a better counter profile to one specific candidate.
  int call = 0;
  CandidateRunner counted = [&call](const TilingPlan&) {
    Measurement m = timed(0.1);
    m.llc_misses = (call == 1) ? 10 : 100;  // candidate 1 is the cool one
    ++call;
    return m;
  };
  const TuneResult res = t.tune_spatial(any_key(), cands, counted);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.winner, 1);

  // dTLB tie-break when LLC slots are absent on one side (no discriminator).
  call = 0;
  CandidateRunner tlb = [&call](const TilingPlan&) {
    Measurement m = timed(0.1);
    m.dtlb_misses = (call == 2) ? 1 : 50;
    ++call;
    return m;
  };
  const TuneResult res2 = t.tune_spatial(any_key(), cands, tlb);
  EXPECT_EQ(res2.winner, 2);

  // Higher IPC wins the last slot.
  call = 0;
  CandidateRunner ipc = [&call](const TilingPlan&) {
    Measurement m = timed(0.1);
    m.ipc = (call == 1) ? 3.0 : 1.0;
    ++call;
    return m;
  };
  const TuneResult res3 = t.tune_spatial(any_key(), cands, ipc);
  EXPECT_EQ(res3.winner, 1);
}

TEST(Autotuner, MedianOverRepeatsTrimsOutliers) {
  Autotuner t({.repeats = 3});
  int call = 0;
  const double times[] = {0.9, 0.1, 0.2};  // one bad warmup-ish outlier
  CandidateRunner runner = [&](const TilingPlan&) {
    return timed(times[call++ % 3]);
  };
  const TuneResult res =
      t.tune_spatial(any_key(), {fake("model", 100)}, runner);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(call, 3);
  EXPECT_DOUBLE_EQ(res.candidates[0].m.seconds, 0.2);  // median, not mean
}

TEST(Autotuner, SkippedCandidatesAreRecordedAndNeverWin) {
  Autotuner t({.repeats = 1});
  CandidateRunner runner = [](const TilingPlan& p) {
    if (p.dip == 100) {  // the would-be fastest candidate fails
      Measurement m;
      m.status = Status::kAllocFailed;
      m.detail = "synthetic OOM";
      return m;
    }
    return timed(static_cast<double>(p.dip) / 1000.0);
  };
  const TuneResult res = t.tune_spatial(
      any_key(), {fake("model", 300), fake("oom", 100), fake("ok", 200)},
      runner);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.winner, 2);  // fastest *completed* candidate
  EXPECT_EQ(res.candidates[1].m.status, Status::kAllocFailed);
  EXPECT_EQ(res.candidates[1].m.detail, "synthetic OOM");
  EXPECT_NE(res.worst, 1);  // skips compete for nothing, not even "worst"
}

TEST(Autotuner, ThrowingRunnersBecomeTypedSkips) {
  Autotuner t({.repeats = 1});
  CandidateRunner runner = [](const TilingPlan& p) -> Measurement {
    if (p.dip == 100) throw std::bad_alloc();
    if (p.dip == 200) throw std::runtime_error("kernel exploded");
    return timed(0.3);
  };
  const TuneResult res = t.tune_spatial(
      any_key(), {fake("model", 300), fake("oom", 100), fake("boom", 200)},
      runner);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.winner, 0);
  EXPECT_EQ(res.candidates[1].m.status, Status::kAllocFailed);
  EXPECT_EQ(res.candidates[2].m.status, Status::kInvalidArgument);
  EXPECT_NE(res.candidates[2].m.detail.find("kernel exploded"),
            std::string::npos);
}

TEST(Autotuner, AllCandidatesSkippedIsInfeasibleNotACrash) {
  Autotuner t({.repeats = 1});
  CandidateRunner runner = [](const TilingPlan&) {
    Measurement m;
    m.status = Status::kTimeout;
    return m;
  };
  const TuneResult res =
      t.tune_spatial(any_key(), {fake("model", 1), fake("b", 2)}, runner);
  EXPECT_EQ(res.status, Status::kInfeasible);
  EXPECT_EQ(res.winner, -1);
  EXPECT_EQ(res.detail, "no candidate completed calibration");
  EXPECT_FALSE(res.ok());
}

TEST(Autotuner, EmptyCandidateSetIsInvalidArgument) {
  Autotuner t;
  const TuneResult res = t.tune_spatial(any_key(), {}, dip_runner());
  EXPECT_EQ(res.status, Status::kInvalidArgument);
  EXPECT_EQ(res.detail, "empty candidate set");
}

TEST(Autotuner, CandidateSetCapIsAppliedAndRecorded) {
  Autotuner t({.repeats = 1, .max_candidates = 2});
  const TuneResult res = t.tune_spatial(
      any_key(), {fake("model", 300), fake("a", 100), fake("dropped", 50)},
      dip_runner());
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.candidates.size(), 2u);
  EXPECT_EQ(res.winner, 1);  // the dropped 50ms candidate never ran
  EXPECT_NE(res.detail.find("capped at 2"), std::string::npos);
}

TEST(Autotuner, InjectedHangLandsAsRecordedTimeoutSkip) {
  // The RT_GUARD_FAULTS story: a candidate wedges mid-calibration, the
  // per-run watchdog fires, cancels the injected hang, and the sweep
  // records a kTimeout skip and keeps going.
  auto& fi = rt::guard::FaultInjector::instance();
  fi.disarm_all();
  fi.arm(rt::guard::FaultKind::kHang);

  Autotuner t({.repeats = 1, .candidate_deadline_s = 0.1});
  CandidateRunner runner = [](const TilingPlan& p) {
    if (p.dip == 100) rt::guard::FaultInjector::instance().hang_point();
    return timed(static_cast<double>(p.dip) / 1000.0);
  };
  const TuneResult res = t.tune_spatial(
      any_key(), {fake("model", 1), fake("hung", 100)}, runner);
  fi.disarm_all();

  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.winner, 0);
  EXPECT_EQ(res.candidates[1].m.status, Status::kTimeout);
  EXPECT_NE(res.candidates[1].m.detail.find("deadline"), std::string::npos);
  EXPECT_GE(fi.fired(rt::guard::FaultKind::kHang), 1);
}

TEST(Autotuner, TemporalSweepUsesTheSameProtocol) {
  Autotuner t({.repeats = 1});
  std::vector<TemporalCandidate> cands(2);
  cands[0].origin = "model";
  cands[0].report.plan.bk = 8;
  cands[1].origin = "bk*2";
  cands[1].report.plan.bk = 16;
  TemporalRunner runner = [](const rt::core::TemporalPlan& p) {
    return timed(p.bk == 16 ? 0.1 : 0.4);
  };
  const TuneResult res = t.tune_temporal(any_key(), cands, runner);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.winner, 1);
  EXPECT_EQ(res.model, 0);
  EXPECT_EQ(res.candidates[1].temporal_plan.bk, 16);
}

// ---------------------------------------------------------------------------
// Staleness + background re-tune worker

TEST(Autotuner, StalenessIsAgeAgainstMaxAgeMs) {
  StoreEntry e;
  e.tuned_at_ms = 1000;
  Autotuner never({.max_age_ms = 0});
  EXPECT_FALSE(never.is_stale(e, 1'000'000'000));  // 0 = never stale by age
  Autotuner hourly({.max_age_ms = 3'600'000});
  EXPECT_FALSE(hourly.is_stale(e, 1000 + 3'600'000));
  EXPECT_TRUE(hourly.is_stale(e, 1000 + 3'600'001));
}

TEST(Autotuner, BackgroundRetuneRunsJobsInOrderAndSurvivesThrows) {
  Autotuner t;
  std::mutex m;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    t.retune_async([&m, &order, i] {
      std::lock_guard<std::mutex> lk(m);
      order.push_back(i);
    });
    if (i == 1) {
      t.retune_async([] { throw std::runtime_error("re-tune failed"); });
    }
  }
  t.wait_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(t.jobs_run(), 5u);  // the throwing job still counts as run
}

TEST(Autotuner, DestructorDrainsQueuedJobs) {
  auto count = std::make_shared<std::atomic<int>>(0);
  {
    Autotuner t;
    for (int i = 0; i < 8; ++i) {
      t.retune_async([count] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        count->fetch_add(1);
      });
    }
    // No wait_idle(): the destructor must drain, not drop.
  }
  EXPECT_EQ(count->load(), 8);
}

// ---------------------------------------------------------------------------
// Plan store: round-trip, staleness, corruption, installation

namespace {

constexpr const char* kFp = "L1D:32768/8w/64B+L2U:1048576/16w/64B";

StoreEntry spatial_entry() {
  StoreEntry e;
  e.key.kernel = "JACOBI";
  e.key.n = 400;
  e.key.n3 = 30;
  e.key.transform = Transform::kGcdPad;
  e.key.threads = 4;
  e.key.simd = "avx2";
  e.plan_key = rt::core::PlanCache::make_key(Transform::kGcdPad, 2048, 400,
                                             400, StencilSpec::jacobi3d(), 30);
  e.plan.transform = Transform::kGcdPad;
  e.plan.tiled = true;
  e.plan.tile = rt::core::IterTile{64, 64};
  e.plan.dip = 408;
  e.plan.djp = 400;
  e.origin = "tile*4";
  e.mflops = 4120.5;
  e.model_mflops = 3857.25;
  e.tuned_at_ms = 1723180800000;
  return e;
}

StoreEntry temporal_entry() {
  StoreEntry e;
  e.key.kernel = "JACOBI-TS";
  e.key.n = 200;
  e.key.n3 = 200;
  e.key.temporal = rt::core::TemporalMode::kSkew;
  e.key.tsteps = 4;
  e.temporal = true;
  e.temporal_key = rt::core::PlanCache::make_temporal_key(
      rt::core::TemporalMode::kSkew, 1 << 20, 200, 200, 200, 4, 0, 2, 1);
  e.temporal_plan.mode = rt::core::TemporalMode::kSkew;
  e.temporal_plan.tsteps = 4;
  e.temporal_plan.bk = 32;
  e.temporal_plan.threads = 2;
  e.temporal_plan.stages = 28;
  e.temporal_plan.occupancy = 0.83;
  e.origin = "bk*2";
  e.mflops = 2100;
  e.model_mflops = 1900;
  e.tuned_at_ms = 1723180800001;
  return e;
}

PlanStore sample_store() {
  PlanStore s;
  s.fingerprint = kFp;
  s.entries = {spatial_entry(), temporal_entry()};
  return s;
}

}  // namespace

TEST(PlanStoreTest, FindMatchesFullKeyAndPutReplaces) {
  PlanStore s = sample_store();
  const StoreEntry* hit = s.find(spatial_entry().key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->origin, "tile*4");

  TuneKey other = spatial_entry().key;
  other.threads = 8;  // any field off → different tuning problem
  EXPECT_EQ(s.find(other), nullptr);

  StoreEntry replacement = spatial_entry();
  replacement.origin = "untiled";
  s.put(replacement);
  EXPECT_EQ(s.entries.size(), 2u);  // replaced in place, not appended
  EXPECT_EQ(s.find(replacement.key)->origin, "untiled");
}

TEST(PlanStoreTest, JsonRoundTripPreservesEveryField) {
  const PlanStore s = sample_store();
  const std::string text = store_to_json(s);
  EXPECT_EQ(text.back(), '\n');  // diffable: trailing newline

  const auto parsed = parse_store(text, kFp);
  ASSERT_TRUE(parsed.ok()) << parsed.detail();
  const PlanStore& p = parsed.value();
  EXPECT_EQ(p.version, kPlanStoreVersion);
  EXPECT_EQ(p.fingerprint, kFp);
  ASSERT_EQ(p.entries.size(), 2u);

  const StoreEntry& sp = p.entries[0];
  EXPECT_EQ(sp.key, spatial_entry().key);
  EXPECT_FALSE(sp.temporal);
  EXPECT_EQ(sp.plan_key, spatial_entry().plan_key);
  EXPECT_TRUE(sp.plan.tiled);
  EXPECT_EQ(sp.plan.tile, (rt::core::IterTile{64, 64}));
  EXPECT_EQ(sp.plan.dip, 408);
  EXPECT_EQ(sp.origin, "tile*4");
  EXPECT_DOUBLE_EQ(sp.mflops, 4120.5);
  EXPECT_DOUBLE_EQ(sp.model_mflops, 3857.25);
  EXPECT_EQ(sp.tuned_at_ms, 1723180800000);

  const StoreEntry& tp = p.entries[1];
  EXPECT_TRUE(tp.temporal);
  EXPECT_EQ(tp.key, temporal_entry().key);
  EXPECT_EQ(tp.temporal_key, temporal_entry().temporal_key);
  EXPECT_EQ(tp.temporal_plan.bk, 32);
  EXPECT_DOUBLE_EQ(tp.temporal_plan.occupancy, 0.83);

  // Serialization is deterministic: a second dump is byte-identical.
  EXPECT_EQ(store_to_json(p), text);
}

TEST(PlanStoreTest, VersionMismatchIsStaleNotReinterpreted) {
  PlanStore s = sample_store();
  s.version = kPlanStoreVersion + 1;
  const auto parsed = parse_store(store_to_json(s), kFp);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status(), Status::kStale);
  EXPECT_NE(parsed.detail().find("version"), std::string::npos);
}

TEST(PlanStoreTest, PreBackendV1StoreIsStaleNotMisapplied) {
  // A store written before plans carried backend ids (schema v1) must load
  // as kStale — its winners would otherwise be served for whichever
  // backend asks, which is exactly the collision the version bump closes.
  PlanStore s = sample_store();
  s.version = 1;
  const auto parsed = parse_store(store_to_json(s), kFp);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status(), Status::kStale);
  EXPECT_NE(parsed.detail().find("version"), std::string::npos);
}

TEST(PlanStoreTest, BackendAndScheduleRoundTripInStoreJson) {
  PlanStore s = sample_store();
  StoreEntry e = spatial_entry();
  e.key.kernel = "RESID";
  e.key.backend = rt::core::Backend::kLattice;
  rt::core::CacheGeom g;
  g.cs_elems = 2048;
  g.line_elems = 4;
  g.assoc = 2;
  e.plan_key = rt::core::PlanCache::make_backend_key(
      rt::core::Backend::kLattice, Transform::kTile, g, 400, 400,
      StencilSpec::jacobi3d(), 30);
  e.plan.transform = Transform::kTile;
  e.plan.backend = rt::core::Backend::kLattice;
  e.plan.schedule = rt::core::LoopSchedule::kTiled;
  e.plan.dip = 400;
  e.origin = "backend:lattice";
  s.put(e);

  const std::string text = store_to_json(s);
  EXPECT_NE(text.find("\"backend\": \"lattice\""), std::string::npos);
  const auto parsed = parse_store(text, kFp);
  ASSERT_TRUE(parsed.ok()) << parsed.detail();
  const StoreEntry* back = parsed.value().find(e.key);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->key.backend, rt::core::Backend::kLattice);
  EXPECT_EQ(back->plan.backend, rt::core::Backend::kLattice);
  EXPECT_EQ(back->plan.schedule, rt::core::LoopSchedule::kTiled);
  EXPECT_EQ(back->plan_key, e.plan_key);  // line_elems/assoc survived

  // An unknown backend token is corruption, not a silent default.
  std::string bad = text;
  const auto pos = bad.find("\"backend\": \"lattice\"");
  bad.replace(pos, std::string("\"backend\": \"lattice\"").size(),
              "\"backend\": \"quantum\"");
  const auto rejected = parse_store(bad, kFp);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status(), Status::kCorrupt);
}

TEST(SpatialCandidates, BackendCandidatesJoinTheRace) {
  rt::core::CacheGeom g;
  g.cs_elems = 2048;
  g.line_elems = 4;
  g.assoc = 2;
  const auto cands = spatial_candidates(tiled_model(), 400, 400, 1, g,
                                        StencilSpec::jacobi3d());
  EXPECT_EQ(cands[0].origin, "model");
  EXPECT_TRUE(has_origin(cands, "backend:lattice"));
  EXPECT_TRUE(has_origin(cands, "backend:oblivious"));
  for (const Candidate& c : cands) {
    if (c.origin == "backend:oblivious") {
      EXPECT_EQ(c.plan.schedule, rt::core::LoopSchedule::kRecursive);
    }
    if (c.origin == "backend:lattice") {
      EXPECT_TRUE(c.plan.tiled);
      EXPECT_EQ(c.plan.dip, 400);  // the lattice backend never pads
    }
  }
  // The overload still respects the cap.
  EXPECT_LE(spatial_candidates(tiled_model(), 400, 400, 1, g,
                               StencilSpec::jacobi3d(), 4)
                .size(),
            4u);
}

TEST(PlanStoreTest, FingerprintMismatchIsStaleWithBothValuesNamed) {
  const auto parsed =
      parse_store(store_to_json(sample_store()), "L1D:16384/4w/32B");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status(), Status::kStale);
  EXPECT_NE(parsed.detail().find(kFp), std::string::npos);
  EXPECT_NE(parsed.detail().find("L1D:16384/4w/32B"), std::string::npos);
}

TEST(PlanStoreTest, CorruptInputsAreTypedNeverFatal) {
  const std::string good = store_to_json(sample_store());

  // Truncation (the classic crash-mid-write artifact).
  auto r = parse_store(good.substr(0, good.size() / 2), kFp);
  EXPECT_EQ(r.status(), Status::kCorrupt);
  EXPECT_NE(r.detail().find("plan store JSON"), std::string::npos);

  // Not JSON at all / wrong root kind.
  EXPECT_EQ(parse_store("not json{", kFp).status(), Status::kCorrupt);
  EXPECT_EQ(parse_store("[1,2,3]\n", kFp).status(), Status::kCorrupt);

  // Structurally valid JSON with schema violations: strict all-or-nothing.
  EXPECT_EQ(parse_store("{\"fingerprint\":\"x\",\"entries\":[]}", kFp)
                .status(),
            Status::kCorrupt);  // version missing
  const std::string base = "{\"version\":" +
                           std::to_string(kPlanStoreVersion) +
                           ",\"fingerprint\":\"" + std::string(kFp) + "\",";
  EXPECT_EQ(parse_store(base + "\"entries\":{}}", kFp).status(),
            Status::kCorrupt);  // entries not an array
  auto bad_entry = parse_store(base + "\"entries\":[{}]}", kFp);
  EXPECT_EQ(bad_entry.status(), Status::kCorrupt);
  EXPECT_NE(bad_entry.detail().find("entry 0"), std::string::npos);

  // One mangled entry rejects the WHOLE store (a half-trusted store could
  // serve a plan for the wrong shape).
  std::string mangled = good;
  const auto pos = mangled.find("\"tiled\": true");
  ASSERT_NE(pos, std::string::npos);
  mangled.replace(pos, 13, "\"tiled\": 1234");
  auto m = parse_store(mangled, kFp);
  EXPECT_EQ(m.status(), Status::kCorrupt);
  EXPECT_NE(m.detail().find("tiled"), std::string::npos);
}

/// parse_store of the sample store plus one spatial entry damaged by
/// @p damage, appended as entry 2.
rt::guard::Expected<PlanStore> parse_with_bad_plan(
    void (*damage)(StoreEntry&)) {
  PlanStore s = sample_store();
  StoreEntry e = spatial_entry();
  e.key.kernel = "RESID";
  damage(e);
  s.entries.push_back(e);
  return parse_store(store_to_json(s), kFp);
}

void expect_corrupt_entry_2(const rt::guard::Expected<PlanStore>& r,
                            const std::string& what) {
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status(), Status::kCorrupt);
  EXPECT_NE(r.detail().find("entry 2"), std::string::npos) << r.detail();
  EXPECT_NE(r.detail().find(what), std::string::npos) << r.detail();
}

// A pinned plan runs as-is, so an entry the executor cannot run is
// corruption, not a plan: one case per field.
TEST(PlanStoreValidation, TiledPlanWithZeroTiIsCorrupt) {
  expect_corrupt_entry_2(
      parse_with_bad_plan([](StoreEntry& e) { e.plan.tile.ti = 0; }),
      "tile 0x64");
}

TEST(PlanStoreValidation, TiledPlanWithNegativeTjIsCorrupt) {
  expect_corrupt_entry_2(
      parse_with_bad_plan([](StoreEntry& e) { e.plan.tile.tj = -3; }),
      "tile 64x-3");
}

TEST(PlanStoreValidation, DipBelowPlannedExtentIsCorrupt) {
  expect_corrupt_entry_2(
      parse_with_bad_plan([](StoreEntry& e) { e.plan.dip = 1; }),
      "plan pad 1x400 below the planned extent 400x400");
}

TEST(PlanStoreValidation, DjpBelowPlannedExtentIsCorrupt) {
  expect_corrupt_entry_2(
      parse_with_bad_plan([](StoreEntry& e) { e.plan.djp = -5; }),
      "plan pad 408x-5 below the planned extent 400x400");
}

TEST(PlanStoreValidation, RecursiveScheduleOnUntiledPlanIsCorrupt) {
  expect_corrupt_entry_2(parse_with_bad_plan([](StoreEntry& e) {
                           e.plan.tiled = false;
                           e.plan.tile = {};
                           e.plan.schedule =
                               rt::core::LoopSchedule::kRecursive;
                         }),
                         "untiled plan with schedule \"recursive\"");
  // The same untiled entry with the flat schedule is a valid plan.
  const auto ok = parse_with_bad_plan([](StoreEntry& e) {
    e.plan.tiled = false;
    e.plan.tile = {};
  });
  EXPECT_TRUE(ok.ok()) << ok.detail();
}

// Stores written before candidates were made flat hold untiled winners with
// the model's tiled schedule; those run flat on every path and still load.
TEST(PlanStoreValidation, TiledScheduleOnUntiledPlanStillParses) {
  const auto r = parse_with_bad_plan([](StoreEntry& e) {
    e.plan.tiled = false;
    e.plan.tile = {};
    e.plan.schedule = rt::core::LoopSchedule::kTiled;
  });
  ASSERT_TRUE(r.ok()) << r.detail();
  const StoreEntry& e = r.value().entries.back();
  EXPECT_FALSE(e.plan.tiled);
  EXPECT_EQ(e.plan.schedule, rt::core::LoopSchedule::kTiled);
}

TEST(PlanStoreTest, SaveLoadRoundTripAndMissingFileIsInvalidArgument) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "rt_tune_store_test" / "nested";
  const std::string path = (dir / "plans.json").string();
  std::error_code ec;
  fs::remove_all(fs::path(::testing::TempDir()) / "rt_tune_store_test", ec);

  // Missing file: kInvalidArgument (nothing persisted ≠ corrupted state).
  EXPECT_EQ(load_store(path, kFp).status(), Status::kInvalidArgument);

  // save_store creates the parent directories.
  ASSERT_EQ(save_store(sample_store(), path), Status::kOk);
  const auto loaded = load_store(path, kFp);
  ASSERT_TRUE(loaded.ok()) << loaded.detail();
  EXPECT_EQ(loaded.value().entries.size(), 2u);
  EXPECT_EQ(store_to_json(loaded.value()), store_to_json(sample_store()));

  EXPECT_EQ(save_store(sample_store(), "/proc/definitely/not/writable.json"),
            Status::kInvalidArgument);
  fs::remove_all(fs::path(::testing::TempDir()) / "rt_tune_store_test", ec);
}

// ---------------------------------------------------------------------------
// Crash-safe persistence (PR 9): torn-file sweep, .bak fallback, fsync
// failure containment, and a real kill-9 storm over save_store.

namespace {

/// Fresh scratch dir for one crash-safety test; removed on destruction.
struct StoreScratch {
  fs::path dir;
  std::string path;
  explicit StoreScratch(const char* name) {
    dir = fs::path(::testing::TempDir()) / name;
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    path = (dir / "plans.json").string();
  }
  ~StoreScratch() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

/// A sample store whose single distinguishing mark is @p origin — the
/// kill-9 test uses it to tell which generation a recovered store is.
PlanStore marked_store(const std::string& origin) {
  PlanStore s = sample_store();
  for (StoreEntry& e : s.entries) e.origin = origin;
  return s;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::trunc | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f << bytes;
}

}  // namespace

TEST(PlanStoreCrashSafety, TornFileSweepIsTypedAtEveryByteOffset) {
  StoreScratch sc("rt_tune_torn_sweep");
  const std::string good = store_to_json(sample_store());
  ASSERT_GT(good.size(), 2u);

  // A file torn at ANY offset (the classic crash-mid-write artifact that
  // the atomic-rename save makes impossible, but which a pre-PR-9 store —
  // or a hostile edit — can still present) must come back typed, never
  // crash, and never yield a half-trusted store.  There is no .bak here,
  // so no fallback can mask the rejection.  The single valid prefix is
  // good.size()-1: everything but the trailing newline is complete JSON.
  for (std::size_t cut = 0; cut + 1 < good.size(); ++cut) {
    write_file(sc.path, good.substr(0, cut));
    const auto r = load_store(sc.path, kFp);
    ASSERT_FALSE(r.ok()) << "cut at " << cut << " parsed";
    ASSERT_TRUE(r.status() == Status::kCorrupt ||
                r.status() == Status::kStale)
        << "cut at " << cut << ": "
        << rt::guard::status_name(r.status());
  }
  write_file(sc.path, good);
  EXPECT_TRUE(load_store(sc.path, kFp).ok());
}

TEST(PlanStoreCrashSafety, SaveKeepsBakAndFallbackRecoversTornPrimary) {
  StoreScratch sc("rt_tune_bak_recover");
  ASSERT_EQ(save_store(marked_store("gen1"), sc.path), Status::kOk);
  ASSERT_EQ(save_store(marked_store("gen2"), sc.path), Status::kOk);

  // The second save demoted the first to .bak.
  const std::string bak = store_bak_path(sc.path);
  ASSERT_TRUE(fs::exists(bak));
  const auto bak_loaded = load_store(bak, kFp);
  ASSERT_TRUE(bak_loaded.ok()) << bak_loaded.detail();
  EXPECT_EQ(bak_loaded.value().entries[0].origin, "gen1");

  // Tear the primary: load_store falls back to the last-good generation
  // and says so in LoadInfo.
  const std::string gen2 = store_to_json(marked_store("gen2"));
  write_file(sc.path, gen2.substr(0, gen2.size() / 2));
  LoadInfo info;
  const auto recovered = load_store(sc.path, kFp, &info);
  ASSERT_TRUE(recovered.ok()) << recovered.detail();
  EXPECT_TRUE(info.recovered_from_bak);
  EXPECT_EQ(info.primary_status, Status::kCorrupt);
  EXPECT_FALSE(info.primary_detail.empty());
  EXPECT_EQ(recovered.value().entries[0].origin, "gen1");
}

TEST(PlanStoreCrashSafety, FallbackCoversTheCrashWindowBetweenRenames) {
  StoreScratch sc("rt_tune_rename_window");
  ASSERT_EQ(save_store(marked_store("gen1"), sc.path), Status::kOk);
  // Simulate a crash after "demote primary to .bak" but before "rename
  // temp into place": the primary name is vacant, the .bak holds gen1.
  fs::rename(sc.path, store_bak_path(sc.path));
  LoadInfo info;
  const auto r = load_store(sc.path, kFp, &info);
  ASSERT_TRUE(r.ok()) << r.detail();
  EXPECT_TRUE(info.recovered_from_bak);
  EXPECT_EQ(info.primary_status, Status::kInvalidArgument);
  EXPECT_EQ(r.value().entries[0].origin, "gen1");

  // But a store that never existed at all is a plain kInvalidArgument:
  // no .bak, no fallback, no false "recovered" claim.
  const std::string missing = (sc.dir / "never_saved.json").string();
  LoadInfo none;
  EXPECT_EQ(load_store(missing, kFp, &none).status(),
            Status::kInvalidArgument);
  EXPECT_FALSE(none.recovered_from_bak);
}

TEST(PlanStoreCrashSafety, StaleNeverFallsBackToBak) {
  StoreScratch sc("rt_tune_stale_no_bak");
  ASSERT_EQ(save_store(marked_store("gen1"), sc.path), Status::kOk);
  ASSERT_EQ(save_store(marked_store("gen2"), sc.path), Status::kOk);
  // A version-bumped primary is kStale — a *newer* writer owns the file.
  // Serving the older .bak would resurrect plans that writer retired.
  PlanStore future = marked_store("gen3");
  future.version = kPlanStoreVersion + 1;
  write_file(sc.path, store_to_json(future));
  LoadInfo info;
  const auto r = load_store(sc.path, kFp, &info);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status(), Status::kStale);
  EXPECT_FALSE(info.recovered_from_bak);
}

TEST(PlanStoreCrashSafety, InjectedFsyncFailureLeavesBothGenerationsIntact) {
  StoreScratch sc("rt_tune_fsync_fail");
  ASSERT_EQ(save_store(marked_store("gen1"), sc.path), Status::kOk);
  ASSERT_EQ(save_store(marked_store("gen2"), sc.path), Status::kOk);

  rt::guard::FaultInjector::instance().arm(
      rt::guard::FaultKind::kFsyncFail, 0, 1);
  std::string why;
  EXPECT_EQ(save_store(marked_store("gen3"), sc.path, &why),
            Status::kIoError);
  EXPECT_NE(why.find("fsyncfail"), std::string::npos) << why;
  rt::guard::FaultInjector::instance().disarm_all();

  // The failed save changed NOTHING: primary still gen2, .bak still gen1,
  // and the half-written temp was unlinked.
  const auto primary = load_store(sc.path, kFp);
  ASSERT_TRUE(primary.ok()) << primary.detail();
  EXPECT_EQ(primary.value().entries[0].origin, "gen2");
  const auto bak = load_store(store_bak_path(sc.path), kFp);
  ASSERT_TRUE(bak.ok()) << bak.detail();
  EXPECT_EQ(bak.value().entries[0].origin, "gen1");
  for (const fs::directory_entry& e : fs::directory_iterator(sc.dir)) {
    EXPECT_EQ(e.path().string().find(".tmp."), std::string::npos)
        << "leaked temp file: " << e.path();
  }
}

TEST(PlanStoreCrashSafety, Kill9DuringSaveStormNeverLosesLastGoodStore) {
  StoreScratch sc("rt_tune_kill9");
  // Seed a last-good generation so there is always something to lose.
  ASSERT_EQ(save_store(marked_store("seed"), sc.path), Status::kOk);

  // Five rounds: fork a child that rewrites the store as fast as it can,
  // SIGKILL it at a different point in its write loop each round, and
  // require that the survivors on disk still load — directly or via the
  // .bak fallback.  This is the acceptance test for the durability order:
  // data-fsync before rename, demote before promote.
  for (int round = 0; round < 5; ++round) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: alternate two generations forever; killed mid-flight.
      for (unsigned long long i = 0;; ++i) {
        (void)save_store(marked_store(i % 2 == 0 ? "even" : "odd"), sc.path);
      }
      _exit(0);  // unreachable
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20 + 7 * round));
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus));

    LoadInfo info;
    const auto r = load_store(sc.path, kFp, &info);
    ASSERT_TRUE(r.ok()) << "round " << round << ": " << r.detail()
                        << " (primary: " << info.primary_detail << ")";
    const std::string& origin = r.value().entries[0].origin;
    EXPECT_TRUE(origin == "seed" || origin == "even" || origin == "odd")
        << origin;
    // Leftover .tmp.<child-pid> files are expected debris of the kill —
    // prove they never shadow the store, then clear them for round+1.
    std::error_code ec;
    for (const fs::directory_entry& e : fs::directory_iterator(sc.dir)) {
      if (e.path().string().find(".tmp.") != std::string::npos) {
        fs::remove(e.path(), ec);
      }
    }
  }
}

TEST(PlanStoreTest, DefaultStorePathHonoursTheEnvOverride) {
  const char* old = std::getenv("RT_TUNE_STORE");
  const std::string saved = old != nullptr ? old : "";
  ::setenv("RT_TUNE_STORE", "/tmp/custom-plans.json", 1);
  EXPECT_EQ(default_store_path(), "/tmp/custom-plans.json");
  ::unsetenv("RT_TUNE_STORE");
  EXPECT_NE(default_store_path().find("plans.json"), std::string::npos);
  if (old != nullptr) ::setenv("RT_TUNE_STORE", saved.c_str(), 1);
}

TEST(PlanStoreTest, InstallPinsWinnersAheadOfTheModelSearch) {
  rt::core::PlanCache cache;  // private cache: no cross-test state
  const StencilSpec spec = StencilSpec::jacobi3d();

  // Without the store, the model search answers.
  const rt::core::PlanReport model =
      cache.plan(Transform::kGcdPad, 2048, 400, 400, spec, 30);
  EXPECT_EQ(model.detail.find("autotuned"), std::string::npos);
  ASSERT_NE(model.plan.tile, (rt::core::IterTile{64, 64}))
      << "model search must differ from the tuned winner for this test";
  cache.clear();

  EXPECT_EQ(install(sample_store(), cache), 2u);
  EXPECT_EQ(cache.pinned_size(), 2u);

  // The exact lookup the solvers make now serves the measured winner.
  const rt::core::PlanReport tuned =
      cache.plan(Transform::kGcdPad, 2048, 400, 400, spec, 30);
  EXPECT_EQ(tuned.status, Status::kOk);
  EXPECT_EQ(tuned.detail, "autotuned(tile*4)");
  EXPECT_EQ(tuned.plan.tile, (rt::core::IterTile{64, 64}));
  EXPECT_EQ(tuned.plan.dip, 408);
  EXPECT_EQ(cache.stats().pinned_hits, 1u);

  const rt::core::TemporalReport ttuned = cache.temporal(
      rt::core::TemporalMode::kSkew, 1 << 20, 200, 200, 200, 4, 0, 2, 1);
  EXPECT_EQ(ttuned.detail, "autotuned(bk*2)");
  EXPECT_EQ(ttuned.plan.bk, 32);
  EXPECT_EQ(cache.stats().pinned_hits, 2u);

  // A different shape still falls through to the model search.
  const rt::core::PlanReport other =
      cache.plan(Transform::kGcdPad, 2048, 200, 200, spec, 30);
  EXPECT_EQ(other.detail.find("autotuned"), std::string::npos);
}
