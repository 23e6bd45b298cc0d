#include "rt/tune/candidates.hpp"

#include <algorithm>

namespace rt::tune {

namespace {

long clamp_tile(long t, long lo, long hi) {
  return std::max(lo, std::min(t, hi));
}

}  // namespace

std::vector<Candidate> spatial_candidates(const rt::core::TilingPlan& model,
                                          long di, long dj, long halo,
                                          std::size_t max_candidates) {
  std::vector<Candidate> out;
  if (di <= 0 || dj <= 0 || max_candidates == 0) return out;

  const long max_ti = std::max<long>(1, di - 2 * halo);
  const long max_tj = std::max<long>(1, dj - 2 * halo);

  const auto add = [&](rt::core::TilingPlan p, const std::string& origin) {
    if (out.size() >= max_candidates) return;
    // Clamp to a valid executable plan.
    p.dip = std::max(p.dip, di);
    p.djp = std::max(p.djp, dj);
    if (p.tiled) {
      p.tile.ti = clamp_tile(p.tile.ti, 1, max_ti);
      p.tile.tj = clamp_tile(p.tile.tj, 1, max_tj);
      // A tile covering the whole interior is just the untiled loop.
      if (p.tile.ti == max_ti && p.tile.tj == max_tj) p.tiled = false;
    }
    if (!p.tiled) {  // untiled plans are flat (never recursive on no tile)
      p.tile = {};
      p.schedule = rt::core::LoopSchedule::kFlat;
    }
    for (const Candidate& c : out) {
      if (c.plan.tiled == p.tiled && c.plan.tile == p.tile &&
          c.plan.dip == p.dip && c.plan.djp == p.djp) {
        return;  // duplicate shape: first origin wins
      }
    }
    out.push_back(Candidate{p, origin});
  };

  // The model plan is always candidate 0: the sweep measures it under the
  // identical protocol, so "autotuned >= model" holds by construction.
  add(model, "model");

  // Untiled baselines: tuning must be able to *undo* tiling when the model
  // overfits the direct-mapped assumption (prefetchers love long rows).
  rt::core::TilingPlan untiled = model;
  untiled.tiled = false;
  untiled.tile = {};
  untiled.dip = di;
  untiled.djp = dj;
  add(untiled, "untiled");
  if (model.dip != di || model.djp != dj) {
    rt::core::TilingPlan up = untiled;
    up.dip = model.dip;
    up.djp = model.djp;
    add(up, "untiled+pad");
  }

  // Tile-shape neighbourhood.  Associative caches hold conflict misses off
  // far larger tiles than the direct-mapped model admits, so the scaled-up
  // shapes are the likely winners on modern hosts.
  const long ti = model.tiled ? model.tile.ti : 0;
  const long tj = model.tiled ? model.tile.tj : 0;
  if (model.tiled) {
    const auto tile_variant = [&](long vti, long vtj, const char* origin) {
      rt::core::TilingPlan p = model;
      p.tile = rt::core::IterTile{vti, vtj};
      add(p, origin);
    };
    tile_variant(ti * 2, tj * 2, "tile*2");
    tile_variant(ti * 4, tj * 4, "tile*4");
    tile_variant(std::max<long>(1, ti / 2), std::max<long>(1, tj / 2),
                 "tile/2");
    tile_variant(ti * 2, tj, "ti*2");
    tile_variant(ti, tj * 2, "tj*2");
    tile_variant(ti, max_tj, "tj=max");  // full rows: unit-stride streaming
    tile_variant(max_ti, tj, "ti=max");
  } else {
    // Model says untiled: still probe a few square tiles so tuning can
    // *introduce* blocking where the model found nothing feasible.
    for (long t : {16L, 32L, 64L}) {
      rt::core::TilingPlan p = model;
      p.tiled = true;
      p.tile = rt::core::IterTile{t, t};
      add(p, "square" + std::to_string(t));
    }
  }

  // Padding neighbourhood: one cache line (8 doubles) more, and the classic
  // odd leading dimension (kills power-of-two set aliasing outright).
  {
    rt::core::TilingPlan p = model;
    p.dip = model.dip + 8;
    add(p, "pad+8");
  }
  {
    rt::core::TilingPlan p = model;
    p.djp = model.djp + 8;
    add(p, "padj+8");
  }
  if (model.dip % 2 == 0) {
    rt::core::TilingPlan p = model;
    p.dip = model.dip + 1;
    add(p, "pad:odd");
  }

  return out;
}

std::vector<Candidate> spatial_candidates(const rt::core::TilingPlan& model,
                                          long di, long dj, long halo,
                                          const rt::core::CacheGeom& geom,
                                          const rt::core::StencilSpec& spec,
                                          std::size_t max_candidates) {
  // Leave room for the two backend candidates: they are the point of this
  // overload, so the perturbation neighbourhood yields the last slots.
  const std::size_t base_max =
      max_candidates > 2 ? max_candidates - 2 : max_candidates;
  std::vector<Candidate> out =
      spatial_candidates(model, di, dj, halo, base_max);

  // The lattice/oblivious backends answer every tiling transform the same
  // way; ride the model's transform when it tiles, kTile otherwise.
  rt::core::Transform tr = model.transform;
  if (tr == rt::core::Transform::kOrig ||
      tr == rt::core::Transform::kGcdPadNT) {
    tr = rt::core::Transform::kTile;
  }
  const auto add_backend = [&](rt::core::Backend b, const char* origin) {
    if (out.size() >= max_candidates) return;
    const rt::core::PlanReport rep =
        rt::core::plan_with_backend(b, tr, geom, di, dj, spec, 0);
    if (!rep.ok()) return;  // degraded backend plans add nothing to race
    for (const Candidate& c : out) {
      // Schedule participates here: an oblivious plan with the same base
      // tile as a flat candidate still executes differently.
      if (c.plan.tiled == rep.plan.tiled && c.plan.tile == rep.plan.tile &&
          c.plan.dip == rep.plan.dip && c.plan.djp == rep.plan.djp &&
          c.plan.schedule == rep.plan.schedule) {
        return;
      }
    }
    out.push_back(Candidate{rep.plan, origin});
  };
  add_backend(rt::core::Backend::kLattice, "backend:lattice");
  add_backend(rt::core::Backend::kOblivious, "backend:oblivious");
  return out;
}

std::vector<TemporalCandidate> temporal_candidates(
    rt::core::TemporalMode mode, long cs, long n1, long n2, long n3,
    int tsteps, int threads, long halo, std::size_t max_candidates) {
  std::vector<TemporalCandidate> out;
  if (mode == rt::core::TemporalMode::kOff || max_candidates == 0) return out;

  const auto add = [&](long bk, const std::string& origin) {
    if (out.size() >= max_candidates) return;
    rt::core::TemporalReport rep = rt::core::temporal_plan_checked(
        mode, cs, n1, n2, n3, tsteps, bk, threads, halo);
    if (rep.status == rt::guard::Status::kInvalidArgument) return;
    for (const TemporalCandidate& c : out) {
      if (c.report.plan.bk == rep.plan.bk && c.report.plan.tb == rep.plan.tb) {
        return;
      }
    }
    out.push_back(TemporalCandidate{std::move(rep), origin});
  };

  // Auto-sized model plan first (the bk the planner would pick itself).
  add(0, "model");
  const long model_bk = out.empty() ? 0 : out.front().report.plan.bk;
  if (model_bk > 0) {
    add(std::max<long>(1, model_bk / 2), "bk/2");
    add(model_bk * 2, "bk*2");
    add(model_bk + 2 * halo, "bk+2h");
    add(std::max<long>(1, model_bk - 2 * halo), "bk-2h");
    add(model_bk * 4, "bk*4");
  }
  return out;
}

}  // namespace rt::tune
