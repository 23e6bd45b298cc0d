#pragma once
// Red-black SOR in 3D (paper Fig. 12): one colour over a Box, run colour
// by colour under a plan (untiled: the paper's naive two-pass version);
// the fused version that updates black points in plane K as soon as red
// points in plane K+1 are done; and the tiled fused version with the
// skewed J/I windows from the paper.  The skewed nest is a different
// algorithm, not a schedule over the colour body, so a tiled plan picks
// it rather than walking colour blocks.
//
// Colors: "red" = (i+j+k) even, "black" = odd (0-based; label choice only
// affects naming, not behaviour).  All variants compute bitwise identical
// results — the tests assert it.  Every variant also comes with a
// per-point constant term (SOR with a right-hand side: u <- c1 u +
// c2 sum(neighbours) + rhs); rhs == 0 reduces exactly to the plain kernels.

#include <algorithm>

#include "rt/kernels/schedule.hpp"

namespace rt::kernels {

/// One red-black update of a single point.
template <class Acc>
inline void rb_update(Acc& a, long i, long j, long k, double c1, double c2) {
  a.store(i, j, k,
          c1 * a.load(i, j, k) +
              c2 * (a.load(i - 1, j, k) + a.load(i, j - 1, k) +
                    a.load(i + 1, j, k) + a.load(i, j + 1, k) +
                    a.load(i, j, k - 1) + a.load(i, j, k + 1)));
}

/// rb_update plus the constant term r(i, j, k).
template <class Acc, class Rhs>
inline void rb_update_rhs(Acc& a, Rhs& r, long i, long j, long k, double c1,
                          double c2) {
  a.store(i, j, k,
          c1 * a.load(i, j, k) +
              c2 * (a.load(i - 1, j, k) + a.load(i, j - 1, k) +
                    a.load(i + 1, j, k) + a.load(i, j + 1, k) +
                    a.load(i, j, k - 1) + a.load(i, j, k + 1)) +
              r.load(i, j, k));
}

namespace detail {

/// First i >= lo with (i + j + k) % 2 == parity.
inline long first_with_parity(long lo, long j, long k, long parity) {
  return lo + (((lo + j + k) ^ parity) & 1);
}

/// upd(i, j, k) for every point of colour @p parity in @p x, K/J/I order.
template <class Update>
void colour_walk(const Box& x, long parity, Update&& upd) {
  for (long k = x.klo; k < x.khi; ++k) {
    for (long j = x.jlo; j < x.jhi; ++j) {
      for (long i = first_with_parity(x.ilo, j, k, parity); i < x.ihi;
           i += 2) {
        upd(i, j, k);
      }
    }
  }
}

/// The paper's tiled fused nest (Fig. 12 bottom) over an n1 x n2 x n3
/// grid: the J/I windows are skewed by (k - kk) so a tile's red plane
/// leads its black plane by one K step; the array tile then spans four
/// planes (ATD = 4).  A tile with an extent below 1 runs the flat colour
/// walk, as a degenerate tile does on every other path.
template <class Update>
void skewed_tiles(long n1, long n2, long n3, IterTile t, Update&& upd) {
  if (t.ti < 1 || t.tj < 1) {
    for (long parity = 0; parity < 2; ++parity) {
      colour_walk(Box{1, n1 - 1, 1, n2 - 1, 1, n3 - 1}, parity, upd);
    }
    return;
  }
  for (long jj = 0; jj <= n2 - 2; jj += t.tj) {
    for (long ii = 0; ii <= n1 - 2; ii += t.ti) {
      for (long kk = 0; kk <= n3 - 2; ++kk) {
        for (long k = kk + 1; k >= kk; --k) {
          if (k < 1 || k > n3 - 2) continue;
          const long d = k - kk;  // skew: 0 or 1
          const long parity = (d == 1) ? 0 : 1;
          const long jlo = std::max(jj + d, 1L);
          const long jhi = std::min(jj + d + t.tj - 1, n2 - 2);
          const long ihi = std::min(ii + d + t.ti - 1, n1 - 2);
          for (long j = jlo; j <= jhi; ++j) {
            long i = first_with_parity(ii + d, j, k, parity);
            if (i < 1) i += 2;  // paper's "if (IStart.eq.1) IStart=3"
            for (; i <= ihi; i += 2) upd(i, j, k);
          }
        }
      }
    }
  }
}

}  // namespace detail

/// One colour ((i+j+k) % 2 == parity) of red-black SOR over box @p x.
template <class Acc>
void redblack_colour(Acc& a, double c1, double c2, long parity,
                     const Box& x) {
  detail::colour_walk(x, parity, [&](long i, long j, long k) {
    rb_update(a, i, j, k, c1, c2);
  });
}

/// One colour of red-black SOR with the constant term @p r over box @p x.
template <class Acc, class Rhs>
void redblack_rhs_colour(Acc& a, Rhs& r, double c1, double c2, long parity,
                         const Box& x) {
  detail::colour_walk(x, parity, [&](long i, long j, long k) {
    rb_update_rhs(a, r, i, j, k, c1, c2);
  });
}

/// Tiled fused version (paper Fig. 12 bottom).
template <class Acc>
void redblack_tiled(Acc& a, double c1, double c2, IterTile t) {
  detail::skewed_tiles(a.n1(), a.n2(), a.n3(), t, [&](long i, long j, long k) {
    rb_update(a, i, j, k, c1, c2);
  });
}

/// redblack_tiled with the constant term @p r.
template <class Acc, class Rhs>
void redblack_tiled_rhs(Acc& a, Rhs& r, double c1, double c2, IterTile t) {
  detail::skewed_tiles(a.n1(), a.n2(), a.n3(), t, [&](long i, long j, long k) {
    rb_update_rhs(a, r, i, j, k, c1, c2);
  });
}

/// Both colours under @p plan.  A tiled (non-recursive) plan runs the
/// paper's skewed nest; otherwise every red block runs before any black
/// one, each colour's blocks walked in schedule order (same-colour points
/// never neighbour each other, so block order cannot change an update).
template <class Acc>
void redblack(Acc& a, double c1, double c2, const TilingPlan& plan = {}) {
  if (plan.tiled && plan.schedule != LoopSchedule::kRecursive) {
    redblack_tiled(a, c1, c2, plan.tile);
    return;
  }
  for (long parity = 0; parity < 2; ++parity) {
    for_each_block(plan, interior_of(a), [&](const Box& x) {
      redblack_colour(a, c1, c2, parity, x);
    });
  }
}

/// redblack with the constant term @p r.
template <class Acc, class Rhs>
void redblack_rhs(Acc& a, Rhs& r, double c1, double c2,
                  const TilingPlan& plan = {}) {
  if (plan.tiled && plan.schedule != LoopSchedule::kRecursive) {
    redblack_tiled_rhs(a, r, c1, c2, plan.tile);
    return;
  }
  for (long parity = 0; parity < 2; ++parity) {
    for_each_block(plan, interior_of(a), [&](const Box& x) {
      redblack_rhs_colour(a, r, c1, c2, parity, x);
    });
  }
}

/// Fused version (paper Fig. 12 middle): per outer step kk, update red
/// points of plane kk+1 then black points of plane kk, so only three array
/// planes need stay in cache.
template <class Acc>
void redblack_fused(Acc& a, double c1, double c2) {
  const long n1 = a.n1(), n2 = a.n2(), n3 = a.n3();
  for (long kk = 0; kk <= n3 - 2; ++kk) {
    for (long k = kk + 1; k >= kk; --k) {
      if (k < 1 || k > n3 - 2) continue;
      const long parity = (k == kk + 1) ? 0 : 1;  // red first, then black
      redblack_colour(a, c1, c2, parity, Box{1, n1 - 1, 1, n2 - 1, k, k + 1});
    }
  }
}

}  // namespace rt::kernels
