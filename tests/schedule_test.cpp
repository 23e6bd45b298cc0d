// The block walker (rt/kernels/schedule.hpp): every schedule covers every
// interior point exactly once, for random shapes and tiles (ragged edges,
// tiles larger than the interior, interiors not starting at 1); tiled
// blocks come jj-outer / ii-inner and recursive blocks in the bisection's
// leaf order; a degenerate tile or an untiled plan gives one flat block;
// an empty interior gives no calls; and the executor's serial path walks
// exactly the same blocks.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/kernels/schedule.hpp"
#include "rt/simd/execute.hpp"

namespace rt::kernels {
namespace {

using Blocks = std::vector<std::vector<long>>;

TilingPlan plan_of(LoopSchedule s, IterTile t) {
  TilingPlan p = tiled_plan(t);
  p.schedule = s;
  return p;
}

Blocks walk(const TilingPlan& plan, const Box& in) {
  Blocks seen;
  for_each_block(plan, in, [&](const Box& x) {
    seen.push_back({x.ilo, x.ihi, x.jlo, x.jhi, x.klo, x.khi});
  });
  return seen;
}

TEST(ForEachBlock, EveryScheduleCoversEachPointExactlyOnce) {
  std::mt19937 rng(20260);
  const auto in = [&](long lo, long hi) {
    return std::uniform_int_distribution<long>(lo, hi)(rng);
  };
  for (int round = 0; round < 300; ++round) {
    const long ilo = in(0, 3), jlo = in(0, 3), klo = in(0, 2);
    const Box box{ilo, ilo + in(1, 40), jlo, jlo + in(1, 40), klo,
                  klo + in(1, 4)};
    // Tiles from 1x1 to well past the interior in either dimension.
    const IterTile t{in(1, 50), in(1, 50)};
    for (const LoopSchedule s : {LoopSchedule::kFlat, LoopSchedule::kTiled,
                                 LoopSchedule::kRecursive}) {
      const long ni = box.ihi - box.ilo, nj = box.jhi - box.jlo;
      std::vector<int> hits(static_cast<std::size_t>(ni * nj), 0);
      for_each_block(plan_of(s, t), box, [&](const Box& x) {
        ASSERT_FALSE(x.empty());
        ASSERT_GE(x.ilo, box.ilo);
        ASSERT_LE(x.ihi, box.ihi);
        ASSERT_GE(x.jlo, box.jlo);
        ASSERT_LE(x.jhi, box.jhi);
        // K is never tiled.
        ASSERT_EQ(x.klo, box.klo);
        ASSERT_EQ(x.khi, box.khi);
        // Blocks never exceed the tile (the base tile, when recursive).
        ASSERT_LE(x.ihi - x.ilo, t.ti);
        ASSERT_LE(x.jhi - x.jlo, t.tj);
        for (long j = x.jlo; j < x.jhi; ++j) {
          for (long i = x.ilo; i < x.ihi; ++i) {
            ++hits[static_cast<std::size_t>((j - box.jlo) * ni + i - box.ilo)];
          }
        }
      });
      for (const int h : hits) {
        ASSERT_EQ(h, 1) << "round " << round << " schedule "
                        << rt::core::schedule_name(s) << " tile " << t.ti
                        << "x" << t.tj;
      }
    }
  }
}

TEST(ForEachBlock, TiledBlocksComeJjOuterIiInner) {
  // Interior 7 x 5 x 3 in tiles of 3 x 2: clipped edge tiles, full K.
  const Blocks want = {
      {1, 4, 1, 3, 1, 4}, {4, 7, 1, 3, 1, 4}, {7, 8, 1, 3, 1, 4},
      {1, 4, 3, 5, 1, 4}, {4, 7, 3, 5, 1, 4}, {7, 8, 3, 5, 1, 4},
      {1, 4, 5, 6, 1, 4}, {4, 7, 5, 6, 1, 4}, {7, 8, 5, 6, 1, 4}};
  EXPECT_EQ(walk(plan_of(LoopSchedule::kTiled, {3, 2}), Box{1, 8, 1, 6, 1, 4}),
            want);
  // Outside the recursive schedule, `tiled` alone selects the tile walk:
  // hand-built plans often set only `tiled` and `tile`.
  EXPECT_EQ(walk(plan_of(LoopSchedule::kFlat, {3, 2}), Box{1, 8, 1, 6, 1, 4}),
            want);
}

TEST(ForEachBlock, RecursiveBlocksComeInBisectionLeafOrder) {
  // Interior 7 x 5 over a 2 x 2 base: bisect whichever extent overshoots
  // its base by the larger factor (I on ties), lower half first.
  const Blocks want = {
      {1, 2, 1, 3, 1, 2}, {2, 4, 1, 3, 1, 2}, {1, 2, 3, 4, 1, 2},
      {1, 2, 4, 6, 1, 2}, {2, 4, 3, 4, 1, 2}, {2, 4, 4, 6, 1, 2},
      {4, 6, 1, 3, 1, 2}, {6, 8, 1, 3, 1, 2}, {4, 6, 3, 4, 1, 2},
      {4, 6, 4, 6, 1, 2}, {6, 8, 3, 4, 1, 2}, {6, 8, 4, 6, 1, 2}};
  EXPECT_EQ(
      walk(plan_of(LoopSchedule::kRecursive, {2, 2}), Box{1, 8, 1, 6, 1, 2}),
      want);
  // A base tile covering the interior is one leaf.
  EXPECT_EQ(walk(plan_of(LoopSchedule::kRecursive, {7, 9}),
                 Box{1, 8, 1, 6, 1, 2}),
            (Blocks{{1, 8, 1, 6, 1, 2}}));
}

TEST(ForEachBlock, DegenerateTileOrUntiledPlanIsOneFlatBlock) {
  const Box box{1, 12, 1, 9, 1, 5};
  const Blocks flat = {{1, 12, 1, 9, 1, 5}};
  for (const IterTile t : {IterTile{0, 8}, IterTile{8, 0}, IterTile{0, 0},
                           IterTile{-1, 3}, IterTile{3, -1}}) {
    for (const LoopSchedule s : {LoopSchedule::kTiled,
                                 LoopSchedule::kRecursive}) {
      EXPECT_EQ(walk(plan_of(s, t), box), flat)
          << rt::core::schedule_name(s) << " " << t.ti << "x" << t.tj;
    }
  }
  TilingPlan untiled = plan_of(LoopSchedule::kRecursive, {2, 2});
  untiled.tiled = false;
  EXPECT_EQ(walk(untiled, box), flat);
  EXPECT_EQ(walk(TilingPlan{}, box), flat);
}

TEST(ForEachBlock, EmptyInteriorCallsNothing) {
  for (const Box& box : {Box{1, 1, 1, 9, 1, 5}, Box{1, 9, 4, 4, 1, 5},
                         Box{1, 9, 1, 9, 3, 3}, Box{5, 2, 1, 9, 1, 5}}) {
    for (const TilingPlan& p :
         {TilingPlan{}, plan_of(LoopSchedule::kTiled, {2, 2}),
          plan_of(LoopSchedule::kRecursive, {2, 2})}) {
      EXPECT_TRUE(walk(p, box).empty());
    }
  }
  // A grid of fewer than 3 points in a dimension has no interior.
  EXPECT_TRUE(interior_of(rt::array::Array3D<double>(2, 9, 9)).empty());
}

TEST(ForEachBlock, ExecutorSerialPathWalksTheSameBlocks) {
  const rt::array::Array3D<double> g(23, 17, 6);
  for (const TilingPlan& p :
       {TilingPlan{}, plan_of(LoopSchedule::kTiled, {5, 4}),
        plan_of(LoopSchedule::kRecursive, {5, 4}),
        plan_of(LoopSchedule::kTiled, {0, 4})}) {
    Blocks seen;
    rt::simd::execute({nullptr, rt::simd::SimdLevel::kRows}, p, g,
                      [&](const Box& x) {
                        seen.push_back(
                            {x.ilo, x.ihi, x.jlo, x.jhi, x.klo, x.khi});
                      });
    EXPECT_EQ(seen, walk(p, interior_of(g)))
        << rt::core::schedule_name(p.schedule);
  }
}

}  // namespace
}  // namespace rt::kernels
