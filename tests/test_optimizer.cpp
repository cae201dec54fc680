// Tests for the numeric optimizer: golden-section correctness, agreement
// with the first-order closed forms in the large-MTBF regime, and the
// numeric chunk-fraction optimizer reproducing Eq. (18).

#include "resilience/core/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "resilience/core/first_order.hpp"
#include "resilience/core/platform.hpp"
#include "resilience/util/thread_pool.hpp"

namespace rc = resilience::core;

TEST(GoldenSection, FindsParabolaMinimum) {
  const double x = rc::golden_section_minimize(
      [](double t) { return (t - 3.25) * (t - 3.25) + 1.0; }, 0.0, 10.0, 1e-8);
  EXPECT_NEAR(x, 3.25, 1e-6);
}

TEST(GoldenSection, FindsAsymmetricMinimum) {
  // f(w) = a/w + b*w has minimum at sqrt(a/b).
  const double a = 700.0;
  const double b = 3e-6;
  const double x = rc::golden_section_minimize(
      [&](double w) { return a / w + b * w; }, 1.0, 1e8, 1e-4);
  EXPECT_NEAR(x, std::sqrt(a / b), 1.0);
}

TEST(GoldenSection, RejectsEmptyBracket) {
  EXPECT_THROW(
      (void)rc::golden_section_minimize([](double t) { return t; }, 1.0, 1.0, 1e-3),
      std::invalid_argument);
}

TEST(OptimizeWorkLength, NearFirstOrderOptimumAtLowRates) {
  // When the MTBF is large, the exact optimum W coincides with the
  // first-order W* to within a fraction of a percent.
  rc::ModelParams params = rc::hera().model_params();
  params.rates = params.rates.scaled(0.05, 0.05);
  for (const auto kind : rc::all_pattern_kinds()) {
    const auto solution = rc::solve_first_order(kind, params);
    const double numeric = rc::optimize_work_length(kind, solution.segments_n,
                                                    solution.chunks_m, params);
    EXPECT_NEAR(numeric, solution.work, solution.work * 0.02)
        << rc::pattern_name(kind);
  }
}

TEST(OptimizeWorkLength, ShorterThanFirstOrderAtHighRates) {
  // With a small MTBF the exact model penalizes long patterns more than the
  // first-order model does, pushing the true optimum below W*.
  const auto params = rc::hera().scaled_to(100000).model_params();
  const auto solution = rc::solve_first_order(rc::PatternKind::kD, params);
  const double numeric = rc::optimize_work_length(rc::PatternKind::kD, 1, 1, params);
  EXPECT_LT(numeric, solution.work);
}

TEST(OptimizePattern, MatchesFirstOrderShapeAtNominalHera) {
  const auto params = rc::hera().model_params();
  for (const auto kind : rc::all_pattern_kinds()) {
    const auto first_order = rc::solve_first_order(kind, params);
    const auto numeric = rc::optimize_pattern(kind, params);
    // The integer shape may differ by one unit where F is flat; the exact
    // overhead of the numeric solution must be at least as good as the
    // exactly-evaluated first-order solution.
    const double first_order_exact =
        rc::evaluate_pattern(first_order.to_pattern(params.costs.recall), params)
            .overhead;
    EXPECT_LE(numeric.overhead, first_order_exact * (1.0 + 1e-9))
        << rc::pattern_name(kind);
  }
}

TEST(OptimizePattern, RespectsFamilyConstraints) {
  const auto params = rc::hera().model_params();
  const auto pd = rc::optimize_pattern(rc::PatternKind::kD, params);
  EXPECT_EQ(pd.segments_n, 1u);
  EXPECT_EQ(pd.chunks_m, 1u);
  const auto pdm = rc::optimize_pattern(rc::PatternKind::kDM, params);
  EXPECT_EQ(pdm.chunks_m, 1u);
  EXPECT_GT(pdm.segments_n, 1u);
  const auto pdv = rc::optimize_pattern(rc::PatternKind::kDV, params);
  EXPECT_EQ(pdv.segments_n, 1u);
  EXPECT_GT(pdv.chunks_m, 1u);
}

TEST(OptimizePattern, BeatsFirstOrderInHighErrorRegime) {
  // Weak-scaled Hera at 2^17 nodes: the first-order pattern is far from
  // optimal (Figure 7a divergence); the numeric optimizer must do better
  // when both are evaluated exactly.
  const auto params = rc::hera().scaled_to(1u << 17).model_params();
  const auto kind = rc::PatternKind::kDMV;
  const auto first_order = rc::solve_first_order(kind, params);
  const double first_order_exact =
      rc::evaluate_pattern(first_order.to_pattern(params.costs.recall), params)
          .overhead;
  const auto numeric = rc::optimize_pattern(kind, params);
  EXPECT_LT(numeric.overhead, first_order_exact);
}

TEST(NumericChunkFractions, ReproduceEquation18) {
  for (const double r : {0.4, 0.8}) {
    for (const std::size_t m : {2u, 3u, 5u, 8u}) {
      const auto closed = rc::optimal_chunk_fractions(m, r);
      const auto numeric = rc::optimize_chunk_fractions_numeric(m, r);
      ASSERT_EQ(numeric.size(), m);
      for (std::size_t j = 0; j < m; ++j) {
        EXPECT_NEAR(numeric[j], closed[j], 1e-6) << "m=" << m << " r=" << r
                                                 << " j=" << j;
      }
    }
  }
}

TEST(NumericChunkFractions, PerfectRecallGivesEqualChunks) {
  const auto numeric = rc::optimize_chunk_fractions_numeric(4, 1.0);
  for (const double b : numeric) {
    EXPECT_NEAR(b, 0.25, 1e-8);
  }
}

TEST(NumericChunkFractions, SingleChunkTrivial) {
  const auto numeric = rc::optimize_chunk_fractions_numeric(1, 0.5);
  ASSERT_EQ(numeric.size(), 1u);
  EXPECT_DOUBLE_EQ(numeric[0], 1.0);
}

TEST(OptimizePattern, ParallelSweepIsDeterministicAcrossPoolSizes) {
  // Cell evaluations are pure and memoized; the pool only changes wall
  // clock, never the solution.
  const auto params = rc::hera().model_params();
  resilience::util::ThreadPool one(1);
  resilience::util::ThreadPool four(4);
  for (const auto kind : {rc::PatternKind::kDMV, rc::PatternKind::kDM}) {
    rc::OptimizerOptions serial;
    serial.pool = &one;
    rc::OptimizerOptions parallel;
    parallel.pool = &four;
    const auto a = rc::optimize_pattern(kind, params, serial);
    const auto b = rc::optimize_pattern(kind, params, parallel);
    EXPECT_EQ(a.segments_n, b.segments_n) << rc::pattern_name(kind);
    EXPECT_EQ(a.chunks_m, b.chunks_m) << rc::pattern_name(kind);
    EXPECT_DOUBLE_EQ(a.overhead, b.overhead) << rc::pattern_name(kind);
    EXPECT_DOUBLE_EQ(a.pattern.work(), b.pattern.work()) << rc::pattern_name(kind);
  }
}

TEST(OptimizePattern, WiderScanWindowNeverWorsensTheSolution) {
  const auto params = rc::hera().scaled_to(1u << 16).model_params();
  rc::OptimizerOptions narrow;
  narrow.scan_radius = 0;
  rc::OptimizerOptions wide;
  wide.scan_radius = 4;
  const auto a = rc::optimize_pattern(rc::PatternKind::kDMV, params, narrow);
  const auto b = rc::optimize_pattern(rc::PatternKind::kDMV, params, wide);
  EXPECT_LE(b.overhead, a.overhead * (1.0 + 1e-9));
}

TEST(OptimizePattern, ChunkFractionRefinementDoesNotRegress) {
  // The optimizer trusts the Eq. (18) closed-form chunk fractions; the
  // same (n, m, W) with numerically refined fractions must not evaluate
  // better under the exact model.
  const auto params = rc::hera().model_params();
  const auto solution = rc::optimize_pattern(rc::PatternKind::kDMV, params);
  ASSERT_GT(solution.chunks_m, 1u);
  const std::vector<double> beta =
      rc::optimize_chunk_fractions_numeric(solution.chunks_m, params.costs.recall);
  std::vector<rc::SegmentSpec> segments(solution.segments_n);
  for (auto& segment : segments) {
    segment.alpha = 1.0 / static_cast<double>(solution.segments_n);
    segment.beta = beta;
  }
  const rc::PatternSpec refined(solution.pattern.work(), std::move(segments));
  EXPECT_LE(solution.overhead,
            rc::evaluate_pattern(refined, params).overhead * (1.0 + 1e-9));
}

TEST(OptimizeWorkLength, MinimizerIsInteriorToTheDerivedBracket) {
  // The exact optimum must sit strictly inside the [W*/50, 50 W*] bracket
  // derived from the first-order W* — the satellite contract behind the
  // tightened search.
  const auto params = rc::hera().model_params();
  for (const auto kind : rc::all_pattern_kinds()) {
    const auto solution = rc::solve_first_order(kind, params);
    const double numeric = rc::optimize_work_length(kind, solution.segments_n,
                                                    solution.chunks_m, params);
    EXPECT_GT(numeric, solution.work / 50.0 * 1.01) << rc::pattern_name(kind);
    EXPECT_LT(numeric, solution.work * 50.0 * 0.99) << rc::pattern_name(kind);
  }
}

TEST(OptimizePattern, WarmSeedMatchesColdSolution) {
  // Seeding the lattice search from a previous optimum (as SweepRunner
  // does along a chain) must land on the same solution as the first-order
  // cold start — bit-identically, now that cell values are canonical.
  const auto params = rc::hera().scaled_to(4096).model_params();
  for (const auto kind : {rc::PatternKind::kDMV, rc::PatternKind::kDM}) {
    const auto cold = rc::optimize_pattern(kind, params);
    rc::OptimizerOptions warm;
    warm.seed_segments_n = cold.segments_n;
    warm.seed_chunks_m = cold.chunks_m;
    warm.scan_radius = 1;
    const auto seeded = rc::optimize_pattern(kind, params, warm);
    EXPECT_EQ(seeded.segments_n, cold.segments_n) << rc::pattern_name(kind);
    EXPECT_EQ(seeded.chunks_m, cold.chunks_m) << rc::pattern_name(kind);
    EXPECT_EQ(seeded.overhead, cold.overhead) << rc::pattern_name(kind);
    EXPECT_EQ(seeded.pattern.work(), cold.pattern.work())
        << rc::pattern_name(kind);

    // Even a deliberately misplaced seed descends to the same optimum.
    rc::OptimizerOptions misplaced;
    misplaced.seed_segments_n = cold.segments_n + 6;
    misplaced.seed_chunks_m = cold.chunks_m > 3 ? cold.chunks_m - 3 : 1;
    misplaced.scan_radius = 1;
    const auto recovered = rc::optimize_pattern(kind, params, misplaced);
    EXPECT_EQ(recovered.segments_n, cold.segments_n) << rc::pattern_name(kind);
    EXPECT_EQ(recovered.chunks_m, cold.chunks_m) << rc::pattern_name(kind);
  }
}

TEST(OptimizePattern, SerialCellsMatchPooledCells) {
  const auto params = rc::hera().model_params();
  rc::OptimizerOptions serial;
  serial.serial_cells = true;
  const auto a = rc::optimize_pattern(rc::PatternKind::kDMV, params, serial);
  const auto b = rc::optimize_pattern(rc::PatternKind::kDMV, params);
  EXPECT_EQ(a.segments_n, b.segments_n);
  EXPECT_EQ(a.chunks_m, b.chunks_m);
  EXPECT_DOUBLE_EQ(a.overhead, b.overhead);
  EXPECT_DOUBLE_EQ(a.pattern.work(), b.pattern.work());
}
