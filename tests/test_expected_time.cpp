// Tests for the exact expected-time evaluator: agreement with the
// Proposition-1 closed form, convergence to the second-order/first-order
// approximations as lambda -> 0, quadratic-form properties, and the
// Section-5 faulty-operation refinement.

#include "resilience/core/expected_time.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "resilience/core/first_order.hpp"
#include "resilience/core/platform.hpp"

namespace rc = resilience::core;

namespace {

rc::ModelParams hera_params() { return rc::hera().model_params(); }

/// O(m^2) evaluation of segment_quadratic_form via the explicit
/// A_ij = (1 + (1-r)^{|i-j|})/2 pair loop: the oracle the O(m) recurrence
/// is pinned against.
double segment_quadratic_form_reference(const std::vector<double>& beta,
                                        double recall) {
  const std::size_t m = beta.size();
  double value = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const auto distance = static_cast<double>(i > j ? i - j : j - i);
      const double a_ij = 0.5 * (1.0 + std::pow(1.0 - recall, distance));
      value += beta[i] * a_ij * beta[j];
    }
  }
  return value;
}

}  // namespace

TEST(EvaluatePattern, NoErrorsGivesDeterministicTime) {
  rc::ModelParams params = hera_params();
  params.rates = rc::ErrorRates{0.0, 0.0};
  const auto pattern = rc::make_pattern(rc::PatternKind::kDMV, 10000.0, 2, 3, 0.8);
  const auto result = rc::evaluate_pattern(pattern, params);
  // W + n(V* + C_M) + n(m-1)V + C_D exactly.
  const double expected = 10000.0 +
                          2.0 * (params.costs.guaranteed_verification +
                                 params.costs.memory_checkpoint) +
                          2.0 * 2.0 * params.costs.partial_verification +
                          params.costs.disk_checkpoint;
  EXPECT_NEAR(result.total, expected, 1e-9);
  EXPECT_NEAR(result.overhead, expected / 10000.0 - 1.0, 1e-12);
}

TEST(EvaluatePattern, MatchesProposition1ClosedForm) {
  const auto params = hera_params();
  for (const double work : {1000.0, 10000.0, 50000.0}) {
    const auto pattern = rc::make_pattern(rc::PatternKind::kD, work, 1, 1, 1.0);
    const auto recursive = rc::evaluate_pattern(pattern, params);
    const double closed = rc::evaluate_base_pattern_closed_form(work, params);
    EXPECT_NEAR(recursive.total, closed, closed * 1e-10) << "W = " << work;
  }
}

TEST(EvaluatePattern, ClosedFormHandlesZeroFailStop) {
  rc::ModelParams params = hera_params();
  params.rates.fail_stop = 0.0;
  const auto pattern = rc::make_pattern(rc::PatternKind::kD, 20000.0, 1, 1, 1.0);
  const auto recursive = rc::evaluate_pattern(pattern, params);
  const double closed = rc::evaluate_base_pattern_closed_form(20000.0, params);
  EXPECT_NEAR(recursive.total, closed, closed * 1e-10);
}

TEST(EvaluatePattern, SegmentExpectationsSumToTotal) {
  const auto params = hera_params();
  const auto pattern = rc::make_pattern(rc::PatternKind::kDMV, 30000.0, 3, 2, 0.8);
  const auto result = rc::evaluate_pattern(pattern, params);
  double sum = params.costs.disk_checkpoint;
  for (const double e : result.segment_expectations) {
    sum += e;
  }
  EXPECT_NEAR(result.total, sum, 1e-9);
  EXPECT_EQ(result.segment_expectations.size(), 3u);
}

TEST(EvaluatePattern, LaterSegmentsCostMore) {
  // A fail-stop in segment i re-executes segments 1..i-1, so E_i grows
  // with i for equal-size segments.
  const auto params = hera_params();
  const auto pattern = rc::make_pattern(rc::PatternKind::kDM, 40000.0, 4, 1, 1.0);
  const auto result = rc::evaluate_pattern(pattern, params);
  for (std::size_t i = 1; i < result.segment_expectations.size(); ++i) {
    EXPECT_GT(result.segment_expectations[i], result.segment_expectations[i - 1]);
  }
}

TEST(EvaluatePattern, MonotoneInErrorRates) {
  const auto pattern = rc::make_pattern(rc::PatternKind::kDMV, 20000.0, 2, 3, 0.8);
  rc::ModelParams params = hera_params();
  const double base = rc::evaluate_pattern(pattern, params).total;
  rc::ModelParams more_fail = params;
  more_fail.rates.fail_stop *= 2.0;
  EXPECT_GT(rc::evaluate_pattern(pattern, more_fail).total, base);
  rc::ModelParams more_silent = params;
  more_silent.rates.silent *= 2.0;
  EXPECT_GT(rc::evaluate_pattern(pattern, more_silent).total, base);
}

TEST(EvaluatePattern, HigherRecallHelps) {
  rc::ModelParams params = hera_params();
  const auto pattern = rc::make_pattern(rc::PatternKind::kDV, 20000.0, 1, 4, 0.8);
  params.costs.recall = 0.2;
  const double low = rc::evaluate_pattern(pattern, params).total;
  params.costs.recall = 0.95;
  const double high = rc::evaluate_pattern(pattern, params).total;
  EXPECT_LT(high, low);
}

TEST(EvaluatePattern, RejectsHopelesslyLongPatterns) {
  rc::ModelParams params = hera_params();
  params.rates.fail_stop = 1.0;  // one failure per second
  const auto pattern = rc::make_pattern(rc::PatternKind::kD, 1e7, 1, 1, 1.0);
  EXPECT_THROW(rc::evaluate_pattern(pattern, params), std::domain_error);
}

class ConvergenceTest : public ::testing::TestWithParam<rc::PatternKind> {};

TEST_P(ConvergenceTest, ExactApproachesFirstOrderAsLambdaShrinks) {
  // At the first-order optimal W, the exact overhead must converge to the
  // first-order overhead as rates scale down (Theorem 1's validity regime).
  const auto kind = GetParam();
  double previous_gap = std::numeric_limits<double>::infinity();
  for (const double scale : {1.0, 0.1, 0.01}) {
    rc::ModelParams params = hera_params();
    params.rates = params.rates.scaled(scale, scale);
    const auto solution = rc::solve_first_order(kind, params);
    const auto pattern = solution.to_pattern(params.costs.recall);
    const double exact = rc::evaluate_pattern(pattern, params).overhead;
    const double gap = std::fabs(exact - solution.overhead) / solution.overhead;
    EXPECT_LT(gap, previous_gap * 1.01) << "scale " << scale;
    previous_gap = gap;
  }
  // At 1% of nominal rates the first-order model is essentially exact.
  EXPECT_LT(previous_gap, 0.01);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ConvergenceTest,
                         ::testing::ValuesIn(rc::all_pattern_kinds()));

TEST(EvaluatePattern, ExactExceedsFirstOrderAtNominalRates) {
  // The first-order prediction ignores positive higher-order terms, so it
  // is optimistic (the paper observes exactly this in Figure 6a).
  const auto params = hera_params();
  for (const auto kind : rc::all_pattern_kinds()) {
    const auto solution = rc::solve_first_order(kind, params);
    const auto pattern = solution.to_pattern(params.costs.recall);
    const double exact = rc::evaluate_pattern(pattern, params).overhead;
    EXPECT_GT(exact, solution.overhead * 0.999) << rc::pattern_name(kind);
  }
}

TEST(SecondOrder, MatchesExactForModerateRates) {
  const auto params = hera_params();
  const auto pattern = rc::make_pattern(rc::PatternKind::kDMV, 20000.0, 2, 3, 0.8);
  const double exact = rc::evaluate_pattern(pattern, params).total;
  const double second = rc::evaluate_pattern_second_order(pattern, params);
  EXPECT_NEAR(second, exact, exact * 0.01);
}

TEST(QuadraticForm, SingleChunkIsOne) {
  EXPECT_NEAR(rc::segment_quadratic_form({1.0}, 0.8), 1.0, 1e-12);
}

TEST(QuadraticForm, PerfectRecallEqualChunks) {
  // r = 1: A = (I + ones)/2 so beta^T A beta = (1 + 1/m)/2 at equal chunks.
  for (const std::size_t m : {2u, 4u, 8u}) {
    const std::vector<double> beta(m, 1.0 / static_cast<double>(m));
    EXPECT_NEAR(rc::segment_quadratic_form(beta, 1.0),
                0.5 * (1.0 + 1.0 / static_cast<double>(m)), 1e-12);
  }
}

TEST(QuadraticForm, OptimalFractionsAchieveTheoreticalMinimum) {
  // f* = (1 + (2-r)/((m-2)r + 2)) / 2 at the Eq. (18) fractions.
  for (const double r : {0.3, 0.8, 1.0}) {
    for (const std::size_t m : {2u, 3u, 6u}) {
      const auto beta = rc::optimal_chunk_fractions(m, r);
      const double expected =
          0.5 * (1.0 + (2.0 - r) / ((static_cast<double>(m) - 2.0) * r + 2.0));
      EXPECT_NEAR(rc::segment_quadratic_form(beta, r), expected, 1e-10)
          << "m=" << m << " r=" << r;
    }
  }
}

TEST(QuadraticForm, OptimalBeatsEqualChunksWithPartialRecall) {
  const std::size_t m = 5;
  const double r = 0.6;
  const std::vector<double> equal(m, 0.2);
  const auto optimal = rc::optimal_chunk_fractions(m, r);
  EXPECT_LT(rc::segment_quadratic_form(optimal, r),
            rc::segment_quadratic_form(equal, r));
}

TEST(QuadraticForm, RejectsBadInput) {
  EXPECT_THROW((void)rc::segment_quadratic_form({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)rc::segment_quadratic_form({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW((void)rc::segment_quadratic_form({1.0}, 1.5), std::invalid_argument);
}

TEST(QuadraticForm, RecurrenceMatchesPairLoopReference) {
  // The O(m) geometric recurrence must pin the old O(m^2) pow pair-loop
  // exactly, up to accumulation-order rounding (~1 ulp per term summed).
  // Recall spans the contract's (0, 1] range: 1e-3 exercises the q -> 1
  // limit that replaces the issue's (invalid) recall 0 corner, which the
  // RejectsBadInput test above keeps rejecting.
  for (const double recall : {1e-3, 0.5, 0.8, 1.0}) {
    for (const std::size_t m : {1u, 2u, 3u, 5u, 17u, 64u, 128u, 256u}) {
      // Eq. (18) fractions — the vectors the evaluator actually feeds in.
      const auto beta = rc::optimal_chunk_fractions(m, recall);
      const double fast = rc::segment_quadratic_form(beta, recall);
      const double reference = segment_quadratic_form_reference(beta, recall);
      EXPECT_NEAR(fast, reference,
                  reference * 1e-13 * static_cast<double>(m) + 1e-15)
          << "m=" << m << " r=" << recall;

      // And an uneven deterministic vector, so the symmetry of the optimal
      // fractions cannot mask an index bug.
      std::vector<double> uneven(m);
      double sum = 0.0;
      for (std::size_t j = 0; j < m; ++j) {
        uneven[j] = 1.0 + static_cast<double>((j * 2654435761u) % 97) / 97.0;
        sum += uneven[j];
      }
      for (double& b : uneven) {
        b /= sum;
      }
      const double fast_uneven = rc::segment_quadratic_form(uneven, recall);
      const double reference_uneven =
          segment_quadratic_form_reference(uneven, recall);
      EXPECT_NEAR(fast_uneven, reference_uneven,
                  reference_uneven * 1e-13 * static_cast<double>(m) + 1e-15)
          << "m=" << m << " r=" << recall;
    }
  }
}

TEST(ExactEvaluator, BoundProbesMatchOneShotEvaluation) {
  // bind once, probe many W: every probe must equal the one-shot
  // evaluate_pattern on the equivalent pattern, bit for bit — the fused
  // optimizer path depends on this equivalence.
  const auto params = hera_params();
  for (const auto kind : rc::all_pattern_kinds()) {
    rc::ExactEvaluator evaluator(params);
    evaluator.bind_canonical(kind, 3, 4);
    for (const double work : {2000.0, 10000.0, 30000.0, 90000.0}) {
      const auto& probed = evaluator.evaluate_at(work);
      const auto one_shot = rc::evaluate_pattern(
          rc::make_pattern(kind, work, 3, 4, params.costs.recall), params);
      EXPECT_EQ(probed.total, one_shot.total) << rc::pattern_name(kind);
      EXPECT_EQ(probed.overhead, one_shot.overhead) << rc::pattern_name(kind);
      ASSERT_EQ(probed.segment_expectations.size(),
                one_shot.segment_expectations.size());
      for (std::size_t i = 0; i < probed.segment_expectations.size(); ++i) {
        EXPECT_EQ(probed.segment_expectations[i],
                  one_shot.segment_expectations[i])
            << rc::pattern_name(kind) << " segment " << i;
      }
    }
  }
}

TEST(ExactEvaluator, ScratchReuseAcrossShapesAndParams) {
  // One evaluator re-bound across different shapes and re-targeted across
  // different parameter sets must agree with fresh evaluators — the arenas
  // may not leak state between evaluations.
  const auto hera = hera_params();
  const auto atlas = rc::atlas().model_params();
  rc::ExactEvaluator evaluator(hera);
  const auto big = rc::make_pattern(rc::PatternKind::kDMV, 40000.0, 5, 6, 0.8);
  const auto small = rc::make_pattern(rc::PatternKind::kDV, 9000.0, 1, 2, 0.8);
  const double big_total = evaluator.evaluate(big).total;
  const double small_total = evaluator.evaluate(small).total;
  EXPECT_EQ(big_total, rc::evaluate_pattern(big, hera).total);
  EXPECT_EQ(small_total, rc::evaluate_pattern(small, hera).total);
  // Re-binding the big shape after the small one must restore the result.
  EXPECT_EQ(evaluator.evaluate(big).total, big_total);

  evaluator.reset(atlas);
  EXPECT_EQ(evaluator.evaluate(big).total, rc::evaluate_pattern(big, atlas).total);
}

TEST(ExactEvaluator, FaultyOperationOptionsMatchOneShot) {
  const auto params = hera_params();
  rc::EvaluationOptions options;
  options.faulty_operations = true;
  options.faulty_verifications = true;
  const auto pattern = rc::make_pattern(rc::PatternKind::kDMV, 25000.0, 3, 3, 0.8);
  rc::ExactEvaluator evaluator(params, options);
  EXPECT_EQ(evaluator.evaluate(pattern).total,
            rc::evaluate_pattern(pattern, params, options).total);
}

TEST(OperationCosts, MatchIndependentEquation30To33Oracle) {
  // expected_operation_costs now delegates to the evaluator's hoisted
  // invariants, so pin it against the Eqs. (30)-(33) chain written out
  // independently: E = pf (T_lost + extra + E) + (1 - pf) raw.
  const auto params = hera_params();
  const double lf = params.rates.fail_stop;
  const auto oracle = [&](double raw, double extra) {
    const double pf = rc::error_probability(lf, raw);
    const double lost = rc::expected_time_lost(lf, raw);
    return (pf * (lost + extra) + (1.0 - pf) * raw) / (1.0 - pf);
  };
  for (const double reexecution : {0.0, 1e3, 3e4}) {
    const auto costs = rc::expected_operation_costs(params, reexecution);
    const double rd = oracle(params.costs.disk_recovery, 0.0);
    const double rm = oracle(params.costs.memory_recovery, rd + reexecution);
    const double cm = oracle(params.costs.memory_checkpoint, rd + rm + reexecution);
    const double cd =
        oracle(params.costs.disk_checkpoint, rd + rm + reexecution + cm);
    EXPECT_DOUBLE_EQ(costs.disk_recovery, rd) << "T_rec " << reexecution;
    EXPECT_DOUBLE_EQ(costs.memory_recovery, rm) << "T_rec " << reexecution;
    EXPECT_DOUBLE_EQ(costs.memory_checkpoint, cm) << "T_rec " << reexecution;
    EXPECT_DOUBLE_EQ(costs.disk_checkpoint, cd) << "T_rec " << reexecution;
  }
}

TEST(ExactEvaluator, RequiresBoundShape) {
  rc::ExactEvaluator evaluator(hera_params());
  EXPECT_THROW((void)evaluator.evaluate_at(1000.0), std::logic_error);
  evaluator.bind_canonical(rc::PatternKind::kD, 1, 1);
  EXPECT_NO_THROW((void)evaluator.evaluate_at(1000.0));
  // reset() invalidates the binding along with the parameters.
  evaluator.reset(hera_params());
  EXPECT_THROW((void)evaluator.evaluate_at(1000.0), std::logic_error);
  EXPECT_THROW((void)evaluator.evaluate_at(0.0), std::logic_error);
}

TEST(OperationCosts, ReduceToRawCostsWithoutFailStop) {
  rc::ModelParams params = hera_params();
  params.rates.fail_stop = 0.0;
  const auto costs = rc::expected_operation_costs(params, 1e4);
  EXPECT_NEAR(costs.disk_checkpoint, params.costs.disk_checkpoint, 1e-9);
  EXPECT_NEAR(costs.memory_checkpoint, params.costs.memory_checkpoint, 1e-9);
  EXPECT_NEAR(costs.disk_recovery, params.costs.disk_recovery, 1e-9);
  EXPECT_NEAR(costs.memory_recovery, params.costs.memory_recovery, 1e-9);
}

TEST(OperationCosts, ExceedRawCostsUnderFailStop) {
  const auto params = hera_params();
  const auto costs = rc::expected_operation_costs(params, 3e4);
  EXPECT_GT(costs.disk_checkpoint, params.costs.disk_checkpoint);
  EXPECT_GT(costs.memory_checkpoint, params.costs.memory_checkpoint);
  EXPECT_GT(costs.disk_recovery, params.costs.disk_recovery);
  EXPECT_GT(costs.memory_recovery, params.costs.memory_recovery);
  // ... but only by O(lambda * cost): the Section-5 conclusion that raw
  // costs dominate for large MTBF.
  EXPECT_LT(costs.disk_checkpoint, params.costs.disk_checkpoint * 1.05);
}

TEST(FaultyOperations, RefinementIncreasesExpectedTimeSlightly) {
  const auto params = hera_params();
  const auto solution = rc::solve_first_order(rc::PatternKind::kDMV, params);
  const auto pattern = solution.to_pattern(params.costs.recall);
  const double plain = rc::evaluate_pattern(pattern, params).total;
  rc::EvaluationOptions options;
  options.faulty_operations = true;
  const double refined = rc::evaluate_pattern(pattern, params, options).total;
  EXPECT_GT(refined, plain);
  // Section 5: the refinement is a lower-order correction.
  EXPECT_LT(refined, plain * 1.02);
}

TEST(FaultyVerifications, WidenTheFailureWindowSlightly) {
  const auto params = hera_params();
  const auto pattern = rc::make_pattern(rc::PatternKind::kDVg, 20000.0, 1, 4, 1.0);
  const double plain = rc::evaluate_pattern(pattern, params).total;
  rc::EvaluationOptions options;
  options.faulty_verifications = true;
  const double widened = rc::evaluate_pattern(pattern, params, options).total;
  EXPECT_GT(widened, plain);
  EXPECT_LT(widened, plain * 1.01);
}
