#include "resilience/core/expected_time.hpp"

#include <cmath>
#include <stdexcept>

namespace resilience::core {

// --------------------------------------------------------- ExactEvaluator --

ExactEvaluator::ExactEvaluator(const ModelParams& params,
                               const EvaluationOptions& options) {
  reset(params, options);
}

void ExactEvaluator::reset(const ModelParams& params,
                           const EvaluationOptions& options) {
  params.validate();
  params_ = params;
  options_ = options;
  shape_bound_ = false;
  hoist_operation_invariants();
}

void ExactEvaluator::hoist_operation_invariants() {
  const double lambda_f = params_.rates.fail_stop;
  const auto invariant = [&](double raw) {
    OperationInvariant op;
    op.raw = raw;
    op.fail_probability = error_probability(lambda_f, raw);
    op.expected_lost = expected_time_lost(lambda_f, raw);
    return op;
  };
  op_disk_checkpoint_ = invariant(params_.costs.disk_checkpoint);
  op_memory_checkpoint_ = invariant(params_.costs.memory_checkpoint);
  op_disk_recovery_ = invariant(params_.costs.disk_recovery);
  op_memory_recovery_ = invariant(params_.costs.memory_recovery);
}

double ExactEvaluator::solve_operation(const OperationInvariant& op,
                                       double extra_on_failure) {
  const double pf = op.fail_probability;
  if (pf >= 1.0) {
    throw std::domain_error(
        "operation_costs: resilience operation never completes (its duration "
        "saturates the fail-stop window)");
  }
  return (pf * (op.expected_lost + extra_on_failure) + (1.0 - pf) * op.raw) /
         (1.0 - pf);
}

OperationCosts ExactEvaluator::operation_costs(double reexecution) const {
  OperationCosts out;
  // Eq. (30): disk recovery retries by itself.
  out.disk_recovery = solve_operation(op_disk_recovery_, 0.0);
  // Eq. (31): memory recovery failure forces a disk recovery plus a pattern
  // re-execution before retrying.
  out.memory_recovery =
      solve_operation(op_memory_recovery_, out.disk_recovery + reexecution);
  // Eq. (33): memory checkpoint failure: recover both levels, re-execute.
  out.memory_checkpoint = solve_operation(
      op_memory_checkpoint_,
      out.disk_recovery + out.memory_recovery + reexecution);
  // Eq. (32): disk checkpoint failure additionally re-takes the memory
  // checkpoint before retrying.
  out.disk_checkpoint = solve_operation(
      op_disk_checkpoint_, out.disk_recovery + out.memory_recovery + reexecution +
                               out.memory_checkpoint);
  return out;
}

void ExactEvaluator::bind(const PatternSpec& pattern) {
  // P_DV*/P_DMV* patterns interleave guaranteed verifications (cost V*,
  // recall 1) between chunks instead of partial ones.
  const double intermediate_cost = pattern.guaranteed_intermediates()
                                       ? params_.costs.guaranteed_verification
                                       : params_.costs.partial_verification;
  recall_ = pattern.guaranteed_intermediates() ? 1.0 : params_.costs.recall;

  classes_.clear();
  chunk_class_of_.clear();
  segments_.clear();

  const std::size_t n = pattern.segment_count();
  for (std::size_t i = 0; i < n; ++i) {
    const SegmentSpec& spec = pattern.segment(i);
    const std::size_t m = spec.chunks();
    BoundSegment segment;
    segment.first_chunk = chunk_class_of_.size();
    segment.chunk_count = m;
    segment.representative = i;
    for (std::size_t j = 0; j < m; ++j) {
      const double fraction = spec.alpha * spec.beta[j];
      const double verif_cost = (j + 1 == m)
                                    ? params_.costs.guaranteed_verification
                                    : intermediate_cost;
      // Canonical patterns collapse to a handful of classes, making the
      // linear dedup scan cheap. Heterogeneous patterns (irregular
      // optimizer) produce a distinct class per chunk; once the class
      // table outgrows the dedup payoff, append without scanning so bind
      // stays O(n*m) instead of O((n*m)^2).
      constexpr std::size_t kMaxDedupClasses = 16;
      std::uint32_t cls = static_cast<std::uint32_t>(classes_.size());
      if (classes_.size() <= kMaxDedupClasses) {
        for (cls = 0; cls < classes_.size(); ++cls) {
          if (classes_[cls].fraction == fraction &&
              classes_[cls].verif_cost == verif_cost) {
            break;
          }
        }
      }
      if (cls == classes_.size()) {
        ChunkClass fresh;
        fresh.fraction = fraction;
        fresh.verif_cost = verif_cost;
        classes_.push_back(fresh);
      }
      chunk_class_of_.push_back(cls);
    }
    // Identical-segment grouping: a segment whose class sequence matches an
    // earlier representative reuses that segment's attempt statistics. The
    // canonical patterns have n equal segments, collapsing the per-probe
    // chain walk from O(n*m) to O(m).
    for (std::size_t k = 0; k < i; ++k) {
      const BoundSegment& other = segments_[k];
      if (other.representative != k || other.chunk_count != m) {
        continue;
      }
      bool same = true;
      for (std::size_t j = 0; j < m; ++j) {
        if (chunk_class_of_[other.first_chunk + j] !=
            chunk_class_of_[segment.first_chunk + j]) {
          same = false;
          break;
        }
      }
      if (same) {
        segment.representative = k;
        break;
      }
    }
    segments_.push_back(segment);
  }

  attempts_.assign(n, SegmentAttempt{});
  result_.segment_expectations.assign(n, 0.0);
  shape_bound_ = true;
}

void ExactEvaluator::bind_canonical(PatternKind kind, std::size_t segments_n,
                                    std::size_t chunks_m) {
  // The fractions of the canonical pattern do not depend on W; bind at a
  // placeholder work of 1 and probe real W values through evaluate_at().
  bind(make_pattern(kind, 1.0, segments_n, chunks_m, params_.costs.recall));
}

ExactEvaluator::SegmentAttempt ExactEvaluator::analyze_segment(
    const BoundSegment& segment) const {
  // `q_j`, the probability that chunk j actually runs within the attempt,
  // follows the paper's detection-chain expression: no fail-stop before j,
  // and either no silent error so far or every partial verification since
  // the (first) silent error missed it, each independently with
  // probability (1 - r).
  SegmentAttempt attempt;

  double no_fail_prefix = 1.0;    // prod_{k<j} (1 - pf_k)
  double no_silent_prefix = 1.0;  // prod_{k<j} (1 - ps_k)
  double missed_probability = 0.0;  // g_j: silent occurred, all verifs missed

  double success = 1.0;
  for (std::size_t j = 0; j < segment.chunk_count; ++j) {
    const ChunkClass& cls =
        classes_[chunk_class_of_[segment.first_chunk + j]];
    const double q = no_fail_prefix * (no_silent_prefix + missed_probability);

    attempt.fail_stop_probability += q * cls.fail_probability;
    attempt.expected_attempt_time +=
        q * (cls.fail_probability * cls.expected_lost +
             (1.0 - cls.fail_probability) * (cls.work + cls.verif_cost));
    success *= (1.0 - cls.fail_probability) * (1.0 - cls.silent_probability);

    // Advance the chain past chunk j's verification: previously missed
    // corruption survives with probability (1 - r); a fresh silent error in
    // chunk j joins the missed pool with probability ps * (1 - r). The
    // final guaranteed verification never misses, but the chain value past
    // the last chunk is unused, so updating unconditionally is harmless.
    missed_probability =
        (missed_probability + no_silent_prefix * cls.silent_probability) *
        (1.0 - recall_);
    no_silent_prefix *= (1.0 - cls.silent_probability);
    no_fail_prefix *= (1.0 - cls.fail_probability);
  }
  attempt.success_probability = success;
  return attempt;
}

const ExpectedTime& ExactEvaluator::evaluate_at(double work) {
  if (!shape_bound_) {
    throw std::logic_error("ExactEvaluator: no pattern shape bound");
  }
  if (!(work > 0.0) || !std::isfinite(work)) {
    throw std::domain_error("ExactEvaluator: work must be positive and finite");
  }

  // W-dependent chunk statistics, once per distinct chunk class.
  const double lambda_f = params_.rates.fail_stop;
  const double lambda_s = params_.rates.silent;
  for (ChunkClass& cls : classes_) {
    cls.work = cls.fraction * work;
    const double fail_window =
        options_.faulty_verifications ? cls.work + cls.verif_cost : cls.work;
    cls.fail_probability = error_probability(lambda_f, fail_window);
    cls.silent_probability = error_probability(lambda_s, cls.work);
    cls.expected_lost = expected_time_lost(lambda_f, fail_window);
  }

  // Attempt statistics per representative segment; duplicates copy. These
  // depend only on rates and verification costs, never on the effective
  // checkpoint/recovery costs, so they stay fixed across the Section-5
  // fixed-point rounds below.
  const std::size_t n = segments_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const BoundSegment& segment = segments_[i];
    if (segment.representative == i) {
      attempts_[i] = analyze_segment(segment);
      if (!(attempts_[i].success_probability > 0.0)) {
        throw std::domain_error(
            "evaluate_pattern: segment success probability underflows; the "
            "pattern is far too long for these error rates");
      }
    } else {
      attempts_[i] = attempts_[segment.representative];
    }
  }

  // Fixed-point on T_rec when Section-5 operation faults are enabled: start
  // from the raw costs, evaluate, plug E(P) in as the re-execution bound,
  // re-evaluate. Converges in a couple of iterations because the
  // correction is O(lambda * T_rec).
  const int refinement_rounds = options_.faulty_operations ? 4 : 1;
  double reexecution_estimate = 0.0;
  for (int round = 0; round < refinement_rounds; ++round) {
    OperationCosts costs{params_.costs.disk_checkpoint,
                         params_.costs.memory_checkpoint,
                         params_.costs.disk_recovery,
                         params_.costs.memory_recovery};
    if (options_.faulty_operations && round > 0) {
      costs = operation_costs(reexecution_estimate);
    }

    // Linear solve of Eq. (23):
    //   E_i = A_i + Pf_i (R_D + sum_{k<i} E_k)
    //       + (1 - P_succ)(R_M + E_i) + P_succ C_M.
    double prefix_sum = 0.0;  // sum_{k<i} E_k
    for (std::size_t i = 0; i < n; ++i) {
      const SegmentAttempt& attempt = attempts_[i];
      const double numerator =
          attempt.expected_attempt_time +
          attempt.fail_stop_probability * (costs.disk_recovery + prefix_sum) +
          (1.0 - attempt.success_probability) * costs.memory_recovery +
          attempt.success_probability * costs.memory_checkpoint;
      const double e_i = numerator / attempt.success_probability;
      result_.segment_expectations[i] = e_i;
      prefix_sum += e_i;
    }
    result_.total = prefix_sum + costs.disk_checkpoint;
    result_.overhead = result_.total / work - 1.0;
    reexecution_estimate = result_.total;
  }
  return result_;
}

const ExpectedTime& ExactEvaluator::evaluate(const PatternSpec& pattern) {
  bind(pattern);
  return evaluate_at(pattern.work());
}

// ----------------------------------------------------------- free helpers --

ExpectedTime evaluate_pattern(const PatternSpec& pattern, const ModelParams& params,
                              const EvaluationOptions& options) {
  ExactEvaluator evaluator(params, options);
  return evaluator.evaluate(pattern);
}

double evaluate_base_pattern_closed_form(double work, const ModelParams& params) {
  params.validate();
  const double lf = params.rates.fail_stop;
  const double ls = params.rates.silent;
  const CostParams& c = params.costs;

  // Proof of Proposition 1 (exact, before first-order truncation):
  //   E(P) = (e^{(lf+ls)W} - e^{ls W})/lf - W e^{ls W} + e^{ls W}(W + V*)
  //        + C_D + C_M + (e^{(lf+ls)W} - e^{ls W}) R_D
  //        + (e^{(lf+ls)W} - 1) R_M.
  // The lf -> 0 limit of the first term is W e^{ls W}; computing it as
  // e^{ls W} * expm1(lf W)/lf keeps that limit stable.
  const double exp_ls = std::exp(ls * work);
  const double fail_factor =
      lf > 0.0 ? exp_ls * std::expm1(lf * work) / lf : work * exp_ls;
  const double exp_both_minus_exp_ls = lf > 0.0 ? exp_ls * std::expm1(lf * work) : 0.0;
  const double exp_both_minus_one = std::expm1((lf + ls) * work);

  return fail_factor - work * exp_ls + exp_ls * (work + c.guaranteed_verification) +
         c.disk_checkpoint + c.memory_checkpoint +
         exp_both_minus_exp_ls * c.disk_recovery +
         exp_both_minus_one * c.memory_recovery;
}

double segment_quadratic_form(const std::vector<double>& beta, double recall) {
  if (beta.empty()) {
    throw std::invalid_argument("segment_quadratic_form: empty chunk vector");
  }
  if (!(recall > 0.0) || recall > 1.0) {
    throw std::invalid_argument("segment_quadratic_form: recall must be in (0, 1]");
  }
  // With q = 1 - r and S = sum_i beta_i,
  //   beta^T A beta = (S^2 + sum_{i,j} beta_i beta_j q^{|i-j|}) / 2,
  // and the decayed cross term folds into the O(m) recurrence
  //   t_j = (t_{j-1} + beta_{j-1}) q  =>  sum_j beta_j (beta_j + 2 t_j).
  const double q = 1.0 - recall;
  double total = 0.0;    // S
  double decayed = 0.0;  // t_j = sum_{i<j} beta_i q^{j-i}
  double cross = 0.0;    // sum_j beta_j (beta_j + 2 t_j)
  for (std::size_t j = 0; j < beta.size(); ++j) {
    if (j > 0) {
      decayed = (decayed + beta[j - 1]) * q;
    }
    cross += beta[j] * (beta[j] + 2.0 * decayed);
    total += beta[j];
  }
  return 0.5 * (total * total + cross);
}

double evaluate_pattern_second_order(const PatternSpec& pattern,
                                     const ModelParams& params) {
  params.validate();
  const CostParams& c = params.costs;
  const double w = pattern.work();

  const double intermediate_cost = pattern.guaranteed_intermediates()
                                       ? c.guaranteed_verification
                                       : c.partial_verification;
  const double recall = pattern.guaranteed_intermediates() ? 1.0 : c.recall;

  double error_free = c.disk_checkpoint;
  double silent_factor = 0.0;  // sum_i beta_i^T A beta_i * alpha_i^2
  for (std::size_t i = 0; i < pattern.segment_count(); ++i) {
    const auto& segment = pattern.segment(i);
    error_free += static_cast<double>(segment.chunks() - 1) * intermediate_cost +
                  c.guaranteed_verification + c.memory_checkpoint;
    silent_factor +=
        segment_quadratic_form(segment.beta, recall) * segment.alpha * segment.alpha;
  }
  // Proposition 4, Eq. (22).
  return w + error_free +
         (params.rates.silent * silent_factor + params.rates.fail_stop / 2.0) * w * w;
}

OperationCosts expected_operation_costs(const ModelParams& params,
                                        double reexecution_time) {
  return ExactEvaluator(params).operation_costs(reexecution_time);
}

}  // namespace resilience::core
