#pragma once

// Exact expected execution time of an arbitrary pattern, solving the
// recursive expectations of Propositions 1-4 (Eqs. (2), (17), (23)) in
// closed linear form rather than truncating at first order. The evaluator
// is the reference the first-order formulas and the Monte Carlo simulator
// are both validated against:
//
//   first-order H*  --(lambda -> 0)-->  exact H  <--(runs -> inf)--  simulated H.
//
// The workhorse is the ExactEvaluator class below: it separates the
// expensive, work-independent setup (pattern shape, distinct chunk
// classes, operation-cost invariants, scratch buffers) from the cheap
// W-dependent part, so a golden-section search probing many W values for
// one pattern shape pays no allocation and only a handful of expm1 calls
// per probe. The evaluate_pattern() free function is a thin one-shot
// wrapper kept as the simple API.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "resilience/core/params.hpp"
#include "resilience/core/pattern.hpp"

namespace resilience::core {

/// Evaluation options.
struct EvaluationOptions {
  /// When true, fail-stop errors may also strike the verification attached
  /// to each chunk (Section 5: the chunk failure window becomes w + V).
  bool faulty_verifications = false;
  /// When true, replaces the raw checkpoint/recovery costs by their
  /// fail-stop-aware expectations (Eqs. (30)-(33)), solved by fixed-point
  /// iteration on the pattern re-execution time T_rec.
  bool faulty_operations = false;
};

/// Result of an exact evaluation.
struct ExpectedTime {
  double total = 0.0;            ///< E(P), seconds
  double overhead = 0.0;         ///< H(P) = E(P)/W - 1
  std::vector<double> segment_expectations;  ///< E_i per segment
};

/// Fail-stop-aware expected costs of the resilience operations
/// (Section 5, Eqs. (30)-(33)).
struct OperationCosts {
  double disk_checkpoint = 0.0;
  double memory_checkpoint = 0.0;
  double disk_recovery = 0.0;
  double memory_recovery = 0.0;
};

/// Reusable exact evaluator. Typical optimizer/sweep usage:
///
///   ExactEvaluator evaluator(params, options);
///   evaluator.bind_canonical(kind, n, m);     // allocates once
///   for (probe W : golden section)
///     double h = evaluator.overhead_at(W);    // allocation-free
///
/// bind() hoists everything that does not depend on the total work W:
/// the flattened (work fraction, verification cost) layout, the distinct
/// chunk classes (a canonical pattern has at most a few distinct chunk
/// shapes, so per-probe expm1 work collapses from O(n*m) to O(#classes)),
/// the identical-segment grouping (equal segments are analyzed once), and
/// the fail-stop invariants of the Section-5 operation-cost fixed point.
class ExactEvaluator {
 public:
  explicit ExactEvaluator(const ModelParams& params,
                          const EvaluationOptions& options = {});

  /// Re-targets the evaluator to new parameters. Keeps the scratch arenas
  /// but invalidates any bound shape (bind again before evaluating).
  void reset(const ModelParams& params, const EvaluationOptions& options = {});

  /// Binds the pattern's shape: segment/chunk fractions and verification
  /// layout. All allocation happens here; subsequent *_at() probes reuse
  /// the arenas. The pattern's own work value is not retained — pass the
  /// work of interest to evaluate_at()/overhead_at().
  void bind(const PatternSpec& pattern);

  /// Binds the canonical (kind, n, m) pattern of a family (equal segments,
  /// Eq. (18) chunk fractions, recall from the bound parameters).
  void bind_canonical(PatternKind kind, std::size_t segments_n,
                      std::size_t chunks_m);

  /// Exact evaluation of the bound shape at total work `work`. The
  /// returned reference points into the evaluator and is overwritten by
  /// the next evaluation. Throws std::domain_error when a segment success
  /// probability underflows and std::logic_error when no shape is bound.
  const ExpectedTime& evaluate_at(double work);

  /// H(P) at `work` for the bound shape (shorthand for evaluate_at).
  double overhead_at(double work) { return evaluate_at(work).overhead; }

  /// One-shot: bind + evaluate at the pattern's own work.
  const ExpectedTime& evaluate(const PatternSpec& pattern);

  /// Last evaluation result (valid after a successful evaluate call).
  [[nodiscard]] const ExpectedTime& result() const noexcept { return result_; }

  /// Fail-stop-aware expected operation costs (Eqs. (30)-(33)) at the
  /// given re-execution estimate, solved from the invariants hoisted at
  /// reset(). The expected_operation_costs free function delegates here so
  /// the four-equation dependency chain exists exactly once.
  [[nodiscard]] OperationCosts operation_costs(double reexecution_time) const;

  [[nodiscard]] const ModelParams& params() const noexcept { return params_; }
  [[nodiscard]] const EvaluationOptions& options() const noexcept {
    return options_;
  }

 private:
  /// One distinct (work fraction, verification cost) chunk shape. The
  /// W-dependent fields are refreshed once per probe.
  struct ChunkClass {
    double fraction = 0.0;    ///< alpha_i * beta_ij
    double verif_cost = 0.0;  ///< V (intermediate) or V* (segment-final)
    // Per-probe values:
    double work = 0.0;            ///< fraction * W
    double fail_probability = 0.0;
    double silent_probability = 0.0;
    double expected_lost = 0.0;   ///< truncated fail-stop loss in the window
  };

  /// Per-segment attempt statistics needed by the linear solve of Eq. (23).
  struct SegmentAttempt {
    double success_probability = 0.0;   ///< no fail-stop AND no silent error
    double fail_stop_probability = 0.0; ///< some chunk interrupted
    double expected_attempt_time = 0.0; ///< chunk work/verifs + truncated losses
  };

  struct BoundSegment {
    std::size_t first_chunk = 0;     ///< index into chunk_class_of_
    std::size_t chunk_count = 0;
    std::size_t representative = 0;  ///< first segment with identical shape
  };

  /// Hoisted fail-stop statistics of one resilience operation's raw cost
  /// (Section 5): probability of a strike within the operation window and
  /// the expected truncated loss. Both depend only on (lambda_f, raw cost).
  struct OperationInvariant {
    double raw = 0.0;
    double fail_probability = 0.0;
    double expected_lost = 0.0;
  };

  void hoist_operation_invariants();
  [[nodiscard]] SegmentAttempt analyze_segment(const BoundSegment& segment) const;

  /// Solves E = pf (T_lost + extra + E) + (1 - pf) raw for E (Section 5).
  [[nodiscard]] static double solve_operation(const OperationInvariant& op,
                                              double extra_on_failure);

  ModelParams params_;
  EvaluationOptions options_;
  double recall_ = 1.0;             ///< intermediate-verification recall
  bool shape_bound_ = false;

  OperationInvariant op_disk_checkpoint_;
  OperationInvariant op_memory_checkpoint_;
  OperationInvariant op_disk_recovery_;
  OperationInvariant op_memory_recovery_;

  std::vector<ChunkClass> classes_;
  std::vector<std::uint32_t> chunk_class_of_;  ///< flattened chunk -> class
  std::vector<BoundSegment> segments_;
  std::vector<SegmentAttempt> attempts_;       ///< scratch, one per segment
  ExpectedTime result_;
};

/// Exact E(P) and H(P) for a fully specified pattern (one-shot wrapper
/// around ExactEvaluator).
[[nodiscard]] ExpectedTime evaluate_pattern(const PatternSpec& pattern,
                                            const ModelParams& params,
                                            const EvaluationOptions& options = {});

/// Closed-form exact E(P) for the base pattern P_D (single segment, single
/// chunk) as derived in the proof of Proposition 1; used to cross-check the
/// general recursive evaluator.
[[nodiscard]] double evaluate_base_pattern_closed_form(double work,
                                                       const ModelParams& params);

/// Second-order approximate E(P) of Propositions 1-4:
///   E(P) ~= W + oef + (lambda_s * sum_i beta_i^T A beta_i alpha_i^2 +
///           lambda_f/2) W^2  (+ first-order recovery terms for P_D).
/// Exposed so tests can check exact -> approximate convergence as
/// lambda -> 0.
[[nodiscard]] double evaluate_pattern_second_order(const PatternSpec& pattern,
                                                   const ModelParams& params);

/// The quadratic form beta^T A^(m) beta of Proposition 3, with
/// A_ij = (1 + (1-r)^{|i-j|}) / 2. This is the silent-error re-execution
/// fraction of one segment; minimized by the Eq. (18) chunk sizes.
/// Evaluated in O(m) through the geometric recurrence
///   t_j = (t_{j-1} + beta_{j-1}) (1-r),  t_0 = 0,
///   beta^T A beta = (S^2 + sum_j beta_j (beta_j + 2 t_j)) / 2,  S = sum beta.
[[nodiscard]] double segment_quadratic_form(const std::vector<double>& beta,
                                            double recall);

/// Expected costs of Eqs. (30)-(33) given an estimate of the pattern
/// re-execution time T_rec.
[[nodiscard]] OperationCosts expected_operation_costs(const ModelParams& params,
                                                      double reexecution_time);

}  // namespace resilience::core
