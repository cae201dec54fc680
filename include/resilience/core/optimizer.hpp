#pragma once

// Numeric pattern optimization on top of the exact evaluator — no
// first-order truncation. Used (1) to cross-validate the Table 1 closed
// forms in the large-MTBF regime, and (2) to produce genuinely optimal
// patterns when the MTBF is small and the first-order model degrades
// (the regime the paper's weak-scaling experiment exposes).

#include <cstddef>
#include <functional>

#include "resilience/core/expected_time.hpp"
#include "resilience/core/params.hpp"
#include "resilience/core/pattern.hpp"

namespace resilience::util {
class ThreadPool;  // the options only carry a pointer; see thread_pool.hpp
}

namespace resilience::core {

/// Search-space bounds for the numeric optimizer.
struct OptimizerOptions {
  std::size_t max_segments = 64;       ///< upper bound on n
  std::size_t max_chunks = 256;        ///< upper bound on m
  double work_lo = 1.0;                ///< seconds; global W search bracket
  double work_hi = 1e7;                ///< seconds
  double work_tolerance = 1e-3;        ///< absolute W tolerance (seconds)
  EvaluationOptions evaluation;        ///< exact-evaluator switches
  /// Half-width of the exhaustive (n, m) window scanned around the
  /// seed before the descent; the window cells and each descent round's
  /// neighbor moves are evaluated across the pool.
  std::size_t scan_radius = 2;
  /// Pool for the (n, m) sweep; nullptr means the global pool. Every cell
  /// evaluation is memoized, and the result is deterministic regardless of
  /// the pool size.
  util::ThreadPool* pool = nullptr;
  /// Warm-start seed for the (n, m) search (0 = derive from the
  /// first-order closed forms). Used by SweepRunner to start each grid
  /// point from its neighbor's optimum. The descent still converges to the
  /// lattice optimum; the seed only moves the starting window.
  std::size_t seed_segments_n = 0;
  std::size_t seed_chunks_m = 0;
  /// Evaluate (n, m) cells inline instead of fanning out across the pool.
  /// Required when the optimizer itself runs inside a pool task (the pool
  /// forbids nested parallel_for); SweepRunner sets this because it already
  /// parallelizes across grid points.
  bool serial_cells = false;
};

/// A numerically optimized pattern and its exact overhead.
struct NumericSolution {
  PatternSpec pattern;
  double overhead = 0.0;   ///< exact H(P) at the optimum
  std::size_t segments_n = 1;
  std::size_t chunks_m = 1;
};

/// Minimizes a unimodal function on [lo, hi] by golden-section search;
/// returns the minimizer (helper exposed for tests).
[[nodiscard]] double golden_section_minimize(const std::function<double(double)>& f,
                                             double lo, double hi, double tolerance);

/// Best work length W for a fixed pattern shape (n, m and chunk fractions),
/// minimizing the exact overhead.
[[nodiscard]] double optimize_work_length(PatternKind kind, std::size_t segments_n,
                                          std::size_t chunks_m,
                                          const ModelParams& params,
                                          const OptimizerOptions& options = {});

/// Full numeric optimization of one pattern family: exact-overhead search
/// over W (golden section) in every (n, m) cell of a scan window around the
/// seed (the first-order guess or a warm start), then neighborhood descent
/// over the (n, m) lattice from the window's best cell. Chunk fractions are
/// the Eq. (18) closed form.
[[nodiscard]] NumericSolution optimize_pattern(PatternKind kind,
                                               const ModelParams& params,
                                               const OptimizerOptions& options = {});

/// Numeric minimization of the segment quadratic form beta^T A beta over
/// the probability simplex (projected coordinate descent); converges to the
/// Eq. (18) fractions and is used to property-test them.
[[nodiscard]] std::vector<double> optimize_chunk_fractions_numeric(
    std::size_t chunks, double recall, std::size_t iterations = 2000);

}  // namespace resilience::core
