#include "resilience/core/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "resilience/core/first_order.hpp"
#include "resilience/util/thread_pool.hpp"

namespace resilience::core {

namespace {

constexpr double kGoldenRatio = 0.6180339887498949;  // (sqrt(5) - 1) / 2

/// One lattice cell of the (n, m) search space.
struct Cell {
  std::size_t n = 1;
  std::size_t m = 1;

  [[nodiscard]] std::uint64_t key() const noexcept {
    return (static_cast<std::uint64_t>(n) << 32) | static_cast<std::uint64_t>(m);
  }
  bool operator==(const Cell& other) const noexcept {
    return n == other.n && m == other.m;
  }
};

/// Exact evaluation of one cell: inner golden-section search over W, then
/// the exact overhead at that optimum.
struct CellValue {
  double overhead = std::numeric_limits<double>::infinity();
  double work = 0.0;
};

/// Golden-section minimization over W with a bracket derived from `center`
/// (the cell's first-order W*): [center/50, 50*center] clamped to the
/// global [work_lo, work_hi]. H is unimodal in W and the first-order W* is
/// within a small factor of the true optimum in every regime we care about,
/// so the tight bracket is normally safe — and when it is not, the
/// minimizer lands on a tightened edge and the search re-runs on the full
/// bracket.
double bracketed_work_minimum(const std::function<double(double)>& objective,
                              double center, const OptimizerOptions& options) {
  double lo = options.work_lo;
  double hi = options.work_hi;
  if (std::isfinite(center) && center > 0.0) {
    const double tight_lo = std::max(options.work_lo, center / 50.0);
    const double tight_hi = std::min(options.work_hi, center * 50.0);
    if (tight_hi > tight_lo) {
      lo = tight_lo;
      hi = tight_hi;
    }
  }
  double work = golden_section_minimize(objective, lo, hi, options.work_tolerance);
  const double margin = 2.0 * options.work_tolerance;
  const bool pinned_lo = work - lo <= margin && lo > options.work_lo;
  const bool pinned_hi = hi - work <= margin && hi < options.work_hi;
  if (pinned_lo || pinned_hi) {
    work = golden_section_minimize(objective, options.work_lo, options.work_hi,
                                   options.work_tolerance);
  }
  return work;
}

/// Fused cell evaluation: bind the (kind, n, m) shape once, then probe W
/// through the allocation-free ExactEvaluator. One evaluator per worker
/// thread persists across cells, so re-binding reuses the arena capacity
/// instead of reallocating per cell.
CellValue evaluate_cell_fused(PatternKind kind, std::size_t n, std::size_t m,
                              const ModelParams& params,
                              const OptimizerOptions& options) {
  thread_local std::optional<ExactEvaluator> shared_evaluator;
  if (shared_evaluator.has_value()) {
    shared_evaluator->reset(params, options.evaluation);
  } else {
    shared_evaluator.emplace(params, options.evaluation);
  }
  ExactEvaluator& evaluator = *shared_evaluator;
  evaluator.bind_canonical(kind, n, m);
  const std::function<double(double)> objective = [&](double w) {
    try {
      return evaluator.overhead_at(w);
    } catch (const std::domain_error&) {
      return std::numeric_limits<double>::infinity();
    }
  };
  // The bracket center is always the cell's own first-order W*, never a
  // neighbor's W: a cell's (W, H) must be a pure function of
  // (kind, n, m, params, evaluation options) so that cold, chain-warm and
  // cross-grid-seeded searches all land on bit-identical values — the
  // identity the sweep cache's partial-result reuse is built on.
  const double center = overhead_coefficients(kind, params, n, m).optimal_work();
  CellValue value;
  value.work = bracketed_work_minimum(objective, center, options);
  value.overhead = objective(value.work);
  return value;
}

/// Memoized, pool-parallel evaluator of (n, m) cells. Cell evaluations are
/// pure functions of (kind, params, options), so concurrent evaluation and
/// memoization cannot change any value — only the wall-clock time.
class CellEvaluator {
 public:
  CellEvaluator(PatternKind kind, const ModelParams& params,
                const OptimizerOptions& options)
      : kind_(kind),
        params_(params),
        options_(options),
        pool_(options.pool != nullptr ? *options.pool : util::global_pool()) {}

  /// Evaluates every not-yet-memoized cell of `cells` across the pool (or
  /// inline under OptimizerOptions::serial_cells, which callers running
  /// inside pool tasks must set — parallel_for does not nest).
  void prefetch(const std::vector<Cell>& cells) {
    std::vector<Cell> fresh;
    fresh.reserve(cells.size());
    {
      const std::lock_guard lock(memo_mutex_);
      for (const Cell& cell : cells) {
        if (memo_.find(cell.key()) == memo_.end() &&
            std::find(fresh.begin(), fresh.end(), cell) == fresh.end()) {
          fresh.push_back(cell);
        }
      }
    }
    if (fresh.empty()) {
      return;
    }
    if (options_.serial_cells) {
      for (const Cell& cell : fresh) {
        const CellValue value = evaluate(cell);
        const std::lock_guard lock(memo_mutex_);
        memo_.emplace(cell.key(), value);
      }
      return;
    }
    pool_.parallel_for(
        fresh.size(),
        [&](std::size_t i) {
          const CellValue value = evaluate(fresh[i]);
          const std::lock_guard lock(memo_mutex_);
          memo_.emplace(fresh[i].key(), value);
        },
        /*grain=*/1);  // cells are expensive; one ticket each
  }

  /// Memoized lookup; evaluates inline on a miss. Returns by value so the
  /// result stays valid whatever later prefetches do to the table; every
  /// memo_ access takes the lock, so calling this concurrently with an
  /// in-flight prefetch is also safe (the sweep never needs to, but the
  /// invariant should not depend on that).
  CellValue value(const Cell& cell) {
    {
      const std::lock_guard lock(memo_mutex_);
      const auto it = memo_.find(cell.key());
      if (it != memo_.end()) {
        return it->second;
      }
    }
    const CellValue computed = evaluate(cell);
    const std::lock_guard lock(memo_mutex_);
    return memo_.emplace(cell.key(), computed).first->second;
  }

 private:
  CellValue evaluate(const Cell& cell) const {
    return evaluate_cell_fused(kind_, cell.n, cell.m, params_, options_);
  }

  PatternKind kind_;
  const ModelParams& params_;
  const OptimizerOptions& options_;
  util::ThreadPool& pool_;
  std::unordered_map<std::uint64_t, CellValue> memo_;
  std::mutex memo_mutex_;
};

}  // namespace

double golden_section_minimize(const std::function<double(double)>& f, double lo,
                               double hi, double tolerance) {
  if (!(hi > lo)) {
    throw std::invalid_argument("golden_section_minimize: empty bracket");
  }
  double a = lo;
  double b = hi;
  double x1 = b - kGoldenRatio * (b - a);
  double x2 = a + kGoldenRatio * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  while (b - a > tolerance) {
    if (f1 <= f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kGoldenRatio * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kGoldenRatio * (b - a);
      f2 = f(x2);
    }
  }
  return 0.5 * (a + b);
}

double optimize_work_length(PatternKind kind, std::size_t segments_n,
                            std::size_t chunks_m, const ModelParams& params,
                            const OptimizerOptions& options) {
  params.validate();
  return evaluate_cell_fused(kind, segments_n, chunks_m, params, options).work;
}

NumericSolution optimize_pattern(PatternKind kind, const ModelParams& params,
                                 const OptimizerOptions& options) {
  params.validate();

  const bool search_n = uses_memory_checkpoints(kind);
  const bool search_m = uses_intermediate_verifications(kind);

  // Seed the search, exhaustively scan the (n, m) window around the seed
  // across the pool, then hill-descend over the integer lattice from the
  // window's best cell. F(n, m) = oef * orw is jointly convex (paper,
  // Theorem 4), and the exact objective inherits unimodality in the
  // regimes of interest, so neighborhood descent from the scan winner finds
  // the lattice optimum — wherever the seed comes from. Every cell
  // evaluation is memoized, so the descent never re-runs the inner W search
  // for a cell the scan already covered. The seed is the first-order
  // closed-form solution unless the caller supplies a warm start (a grid
  // neighbor's optimum in SweepRunner).
  CellEvaluator evaluator(kind, params, options);

  const bool warm_seeded =
      options.seed_segments_n > 0 || options.seed_chunks_m > 0;
  std::size_t n = 1;
  std::size_t m = 1;
  if (warm_seeded) {
    n = search_n ? std::min(std::max<std::size_t>(options.seed_segments_n, 1),
                            options.max_segments)
                 : 1;
    m = search_m ? std::min(std::max<std::size_t>(options.seed_chunks_m, 1),
                            options.max_chunks)
                 : 1;
  } else if (search_n || search_m) {
    const FirstOrderSolution seed = solve_first_order(kind, params);
    n = search_n ? std::min(seed.segments_n, options.max_segments) : 1;
    m = search_m ? std::min(seed.chunks_m, options.max_chunks) : 1;
  }

  const auto dimension_window = [&](std::size_t center, std::size_t bound,
                                    bool searched) {
    std::vector<std::size_t> values;
    if (!searched) {
      values.push_back(1);
      return values;
    }
    const std::size_t lo =
        center > options.scan_radius ? center - options.scan_radius : 1;
    const std::size_t hi = std::min(bound, center + options.scan_radius);
    for (std::size_t v = lo; v <= hi; ++v) {
      values.push_back(v);
    }
    return values;
  };

  std::vector<Cell> window;
  for (const std::size_t wn : dimension_window(n, options.max_segments, search_n)) {
    for (const std::size_t wm : dimension_window(m, options.max_chunks, search_m)) {
      window.push_back({wn, wm});
    }
  }
  evaluator.prefetch(window);

  Cell best{n, m};
  CellValue best_value = evaluator.value(best);
  for (const Cell& cell : window) {
    const CellValue& value = evaluator.value(cell);
    if (value.overhead < best_value.overhead - 1e-12) {
      best = cell;
      best_value = value;
    }
  }

  bool improved = true;
  while (improved) {
    improved = false;
    std::vector<Cell> moves;
    if (search_n) {
      if (best.n + 1 <= options.max_segments) {
        moves.push_back({best.n + 1, best.m});
      }
      if (best.n > 1) {
        moves.push_back({best.n - 1, best.m});
      }
    }
    if (search_m) {
      if (best.m + 1 <= options.max_chunks) {
        moves.push_back({best.n, best.m + 1});
      }
      if (best.m > 1) {
        moves.push_back({best.n, best.m - 1});
      }
    }
    // All neighbors of the round evaluate concurrently; the winner is
    // picked deterministically (first improving move in declaration order
    // wins ties), so the pool size never changes the outcome.
    evaluator.prefetch(moves);
    for (const Cell& move : moves) {
      const CellValue& value = evaluator.value(move);
      if (value.overhead < best_value.overhead - 1e-12) {
        best = move;
        best_value = value;
        improved = true;
        break;  // greedy: re-expand the neighborhood from the new cell
      }
    }
  }

  return {make_pattern(kind, best_value.work, best.n, best.m, params.costs.recall),
          best_value.overhead, best.n, best.m};
}

std::vector<double> optimize_chunk_fractions_numeric(std::size_t chunks,
                                                     double recall,
                                                     std::size_t iterations) {
  if (chunks == 0) {
    throw std::invalid_argument("optimize_chunk_fractions_numeric: zero chunks");
  }
  if (chunks == 1) {
    return {1.0};
  }
  // Minimize beta^T A beta on the simplex by pairwise mass transfers: for a
  // quadratic objective, the optimal transfer between coordinates (i, j)
  // along e_i - e_j has the closed form below; cycling over all pairs is a
  // convergent coordinate descent on the simplex.
  const std::size_t m = chunks;
  std::vector<double> beta(m, 1.0 / static_cast<double>(m));
  std::vector<std::vector<double>> a(m, std::vector<double>(m));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const auto d = static_cast<double>(i > j ? i - j : j - i);
      a[i][j] = 0.5 * (1.0 + std::pow(1.0 - recall, d));
    }
  }
  const auto gradient = [&](std::size_t i) {
    double g = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      g += 2.0 * a[i][j] * beta[j];
    }
    return g;
  };
  for (std::size_t it = 0; it < iterations; ++it) {
    double max_change = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = i + 1; j < m; ++j) {
        // Objective restricted to beta + t (e_i - e_j) is quadratic with
        // curvature c = 2 (A_ii + A_jj - 2 A_ij) and slope g_i - g_j.
        const double curvature = 2.0 * (a[i][i] + a[j][j] - 2.0 * a[i][j]);
        if (curvature <= 0.0) {
          continue;
        }
        double t = -(gradient(i) - gradient(j)) / curvature;
        t = std::clamp(t, -beta[i], beta[j]);  // keep both coordinates >= 0
        beta[i] += t;
        beta[j] -= t;
        max_change = std::max(max_change, std::fabs(t));
      }
    }
    if (max_change < 1e-14) {
      break;
    }
  }
  return beta;
}

}  // namespace resilience::core
