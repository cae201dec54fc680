#pragma once

// Simulation-backed scenario service: serves "mode": "simulate" requests
// by running CI-bounded adaptive Monte Carlo (sim/adaptive.hpp) over the
// request's resolved grid, one campaign per (point, family, weibull_shape,
// faulty_ops) cell. Cells are computed — and streamed — SEQUENTIALLY in
// canonical table order while each cell's runs fan out across the shared
// executor pool, so the response stream is byte-identical at any pool
// size by construction (parallelism lives inside a cell, never across the
// emission order). Per-cell RNG streams are content-addressed
// (sim_cell_seed), so a router shard computing a slice of the grid emits
// the same cell bytes the whole grid would.
//
// Reuse: the shared reuse ladder (submit_pipeline.hpp) over the sim
// store of SweepCache — an identity hit (memory or the cache_dir disk
// tier) replays cells in table order, and concurrent identical submits
// join one in-flight leader. There is no seed tier: cross-request partial
// reuse of Monte Carlo runs has no analytic analogue of "bit-equal
// points".
//
// Cancellation/deadlines: the submit token is polled between run batches
// of every campaign (sim/adaptive.hpp check_cancel) — batches are the sim
// path's cell-granularity analogue — and a fired token unwinds with
// core::SweepCancelled; no partial table is published, and an expired
// deadline counts in the service's deadline_timeouts. A submission joined
// to an identical in-flight one polls its own token while it waits.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "resilience/core/cancel.hpp"
#include "resilience/service/scenario_request.hpp"
#include "resilience/service/sim_table.hpp"
#include "resilience/service/submit_pipeline.hpp"
#include "resilience/service/sweep_cache.hpp"

namespace resilience::util {
class ThreadPool;  // campaigns only carry a pointer; see thread_pool.hpp
}

namespace resilience::service {

struct ServiceStats;  // sweep_service.hpp

/// Outcome of one simulate submission.
using SimSubmitResult = SubmitOutcome<SimTable>;

/// Receives every finished cell exactly once, in canonical table order
/// (live on a compute, replayed on a cache hit or in-flight join).
using SimCellFn = std::function<void(const SimCell&)>;

class SimService {
 public:
  /// `cache` supplies the sim store; `pool` is the executor every
  /// campaign fans out on (null = global pool). Neither is owned; both
  /// must outlive the service.
  SimService(SweepCache& cache, util::ThreadPool* pool);

  /// Serves a parsed "mode": "simulate" request; throws
  /// std::invalid_argument if request.simulate is false and
  /// core::SweepCancelled when `cancel` fires mid-campaign. Safe to call
  /// from multiple threads (but not from inside a pool task).
  SimSubmitResult submit(const ScenarioRequest& request,
                         const SimCellFn& sink = nullptr,
                         core::CancelToken cancel = {});

  /// submit() confined to a memory-resident identity hit (see
  /// SweepService::submit_resident); `signature` is signature_for(request).
  std::optional<SimSubmitResult> submit_resident(
      const ScenarioRequest& request, core::GridSignature signature,
      const SimCellFn& sink, const core::CancelToken& cancel);

  /// The signature submit(request) will use.
  [[nodiscard]] core::GridSignature signature_for(
      const ScenarioRequest& request) const;

  // Monotonic counters (the stats.sim block).
  [[nodiscard]] std::uint64_t submits() const noexcept {
    return submits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t cache_hits() const noexcept {
    return pipeline_.cache_hits();
  }
  [[nodiscard]] std::uint64_t cells_computed() const noexcept {
    return cells_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t runs_executed() const noexcept {
    return runs_.load(std::memory_order_relaxed);
  }
  /// runs_executed over accumulated compute wall time; 0 before the
  /// first compute finishes.
  [[nodiscard]] double runs_per_second() const noexcept;
  /// Writes the stats.sim block into `stats` and adds this service's
  /// deadline expiries to stats.deadline_timeouts.
  void add_to(ServiceStats& stats) const;

 private:
  std::shared_ptr<const SimTable> compute(
      const std::vector<core::ScenarioPoint>& points,
      const std::vector<core::PatternKind>& kinds, const SimParams& sim_params,
      const SimCellFn& sink, const core::CancelToken& cancel);

  SweepCache& cache_;
  util::ThreadPool* pool_;
  SubmitPipeline<SimTable> pipeline_;
  std::atomic<std::uint64_t> submits_{0};
  std::atomic<std::uint64_t> cells_{0};
  std::atomic<std::uint64_t> runs_{0};
  std::atomic<std::uint64_t> early_stops_{0};
  std::atomic<std::uint64_t> compute_micros_{0};
};

}  // namespace resilience::service
