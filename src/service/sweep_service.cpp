#include "resilience/service/sweep_service.hpp"

#include <atomic>
#include <utility>
#include <vector>

namespace resilience::service {

namespace {

/// The SeedSource the runner consults on a seeded compute: per-chain
/// lookups against the cache's seed index (memory + verified disk).
/// Thread-safe — chains query it concurrently from the pool.
class CacheSeedSource final : public core::SeedSource {
 public:
  CacheSeedSource(SweepCache& cache, const core::SweepOptions& options)
      : cache_(cache), options_(options) {}

  std::vector<core::ChainSeed> seeds_for(
      const core::GridChain& chain) override {
    std::vector<core::ChainSeed> seeds = cache_.seeds_for(chain.key, options_);
    if (!seeds.empty()) {
      supplied_.fetch_add(1, std::memory_order_relaxed);
    }
    return seeds;
  }

  /// Number of chains that received at least one seed.
  [[nodiscard]] std::uint64_t supplied() const noexcept {
    return supplied_.load(std::memory_order_relaxed);
  }

 private:
  SweepCache& cache_;
  const core::SweepOptions& options_;
  std::atomic<std::uint64_t> supplied_{0};
};

}  // namespace

SweepService::SweepService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_dir),
      sim_(cache_, options_.sweep.pool) {}

SubmitResult SweepService::submit(const ScenarioRequest& request,
                                  core::CellSink* sink,
                                  core::CancelToken cancel) {
  core::SweepOptions sweep = options_.sweep;
  sweep.numeric_optimum = request.numeric_optimum;
  return submit_impl(request.grid, sweep, sink, request.reuse_seeds, cancel);
}

SubmitResult SweepService::submit(const core::ScenarioGrid& grid,
                                  core::CellSink* sink,
                                  core::CancelToken cancel) {
  return submit_impl(grid, options_.sweep, sink, /*reuse_seeds=*/true, cancel);
}

std::optional<SubmitResult> SweepService::submit_resident(
    const ScenarioRequest& request, core::GridSignature signature,
    core::CellSink* sink, const core::CancelToken& cancel) {
  const std::vector<core::ScenarioPoint> points =
      core::resolve_points(request.grid);
  const std::vector<core::PatternKind> kinds = request.grid.resolved_kinds();
  const auto matches = [&](const core::SweepTable& table) {
    return same_grid(table, points, kinds);
  };
  auto outcome = pipeline_.replay_resident(
      signature,
      [&] { return cache_.tables().find_resident(signature, matches); },
      [&](const core::SweepTable& table) {
        if (sink != nullptr) {
          replay_cells(table, cancel, [sink](const core::SweepCell& cell) {
            sink->on_cell(cell);
          });
        }
      });
  if (!outcome) {
    return std::nullopt;
  }
  submits_.fetch_add(1, std::memory_order_relaxed);
  return SubmitResult{std::move(*outcome), /*seeded=*/false};
}

core::GridSignature SweepService::signature_for(
    const ScenarioRequest& request) const {
  core::SweepOptions sweep = options_.sweep;
  sweep.numeric_optimum = request.numeric_optimum;
  return core::grid_signature(request.grid, sweep);
}

ServiceStats SweepService::stats() const {
  ServiceStats stats;
  stats.submits = submits_.load(std::memory_order_relaxed);
  stats.cache_hits = pipeline_.cache_hits();
  stats.disk_hits = pipeline_.disk_hits();
  stats.joined_in_flight = pipeline_.joins();
  stats.tables_computed = pipeline_.computed();
  stats.seeded_computes = seeded_computes_.load(std::memory_order_relaxed);
  stats.deadline_timeouts = pipeline_.deadline_timeouts();
  const auto tables = cache_.tables().counters();
  stats.cache_lookup_hits = tables.hits;
  stats.cache_lookup_misses = tables.misses;
  stats.seed_hits = cache_.seed_hits();
  stats.disk_loads = tables.disk_loads;
  stats.disk_rejects = tables.disk_rejects;
  stats.cache_size = tables.size;
  stats.cache_capacity = cache_.tables().capacity();
  sim_.add_to(stats);
  return stats;
}

SubmitResult SweepService::submit_impl(const core::ScenarioGrid& grid,
                                       const core::SweepOptions& sweep,
                                       core::CellSink* sink, bool reuse_seeds,
                                       const core::CancelToken& cancel) {
  submits_.fetch_add(1, std::memory_order_relaxed);
  // One resolve serves validation, the signature and collision checks.
  const std::vector<core::ScenarioPoint> points = core::resolve_points(grid);
  const std::vector<core::PatternKind> kinds = grid.resolved_kinds();
  const core::GridSignature signature =
      core::grid_signature(points, kinds, sweep);

  // Cross-grid seeding only helps numeric sweeps; the sweep options the
  // seed source verifies disk loads against must be the signature's (no
  // seed_source field set, so the key/signature derivations agree).
  const bool seeds_enabled =
      reuse_seeds && options_.reuse_seeds && sweep.numeric_optimum;
  CacheSeedSource seed_source(cache_, sweep);

  const auto outcome = pipeline_.submit(
      signature, cancel,
      SubmitSteps{
          .find = [&](bool* disk_hit) {
            return cache_.find(signature, sweep, disk_hit);
          },
          .matches = [&](const core::SweepTable& table) {
            return same_grid(table, points, kinds);
          },
          .replay = [&](const core::SweepTable& table) {
            if (sink != nullptr) {
              replay_cells(table, cancel, [sink](const core::SweepCell& cell) {
                sink->on_cell(cell);
              });
            }
          },
          .compute = [&](bool leader) {
            core::SweepOptions run_options = sweep;
            // Explicitly null on cold computes: a caller may have parked
            // their own seed source on ServiceOptions.sweep, and
            // reuse_seeds=false (or a collision recompute) must mean
            // genuinely cold.
            run_options.seed_source =
                leader && seeds_enabled ? &seed_source : nullptr;
            run_options.cancel = cancel;
            const core::SweepRunner runner(run_options);
            return std::make_shared<const core::SweepTable>(
                sink != nullptr ? runner.run(grid, *sink) : runner.run(grid));
          },
          .publish = [&](const std::shared_ptr<const core::SweepTable>& table) {
            // Chains indexed so future related grids can seed from it.
            cache_.insert(signature, table, core::grid_chains(grid, sweep));
          },
      });

  const bool seeded = seed_source.supplied() > 0;
  if (seeded) {
    seeded_computes_.fetch_add(1, std::memory_order_relaxed);
  }
  return {outcome, seeded};
}

}  // namespace resilience::service
