#include "resilience/service/sim_service.hpp"

#include <chrono>
#include <memory>
#include <stdexcept>
#include <utility>

#include "resilience/core/first_order.hpp"
#include "resilience/service/sweep_service.hpp"
#include "resilience/sim/adaptive.hpp"
#include "resilience/sim/renewal.hpp"

namespace resilience::service {

namespace {

/// The faulty-operations axis: scales the fail-stop exposure of
/// NON-computation operations (verifications, checkpoints, recoveries) by
/// a factor, leaving computation windows untouched. Implemented as a time
/// dilation at operation sites — the wrapped model samples a window of
/// factor * length and the outcome maps back — so the inner model's
/// renewal state stays consistent and a factor of 1 is the identity.
class OpsScaledModel final : public sim::ErrorModelBase {
 public:
  OpsScaledModel(std::unique_ptr<sim::ErrorModelBase> inner, double factor)
      : inner_(std::move(inner)), factor_(factor) {}

  [[nodiscard]] sim::FailStopOutcome sample_fail_stop(double length) override {
    return inner_->sample_fail_stop(length);
  }

  [[nodiscard]] sim::FailStopOutcome sample_fail_stop_op(
      double length) override {
    if (factor_ <= 0.0) {
      // Error-free operations: no strike, and no RNG draw — the stream
      // must not depend on how many operations a pattern executes.
      return {false, length};
    }
    sim::FailStopOutcome outcome = inner_->sample_fail_stop(factor_ * length);
    outcome.time_survived /= factor_;  // map scaled time back to wall time
    return outcome;
  }

  [[nodiscard]] bool sample_silent(double length) override {
    return inner_->sample_silent(length);
  }

  [[nodiscard]] bool sample_detection(double recall) override {
    return inner_->sample_detection(recall);
  }

 private:
  std::unique_ptr<sim::ErrorModelBase> inner_;
  double factor_;
};

/// Model choice is a pure function of the cell's (shape, ops) axis values:
/// the default cell keeps the devirtualized Poisson fast path; any other
/// cell runs the renewal model (exponential in law when shape == 1), with
/// the ops wrapper stacked on when the factor is not 1.
sim::ErrorModelFactory make_model_factory(const core::ErrorRates& rates,
                                          double shape, double ops) {
  if (shape == 1.0 && ops == 1.0) {
    return {};
  }
  const sim::FailureDistribution distribution =
      shape == 1.0 ? sim::FailureDistribution::kExponential
                   : sim::FailureDistribution::kWeibull;
  return [rates, distribution, shape,
          ops](util::Xoshiro256 rng) -> std::unique_ptr<sim::ErrorModelBase> {
    std::unique_ptr<sim::ErrorModelBase> model =
        sim::make_renewal_model(rates, distribution, shape, rng);
    if (ops != 1.0) {
      model = std::make_unique<OpsScaledModel>(std::move(model), ops);
    }
    return model;
  };
}

}  // namespace

SimService::SimService(SweepCache& cache, util::ThreadPool* pool)
    : cache_(cache), pool_(pool) {}

core::GridSignature SimService::signature_for(
    const ScenarioRequest& request) const {
  return sim_signature(core::resolve_points(request.grid),
                       request.grid.resolved_kinds(), request.sim);
}

double SimService::runs_per_second() const noexcept {
  const std::uint64_t micros = compute_micros_.load(std::memory_order_relaxed);
  if (micros == 0) {
    return 0.0;
  }
  return static_cast<double>(runs_.load(std::memory_order_relaxed)) /
         (static_cast<double>(micros) * 1e-6);
}

void SimService::add_to(ServiceStats& stats) const {
  stats.deadline_timeouts += pipeline_.deadline_timeouts();
  stats.sim_submits = submits();
  stats.sim_cache_hits = pipeline_.cache_hits();
  stats.sim_disk_hits = pipeline_.disk_hits();
  stats.sim_cells = cells_computed();
  stats.sim_runs = runs_executed();
  stats.sim_early_stops = early_stops_.load(std::memory_order_relaxed);
  stats.sim_runs_per_second = runs_per_second();
  stats.sim_joined_in_flight = pipeline_.joins();
  stats.sim_disk_rejects = cache_.sims().counters().disk_rejects;
}

SimSubmitResult SimService::submit(const ScenarioRequest& request,
                                   const SimCellFn& sink,
                                   core::CancelToken cancel) {
  if (!request.simulate) {
    throw std::invalid_argument(
        "SimService::submit: request is not a simulate request");
  }
  submits_.fetch_add(1, std::memory_order_relaxed);

  const std::vector<core::ScenarioPoint> points =
      core::resolve_points(request.grid);
  const std::vector<core::PatternKind> kinds = request.grid.resolved_kinds();
  const core::GridSignature signature =
      sim_signature(points, kinds, request.sim);

  return pipeline_.submit(
      signature, cancel,
      SubmitSteps{
          .find = [&](bool* disk_hit) {
            return cache_.sims().find(signature, {}, disk_hit);
          },
          .matches = [&](const SimTable& table) {
            return table.params == request.sim &&
                   same_grid(table, points, kinds);
          },
          .replay = [&](const SimTable& table) {
            if (sink) {
              replay_cells(table, cancel, sink);
            }
          },
          .compute = [&](bool) {
            return compute(points, kinds, request.sim, sink, cancel);
          },
          .publish = [&](const std::shared_ptr<const SimTable>& table) {
            cache_.sims().insert(signature, table);
          },
      });
}

std::optional<SimSubmitResult> SimService::submit_resident(
    const ScenarioRequest& request, core::GridSignature signature,
    const SimCellFn& sink, const core::CancelToken& cancel) {
  const std::vector<core::ScenarioPoint> points =
      core::resolve_points(request.grid);
  const std::vector<core::PatternKind> kinds = request.grid.resolved_kinds();
  const auto matches = [&](const SimTable& table) {
    return table.params == request.sim && same_grid(table, points, kinds);
  };
  auto outcome = pipeline_.replay_resident(
      signature, [&] { return cache_.sims().find_resident(signature, matches); },
      [&](const SimTable& table) {
        if (sink) {
          replay_cells(table, cancel, sink);
        }
      });
  if (outcome) {
    submits_.fetch_add(1, std::memory_order_relaxed);
  }
  return outcome;
}

std::shared_ptr<const SimTable> SimService::compute(
    const std::vector<core::ScenarioPoint>& points,
    const std::vector<core::PatternKind>& kinds, const SimParams& sim_params,
    const SimCellFn& sink, const core::CancelToken& cancel) {
  auto table = std::make_shared<SimTable>();
  table->points = points;
  table->kinds = kinds;
  table->params = sim_params;
  table->cells.reserve(table->cell_count());

  const auto check_cancel = [&cancel] { throw_if_cancelled(cancel); };
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t total_runs = 0;
  std::uint64_t early = 0;

  // Canonical order, sequentially: parallelism lives INSIDE each cell's
  // campaign (runs fan out on the pool), never across cells, so the
  // stream order — and with content-addressed per-cell seeds, the stream
  // bytes — cannot depend on the pool size.
  for (std::size_t p = 0; p < table->points.size(); ++p) {
    const core::ModelParams& params = table->points[p].params;
    for (const core::PatternKind kind : table->kinds) {
      const core::PatternSpec pattern =
          core::solve_first_order(kind, params).to_pattern(params.costs.recall);
      for (const double shape : table->params.weibull_shape) {
        for (const double ops : table->params.faulty_ops) {
          check_cancel();
          sim::AdaptiveConfig config;
          config.seed =
              sim_cell_seed(table->params, kind, params, shape, ops);
          config.target_ci = table->params.target_ci;
          config.max_runs = table->params.max_runs;
          config.min_runs = table->params.min_runs;
          config.patterns_per_run = table->params.patterns_per_run;
          config.pool = pool_;
          config.model_factory = make_model_factory(params.rates, shape, ops);
          config.check_cancel = check_cancel;
          const sim::AdaptiveResult result =
              sim::run_adaptive_monte_carlo(pattern, params, config);

          SimCell cell;
          cell.point_index = p;
          cell.kind = kind;
          cell.weibull_shape = shape;
          cell.faulty_ops = ops;
          cell.mean = result.mean_overhead();
          const double half = result.overhead_ci();
          cell.ci_low = cell.mean - half;
          cell.ci_high = cell.mean + half;
          cell.runs = result.runs;
          cell.early_stopped = result.early_stopped;

          total_runs += result.runs;
          if (result.early_stopped) {
            ++early;
          }
          table->cells.push_back(cell);
          if (sink) {
            sink(cell);
          }
        }
      }
    }
  }

  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  cells_.fetch_add(table->cells.size(), std::memory_order_relaxed);
  runs_.fetch_add(total_runs, std::memory_order_relaxed);
  early_stops_.fetch_add(early, std::memory_order_relaxed);
  compute_micros_.fetch_add(static_cast<std::uint64_t>(elapsed.count()),
                            std::memory_order_relaxed);
  return table;
}

}  // namespace resilience::service
