#include "resilience/service/cost_model.hpp"

#include <algorithm>

#include "resilience/service/sim_service.hpp"
#include "resilience/service/sweep_service.hpp"

namespace resilience::service {

namespace {

core::GridSignature sign(const ScenarioRequest& request,
                         const SweepService& service) {
  return request.simulate ? service.sim().signature_for(request)
                          : service.signature_for(request);
}

/// `signature` is meaningful only when `service` is non-null.
CostEstimate estimate_signed(const ScenarioRequest& request,
                             const SweepService* service,
                             core::GridSignature signature) {
  CostEstimate estimate;
  const core::ScenarioGrid& grid = request.grid;

  if (request.simulate) {
    // Simulate requests are priced from their run budget — the cost the
    // admission controller/fair queue must bound is Monte Carlo draws,
    // not (n, m, W) searches. max_runs is the upper bound; target_ci can
    // only make cells cheaper.
    estimate.cells = grid.cell_count() * request.sim.weibull_shape.size() *
                     request.sim.faulty_ops.size();
    if (service != nullptr && service->cache().sims().contains(signature)) {
      estimate.identity_hit = true;
      estimate.units = static_cast<double>(estimate.cells) * kCostReplayCell;
      return estimate;
    }
    const double per_cell =
        std::max(kCostFirstOrderCell,
                 static_cast<double>(request.sim.max_runs) *
                     static_cast<double>(request.sim.patterns_per_run) /
                     kCostSimDrawsPerUnit);
    estimate.units = static_cast<double>(estimate.cells) * per_cell;
    return estimate;
  }

  estimate.cells = grid.cell_count();
  const double per_cell =
      request.numeric_optimum ? kCostColdCell : kCostFirstOrderCell;

  if (service == nullptr) {
    estimate.units = static_cast<double>(estimate.cells) * per_cell;
    return estimate;
  }

  // Identity tier first: an exact-signature hit replays the finished
  // table — cost is per-cell serialization, not search.
  if (service->cache().tables().contains(signature)) {
    estimate.identity_hit = true;
    estimate.units = static_cast<double>(estimate.cells) * kCostReplayCell;
    return estimate;
  }

  // Miss: price chain by chain. The chain list needs the same effective
  // options the service will submit under (numeric_optimum is the only
  // per-request override).
  core::SweepOptions sweep = service->options().sweep;
  sweep.numeric_optimum = request.numeric_optimum;
  const std::vector<core::GridChain> chains = core::grid_chains(grid, sweep);
  estimate.chains = chains.size();
  const std::size_t cells_per_chain =
      chains.empty() ? 0 : estimate.cells / chains.size();

  const bool seeds_apply = request.numeric_optimum && request.reuse_seeds &&
                           service->options().reuse_seeds;
  if (!seeds_apply) {
    estimate.units = static_cast<double>(estimate.cells) * per_cell;
    return estimate;
  }
  for (const core::GridChain& chain : chains) {
    const bool seeded = service->cache().has_seeds(chain.key);
    if (seeded) {
      ++estimate.seeded_chains;
    }
    estimate.units += static_cast<double>(cells_per_chain) *
                      (seeded ? kCostSeededCell : per_cell);
  }
  return estimate;
}

}  // namespace

CostEstimate estimate_cost(const ScenarioRequest& request,
                           const SweepService* service) {
  return estimate_signed(request, service,
                         service != nullptr ? sign(request, *service)
                                            : core::GridSignature{});
}

ParsedLine parse_request(const util::JsonValue& json,
                         const SweepService* service,
                         int default_deadline_ms) {
  ParsedLine parsed;
  parsed.request = ScenarioRequest::from_json(json);
  parsed.scenario = true;
  if (service != nullptr) {
    parsed.signature = sign(parsed.request, *service);
  }
  const int own_deadline_ms = parsed.request.deadline_ms;
  parsed.deadline_ms = own_deadline_ms > 0 ? own_deadline_ms
                                           : default_deadline_ms;
  return parsed;
}

std::size_t footprint_bytes(const ParsedLine& parsed) {
  std::size_t bytes = sizeof(ParsedLine);
  if (!parsed.scenario) {
    return bytes;
  }
  const ScenarioRequest& request = parsed.request;
  const core::ScenarioGrid& grid = request.grid;
  const auto heap = [](const auto& vector) {
    return vector.capacity() * sizeof(vector[0]);
  };
  bytes += request.id.capacity() + heap(grid.platforms) +
           heap(grid.node_counts) + heap(grid.rate_factors) +
           heap(grid.cost_overrides) + heap(grid.kinds) +
           heap(request.sim.weibull_shape) + heap(request.sim.faulty_ops);
  for (const core::Platform& platform : grid.platforms) {
    bytes += platform.name.capacity();
  }
  return bytes;
}

LineCost estimate_line_cost(std::string_view line, const SweepService* service,
                            int default_deadline_ms) {
  try {
    LineCost cost = parse_request(util::JsonValue::parse(line), service,
                                  default_deadline_ms);
    cost.estimate = estimate_signed(cost.request, service, cost.signature);
    return cost;
  } catch (...) {
    // Not a valid scenario request (ping/stats/malformed): the session
    // answers it in microseconds, so it carries no scenario estimate.
    return {};
  }
}

}  // namespace resilience::service
