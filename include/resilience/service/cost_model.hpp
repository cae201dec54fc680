#pragma once

// Request cost estimation for admission control and fair scheduling: a
// predicted compute cost, in *units*, for a scenario request BEFORE it
// touches a worker. One unit is one cold numerically-optimized cell — the
// dominant term of a sweep — so a request's units are roughly proportional
// to its worker-occupancy time, which is exactly the currency a fair
// queue and a queue-cost budget need.
//
// The estimate is cache-aware: it consults the service's SweepCache
// through the non-mutating contains()/has_seeds() probes (no LRU
// promotion, no counter bumps, no disk IO), so a warm identity hit
// estimates ~cells/1024 (pure replay) and a chain with seed-tier
// coverage estimates cells/8 (warm-started search) instead of full cost.
// First-order-only requests (numeric_optimum=false) cost cells/16: the
// closed-form column is orders of magnitude cheaper than the (n, m, W)
// search.
//
// Estimates are heuristics, not promises — they steer scheduling and
// shedding, never results. They are exposed in the done-line "stats"
// block (per-request opt-in) so operators can audit them against the
// latencies the transport histograms record.

#include <cstddef>
#include <string>
#include <string_view>

#include "resilience/core/sweep.hpp"
#include "resilience/service/scenario_request.hpp"
#include "resilience/util/json.hpp"

namespace resilience::service {

class SweepService;

/// Per-cell weights of the cost model (units).
inline constexpr double kCostColdCell = 1.0;
/// First-order-only cells skip the numeric (n, m, W) search entirely.
inline constexpr double kCostFirstOrderCell = 1.0 / 16.0;
/// Cells of a chain with seed-tier coverage warm-start (or outright
/// reuse) instead of cold-searching.
inline constexpr double kCostSeededCell = 1.0 / 8.0;
/// Identity cache hit: the whole table replays from memory/disk.
inline constexpr double kCostReplayCell = 1.0 / 1024.0;
/// Simulate-mode cells are priced by their run budget: one unit per this
/// many (run x pattern) draws — calibrated so a default sim cell
/// (1000 runs x 100 patterns) costs about one cold analytic cell. Cells
/// that early-stop under target_ci cost less than estimated; admission
/// control only needs an upper bound.
inline constexpr double kCostSimDrawsPerUnit = 100000.0;

/// Predicted cost of one scenario request.
struct CostEstimate {
  double units = 0.0;        ///< predicted compute units (see weights above)
  std::size_t cells = 0;     ///< grid cells ((points x families))
  std::size_t chains = 0;    ///< grid chains (scheduling/reuse granularity)
  std::size_t seeded_chains = 0;  ///< chains the seed tier covers
  bool identity_hit = false;      ///< exact table cached (memory or disk)
};

/// Estimates `request` against `service`'s cache state. Never throws for
/// a request that parsed successfully (ScenarioRequest::from_json already
/// validated the grid). `service` may be null — e.g. a transport hosting
/// a custom session with no local service — in which case every request
/// estimates cold (no cache probes).
[[nodiscard]] CostEstimate estimate_cost(const ScenarioRequest& request,
                                         const SweepService* service);

/// One request line, parsed once. On the daemon the transport parses and
/// prices each line at admission (estimate_line_cost) — it cannot place a
/// line it has not classified — and hands this same object to the
/// session that serves it (LineSession::serve), so a scenario line is
/// JSON-parsed and validated exactly once on its way through.
/// Lines that fail to parse as scenario requests (pings, stats,
/// malformed JSON) report scenario=false — they answer in microseconds,
/// so schedulers give them a nominal cost and always admit them
/// (observability must keep working under overload), and the session
/// answers them from their raw text.
struct ParsedLine {
  bool scenario = false;     ///< parsed as a well-formed scenario request
  ScenarioRequest request;   ///< meaningful only when scenario
  /// The signature SweepService::submit (or SimService::submit, for
  /// simulate requests) will serve the request under; zero when parsed
  /// without a service.
  core::GridSignature signature;
  CostEstimate estimate;     ///< admission price (estimate_line_cost only)
  int deadline_ms = 0;       ///< resolved deadline (request's, else default)
};

/// Completes a parsed request object into a ParsedLine: validates it as a
/// scenario request (throws RequestError, like ScenarioRequest::from_json),
/// signs it against `service` (may be null) and resolves its deadline.
/// Does not price it.
[[nodiscard]] ParsedLine parse_request(const util::JsonValue& json,
                                       const SweepService* service,
                                       int default_deadline_ms);

/// Approximate memory `parsed` holds, its own size plus the heap behind
/// its axes — for transports that bound the memory of queued requests.
/// The parsed form can be many times its text: a 7-byte `"hera",`
/// becomes a core::Platform of about 90 bytes.
[[nodiscard]] std::size_t footprint_bytes(const ParsedLine& parsed);

/// The admission parse: parse_request over the raw line plus the cost
/// estimate, without side effects (cache probes only). Never throws; a
/// line that is not a scenario request comes back with scenario=false.
using LineCost = ParsedLine;
[[nodiscard]] LineCost estimate_line_cost(std::string_view line,
                                          const SweepService* service,
                                          int default_deadline_ms);

}  // namespace resilience::service
