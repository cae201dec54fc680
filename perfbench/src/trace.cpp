#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "harness.hpp"
#include "resilience/core/expected_time.hpp"
#include "resilience/core/first_order.hpp"
#include "resilience/core/sweep.hpp"
#include "resilience/service/cost_model.hpp"
#include "resilience/service/scenario_request.hpp"
#include "resilience/service/serialize.hpp"
#include "resilience/service/sim_service.hpp"
#include "resilience/service/sim_table.hpp"
#include "resilience/service/sweep_service.hpp"
#include "resilience/sim/adaptive.hpp"
#include "resilience/sim/renewal.hpp"
#include "resilience/util/json.hpp"
#include "resilience/util/thread_pool.hpp"

namespace perfbench {

namespace rc = resilience::core;
namespace rs = resilience::service;
namespace rsim = resilience::sim;
namespace ru = resilience::util;

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent,
                            std::uint32_t request) {
  if (!enabled_) {
    return 0;
  }
  spans_.push_back(Span{name, parent, request, now_s(), 0.0});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::end(std::uint32_t span) {
  if (enabled_) {
    spans_[span].end = now_s();
  }
}

void Tracer::rename(std::uint32_t span, const char* name) {
  if (enabled_) {
    spans_[span].name = name;
  }
}

void Tracer::record(const char* name, std::uint32_t parent,
                    std::uint32_t request, double start_s, double end_s) {
  if (enabled_) {
    spans_.push_back(Span{name, parent, request, start_s, end_s});
  }
}

std::map<std::string, Tracer::Totals> Tracer::summarize() const {
  // Children grouped by parent, then each span's self time is its
  // duration minus the union of its children's intervals (clipped).
  std::vector<std::vector<std::uint32_t>> children(spans_.size());
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNoParent) {
      children[spans_[i].parent].push_back(i);
    }
  }
  std::map<std::string, Totals> totals;
  std::vector<std::pair<double, double>> cover;
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double duration = span.end - span.start;
    cover.clear();
    for (const std::uint32_t child : children[i]) {
      const double a = std::max(spans_[child].start, span.start);
      const double b = std::min(spans_[child].end, span.end);
      if (b > a) {
        cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = span.start;
    for (const auto& [a, b] : cover) {
      const double from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    Totals& t = totals[span.name];
    ++t.count;
    t.total_s += duration;
    t.self_s += duration - covered;
  }
  return totals;
}

namespace {

class CollectSink final : public rc::CellSink {
 public:
  void on_cell(const rc::SweepCell& cell) override { cells.push_back(cell); }
  std::vector<rc::SweepCell> cells;
};

/// A miss the kernel pass re-times directly.
struct Miss {
  rs::ScenarioRequest request;
  std::shared_ptr<const rc::SweepTable> table;
  std::shared_ptr<const rs::SimTable> sim_table;
};

struct PassResult {
  double wall_s = 0.0;
  std::size_t requests = 0;
  std::size_t cell_lines = 0;
  std::size_t cell_bytes = 0;
  std::vector<Miss> misses;
  // Simulate compute totals (misses only).
  double sim_submit_s = 0.0;
  std::uint64_t sim_runs = 0;
  std::uint64_t sim_cells = 0;
  std::uint64_t sim_early = 0;
};

/// Keeps results observable so the optimizer cannot drop timed calls.
volatile double g_sink = 0.0;

/// One request through the JsonlSession call order.
void replay_line(std::string_view line, std::uint32_t request_index,
                 rs::SweepService& service, Tracer& tracer,
                 std::size_t keep_misses, PassResult& pass) {
  if (!line.empty() && line.back() == '\n') {
    line.remove_suffix(1);
  }
  const std::uint32_t root =
      tracer.begin("session.request", Tracer::kNoParent, request_index);
  std::uint32_t span =
      tracer.begin("service.request.parse", root, request_index);
  const ru::JsonValue json = ru::JsonValue::parse(line);
  rs::ScenarioRequest request = rs::ScenarioRequest::from_json(json);
  tracer.end(span);

  span = tracer.begin("service.cost.estimate", root, request_index);
  const rs::LineCost cost = rs::estimate_line_cost(line, &service, 0);
  g_sink = g_sink + cost.estimate.units;
  tracer.end(span);

  if (request.simulate) {
    span = tracer.begin("service.submit.signature", root, request_index);
    const rc::GridSignature signature = service.sim().signature_for(request);
    tracer.end(span);
    std::vector<rs::SimCell> cells;
    span = tracer.begin("service.submit.miss", root, request_index);
    const double t0 = now_s();
    const rs::SimSubmitResult result = service.sim().submit(
        request, [&cells](const rs::SimCell& cell) { cells.push_back(cell); });
    const double elapsed = now_s() - t0;
    tracer.end(span);
    if (result.cache_hit) {
      tracer.rename(span, "service.submit.hit");
    }
    for (const rs::SimCell& cell : cells) {
      span = tracer.begin("service.serialize.cell_line", root, request_index);
      pass.cell_bytes += rs::sim_cell_line(request.id, signature, cell).size();
      tracer.end(span);
    }
    pass.cell_lines += cells.size();
    span = tracer.begin("service.serialize.done_line", root, request_index);
    g_sink = g_sink + static_cast<double>(
                          rs::sim_done_line(request.id, result.signature,
                                            *result.table, result.cache_hit)
                              .size());
    tracer.end(span);
    if (!result.cache_hit) {
      pass.sim_submit_s += elapsed;
      for (const rs::SimCell& cell : cells) {
        pass.sim_runs += cell.runs;
        pass.sim_early += cell.early_stopped ? 1 : 0;
      }
      pass.sim_cells += cells.size();
      if (pass.misses.size() < keep_misses) {
        pass.misses.push_back(Miss{std::move(request), nullptr, result.table});
      }
    }
  } else {
    span = tracer.begin("service.submit.signature", root, request_index);
    const rc::GridSignature signature = service.signature_for(request);
    tracer.end(span);
    CollectSink sink;
    span = tracer.begin("service.submit.miss", root, request_index);
    const rs::SubmitResult result = service.submit(request, &sink);
    tracer.end(span);
    if (result.cache_hit) {
      tracer.rename(span, "service.submit.hit");
    }
    for (const rc::SweepCell& cell : sink.cells) {
      span = tracer.begin("service.serialize.cell_line", root, request_index);
      pass.cell_bytes += rs::cell_line(request.id, signature, cell).size();
      tracer.end(span);
    }
    pass.cell_lines += sink.cells.size();
    span = tracer.begin("service.serialize.done_line", root, request_index);
    g_sink = g_sink + static_cast<double>(
                          rs::done_line(request.id, result.signature,
                                        *result.table, result.cache_hit,
                                        result.joined_in_flight)
                              .size());
    tracer.end(span);
    if (!result.cache_hit && !result.joined_in_flight &&
        pass.misses.size() < keep_misses) {
      pass.misses.push_back(Miss{std::move(request), result.table, nullptr});
    }
  }
  tracer.end(root);
  ++pass.requests;
}

constexpr std::size_t kRepeatRequests = 16;

PassResult run_pass(const std::vector<std::string>& warm_lines,
                    const std::vector<std::string>& lines, Tracer& tracer,
                    ru::ThreadPool& pool, std::size_t keep_misses) {
  rs::ServiceOptions options;
  options.cache_capacity = 4096;
  options.sweep.pool = &pool;
  rs::SweepService service(options);
  PassResult pass;
  std::uint32_t index = 0;
  const double start = now_s();
  for (const std::vector<std::string>* batch : {&warm_lines, &lines}) {
    for (const std::string& line : *batch) {
      replay_line(line, index++, service, tracer, keep_misses, pass);
    }
  }
  // The first requests once more: identity hits, so the hit path is timed
  // on every workload, including streams that never repeat a request.
  for (std::size_t i = 0; i < lines.size() && i < kRepeatRequests; ++i) {
    replay_line(lines[i], index++, service, tracer, 0, pass);
  }
  pass.wall_s = now_s() - start;
  return pass;
}

/// Kernel totals from timing the program's compute functions directly.
struct KernelTotals {
  double sweep_s = 0.0;
  std::uint64_t sweep_cells = 0;
  std::uint64_t warm_started = 0;
  double probe_s = 0.0;
  std::uint64_t probes = 0;
  double first_order_s = 0.0;
  std::uint64_t first_order_calls = 0;
  double poisson_s = 0.0;
  double poisson_patterns = 0.0;
  double renewal_s = 0.0;
  double renewal_patterns = 0.0;
};

constexpr int kRepeats = 16;  ///< calls per timed batch of a short kernel

void time_first_order(rc::PatternKind kind, const rc::ModelParams& params,
                      KernelTotals& k) {
  const double t0 = now_s();
  for (int r = 0; r < kRepeats; ++r) {
    g_sink = g_sink + rc::solve_first_order(kind, params).work;
  }
  k.first_order_s += now_s() - t0;
  k.first_order_calls += kRepeats;
}

void time_analytic(const Miss& miss, ru::ThreadPool& pool, KernelTotals& k) {
  rc::SweepOptions options;
  options.numeric_optimum = miss.request.numeric_optimum;
  options.pool = &pool;
  const rc::SweepRunner runner(options);
  const double t0 = now_s();
  const rc::SweepTable table = runner.run(miss.request.grid);
  k.sweep_s += now_s() - t0;
  k.sweep_cells += table.cells.size();
  for (const rc::SweepCell& cell : table.cells) {
    k.warm_started += cell.warm_started ? 1 : 0;
    const rc::ModelParams& params = table.points[cell.point_index].params;
    time_first_order(cell.kind, params, k);
    if (!std::isfinite(cell.overhead) || !(cell.work > 0.0)) {
      continue;
    }
    rc::ExactEvaluator evaluator(params);
    evaluator.bind_canonical(cell.kind, cell.segments_n, cell.chunks_m);
    const double p0 = now_s();
    for (int r = 0; r < kRepeats; ++r) {
      g_sink = g_sink + evaluator.overhead_at(cell.work * (0.9 + 0.0125 * r));
    }
    k.probe_s += now_s() - p0;
    k.probes += kRepeats;
  }
}

void time_simulate(const Miss& miss, ru::ThreadPool& pool, KernelTotals& k) {
  // The analytic kernels on the same grid, so the core figures exist for
  // simulate traffic too.
  rs::ScenarioRequest analytic = miss.request;
  analytic.simulate = false;
  time_analytic(Miss{analytic, nullptr, nullptr}, pool, k);
  const rs::SimTable& table = *miss.sim_table;
  for (const rs::SimCell& cell : table.cells) {
    const rc::ModelParams& params = table.points[cell.point_index].params;
    time_first_order(cell.kind, params, k);
    if (cell.faulty_ops != 1.0) {
      continue;  // the ops-scaled model is internal to the service
    }
    rsim::AdaptiveConfig config;
    config.seed = rs::sim_cell_seed(table.params, cell.kind, params,
                                    cell.weibull_shape, cell.faulty_ops);
    config.target_ci = table.params.target_ci;
    config.max_runs = table.params.max_runs;
    config.min_runs = table.params.min_runs;
    config.patterns_per_run = table.params.patterns_per_run;
    config.pool = &pool;
    const bool renewal = cell.weibull_shape != 1.0;
    if (renewal) {
      const rc::ErrorRates rates = params.rates;
      const double shape = cell.weibull_shape;
      config.model_factory = [rates, shape](resilience::util::Xoshiro256 rng)
          -> std::unique_ptr<rsim::ErrorModelBase> {
        return rsim::make_renewal_model(
            rates, rsim::FailureDistribution::kWeibull, shape, rng);
      };
    }
    const rc::PatternSpec pattern = rc::solve_first_order(cell.kind, params)
                                        .to_pattern(params.costs.recall);
    const double t0 = now_s();
    const rsim::AdaptiveResult result =
        rsim::run_adaptive_monte_carlo(pattern, params, config);
    const double elapsed = now_s() - t0;
    const double patterns = static_cast<double>(result.runs) *
                            static_cast<double>(config.patterns_per_run);
    (renewal ? k.renewal_s : k.poisson_s) += elapsed;
    (renewal ? k.renewal_patterns : k.poisson_patterns) += patterns;
  }
}

double mean_self_us(const std::map<std::string, Tracer::Totals>& totals,
                    const std::string& name) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) {
    return 0.0;
  }
  return 1e6 * it->second.self_s / static_cast<double>(it->second.count);
}

}  // namespace

ReplayReport replay_in_process(const std::vector<std::string>& warm_lines,
                               const std::vector<std::string>& lines,
                               std::size_t kernel_requests) {
  // One executor thread: per-call times are single-core figures,
  // comparable across machines with different core counts.
  ru::ThreadPool pool(1);
  Tracer untraced(false);
  // A discarded first pass warms caches and the allocator, so the traced
  // and untraced passes compared below start alike.
  (void)run_pass(warm_lines, lines, untraced, pool, 0);
  const PassResult plain = run_pass(warm_lines, lines, untraced, pool, 0);
  Tracer tracer(true);
  const PassResult traced =
      run_pass(warm_lines, lines, tracer, pool, kernel_requests);

  KernelTotals k;
  for (const Miss& miss : traced.misses) {
    if (miss.sim_table != nullptr) {
      time_simulate(miss, pool, k);
    } else {
      time_analytic(miss, pool, k);
    }
  }

  const auto totals = tracer.summarize();
  ReplayReport report;
  auto& m = report.metrics;
  m["service.request.parse_us"] = mean_self_us(totals, "service.request.parse");
  m["service.cost.estimate_us"] = mean_self_us(totals, "service.cost.estimate");
  m["service.submit.signature_us"] =
      mean_self_us(totals, "service.submit.signature");
  m["service.submit.hit_us"] = mean_self_us(totals, "service.submit.hit");
  m["service.submit.miss_us"] = mean_self_us(totals, "service.submit.miss");
  m["service.serialize.cell_line_us"] =
      mean_self_us(totals, "service.serialize.cell_line");
  m["service.serialize.done_line_us"] =
      mean_self_us(totals, "service.serialize.done_line");
  m["service.serialize.bytes_per_cell"] =
      ratio(static_cast<double>(traced.cell_bytes),
            static_cast<double>(traced.cell_lines));
  m["service.replay.requests"] = static_cast<double>(traced.requests);
  m["bench.unattributed_us"] = mean_self_us(totals, "session.request");
  m["bench.trace_overhead_pct"] =
      100.0 * ratio(traced.wall_s - plain.wall_s, plain.wall_s);

  m["core.sweep.cell_us"] =
      1e6 * ratio(k.sweep_s, static_cast<double>(k.sweep_cells));
  m["core.sweep.cells"] = static_cast<double>(k.sweep_cells);
  m["core.sweep.warm_started_ratio"] =
      ratio(static_cast<double>(k.warm_started),
            static_cast<double>(k.sweep_cells));
  m["core.exact.probe_ns"] =
      1e9 * ratio(k.probe_s, static_cast<double>(k.probes));
  m["core.exact.probes"] = static_cast<double>(k.probes);
  m["core.first_order.solve_ns"] =
      1e9 * ratio(k.first_order_s, static_cast<double>(k.first_order_calls));

  m["sim.adaptive.runs_per_s"] =
      ratio(static_cast<double>(traced.sim_runs), traced.sim_submit_s);
  m["sim.adaptive.runs_per_cell"] =
      ratio(static_cast<double>(traced.sim_runs),
            static_cast<double>(traced.sim_cells));
  m["sim.adaptive.early_stop_ratio"] =
      ratio(static_cast<double>(traced.sim_early),
            static_cast<double>(traced.sim_cells));
  m["sim.adaptive.cells"] = static_cast<double>(traced.sim_cells);
  m["sim.engine.poisson_patterns_per_s"] =
      ratio(k.poisson_patterns, k.poisson_s);
  m["sim.engine.renewal_patterns_per_s"] =
      ratio(k.renewal_patterns, k.renewal_s);
  return report;
}

}  // namespace perfbench
