// perfbench_load: one measured run of one workload against the repo's own
// sweep_serverd binary over loopback TCP.
//
//   perfbench_load --workload NAME --seed N --seconds S --trace 0|1
//                  --bin DIR --work DIR
//
// Prints a "detail" JSON line (fingerprint, sample counts, failure
// breakdown, response digest, ladder probes) and, last, the result line
// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. METHODOLOGY.md defines
// every metric. Exit code 0 when the run completed (whatever it
// measured), 1 on a harness or server failure, 2 on usage errors.

#include <sys/stat.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "resilience/service/jsonl_session.hpp"
#include "resilience/service/sweep_service.hpp"
#include "resilience/util/json.hpp"
#include "resilience/util/thread_pool.hpp"
#include "trace.hpp"
#include "wire.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace rs = resilience::service;
namespace ru = resilience::util;

// ------------------------------------------------------------ metrics --

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Must match BENCHMARK.json's "end_to_end" (run.py checks).
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"server_cpu_us_per_cell", "us"},
    {"server_rss_mb", "MB"},
};

/// Must match BENCHMARK.json's "per_layer" (run.py checks).
const std::vector<MetricDef> kPerLayer = {
    {"service.request.parse_us", "us"},
    {"service.cost.estimate_us", "us"},
    {"service.submit.signature_us", "us"},
    {"service.submit.hit_us", "us"},
    {"service.submit.miss_us", "us"},
    {"service.serialize.cell_line_us", "us"},
    {"service.serialize.done_line_us", "us"},
    {"service.serialize.bytes_per_cell", "bytes"},
    {"service.replay.requests", "count"},
    {"service.cache.hit_ratio", "ratio"},
    {"service.cache.disk_hit_ratio", "ratio"},
    {"service.cache.seeded_ratio", "ratio"},
    {"service.cache.join_ratio", "ratio"},
    {"service.cache.submits", "count"},
    {"service.cache.hits", "count"},
    {"service.cache.computed", "count"},
    {"core.sweep.cell_us", "us"},
    {"core.sweep.cells", "count"},
    {"core.sweep.warm_started_ratio", "ratio"},
    {"core.exact.probe_ns", "ns"},
    {"core.exact.probes", "count"},
    {"core.first_order.solve_ns", "ns"},
    {"sim.adaptive.runs_per_s", "1/s"},
    {"sim.adaptive.runs_per_cell", "count"},
    {"sim.adaptive.early_stop_ratio", "ratio"},
    {"sim.adaptive.cells", "count"},
    {"sim.engine.poisson_patterns_per_s", "1/s"},
    {"sim.engine.renewal_patterns_per_s", "1/s"},
    {"net.client.ping_rtt_us", "us"},
    {"net.client.request_p50_us", "us"},
    {"net.server.queue_wait_mean_us", "us"},
    {"net.server.compute_mean_us", "us"},
    {"net.server.write_mean_us", "us"},
    {"net.server.admitted", "count"},
    {"net.server.shed_overload", "ratio"},
    {"net.server.shed_expired", "ratio"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.unattributed_us", "us"},
};

using Metrics = std::map<std::string, double>;

std::string number(double value) {
  if (!std::isfinite(value)) {
    value = 1e9;  // an unbounded latency (failed request) reads as huge
  }
  char text[64];
  const auto result = std::to_chars(text, text + sizeof(text), value);
  return std::string(text, result.ptr);
}

std::string quote(const std::string& text) { return ru::json_quote(text); }

/// prefix + n, e.g. tagged("w", 3) == "w3" (request ids).
std::string tagged(const char* prefix, std::size_t n) {
  return std::string(prefix).append(std::to_string(n));
}

// --------------------------------------------------------------- args --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin;
  std::string work;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--bin") {
      args.bin = value;
    } else if (flag == "--work") {
      args.work = value;

    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || args.bin.empty() || args.work.empty() ||
      !(args.seconds > 0.0)) {
    throw std::invalid_argument(
        "need --workload, --bin, --work and --seconds > 0");
  }
  return args;
}

// -------------------------------------------------------------- stack --

/// The running daemon of one set-up.
struct Stack {
  std::unique_ptr<ServerProc> proc;
  std::uint16_t port = 0;

  [[nodiscard]] double cpu_seconds() const {
    return proc ? proc->cpu_seconds() : 0.0;
  }
  [[nodiscard]] double peak_rss_mb() const {
    return proc ? static_cast<double>(proc->peak_rss_kb()) / 1024.0 : 0.0;
  }
  /// Graceful drain; true when the daemon exited 0 (or none was running).
  bool stop() {
    const bool clean = !proc || proc->stop();
    proc.reset();
    return clean;
  }
};

void make_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create " + path);
  }
}

/// Launches the workload's daemon and waits for the first pong.
Stack launch(const WorkloadSpec& spec, const Args& args,
             const std::string& dir) {
  make_dir(dir);
  Stack stack;
  const std::string port_file = dir + "/daemon.port";
  std::vector<std::string> server_args = spec.server_args;
  server_args.push_back("--port=0");
  server_args.push_back("--port-file=" + port_file);
  stack.proc = std::make_unique<ServerProc>(args.bin + "/sweep_serverd",
                                            server_args, port_file + ".log");
  stack.port = stack.proc->wait_port(port_file, 20.0);
  Conn conn(stack.port);
  conn.set_receive_timeout_ms(20000);
  if (!ping(conn, "setup")) {
    throw std::runtime_error("no pong from the server after launch");
  }
  return stack;
}

// ---------------------------------------------------------- reference --

/// An in-process JsonlSession over a given service whose answers are
/// digested exactly like wire responses.
class ReferenceSession {
 public:
  explicit ReferenceSession(rs::SweepService& service)
      : session_(service, [this](std::string&& line, bool) {
          current_->add_line(line, current_id_);
        }) {}

  ResponseDigest answer(const std::string& line, const std::string& id) {
    ResponseDigest digest;
    current_ = &digest;
    current_id_ = id;
    std::string_view text(line);
    if (!text.empty() && text.back() == '\n') {
      text.remove_suffix(1);
    }
    session_.handle_line(text);
    current_ = nullptr;
    return digest;
  }

 private:
  rs::JsonlSession session_;
  ResponseDigest* current_ = nullptr;
  std::string current_id_;
};

rs::ServiceOptions reference_options(ru::ThreadPool& pool) {
  rs::ServiceOptions options;
  options.cache_capacity = 4096;
  options.sweep.pool = &pool;
  return options;
}

/// Digest of the sorted per-response digests: the same value on two
/// commits means the same answers, independent of arrival order.
std::string digest_hex(std::vector<std::uint64_t> digests) {
  std::sort(digests.begin(), digests.end());
  std::string bytes(digests.size() * sizeof(std::uint64_t), '\0');
  for (std::size_t i = 0; i < digests.size(); ++i) {
    for (std::size_t b = 0; b < 8; ++b) {
      bytes[i * 8 + b] = static_cast<char>((digests[i] >> (8 * b)) & 0xff);
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash_bytes(bytes)));
  return hex;
}

// ------------------------------------------------------------ results --

struct RunResult {
  FailureTally tally;
  Metrics e2e;
  Metrics layer;
  /// Client-observed figures printed in the detail line (wall clock, so
  /// they follow the host's speed; see METHODOLOGY.md).
  Metrics client;
  /// Per set-up: the daemon's CPU seconds from launch to the end of
  /// set-up (setup_s is their median), and the wall seconds.
  std::vector<double> setup_cpu;
  std::vector<double> setup_wall;
  std::string digest;
  double lag_p99_ms = 0.0;
  bool servers_drained = true;
  std::string ladder;  ///< JSON array of probes (open loop)
  // For the traced run: the in-process replay's input.
  std::vector<std::string> replay_warm;
  std::vector<std::string> replay_lines;
  std::size_t kernel_requests = 0;
};

/// The reported tail of a timed phase: the phase is cut into five equal
/// slices by scheduled send time, each slice's tail is taken by the
/// percentile rule, and the median of the five is reported. A host
/// hiccup inside one slice moves one of five values, not the result.
constexpr std::size_t kSlices = 5;

double slice_median_tail(const std::vector<double>& latencies) {
  const std::size_t per = latencies.size() / kSlices;
  if (per < 11) {
    return latencies.size() >= 11 ? latency_quantiles(latencies).tail
                                  : std::numeric_limits<double>::infinity();
  }
  std::vector<double> tails;
  for (std::size_t s = 0; s < kSlices; ++s) {
    const auto first =
        latencies.begin() + static_cast<std::ptrdiff_t>(s * per);
    const auto last = first + static_cast<std::ptrdiff_t>(per);
    tails.push_back(latency_quantiles(std::vector<double>(first, last)).tail);
  }
  return median(tails);
}

/// The server CPU cost per cell is measured over this many consecutive
/// segments of fixed work (closed loops) or time (hot_hits), and the
/// median segment is reported: contention from other tenants of the host
/// that hits one segment moves one of five values, not the result.
constexpr std::size_t kCostSegments = 5;

/// Latency in ms for a request, +inf when it failed.
double latency_ms(const WireRequest& request, Outcome outcome) {
  if (outcome != Outcome::kOk || request.done <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return 1e3 * (request.done - request.scheduled);
}

/// hot_hits' catalogue and its reference answers.
struct HitWorkload {
  std::vector<RequestBody> catalogue;
  std::vector<ResponseDigest> miss_refs;  ///< warm-fill answers
  std::vector<ResponseDigest> hit_refs;   ///< every later answer
};

// ------------------------------------------------- traced wire layers --

/// The number at a dotted path of a stats answer ("service.submits");
/// 0 when absent.
double number_at(const ru::JsonValue& root, std::string_view path) {
  const ru::JsonValue* node = &root;
  while (node != nullptr && !path.empty()) {
    const std::size_t dot = path.find('.');
    node = node->find(path.substr(0, dot));
    path = dot == std::string_view::npos ? std::string_view()
                                         : path.substr(dot + 1);
  }
  return node != nullptr && node->is_number() ? node->as_double() : 0.0;
}

/// Server-side numbers the traced run reads off the wire: the daemon's
/// stats block and the ping RTT.
void wire_layers(const WorkloadSpec& spec, const Stack& stack,
                 RunResult& out) {
  Metrics& m = out.layer;
  {
    Conn conn(stack.port);
    conn.set_receive_timeout_ms(10000);
    std::vector<double> rtts;
    for (int i = 0; i < 200; ++i) {
      const double t0 = now_s();
      if (!ping(conn, "rtt")) {
        break;
      }
      rtts.push_back(1e6 * (now_s() - t0));
    }
    m["net.client.ping_rtt_us"] = median(rtts);
  }
  ru::JsonValue stats;
  try {
    stats = ru::JsonValue::parse(fetch_stats(stack.port));
  } catch (const std::exception&) {
    // No stats answer: the numbers below read 0.
  }
  // Simulate traffic is counted in the "sim" block.
  const std::string tier = spec.simulate ? "sim." : "service.";
  const double submits = number_at(stats, tier + "submits");
  const double hits = number_at(stats, tier + "cache_hits");
  const double computed = spec.simulate
                              ? submits - hits
                              : number_at(stats, "service.tables_computed");
  m["service.cache.submits"] = submits;
  m["service.cache.hits"] = hits;
  m["service.cache.computed"] = computed;
  m["service.cache.hit_ratio"] = ratio(hits, submits);
  m["service.cache.disk_hit_ratio"] =
      ratio(number_at(stats, tier + "disk_hits"), hits);
  m["service.cache.seeded_ratio"] =
      ratio(number_at(stats, "service.seeded_computes"), computed);
  m["service.cache.join_ratio"] =
      ratio(number_at(stats, "service.joined_in_flight"), submits);
  const double admitted = number_at(stats, "transport.scheduler.admitted");
  m["net.server.admitted"] = admitted;
  m["net.server.shed_overload"] = ratio(
      number_at(stats, "transport.scheduler.shed_overload"), admitted);
  m["net.server.shed_expired"] = ratio(
      number_at(stats, "transport.scheduler.shed_expired"), admitted);
  // Means from the histograms' totals: their percentiles are power-of-two
  // bucket bounds, too coarse to compare two commits by.
  for (const char* stage : {"queue_wait", "compute", "write"}) {
    const std::string base = std::string("transport.latency_us.") + stage;
    m[std::string("net.server.") + stage + "_mean_us"] =
        ratio(number_at(stats, base + ".total_us"),
              number_at(stats, base + ".count"));
  }
}

// ---------------------------------------------------------- open loop --

HitWorkload hit_references(std::uint64_t seed) {
  HitWorkload w;
  w.catalogue = hit_catalogue(seed);
  ru::ThreadPool pool(2);
  rs::SweepService service(reference_options(pool));
  ReferenceSession session(service);
  for (std::size_t i = 0; i < w.catalogue.size(); ++i) {
    const std::string id = tagged("w", i);
    w.miss_refs.push_back(session.answer(w.catalogue[i].render(id), id));
  }
  for (const RequestBody& body : w.catalogue) {
    w.hit_refs.push_back(session.answer(body.render("ref"), "ref"));
  }
  return w;
}

/// Sends the whole catalogue pipelined over `conns` and checks the cold
/// answers; returns the per-response digests (for the workload digest).
std::vector<std::uint64_t> warm_fill(const std::vector<Conn*>& conns,
                                     const HitWorkload& w,
                                     FailureTally& tally) {
  const std::size_t width = conns.size();
  std::vector<WireRequest> requests(w.catalogue.size());
  for (std::size_t c = 0; c < width; ++c) {
    std::string burst;
    for (std::size_t i = c; i < requests.size(); i += width) {
      requests[i].id = tagged("w", i);
      burst += w.catalogue[i].render(requests[i].id);
    }
    conns[c]->send_all(burst);
  }
  std::vector<std::uint64_t> digests;
  for (std::size_t c = 0; c < width; ++c) {
    for (std::size_t i = c; i < requests.size(); i += width) {
      WireRequest& request = requests[i];
      (void)conns[c]->read_response([&](std::string_view line) {
        request.digest.add_line(line, request.id);
      });
      tally.add(verify(request.digest, w.miss_refs[i], /*exact=*/false));
      digests.push_back(request.digest.unordered);
    }
  }
  return digests;
}

/// One open-loop step at `rate` for `duration` seconds over the
/// catalogue's Zipf popularity; every answer checked against its hit
/// reference.
struct Step {
  std::vector<WireRequest> requests;
  std::vector<Outcome> outcomes;
  double start = 0.0;
  double duration = 0.0;
};

Step open_step(const std::vector<Conn*>& conns, const HitWorkload& w,
               const ZipfPicker& zipf, std::uint64_t seed, double rate,
               double duration, const std::string& prefix) {
  Step step;
  step.duration = duration;
  const std::vector<double> offsets =
      poisson_schedule(derive_seed(seed, 100), rate, duration);
  Rng rng(derive_seed(seed, 101));
  step.requests.resize(offsets.size());
  std::vector<std::size_t> entries(offsets.size());
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    entries[i] = zipf.draw(rng);
    step.requests[i].id = prefix + std::to_string(i);
    step.requests[i].line =
        w.catalogue[entries[i]].render(step.requests[i].id);
  }
  run_open_loop(conns, offsets, step.requests, 5.0, &step.start);
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    step.outcomes.push_back(
        verify(step.requests[i].digest, w.hit_refs[entries[i]], true));
  }
  return step;
}

/// Backlog (sent, not yet answered) at time t.
std::size_t backlog_at(const Step& step, double t) {
  std::size_t n = 0;
  for (const WireRequest& r : step.requests) {
    if (r.sent > 0.0 && r.sent <= t && (r.done <= 0.0 || r.done > t)) {
      ++n;
    }
  }
  return n;
}

struct ProbeVerdict {
  bool pass = false;
  double tail_ms = 0.0;
  std::size_t failures = 0;
  bool backlog_growing = false;
};

ProbeVerdict judge(const Step& step, double limit_ms) {
  ProbeVerdict v;
  std::vector<double> latencies;
  for (std::size_t i = 0; i < step.requests.size(); ++i) {
    latencies.push_back(latency_ms(step.requests[i], step.outcomes[i]));
    if (step.outcomes[i] != Outcome::kOk) {
      ++v.failures;
    }
  }
  v.tail_ms = slice_median_tail(latencies);
  const std::size_t mid = backlog_at(step, step.start + step.duration / 2);
  const std::size_t end = backlog_at(step, step.start + step.duration);
  const std::size_t slack =
      std::max<std::size_t>(16, step.requests.size() / 100);
  v.backlog_growing = end > mid + slack;
  v.pass = v.failures == 0 && !v.backlog_growing && v.tail_ms <= limit_ms;
  return v;
}

void tally_step(const Step& step, FailureTally& tally) {
  for (const Outcome outcome : step.outcomes) {
    tally.add(outcome);
  }
}

/// Open-loop connections (the generator's limit is four).
constexpr std::size_t kOpenConnections = 4;
/// Lowest rung of the rate ladder, requests per second.
constexpr double kLadderStart = 100.0;

/// Set-up, nominal-rate phase, pipelined phase, then the rate ladder.
RunResult run_open(const WorkloadSpec& spec, const Args& args) {
  RunResult out;
  const HitWorkload w = hit_references(args.seed);
  const ZipfPicker zipf(w.catalogue.size());
  constexpr int kSetups = 5;
  Stack stack;
  std::vector<std::unique_ptr<Conn>> owned;
  std::vector<Conn*> conns;
  for (int s = 0; s < kSetups; ++s) {
    if (s > 0) {
      owned.clear();
      conns.clear();
      out.servers_drained = stack.stop() && out.servers_drained;
    }
    FailureTally fill_tally;
    const double t0 = now_s();
    stack = launch(spec, args, args.work + "/stack" + std::to_string(s));
    for (std::size_t c = 0; c < kOpenConnections; ++c) {
      owned.push_back(std::make_unique<Conn>(stack.port));
      owned.back()->set_receive_timeout_ms(30000);
      conns.push_back(owned.back().get());
    }
    const std::vector<std::uint64_t> digests = warm_fill(conns, w, fill_tally);
    out.setup_wall.push_back(now_s() - t0);
    out.setup_cpu.push_back(stack.cpu_seconds());
    if (s + 1 == kSetups) {
      out.digest = digest_hex(digests);
    }
    out.tally.merge(fill_tally);
  }

  // Nominal rate: client latency and the generator's lag.
  const Step nominal =
      open_step(conns, w, zipf, derive_seed(args.seed, 10), spec.nominal_rate,
                0.2 * args.seconds, "n");
  tally_step(nominal, out.tally);
  std::vector<double> latencies;
  std::vector<double> lags;
  for (std::size_t i = 0; i < nominal.requests.size(); ++i) {
    latencies.push_back(latency_ms(nominal.requests[i], nominal.outcomes[i]));
    lags.push_back(1e3 *
                   (nominal.requests[i].sent - nominal.requests[i].scheduled));
  }
  const Quantiles q = latency_quantiles(latencies);
  out.client["p50_ms"] = q.p50;
  out.client["p99_ms"] = slice_median_tail(latencies);
  out.client["latency_samples"] = static_cast<double>(q.samples);
  const std::size_t per_slice = q.samples / kSlices;
  out.client["tail_percentile"] =
      per_slice < 11 ? q.tail_percentile
                     : 100.0 * static_cast<double>(tail_rank(per_slice) + 1) /
                           static_cast<double>(per_slice);
  out.lag_p99_ms = latency_quantiles(lags).tail;
  out.client["generator_lag_p99_ms"] = out.lag_p99_ms;

  // Saturation: one connection with kWindow requests in flight, answered
  // back to back, so the server CPU per cell is the hit path's own cost
  // rather than the idle wake-ups of a lightly loaded server. Five equal
  // segments, half the run in all; the median segment is reported.
  {
    constexpr std::size_t kWindow = 16;
    const double segment_s = 0.1 * args.seconds;
    // More requests than a segment can send (40k/s is twice the fastest
    // rate seen).
    const auto per_segment =
        static_cast<std::size_t>(40000.0 * segment_s) + 1000;
    Rng rng(derive_seed(args.seed, 30));
    std::vector<double> cpu_per_cell;
    double cells = 0.0;
    std::size_t sent = 0;
    const double t0 = now_s();
    for (std::size_t segment = 0; segment < kCostSegments; ++segment) {
      std::vector<WireRequest> requests(per_segment);
      std::vector<std::size_t> entries(requests.size());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        entries[i] = zipf.draw(rng);
        requests[i].id = tagged("s", sent + i);
        requests[i].line = w.catalogue[entries[i]].render(requests[i].id);
      }
      Conn conn(stack.port);  // the loop ends by closing its read side
      conn.set_receive_timeout_ms(30000);
      const double cpu0 = stack.cpu_seconds();
      const std::size_t count = run_window_loop(
          conn, requests, kWindow, now_s() + segment_s);
      const double cpu = stack.cpu_seconds() - cpu0;
      double segment_cells = 0.0;
      for (std::size_t i = 0; i < count; ++i) {
        out.tally.add(
            verify(requests[i].digest, w.hit_refs[entries[i]], true));
        segment_cells += static_cast<double>(requests[i].digest.cells);
      }
      cpu_per_cell.push_back(1e6 * cpu / segment_cells);
      cells += segment_cells;
      sent += count;
    }
    const double wall = now_s() - t0;
    out.e2e["server_cpu_us_per_cell"] = median(cpu_per_cell);
    out.client["requests_per_s"] = static_cast<double>(sent) / wall;
    out.client["cells_per_s"] = cells / wall;
  }

  // Ladder: bisection over fixed rungs kLadderStart * 1.05^k; a failing
  // rung is re-probed once before it counts as failed.
  constexpr int kRungs = 100;
  constexpr int kMaxProbes = 10;
  const double probe_s = 0.03 * args.seconds;
  int lo = -1;      // highest rung known to pass
  int hi = kRungs;  // lowest rung known to fail
  int probes = 0;
  out.ladder = "[";
  while (hi - lo > 1 && probes < kMaxProbes) {
    const int rung = (lo + hi) / 2;
    const double rate = kLadderStart * std::pow(1.05, rung);
    ProbeVerdict verdict;
    for (int attempt = 0; attempt < 2 && probes < kMaxProbes; ++attempt) {
      const Step step = open_step(
          conns, w, zipf, derive_seed(args.seed, 20, probes), rate, probe_s,
          tagged("l", static_cast<std::size_t>(probes)) + "-");
      ++probes;
      tally_step(step, out.tally);
      verdict = judge(step, spec.latency_limit_ms);
      out.ladder += std::string(out.ladder.size() > 1 ? "," : "") +
                    "{\"rate\":" + number(rate) +
                    ",\"tail_ms\":" + number(verdict.tail_ms) +
                    ",\"failures\":" + std::to_string(verdict.failures) +
                    ",\"backlog_growing\":" +
                    (verdict.backlog_growing ? "true" : "false") +
                    ",\"pass\":" + (verdict.pass ? "true" : "false") + "}";
      if (verdict.pass) {
        break;
      }
    }
    if (verdict.pass) {
      lo = rung;
    } else {
      hi = rung;
    }
  }
  out.ladder += "]";
  out.client["max_rate_rps"] =
      lo >= 0 ? kLadderStart * std::pow(1.05, lo) : 0.0;

  if (args.trace) {
    // Client spans for the nominal phase share the replay's request ids.
    std::vector<double> request_us;
    for (const WireRequest& r : nominal.requests) {
      if (r.done > 0.0) {
        request_us.push_back(1e6 * (r.done - r.scheduled));
      }
    }
    out.layer["net.client.request_p50_us"] = median(request_us);
    for (std::size_t i = 0; i < w.catalogue.size(); ++i) {
      out.replay_warm.push_back(w.catalogue[i].render(tagged("w", i)));
    }
    for (std::size_t i = 0; i < nominal.requests.size() && i < 4000; ++i) {
      out.replay_lines.push_back(nominal.requests[i].line);
    }
    out.kernel_requests = 40;
  }
  out.e2e["server_rss_mb"] = stack.peak_rss_mb();
  if (args.trace) {
    wire_layers(spec, stack, out);
  }
  owned.clear();
  out.servers_drained = stack.stop() && out.servers_drained;
  return out;
}

// -------------------------------------------------------- closed loop --

RunResult run_closed(const WorkloadSpec& spec, const Args& args) {
  RunResult out;
  constexpr int kSetups = 9;
  Stack stack;
  for (int s = 0; s < kSetups; ++s) {
    if (s > 0) {
      out.servers_drained = stack.stop() && out.servers_drained;
    }
    const double t0 = now_s();
    stack = launch(spec, args, args.work + "/stack" + std::to_string(s));
    out.setup_wall.push_back(now_s() - t0);
    out.setup_cpu.push_back(stack.cpu_seconds());
  }

  // One client. The stream is long enough that the window, not the
  // stream, ends the run.
  const std::size_t length =
      static_cast<std::size_t>((spec.simulate ? 400.0 : 2000.0) *
                               args.seconds) +
      spec.cost_requests;
  const std::vector<RequestBody> bodies =
      spec.simulate ? simulate_stream(args.seed, 0, length)
                    : cold_stream(args.seed, 0, length);
  std::vector<WireRequest> stream(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    stream[i].id = tagged("c", i);
    stream[i].line = bodies[i].render(stream[i].id);
  }

  // Server CPU is read at six marks over the first cost_requests
  // answers (about 60% of a run at the calibrated rates): a fixed amount
  // of work, so the cost per cell does not depend on how far a faster or
  // slower host got.
  const std::size_t per_segment = spec.cost_requests / kCostSegments;
  std::vector<double> cpu_marks;
  Conn conn(stack.port);
  conn.set_receive_timeout_ms(60000);
  cpu_marks.push_back(stack.cpu_seconds());
  const double start = now_s();
  const std::size_t sent = run_closed_loop(
      conn, stream, start + args.seconds, per_segment * kCostSegments,
      [&](std::size_t answered) {
        if (answered % per_segment == 0 &&
            answered <= per_segment * kCostSegments) {
          cpu_marks.push_back(stack.cpu_seconds());
        }
      });
  double end = start;
  for (std::size_t i = 0; i < sent; ++i) {
    end = std::max(end, stream[i].done);
  }
  const double wall = end - start;
  out.e2e["server_rss_mb"] = stack.peak_rss_mb();
  if (args.trace) {
    wire_layers(spec, stack, out);
  }
  out.servers_drained = stack.stop() && out.servers_drained;

  // Reference answers from fresh in-process services, one single-threaded
  // session per core, each answering a contiguous share of the stream.
  // A cold_grids lane first replays, unrecorded, the 256 requests before
  // its share, so every repeat finds its original cached as on the wire;
  // simulate requests are independent (distinct seeds).
  const std::size_t lanes = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t share = (sent + lanes - 1) / lanes;
  const std::size_t reach_back = spec.simulate ? 0 : 256;
  std::vector<ResponseDigest> refs(sent);
  std::vector<std::exception_ptr> errors(lanes);
  std::vector<std::thread> replayers;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    replayers.emplace_back([&, lane] {
      try {
        ru::ThreadPool pool(1);
        rs::SweepService service(reference_options(pool));
        ReferenceSession session(service);
        const std::size_t begin = std::min(sent, lane * share);
        const std::size_t end = std::min(sent, begin + share);
        for (std::size_t i = begin > reach_back ? begin - reach_back : 0;
             i < begin; ++i) {
          (void)session.answer(stream[i].line, stream[i].id);
        }
        for (std::size_t i = begin; i < end; ++i) {
          refs[i] = session.answer(stream[i].line, stream[i].id);
        }
      } catch (...) {
        errors[lane] = std::current_exception();
      }
    });
  }
  for (std::thread& t : replayers) {
    t.join();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }

  std::vector<double> latencies;
  std::vector<double> request_us;
  std::vector<std::uint64_t> digests;
  std::vector<double> segment_cells(kCostSegments, 0.0);
  double cells = 0.0;
  double runs = 0.0;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < sent; ++i) {
    const WireRequest& r = stream[i];
    const Outcome outcome = verify(r.digest, refs[i], spec.simulate);
    out.tally.add(outcome);
    latencies.push_back(latency_ms(r, outcome));
    if (outcome == Outcome::kOk) {
      ++completed;
      cells += static_cast<double>(r.digest.cells);
      runs += static_cast<double>(r.digest.runs);
      request_us.push_back(1e6 * (r.done - r.sent));
    }
    if (i < per_segment * kCostSegments) {
      segment_cells[i / per_segment] += static_cast<double>(r.digest.cells);
      digests.push_back(r.digest.unordered);
    }
  }
  const Quantiles q = latency_quantiles(latencies);
  out.client["p50_ms"] = q.p50;
  out.client["p99_ms"] = q.tail;
  out.client["latency_samples"] = static_cast<double>(q.samples);
  out.client["tail_percentile"] = q.tail_percentile;
  out.client["requests_per_s"] = static_cast<double>(completed) / wall;
  out.client["cells_per_s"] = cells / wall;
  if (spec.simulate) {
    out.client["sim_runs_per_s"] = runs / wall;
  }
  // Throws when the server stopped answering before the last mark.
  out.e2e["server_cpu_us_per_cell"] =
      1e6 * median(segment_costs(cpu_marks, segment_cells));
  out.digest = digest_hex(digests);
  out.ladder = "[]";

  if (args.trace) {
    out.layer["net.client.request_p50_us"] = median(request_us);
    const std::size_t replay = spec.simulate ? 24 : 120;
    for (std::size_t i = 0; i < replay && i < sent; ++i) {
      out.replay_lines.push_back(stream[i].line);
    }
    out.kernel_requests = spec.simulate ? 8 : 30;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string metrics_json(const std::vector<MetricDef>& defs,
                         const Metrics& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    const double value = it == values.end() ? 0.0 : it->second;
    if (i > 0) {
      out += ',';
    }
    out += quote(defs[i].name) + ":{\"value\":" +
           number(value) + ",\"unit\":" + quote(defs[i].unit) + "}";
  }
  return out + "}";
}

std::string array_json(const std::vector<double>& values) {
  std::string out = "[";
  for (const double value : values) {
    if (out.size() > 1) {
      out += ',';
    }
    out += number(value);
  }
  return out + "]";
}

std::string object_json(const Metrics& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) {
      out += ',';
    }
    out += quote(name) + ":" + number(value);
  }
  return out + "}";
}

int run(const Args& args) {
  const WorkloadSpec spec = workload_spec(args.workload);
  make_dir(args.work);
  RunResult result =
      spec.loop == Loop::kOpen ? run_open(spec, args) : run_closed(spec, args);

  if (args.trace) {
    const ReplayReport replay = replay_in_process(
        result.replay_warm, result.replay_lines, result.kernel_requests);
    for (const auto& [name, value] : replay.metrics) {
      result.layer[name] = value;
    }
  }

  const bool valid = spec.loop == Loop::kClosed ||
                     result.lag_p99_ms <= spec.latency_limit_ms;
  const FailureTally& t = result.tally;
  // Set-up is charged in the daemon's CPU time: on a shared host its
  // wall time swings threefold with stolen time (METHODOLOGY.md).
  result.e2e["setup_s"] = median(result.setup_cpu);
  result.client["setup_wall_s"] = median(result.setup_wall);
#ifdef PERFBENCH_BUILD_TYPE
  const char* build_type = PERFBENCH_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  std::cout << "{\"detail\":{\"workload\":" << quote(spec.name)
            << ",\"seed\":" << args.seed << ",\"seconds\":"
            << number(args.seconds) << ",\"trace\":" << (args.trace ? 1 : 0)
            << ",\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"cpu_model\":" << quote(cpu_model())
            << ",\"compiler\":" << quote(__VERSION__)
            << ",\"build_type\":" << quote(build_type)
            << ",\"valid\":" << (valid ? "true" : "false")
            << ",\"latency_limit_ms\":" << number(spec.latency_limit_ms)
            << ",\"client\":" << object_json(result.client)
            << ",\"failed_ratio\":" << number(t.failed_ratio())
            << ",\"failures\":{\"error\":" << t.errors
            << ",\"overloaded\":" << t.overloaded
            << ",\"deadline\":" << t.deadline << ",\"missing\":" << t.missing
            << ",\"wrong_bytes\":" << t.wrong_bytes << "}"
            << ",\"servers_drained\":"
            << (result.servers_drained ? "true" : "false")
            << ",\"setup_cpu_samples_s\":" << array_json(result.setup_cpu)
            << ",\"setup_wall_samples_s\":" << array_json(result.setup_wall)
            << ",\"digest\":" << quote(result.digest)
            << ",\"ladder\":" << result.ladder << "}}\n";
  if (!valid) {
    std::cerr << "perfbench: run INVALID: generator lag p99 "
              << result.lag_p99_ms << " ms exceeds the latency limit\n";
  }
  const bool correct = t.failed() == 0 && result.servers_drained;
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << t.sent << ",\"failed\":" << t.failed()
            << ",\"metrics\":"
            << (args.trace ? metrics_json(kPerLayer, result.layer)
                           : metrics_json(kEndToEnd, result.e2e))
            << "}\n";
  std::cout.flush();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = perfbench::parse_args(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_load: " << error.what() << "\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_load: " << error.what() << "\n";
    return 1;
  }
}
