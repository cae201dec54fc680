#pragma once

// The three workloads: their fixed settings and the request streams they
// generate from the workload seed. Requests are plain JSONL text; the
// servers see nothing but these lines.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

enum class Loop { kOpen, kClosed };

/// Fixed per-workload settings (calibrated on a 4-core x86 box; see
/// METHODOLOGY.md). Rates are requests per second.
struct WorkloadSpec {
  std::string name;
  Loop loop = Loop::kOpen;
  bool simulate = false;      ///< "mode": "simulate" traffic
  double nominal_rate = 0.0;    ///< open loop: rate for p50/p99
  double latency_limit_ms = 0.0;  ///< p99 limit on the ladder / validity
  /// Closed loop: the server CPU cost is taken over this many first
  /// requests (always completed, however slow the host), in five equal
  /// segments.
  std::size_t cost_requests = 0;
  std::vector<std::string> server_args;  ///< sweep_serverd flags
};

/// Throws std::invalid_argument for an unknown name.
WorkloadSpec workload_spec(const std::string& name);

/// A request without its id: render(id) gives the JSONL line.
struct RequestBody {
  std::string rest;  ///< JSON members after "id", closing brace included
  [[nodiscard]] std::string render(const std::string& id) const {
    return "{\"id\":\"" + id + "\"," + rest + "\n";
  }
};

/// hot_hits: the fixed catalogue of small analytic grids.
std::vector<RequestBody> hit_catalogue(std::uint64_t seed);

/// Zipf(1) popularity over `size` catalogue entries: entry r is the r-th
/// most popular. draw() returns a catalogue index.
class ZipfPicker {
 public:
  explicit ZipfPicker(std::size_t size);
  std::size_t draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// cold_grids: client `client`'s stream of `count` never-repeated grids
/// (a unique disk-checkpoint override each, 1 to 3 node counts in turn),
/// every eighth replaced by a repeat of a grid 16 to 256 requests back in
/// the same stream.
std::vector<RequestBody> cold_stream(std::uint64_t seed, std::size_t client,
                                     std::size_t count);

/// simulate: client `client`'s stream of simulate requests, each with a
/// distinct sim.seed; half carry Weibull-shape and/or faulty-ops axes.
std::vector<RequestBody> simulate_stream(std::uint64_t seed,
                                         std::size_t client,
                                         std::size_t count);

}  // namespace perfbench
