#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

namespace perfbench {

namespace {

const std::vector<std::string> kPlatforms = {"hera", "atlas", "coastal",
                                             "coastalssd"};
const std::vector<std::size_t> kNodeCounts = {256,  512,   1024,  2048,
                                              4096, 8192, 16384, 32768};
const std::vector<std::string> kKinds = {"PD",  "PDV*",  "PDV",
                                         "PDM", "PDMV*", "PDMV"};

/// `count` distinct indices below `n`, in a seeded random order.
std::vector<std::size_t> pick_distinct(Rng& rng, std::size_t n,
                                       std::size_t count) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) {
    all[i] = i;
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(all[i], all[i + rng.below(n - i)]);
  }
  all.resize(count);
  return all;
}

std::string string_array(const std::vector<std::string>& names,
                         const std::vector<std::size_t>& picks) {
  std::string out = "[";
  for (std::size_t i = 0; i < picks.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out.append("\"").append(names[picks[i]]).append("\"");
  }
  return out + "]";
}

std::string node_array(const std::vector<std::size_t>& picks) {
  std::string out = "[";
  for (std::size_t i = 0; i < picks.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(kNodeCounts[picks[i]]);
  }
  return out + "]";
}

/// Kinds subset of size `count`, kept in the paper's order.
std::string kind_array(Rng& rng, std::size_t count) {
  std::vector<std::size_t> picks = pick_distinct(rng, kKinds.size(), count);
  std::sort(picks.begin(), picks.end());
  return string_array(kKinds, picks);
}

std::string fixed(double value, int digits) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.*f", digits, value);
  return text;
}

}  // namespace

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "hot_hits") {
    spec.nominal_rate = 300.0;
    spec.latency_limit_ms = 25.0;
    spec.server_args = {"--threads=1", "--request-workers=1",
                        "--cache-capacity=1024"};
  } else if (name == "cold_grids") {
    spec.loop = Loop::kClosed;
    spec.cost_requests = 8000;
    // Room for every grid a repeat can reach back to (256 requests), so
    // repeats are hits; older tables are evicted as the stream goes on. No
    // --cache-dir: with one, each eviction rewrites the spill sidecar,
    // whose cost grows with every table spilled and made server CPU per
    // cell swing by up to 24% between runs (METHODOLOGY.md).
    spec.server_args = {"--threads=1", "--request-workers=1",
                        "--cache-capacity=256"};
  } else if (name == "simulate") {
    spec.loop = Loop::kClosed;
    spec.simulate = true;
    spec.cost_requests = 2500;
    spec.server_args = {"--threads=1", "--request-workers=1",
                        "--cache-capacity=64"};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return spec;
}

std::vector<RequestBody> hit_catalogue(std::uint64_t seed) {
  constexpr std::size_t kSize = 256;
  Rng rng(derive_seed(seed, 1));
  std::set<std::string> seen;
  std::vector<RequestBody> catalogue;
  while (catalogue.size() < kSize) {
    // The grid's shape (platforms x node counts x kinds) is a function of
    // its catalogue index, which is also its popularity rank: the mix of
    // answer sizes the traffic sees is the same for every seed, and the
    // seed picks only which platforms, node counts and kinds fill it.
    const std::size_t e = catalogue.size();
    const std::size_t platforms = 1 + e % 2;
    const std::size_t nodes = 1 + (e / 2) % 2;
    const std::size_t kinds = 1 + (e / 4) % 6;
    std::string rest =
        "\"platforms\":" +
        string_array(kPlatforms,
                     pick_distinct(rng, kPlatforms.size(), platforms)) +
        ",\"node_counts\":" +
        node_array(pick_distinct(rng, kNodeCounts.size(), nodes)) +
        ",\"kinds\":" + kind_array(rng, kinds) + "}";
    if (seen.insert(rest).second) {
      catalogue.push_back(RequestBody{std::move(rest)});
    }
  }
  return catalogue;
}

ZipfPicker::ZipfPicker(std::size_t size) {
  double total = 0.0;
  for (std::size_t rank = 0; rank < size; ++rank) {
    total += 1.0 / static_cast<double>(rank + 1);
    cdf_.push_back(total);
  }
  for (double& value : cdf_) {
    value /= total;
  }
}

std::size_t ZipfPicker::draw(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

std::vector<RequestBody> cold_stream(std::uint64_t seed, std::size_t client,
                                     std::size_t count) {
  Rng rng(derive_seed(seed, 4, client));
  std::vector<RequestBody> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i >= 16 && i % 8 == 7) {
      const std::size_t reach = std::min<std::size_t>(i, 256);
      const std::size_t back = 16 + rng.below(reach - 15);
      stream.push_back(stream[i - back]);
      continue;
    }
    // The override value is unique per (client, index) by construction —
    // disjoint intervals — so no two fresh grids share a chain.
    const double disk = 30.0 + 0.001 * static_cast<double>(i * 2 + client) +
                        0.0009 * rng.uniform();
    stream.push_back(RequestBody{
        "\"platforms\":" +
        string_array(kPlatforms, pick_distinct(rng, kPlatforms.size(), 2)) +
        ",\"node_counts\":" +
        node_array(pick_distinct(rng, kNodeCounts.size(), 1 + i % 3)) +
        ",\"cost_overrides\":[{\"disk_checkpoint\":" + fixed(disk, 7) +
        "}]}"});
  }
  return stream;
}

std::vector<RequestBody> simulate_stream(std::uint64_t seed,
                                         std::size_t client,
                                         std::size_t count) {
  Rng rng(derive_seed(seed, 5, client));
  std::vector<RequestBody> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Distinct per (client, index) by construction, below the 1e15 cap.
    const std::uint64_t sim_seed =
        (static_cast<std::uint64_t>(i) * 2 + client) * 1000003 +
        rng.below(1000000) + 1;
    // Three shapes in turn (2, 4 or 8 cells): the median and the tail each
    // sit inside one mode rather than on a boundary, and the mix is the
    // same for every seed.
    std::string axes;
    switch (i % 3) {
      case 0:
        break;  // plain cells: the Poisson fast path only
      case 1:
        axes = ",\"weibull_shape\":[1,0.7]";
        break;
      default:
        axes = ",\"weibull_shape\":[1,0.7],\"faulty_ops\":[1,0.5]";
        break;
    }
    stream.push_back(RequestBody{
        "\"mode\":\"simulate\",\"platforms\":" +
        string_array(kPlatforms, pick_distinct(rng, kPlatforms.size(), 1)) +
        ",\"node_counts\":" +
        node_array(pick_distinct(rng, kNodeCounts.size(), 1)) +
        ",\"kinds\":" + kind_array(rng, 2) +
        ",\"sim\":{\"seed\":" + std::to_string(sim_seed) +
        ",\"target_ci\":0.1,\"max_runs\":96,\"min_runs\":32,"
        "\"patterns_per_run\":10" +
        axes + "}}"});
  }
  return stream;
}

}  // namespace perfbench
