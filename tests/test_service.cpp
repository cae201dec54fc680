// Tests for the service layer: request parsing/validation with
// field-naming errors, grid signatures, the LRU table cache (hits
// bit-identical to recomputes at several pool sizes), streaming delivery
// (exact cell set, no dupes/drops), in-flight dedupe, the
// byte-identical SweepTable JSON round trip, and the response-line wire
// format (literal pins plus a seeded equivalence against the
// tree-building reference in serialize_reference.hpp).

#include "resilience/service/sweep_service.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "resilience/net/fault.hpp"
#include "resilience/service/jsonl_session.hpp"
#include "resilience/service/scenario_request.hpp"
#include "resilience/service/serialize.hpp"
#include "resilience/service/sim_service.hpp"
#include "resilience/service/submit_pipeline.hpp"
#include "resilience/util/thread_pool.hpp"
#include "serialize_reference.hpp"

namespace rc = resilience::core;
namespace rs = resilience::service;
namespace ru = resilience::util;

namespace {

/// Small but non-trivial grid: 2 platforms x 2 node counts x 2 families.
rc::ScenarioGrid small_grid() {
  rc::ScenarioGrid grid;
  grid.platforms = {rc::hera(), rc::atlas()};
  grid.node_counts = {512, 2048};
  grid.kinds = {rc::PatternKind::kD, rc::PatternKind::kDMV};
  return grid;
}

/// Collects streamed cells for set comparisons.
class CollectSink final : public rc::CellSink {
 public:
  void on_cell(const rc::SweepCell& cell) override { cells_.push_back(cell); }
  [[nodiscard]] const std::vector<rc::SweepCell>& cells() const noexcept {
    return cells_;
  }

 private:
  std::vector<rc::SweepCell> cells_;
};

/// RAII scratch directory under the test working directory (never /tmp:
/// the persistence tests must stay inside the build tree).
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::path("sweep_cache_test") / name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// Exact cell-set equality: every table cell streamed exactly once,
/// bit-identical; nothing extra.
void expect_exact_cell_set(const rc::SweepTable& table,
                           const std::vector<rc::SweepCell>& streamed) {
  ASSERT_EQ(streamed.size(), table.cells.size());
  std::vector<int> seen(table.cells.size(), 0);
  for (const rc::SweepCell& cell : streamed) {
    const rc::SweepCell& expected = table.cell(cell.point_index, cell.kind);
    EXPECT_TRUE(rc::cells_bit_identical(cell, expected))
        << "cell (" << cell.point_index << ", "
        << rc::pattern_name(cell.kind) << ")";
    const std::size_t flat = &expected - table.cells.data();
    ++seen[flat];
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "cell " << i << " delivered " << seen[i]
                          << " times";
  }
}

/// One submission as the spill-verification tests see it.
struct Served {
  rc::GridSignature signature;
  bool cache_hit = false;
  bool matches_cold = false;  ///< bit-identical to a cache-less compute
};

/// A request kind whose tables spill to the disk tier: the analytic grid
/// ('<hex>.json') or a simulate request ('<hex>.sim.json'). `other`
/// selects a second request of the same kind with a different signature.
struct SpillInput {
  std::string name;
  std::string suffix;
  std::function<Served(rs::SweepService&, bool other)> submit;
  /// The service computed the request exactly once.
  std::function<bool(const rs::SweepService&)> computed_once;
  std::function<std::uint64_t(const rs::SweepService&)> disk_rejects;
};

SpillInput analytic_spill_input() {
  const auto grid_for = [](bool other) {
    rc::ScenarioGrid grid = small_grid();
    if (other) {
      grid.node_counts = {1024};
    }
    return grid;
  };
  return {"analytic", ".json",
          [grid_for](rs::SweepService& service, bool other) {
            const rc::ScenarioGrid grid = grid_for(other);
            const rs::SubmitResult result = service.submit(grid);
            return Served{result.signature, result.cache_hit,
                          rc::tables_bit_identical(
                              *result.table, rc::SweepRunner().run(grid))};
          },
          [](const rs::SweepService& service) {
            return service.tables_computed() == 1;
          },
          [](const rs::SweepService& service) {
            return service.cache().tables().counters().disk_rejects;
          }};
}

SpillInput simulate_spill_input() {
  // One hera point x one family at a small run budget: one cell.
  const auto request_for = [](bool other) {
    rs::ScenarioRequest request;
    request.id = "sim";
    request.grid.platforms = {rc::hera()};
    request.grid.node_counts = {other ? 1024u : 512u};
    request.grid.kinds = {rc::PatternKind::kD};
    request.simulate = true;
    request.sim.min_runs = 16;
    request.sim.max_runs = 32;
    request.sim.patterns_per_run = 20;
    return request;
  };
  return {"simulate", ".sim.json",
          [request_for](rs::SweepService& service, bool other) {
            const rs::ScenarioRequest request = request_for(other);
            const rs::SimSubmitResult result = service.sim().submit(request);
            rs::SweepService cold;
            const rs::SimSubmitResult fresh = cold.sim().submit(request);
            return Served{result.signature, result.cache_hit,
                          rs::sim_tables_bit_identical(*result.table,
                                                       *fresh.table)};
          },
          [](const rs::SweepService& service) {
            return service.sim().cells_computed() == 1;
          },
          [](const rs::SweepService& service) {
            return service.stats().sim_disk_rejects;
          }};
}

}  // namespace

// ---------------------------------------------------------- signatures --

TEST(GridSignature, StableAcrossCallsAndHexFormatted) {
  const auto grid = small_grid();
  const rc::SweepOptions options;
  const auto a = rc::grid_signature(grid, options);
  const auto b = rc::grid_signature(grid, options);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hex().size(), 16u);
  EXPECT_EQ(a.hex(), b.hex());
}

TEST(GridSignature, SensitiveToContentNotSchedule) {
  const auto grid = small_grid();
  rc::SweepOptions options;
  const auto base = rc::grid_signature(grid, options);

  // Execution policy must NOT change the signature (results are pinned
  // identical across pools and warm/cold starts).
  rc::SweepOptions policy = options;
  policy.warm_start = false;
  policy.warm_scan_radius = 3;
  ru::ThreadPool pool(2);
  policy.pool = &pool;
  EXPECT_EQ(rc::grid_signature(grid, policy), base);

  // Anything observable must.
  auto changed = grid;
  changed.node_counts[1] = 4096;
  EXPECT_NE(rc::grid_signature(changed, options), base);

  changed = grid;
  changed.kinds = {rc::PatternKind::kD};
  EXPECT_NE(rc::grid_signature(changed, options), base);

  changed = grid;
  rc::CostOverride cd;
  cd.disk_checkpoint = 90.0;
  changed.cost_overrides = {cd};
  EXPECT_NE(rc::grid_signature(changed, options), base);

  rc::SweepOptions no_numeric = options;
  no_numeric.numeric_optimum = false;
  EXPECT_NE(rc::grid_signature(grid, no_numeric), base);

  rc::SweepOptions tighter = options;
  tighter.optimizer.max_chunks = 16;
  EXPECT_NE(rc::grid_signature(grid, tighter), base);
}

// ------------------------------------------------------------ requests --

TEST(ScenarioRequest, ParsesCatalogAndCustomPlatforms) {
  const auto request = rs::ScenarioRequest::parse(R"({
    "id": "r1",
    "platforms": ["hera",
                  {"name": "lab", "nodes": 4096, "fail_stop": 2.3e-7,
                   "silent": 1.8e-7, "disk_checkpoint": 120.0,
                   "memory_checkpoint": 5.0}],
    "node_counts": [1024, 4096],
    "rate_factors": [{"fail_stop": 2.0}],
    "cost_overrides": [{"disk_checkpoint": 90.0}],
    "kinds": ["PD", "PDMV*"],
    "numeric_optimum": false})");
  EXPECT_EQ(request.id, "r1");
  ASSERT_EQ(request.grid.platforms.size(), 2u);
  EXPECT_EQ(request.grid.platforms[0].name, "Hera");
  EXPECT_EQ(request.grid.platforms[1].name, "lab");
  EXPECT_EQ(request.grid.platforms[1].nodes, 4096u);
  EXPECT_EQ(request.grid.node_counts, (std::vector<std::size_t>{1024, 4096}));
  ASSERT_EQ(request.grid.rate_factors.size(), 1u);
  EXPECT_DOUBLE_EQ(request.grid.rate_factors[0].fail_stop, 2.0);
  EXPECT_DOUBLE_EQ(request.grid.rate_factors[0].silent, 1.0);  // default
  ASSERT_EQ(request.grid.cost_overrides.size(), 1u);
  EXPECT_DOUBLE_EQ(request.grid.cost_overrides[0].disk_checkpoint, 90.0);
  EXPECT_DOUBLE_EQ(request.grid.cost_overrides[0].recall, -1.0);  // sentinel
  EXPECT_EQ(request.grid.kinds,
            (std::vector<rc::PatternKind>{rc::PatternKind::kD,
                                          rc::PatternKind::kDMVg}));
  EXPECT_FALSE(request.numeric_optimum);
}

TEST(ScenarioRequest, ErrorsNameTheOffendingField) {
  const auto field_of = [](const std::string& text) {
    try {
      (void)rs::ScenarioRequest::parse(text);
    } catch (const rs::RequestError& error) {
      return error.field;
    }
    return std::string("<no error>");
  };

  // Unknown field (typo).
  EXPECT_EQ(field_of(R"({"platfroms": ["hera"]})"), "platfroms");
  // Wrong type.
  EXPECT_EQ(field_of(R"({"platforms": "hera"})"), "platforms");
  EXPECT_EQ(field_of(R"({"platforms": ["hera"], "numeric_optimum": 1})"),
            "numeric_optimum");
  EXPECT_EQ(field_of(R"({"platforms": ["hera"], "node_counts": [0]})"),
            "node_counts[0]");
  EXPECT_EQ(field_of(R"({"platforms": ["hera"], "node_counts": [512, "x"]})"),
            "node_counts[1]");
  // Empty platform axis.
  EXPECT_EQ(field_of(R"({"platforms": []})"), "platforms");
  // Missing platform axis.
  EXPECT_EQ(field_of(R"({"id": "r"})"), "platforms");
  // Unknown catalog name / bad custom platform fields.
  EXPECT_EQ(field_of(R"({"platforms": ["nonesuch"]})"), "platforms[0]");
  EXPECT_EQ(field_of(R"({"platforms": [{"nodes": 16}]})"),
            "platforms[0].fail_stop");
  EXPECT_EQ(
      field_of(
          R"({"platforms": [{"nodes": 16, "fail_stop": 1e-7, "silent": 1e-7,
              "disk_checkpoint": -3, "memory_checkpoint": 5}]})"),
      "platforms[0].disk_checkpoint");
  // Unknown pattern family.
  EXPECT_EQ(field_of(R"({"platforms": ["hera"], "kinds": ["PDX"]})"),
            "kinds[0]");
  // Unknown member inside an override object.
  EXPECT_EQ(field_of(
                R"({"platforms": ["hera"], "cost_overrides": [{"recal": 1}]})"),
            "cost_overrides[0].recal");
  // Invalid JSON altogether.
  EXPECT_EQ(field_of("{"), "");
}

TEST(ScenarioRequest, GridValidationNamesAxisAndIndex) {
  const auto message_of = [](const std::string& text) {
    try {
      (void)rs::ScenarioRequest::parse(text);
    } catch (const rs::RequestError& error) {
      return std::string(error.what());
    }
    return std::string("<no error>");
  };
  EXPECT_NE(message_of(R"({"platforms": ["hera"],
                           "rate_factors": [{"fail_stop": 1.0},
                                            {"fail_stop": -2.0}]})")
                .find("rate_factors[1]"),
            std::string::npos);
  EXPECT_NE(message_of(R"({"platforms": ["hera"],
                           "cost_overrides": [{"recall": -0.5}]})")
                .find("cost_overrides[0]"),
            std::string::npos);
}

TEST(ScenarioGridValidate, RejectsBadAxesDirectly) {
  auto grid = small_grid();
  grid.node_counts[0] = 0;
  EXPECT_THROW(grid.validate(), std::invalid_argument);
  try {
    grid.validate();
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("node_counts[0]"),
              std::string::npos);
  }

  grid = small_grid();
  grid.rate_factors.push_back({1.0, 0.0});
  EXPECT_THROW(grid.validate(), std::invalid_argument);

  grid = small_grid();
  rc::CostOverride bad;
  bad.partial_verification = -2.0;  // negative but not the -1 sentinel
  grid.cost_overrides.push_back(bad);
  EXPECT_THROW(grid.validate(), std::invalid_argument);

  // The exact sentinel stays legal.
  grid = small_grid();
  rc::CostOverride sentinel;  // all fields -1
  grid.cost_overrides.push_back(sentinel);
  EXPECT_NO_THROW(grid.validate());
}

// ----------------------------------------------------- cache + service --

TEST(SweepCache, HitIsBitIdenticalToRecomputeAcrossPoolSizes) {
  const auto grid = small_grid();
  rs::SweepService service;

  const rs::SubmitResult cold = service.submit(grid);
  EXPECT_FALSE(cold.cache_hit);
  const rs::SubmitResult cached = service.submit(grid);
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_EQ(cached.signature, cold.signature);
  EXPECT_TRUE(rc::tables_bit_identical(*cold.table, *cached.table));

  // The cached table must equal a from-scratch recompute at every pool
  // size (cold, cached and pools of 1/2/8 all bit-identical).
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ru::ThreadPool pool(threads);
    rc::SweepOptions options;
    options.pool = &pool;
    const rc::SweepTable recomputed = rc::SweepRunner(options).run(grid);
    EXPECT_TRUE(rc::tables_bit_identical(*cached.table, recomputed))
        << "pool size " << threads;
  }
  EXPECT_EQ(service.tables_computed(), 1u);
}

TEST(SweepCache, EvictsLeastRecentlyUsed) {
  rs::SweepCache cache(2);
  const rc::SweepOptions options;
  const auto table = std::make_shared<const rc::SweepTable>();
  cache.insert(rc::GridSignature{1}, table, {});
  cache.insert(rc::GridSignature{2}, table, {});
  EXPECT_NE(cache.find(rc::GridSignature{1}, options), nullptr);  // now MRU
  cache.insert(rc::GridSignature{3}, table, {});  // evicts 2
  EXPECT_EQ(cache.find(rc::GridSignature{2}, options), nullptr);
  EXPECT_NE(cache.find(rc::GridSignature{1}, options), nullptr);
  EXPECT_NE(cache.find(rc::GridSignature{3}, options), nullptr);
  EXPECT_EQ(cache.tables().counters().size, 2u);
}

TEST(SweepCache, ZeroCapacityDisablesCaching) {
  rs::ServiceOptions options;
  options.cache_capacity = 0;
  rs::SweepService service(options);
  const auto grid = small_grid();
  EXPECT_FALSE(service.submit(grid).cache_hit);
  EXPECT_FALSE(service.submit(grid).cache_hit);
  EXPECT_EQ(service.tables_computed(), 2u);
}

// ---------------------------------------------------- cross-grid reuse --

TEST(SeedReuse, RelatedGridsBitIdenticalToColdAcrossPoolSizes) {
  // ISSUE 4's three cross-grid scenarios through the full service path:
  // extended axis (base points recur bit-equal -> value reuse), perturbed
  // axis and disjoint axis (chains match, points differ -> seed-only).
  // Every reused table must equal its cold sweep bit for bit.
  const auto base = small_grid();
  auto extended = base;
  extended.node_counts.push_back(8192);
  auto perturbed = base;
  perturbed.node_counts[1] = 3000;
  auto disjoint = base;
  disjoint.node_counts = {1024, 16384};

  for (const auto* variant : {&extended, &perturbed, &disjoint}) {
    const rc::SweepTable cold = rc::SweepRunner().run(*variant);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ru::ThreadPool pool(threads);
      rs::ServiceOptions options;
      options.sweep.pool = &pool;
      rs::SweepService service(options);

      const rs::SubmitResult first = service.submit(base);
      EXPECT_FALSE(first.cache_hit);
      EXPECT_FALSE(first.seeded);  // nothing cached yet

      CollectSink sink;
      const rs::SubmitResult reused = service.submit(*variant, &sink);
      EXPECT_FALSE(reused.cache_hit) << "pool " << threads;
      EXPECT_TRUE(reused.seeded) << "pool " << threads;
      EXPECT_TRUE(rc::tables_bit_identical(*reused.table, cold))
          << "pool " << threads;
      expect_exact_cell_set(*reused.table, sink.cells());
      EXPECT_GE(service.cache().seed_hits(), 1u) << "pool " << threads;
    }
  }
}

TEST(SeedReuse, RequestFlagOptsOut) {
  rs::SweepService service;
  const auto base = small_grid();
  (void)service.submit(base);

  auto request = rs::ScenarioRequest::parse(R"({
    "platforms": ["hera", "atlas"], "node_counts": [512, 2048, 8192],
    "kinds": ["PD", "PDMV"], "reuse_seeds": false})");
  EXPECT_FALSE(request.reuse_seeds);
  const rs::SubmitResult cold = service.submit(request);
  EXPECT_FALSE(cold.seeded);

  // The same grid with the flag on (a fresh signature is not needed —
  // the cache hit short-circuits, so use a different extension).
  request = rs::ScenarioRequest::parse(R"({
    "platforms": ["hera", "atlas"], "node_counts": [512, 2048, 16384],
    "kinds": ["PD", "PDMV"]})");
  EXPECT_TRUE(request.reuse_seeds);
  const rs::SubmitResult seeded = service.submit(request);
  EXPECT_TRUE(seeded.seeded);
  // Either way: bit-identical to a cold sweep of the request grid.
  EXPECT_TRUE(rc::tables_bit_identical(
      *seeded.table, rc::SweepRunner().run(request.grid)));
}

// --------------------------------------------------------- persistence --

TEST(Persistence, EvictionSpillsAndReloadsByteIdentical) {
  ScratchDir dir("evict_reload");
  rs::ServiceOptions options;
  options.cache_capacity = 1;
  options.cache_dir = dir.str();
  rs::SweepService service(options);

  const auto grid_a = small_grid();
  auto grid_b = small_grid();
  grid_b.node_counts = {1024};

  const rs::SubmitResult first = service.submit(grid_a);
  const std::string before = rs::to_json(*first.table).dump();
  (void)service.submit(grid_b);  // capacity 1: evicts + spills grid_a
  EXPECT_TRUE(std::filesystem::exists(
      dir.path() / (first.signature.hex() + ".json")));

  const rs::SubmitResult reloaded = service.submit(grid_a);
  EXPECT_TRUE(reloaded.cache_hit);
  EXPECT_TRUE(reloaded.disk_hit);
  EXPECT_EQ(service.tables_computed(), 2u);  // reload did not recompute
  EXPECT_TRUE(rc::tables_bit_identical(*first.table, *reloaded.table));
  EXPECT_EQ(rs::to_json(*reloaded.table).dump(), before);  // byte-identical
}

TEST(Persistence, RestartKeepsIdentityCacheAndSeedIndex) {
  ScratchDir dir("restart");
  const auto base = small_grid();
  auto extended = base;
  extended.node_counts.push_back(8192);

  std::string before;
  {
    rs::ServiceOptions options;
    options.cache_dir = dir.str();
    rs::SweepService service(options);
    before = rs::to_json(*service.submit(base).table).dump();
  }  // shutdown spills the LRU + seed sidecar
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "seed_index.json"));

  rs::ServiceOptions options;
  options.cache_dir = dir.str();
  rs::SweepService service(options);

  // Identity tier: the exact grid reloads lazily, zero recomputes.
  const rs::SubmitResult reloaded = service.submit(base);
  EXPECT_TRUE(reloaded.cache_hit);
  EXPECT_TRUE(reloaded.disk_hit);
  EXPECT_EQ(service.tables_computed(), 0u);
  EXPECT_EQ(rs::to_json(*reloaded.table).dump(), before);

  // Seed tier: a related grid warm-starts from the reloaded entry.
  const rs::SubmitResult seeded = service.submit(extended);
  EXPECT_TRUE(seeded.seeded);
  EXPECT_TRUE(rc::tables_bit_identical(*seeded.table,
                                       rc::SweepRunner().run(extended)));
}

TEST(Persistence, SeedIndexAloneSeedsAcrossRestart) {
  // Even without an identity hit first, the sidecar lets a restarted
  // server seed a *different* grid straight from disk.
  ScratchDir dir("seed_from_disk");
  const auto base = small_grid();
  auto extended = base;
  extended.node_counts.push_back(8192);
  {
    rs::ServiceOptions options;
    options.cache_dir = dir.str();
    rs::SweepService service(options);
    (void)service.submit(base);
  }
  rs::ServiceOptions options;
  options.cache_dir = dir.str();
  rs::SweepService service(options);
  const rs::SubmitResult seeded = service.submit(extended);
  EXPECT_FALSE(seeded.cache_hit);
  EXPECT_TRUE(seeded.seeded);
  EXPECT_GE(service.cache().tables().counters().disk_loads, 1u);
  EXPECT_TRUE(rc::tables_bit_identical(*seeded.table,
                                       rc::SweepRunner().run(extended)));
}

TEST(Persistence, SidecarListingASignatureTwiceIndexesTheLastEntryOnly) {
  // A sidecar may list one signature twice (hand-edited or corrupt); the
  // last entry's chains win and the first entry's keys leave no trace.
  ScratchDir dir("sidecar_duplicate");
  const auto base = small_grid();
  {
    rs::ServiceOptions options;
    options.cache_dir = dir.str();
    rs::SweepService service(options);
    (void)service.submit(base);
  }
  const std::filesystem::path sidecar_path = dir.path() / "seed_index.json";
  std::ostringstream text;
  text << std::ifstream(sidecar_path).rdbuf();
  const ru::JsonValue sidecar = ru::JsonValue::parse(text.str());
  const ru::JsonValue::Array& entries = sidecar.find("entries")->as_array();
  ASSERT_EQ(entries.size(), 1u);
  const ru::JsonValue& real_chain =
      entries.front().find("chains")->as_array().front();
  const auto real_key =
      rc::ChainKey::from_hex(real_chain.find("key")->as_string());
  ASSERT_TRUE(real_key.has_value());
  const rc::ChainKey stale_key{real_key->value ^ 1};

  ru::JsonValue stale_chain = ru::JsonValue::object();
  stale_chain.set("key", stale_key.hex());
  stale_chain.set("platform_index", 0);
  stale_chain.set("cost_index", 0);
  stale_chain.set("kind", *real_chain.find("kind"));
  ru::JsonValue stale_chains = ru::JsonValue::array();
  stale_chains.push_back(std::move(stale_chain));
  ru::JsonValue stale_entry = ru::JsonValue::object();
  stale_entry.set("signature", *entries.front().find("signature"));
  stale_entry.set("chains", std::move(stale_chains));
  ru::JsonValue rewritten_entries = ru::JsonValue::array();
  rewritten_entries.push_back(std::move(stale_entry));
  rewritten_entries.push_back(entries.front());
  ru::JsonValue rewritten = ru::JsonValue::object();
  rewritten.set("version", 1);
  rewritten.set("entries", std::move(rewritten_entries));
  std::ofstream(sidecar_path, std::ios::trunc) << rewritten.dump(2);

  rs::ServiceOptions options;
  options.cache_dir = dir.str();
  rs::SweepService service(options);
  EXPECT_FALSE(service.cache().has_seeds(stale_key));
  EXPECT_TRUE(service.cache().has_seeds(*real_key));
}

TEST(Persistence, CorruptSpillIsRejectedNotServed) {
  // Two corruption shapes, both must be rejected in both stores: a
  // tampered *input* field (the recomputed content signature no longer
  // matches the filename) and a tampered *result* field (inputs re-hash
  // clean — only the payload checksum can catch it).
  const auto tamper = [](const std::filesystem::path& file,
                         const std::string& needle,
                         const std::string& replacement) {
    std::ifstream in(file);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();
    const auto at = text.find(needle);
    ASSERT_NE(at, std::string::npos) << needle;
    text.replace(at, needle.size(), replacement);
    std::ofstream out(file, std::ios::trunc);
    out << text;
  };

  const auto expect_rejected = [&](const SpillInput& input, const char* name,
                                   const std::string& needle,
                                   const std::string& replacement) {
    SCOPED_TRACE(input.name);
    ScratchDir dir(std::string(name) + "_" + input.name);
    rc::GridSignature signature;
    {
      rs::ServiceOptions options;
      options.cache_dir = dir.str();
      rs::SweepService service(options);
      signature = input.submit(service, /*other=*/false).signature;
    }
    const std::filesystem::path file =
        dir.path() / (signature.hex() + input.suffix);
    ASSERT_TRUE(std::filesystem::exists(file));
    tamper(file, needle, replacement);

    rs::ServiceOptions options;
    options.cache_dir = dir.str();
    rs::SweepService service(options);
    const Served result = input.submit(service, /*other=*/false);
    EXPECT_FALSE(result.cache_hit) << name;  // recomputed, never served
    EXPECT_TRUE(input.computed_once(service)) << name;
    EXPECT_GE(input.disk_rejects(service), 1u) << name;
    EXPECT_TRUE(result.matches_cold) << name;
  };

  const SpillInput analytic = analytic_spill_input();
  expect_rejected(analytic, "corrupt_input", "\"nodes\":512", "\"nodes\":513");
  expect_rejected(analytic, "corrupt_result", "\"segments_n\":",
                  "\"segments_n\":9");
  const SpillInput simulate = simulate_spill_input();
  expect_rejected(simulate, "corrupt_input", "\"nodes\":512", "\"nodes\":513");
  expect_rejected(simulate, "corrupt_result", "\"mean\":", "\"mean\":9");
}

TEST(Persistence, ForeignSpillUnderWrongNameIsRejected) {
  // A valid table file parked under another request's signature (e.g. a
  // mis-copied cache directory) must be recomputed, not served.
  for (const SpillInput& input :
       {analytic_spill_input(), simulate_spill_input()}) {
    SCOPED_TRACE(input.name);
    ScratchDir dir(std::string("foreign_") + input.name);
    rc::GridSignature signature_a;
    rc::GridSignature signature_b;
    {
      rs::ServiceOptions options;
      options.cache_dir = dir.str();
      rs::SweepService service(options);
      signature_a = input.submit(service, /*other=*/false).signature;
      signature_b = input.submit(service, /*other=*/true).signature;
    }
    // Overwrite A's file with B's content.
    std::filesystem::copy_file(
        dir.path() / (signature_b.hex() + input.suffix),
        dir.path() / (signature_a.hex() + input.suffix),
        std::filesystem::copy_options::overwrite_existing);

    rs::ServiceOptions options;
    options.cache_dir = dir.str();
    rs::SweepService service(options);
    const Served result = input.submit(service, /*other=*/false);
    EXPECT_FALSE(result.cache_hit);
    EXPECT_GE(input.disk_rejects(service), 1u);
    EXPECT_TRUE(result.matches_cold);
  }
}

TEST(SeedReuse, ConcurrentRelatedSubmissionsStayBitIdentical) {
  // The TSan target: concurrent submits of *different* but chain-sharing
  // grids exercise the seed index (reads) against cache inserts (writes).
  const auto base = small_grid();
  std::vector<rc::ScenarioGrid> variants;
  for (const std::size_t extra : {4096u, 8192u, 16384u, 32768u}) {
    auto grid = base;
    grid.node_counts.push_back(extra);
    variants.push_back(std::move(grid));
  }
  rs::SweepService service;
  (void)service.submit(base);

  std::vector<rs::SubmitResult> results(variants.size());
  {
    std::vector<std::thread> threads;
    threads.reserve(variants.size());
    for (std::size_t i = 0; i < variants.size(); ++i) {
      threads.emplace_back(
          [&, i] { results[i] = service.submit(variants[i]); });
    }
    for (auto& thread : threads) {
      thread.join();
    }
  }
  for (std::size_t i = 0; i < variants.size(); ++i) {
    ASSERT_NE(results[i].table, nullptr);
    EXPECT_TRUE(rc::tables_bit_identical(
        *results[i].table, rc::SweepRunner().run(variants[i])))
        << "variant " << i;
  }
}

// ----------------------------------------------------------- streaming --

TEST(SweepStreaming, DeliversExactCellSetAcrossPoolSizes) {
  const auto grid = small_grid();
  const rc::SweepTable reference = rc::SweepRunner().run(grid);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    ru::ThreadPool pool(threads);
    rc::SweepOptions options;
    options.pool = &pool;
    CollectSink sink;
    const rc::SweepTable table = rc::SweepRunner(options).run(grid, sink);
    EXPECT_TRUE(rc::tables_bit_identical(table, reference))
        << "pool size " << threads;
    expect_exact_cell_set(reference, sink.cells());
  }
}

TEST(SweepStreaming, StreamsWithoutNumericOptimumToo) {
  auto grid = small_grid();
  rc::SweepOptions options;
  options.numeric_optimum = false;
  CollectSink sink;
  const rc::SweepTable table = rc::SweepRunner(options).run(grid, sink);
  expect_exact_cell_set(table, sink.cells());
}

TEST(SweepService, StreamsOnMissAndReplaysOnHit) {
  const auto grid = small_grid();
  rs::SweepService service;

  CollectSink live;
  const rs::SubmitResult cold = service.submit(grid, &live);
  expect_exact_cell_set(*cold.table, live.cells());

  CollectSink replay;
  const rs::SubmitResult hit = service.submit(grid, &replay);
  EXPECT_TRUE(hit.cache_hit);
  expect_exact_cell_set(*hit.table, replay.cells());
}

TEST(SweepService, ConcurrentIdenticalSubmissionsDedupe) {
  const auto grid = small_grid();
  rs::SweepService service;

  constexpr std::size_t kThreads = 6;
  std::vector<rs::SubmitResult> results(kThreads);
  std::vector<CollectSink> sinks(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back(
          [&, i] { results[i] = service.submit(grid, &sinks[i]); });
    }
    for (auto& thread : threads) {
      thread.join();
    }
  }

  // However the submissions interleaved, exactly one compute happened and
  // every caller got the full, identical cell set.
  EXPECT_EQ(service.tables_computed(), 1u);
  for (std::size_t i = 0; i < kThreads; ++i) {
    ASSERT_NE(results[i].table, nullptr);
    EXPECT_TRUE(rc::tables_bit_identical(*results[0].table, *results[i].table));
    expect_exact_cell_set(*results[i].table, sinks[i].cells());
  }
}

TEST(SubmitPipeline, JoinerStopsWaitingWhenItsOwnDeadlinePasses) {
  // The leader has no deadline and computes until the test releases it; a
  // joiner whose deadline passes while it waits must unwind on its own
  // token, not hold its worker until the leader's compute ends.
  using TablePtr = std::shared_ptr<const rc::SweepTable>;
  rs::SubmitPipeline<rc::SweepTable> pipeline;
  const rc::GridSignature signature{42};
  std::promise<void> leader_started;
  std::promise<void> release_leader;
  const std::shared_future<void> released =
      release_leader.get_future().share();

  const auto submit = [&](const rc::CancelToken& cancel) {
    return pipeline.submit(
        signature, cancel,
        rs::SubmitSteps{
            .find = [](bool*) { return TablePtr{}; },
            .matches = [](const rc::SweepTable&) { return true; },
            .replay = [](const rc::SweepTable&) {},
            .compute =
                [&](bool) {
                  leader_started.set_value();
                  // Bounded, so a joiner that never unwinds fails the
                  // test instead of hanging it.
                  (void)released.wait_for(std::chrono::seconds(5));
                  return std::make_shared<const rc::SweepTable>();
                },
            .publish = [](const TablePtr&) {}});
  };

  std::thread leader([&] { (void)submit(rc::CancelToken{}); });
  leader_started.get_future().wait();

  rc::CancelToken cancel;
  const auto start = std::chrono::steady_clock::now();
  cancel.set_deadline(start + std::chrono::milliseconds(20));
  bool deadline_expired = false;
  try {
    (void)submit(cancel);
  } catch (const rc::SweepCancelled& cancelled) {
    deadline_expired = cancelled.deadline_expired();
  }
  const auto waited = std::chrono::steady_clock::now() - start;
  const bool leader_still_computing =
      released.wait_for(std::chrono::seconds(0)) != std::future_status::ready;
  release_leader.set_value();
  leader.join();

  EXPECT_TRUE(deadline_expired);
  EXPECT_LT(waited, std::chrono::seconds(2));
  EXPECT_TRUE(leader_still_computing);
  EXPECT_EQ(pipeline.deadline_timeouts(), 1u);
  EXPECT_EQ(pipeline.joins(), 0u);
  EXPECT_EQ(pipeline.computed(), 1u);
}

// ------------------------------------------------------- serialization --

TEST(Serialize, SweepTableJsonRoundTripIsByteIdentical) {
  auto grid = small_grid();
  rc::CostOverride cd;
  cd.disk_checkpoint = 90.0;
  grid.cost_overrides = {cd};  // exercise override fields in the points
  const rc::SweepTable table = rc::SweepRunner().run(grid);

  const std::string once = rs::to_json(table).dump();
  const rc::SweepTable parsed = rs::table_from_json(ru::JsonValue::parse(once));
  const std::string twice = rs::to_json(parsed).dump();
  EXPECT_EQ(once, twice);
  EXPECT_TRUE(rc::tables_bit_identical(table, parsed));
  // The deserialized table is indexed: O(1) cell() works.
  EXPECT_EQ(parsed.cell(0, rc::PatternKind::kDMV).kind, rc::PatternKind::kDMV);
}

TEST(Serialize, TableFromJsonRejectsPermutedCells) {
  rc::SweepOptions options;
  options.numeric_optimum = false;
  const rc::SweepTable table = rc::SweepRunner(options).run(small_grid());
  // Swap two cells: the count still matches, but cell() index arithmetic
  // would silently return wrong data — the parser must reject it.
  rc::SweepTable tampered = table;
  std::swap(tampered.cells[0], tampered.cells[1]);
  EXPECT_THROW((void)rs::table_from_json(ru::JsonValue::parse(
                   rs::to_json(tampered).dump())),
               std::runtime_error);
}

TEST(Serialize, InfinityCellSurvivesRoundTrip) {
  // Degenerate cells carry +inf in exact_at_first_order; the wire format
  // must not corrupt them.
  rc::SweepCell cell;
  cell.kind = rc::PatternKind::kDV;
  cell.exact_at_first_order = std::numeric_limits<double>::infinity();
  const rc::SweepCell parsed = rs::cell_from_json(
      ru::JsonValue::parse(rs::to_json(cell).dump()));
  EXPECT_TRUE(rc::cells_bit_identical(cell, parsed));
}

TEST(Serialize, RequestRoundTrip) {
  const auto request = rs::ScenarioRequest::parse(R"({
    "id": "rt", "platforms": ["atlas"], "node_counts": [256],
    "kinds": ["PDMV"], "numeric_optimum": false})");
  const auto reparsed =
      rs::ScenarioRequest::from_json(request.to_json());
  EXPECT_EQ(reparsed.id, "rt");
  EXPECT_EQ(reparsed.grid.platforms[0].name, "Atlas");
  EXPECT_EQ(reparsed.grid.node_counts, request.grid.node_counts);
  EXPECT_EQ(reparsed.grid.kinds, request.grid.kinds);
  EXPECT_FALSE(reparsed.numeric_optimum);
}

// Literal wire-format pins: every response line kind against bytes
// written by hand, not against a second path through the same renderer.
// The request id carries every escape class of json_quote: '"', '\', a
// newline, control bytes 0x01/0x1f (\u00XX) and raw UTF-8 (passed
// through unescaped).

namespace {

const std::string kPinId =
    "q\"b\\s\nn\x01\x1f" "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80";
const std::string kPinIdJson =
    R"("q\"b\\s\nn\u0001\u001f)" "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\"";
// Leading zero nibbles: the signature is always 16 digits.
const rc::GridSignature kPinSignature{0x00ab12cd34ef5678ull};
const std::string kPinHead =
    R"("request":)" + kPinIdJson + R"(,"signature":"00ab12cd34ef5678")";

rc::SweepCell pin_cell(double exact_at_first_order) {
  rc::SweepCell cell;
  cell.point_index = 3;
  cell.kind = rc::PatternKind::kDMVg;
  cell.first_order.segments_n = 2;
  cell.first_order.chunks_m = 5;
  cell.first_order.rational_n = 1.7320508075688772;
  cell.first_order.rational_m = 4.5;
  cell.first_order.work = 12345.678;
  cell.first_order.overhead = 0.0123;
  cell.first_order.coefficients.error_free = 1.25e-07;
  cell.first_order.coefficients.reexecuted_work = 3e5;
  cell.exact_at_first_order = exact_at_first_order;
  cell.segments_n = 9007199254740991ull;  // 2^53 - 1
  cell.chunks_m = 0;
  cell.work = -0.0;
  cell.overhead = 4.9406564584124654e-324;  // smallest subnormal
  cell.warm_started = true;
  return cell;
}

/// A hand-built embedded stats block (the router's merged shape).
ru::JsonValue pin_stats() {
  ru::JsonValue shard = ru::JsonValue::object();
  shard.set("id", "s\"1");
  shard.set("hits", 2);
  ru::JsonValue shards = ru::JsonValue::array();
  shards.push_back(shard);
  shards.push_back(nullptr);
  shards.push_back(-1.5e-7);
  ru::JsonValue stats = ru::JsonValue::object();
  stats.set("shards", shards);
  return stats;
}
const std::string kPinStatsJson =
    R"({"shards":[{"id":"s\"1","hits":2},null,-1.5e-07]})";

}  // namespace

TEST(WireFormat, CellLineBytesArePinned) {
  const struct {
    double exact;
    const char* token;
  } cases[] = {
      {std::numeric_limits<double>::infinity(), "Infinity"},
      {std::numeric_limits<double>::quiet_NaN(), "NaN"},
      {-0.0, "-0"},
      {2.2250738585072009e-308, "2.225073858507201e-308"},  // largest subnormal
      {9007199254740993.0, "9007199254740992"},  // 2^53 + 1 rounds to 2^53
  };
  for (const auto& c : cases) {
    const std::string expected =
        R"({"type":"cell",)" + kPinHead +
        R"(,"point":3,"kind":"PDMV*","first_order":{"segments_n":2,)"
        R"("chunks_m":5,"rational_n":1.7320508075688772,"rational_m":4.5,)"
        R"("work":12345.678,"overhead":0.0123,"error_free":1.25e-07,)"
        R"("reexecuted_work":3e+05},"exact_at_first_order":)" +
        c.token +
        R"(,"segments_n":9007199254740991,"chunks_m":0,"work":-0,)"
        R"("overhead":5e-324,"warm_started":true})";
    EXPECT_EQ(rs::cell_line(kPinId, kPinSignature, pin_cell(c.exact)),
              expected)
        << c.token;
  }
}

TEST(WireFormat, SimCellLineBytesArePinned) {
  rs::SimCell cell;
  cell.point_index = 1;
  cell.kind = rc::PatternKind::kDV;
  cell.weibull_shape = 0.7;
  cell.faulty_ops = 0.5;
  cell.mean = 0.1234;
  cell.ci_low = 0.1;
  cell.ci_high = 0.15;
  cell.runs = 96;
  cell.early_stopped = true;
  EXPECT_EQ(rs::sim_cell_line(kPinId, kPinSignature, cell),
            R"({"type":"cell",)" + kPinHead +
                R"(,"point":1,"kind":"PDV","weibull_shape":0.7,)"
                R"("faulty_ops":0.5,"mean":0.1234,"ci_low":0.1,)"
                R"("ci_high":0.15,"runs":96,"early_stopped":true})");
}

TEST(WireFormat, DoneLineBytesArePinnedWithAndWithoutStats) {
  rc::SweepTable table;
  table.kinds = {rc::PatternKind::kD, rc::PatternKind::kDMVg};
  table.points.resize(2);
  table.cells.resize(4);
  const std::string summary =
      R"({"type":"done",)" + kPinHead +
      R"(,"points":2,"kinds":["PD","PDMV*"],"cells":4,)";
  EXPECT_EQ(rs::done_line(kPinId, kPinSignature, table, true, false),
            summary + R"("cache_hit":true,"joined_in_flight":false})");
  const ru::JsonValue stats = pin_stats();
  EXPECT_EQ(rs::done_line(kPinId, kPinSignature, table, false, true, &stats),
            summary + R"("cache_hit":false,"joined_in_flight":true,"stats":)" +
                kPinStatsJson + "}");
}

TEST(WireFormat, SimDoneLineBytesArePinned) {
  rs::SimTable table;
  table.kinds = {rc::PatternKind::kD, rc::PatternKind::kDV};
  table.points.resize(1);
  table.cells.resize(2);
  table.cells[0].runs = 96;
  table.cells[1].runs = 64;
  const std::string summary =
      R"({"type":"done",)" + kPinHead +
      R"(,"mode":"simulate","points":1,"kinds":["PD","PDV"],"cells":2,)"
      R"("runs":160,)";
  EXPECT_EQ(rs::sim_done_line(kPinId, kPinSignature, table, true),
            summary + R"("cache_hit":true})");
  const ru::JsonValue stats = pin_stats();
  EXPECT_EQ(rs::sim_done_line(kPinId, kPinSignature, table, false, &stats),
            summary + R"("cache_hit":false,"stats":)" + kPinStatsJson + "}");
}

TEST(WireFormat, ErrorOverloadedAndPongLineBytesArePinned) {
  EXPECT_EQ(rs::error_line(kPinId, "grid.node_counts[0]",
                           "must be > 0, got \"x\"\t\\"),
            R"({"type":"error","request":)" + kPinIdJson +
                R"(,"field":"grid.node_counts[0]",)"
                R"("message":"must be > 0, got \"x\"\t\\"})");
  EXPECT_EQ(rs::overloaded_line(kPinId, 250),
            R"({"type":"error","request":)" + kPinIdJson +
                R"(,"field":"","message":"server overloaded: request shed )"
                R"(at admission; retry after 250 ms","code":"overloaded",)"
                R"("retry_after_ms":250})");
  EXPECT_EQ(rs::pong_line(kPinId),
            R"({"type":"pong","request":)" + kPinIdJson + "}");
  EXPECT_EQ(rs::pong_line(""), R"({"type":"pong","request":""})");
}

TEST(WireFormat, StatsLineBytesArePinned) {
  rs::ServiceStats stats;
  stats.submits = 7;
  stats.cache_capacity = 64;
  stats.sim_runs_per_second = 12.5;
  const std::string blocks =
      R"({"type":"stats","request":"st","service":{"submits":7,)"
      R"("cache_hits":0,"disk_hits":0,"joined_in_flight":0,)"
      R"("tables_computed":0,"seeded_computes":0,"deadline_timeouts":0},)"
      R"("cache":{"size":0,"capacity":64,"hits":0,"misses":0,"seed_hits":0,)"
      R"("disk_loads":0,"disk_rejects":0},"sim":{"submits":0,)"
      R"("cache_hits":0,"disk_hits":0,"cells":0,"runs":0,"early_stops":0,)"
      R"("runs_per_second":12.5,"joined_in_flight":0,"disk_rejects":0})";
  EXPECT_EQ(rs::stats_line("st", stats), blocks + "}");
  ru::JsonValue transport = ru::JsonValue::object();
  transport.set("queued", 3);
  EXPECT_EQ(rs::stats_line("st", stats, &transport),
            blocks + R"(,"transport":{"queued":3}})");
}

namespace {

/// Seeded values for the renderer equivalence test, drawn from the
/// splitmix64 stream of net::FaultSchedule.
class Draws {
 public:
  explicit Draws(std::uint64_t seed) : schedule_(seed) {}

  std::uint64_t next() { return schedule_.next(); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  bool coin() { return (next() & 1) != 0; }

  /// Any double the wire carries: raw bit patterns (NaNs canonicalized —
  /// the reader yields the one quiet NaN), the edge values, and the
  /// short decimals real cells hold.
  double number() {
    static const double kEdges[] = {
        0.0, -0.0, std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(), 9007199254740992.0,
        9007199254740994.0, 1e21, 1e-7, 0.1};
    switch (below(4)) {
      case 0: {
        const double raw = std::bit_cast<double>(next());
        return std::isnan(raw) ? std::numeric_limits<double>::quiet_NaN()
                               : raw;
      }
      case 1: return kEdges[below(std::size(kEdges))];
      case 2:
        return static_cast<double>(static_cast<std::int64_t>(below(2000001)) -
                                   1000000) /
               1000.0;
      default: return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }
  }
  /// An integer field: every value cell_from_json accepts, [0, 2^53].
  std::size_t index() {
    return below(3) == 0 ? below(100) : below((1ull << 53) + 1);
  }
  rc::PatternKind kind() {
    return rc::all_pattern_kinds()[below(rc::kPatternKindCount)];
  }
  /// A request id from pieces covering every json_quote class.
  std::string id() {
    static const char* kPieces[] = {
        "a", "Z", "7", "-", "/", " ", "\"", "\\", "\n", "\r", "\t", "\b",
        "\f", "\x01", "\x1f", "\x7f", "\xc3\xa9", "\xe2\x82\xac",
        "\xf0\x9f\x98\x80"};
    std::string out;
    const std::uint64_t pieces = below(25);
    for (std::uint64_t i = 0; i < pieces; ++i) {
      out += kPieces[below(std::size(kPieces))];
    }
    return out;
  }

 private:
  resilience::net::FaultSchedule schedule_;
};

rc::SweepCell draw_cell(Draws& draws) {
  rc::SweepCell cell;
  cell.point_index = draws.index();
  cell.kind = draws.kind();
  cell.first_order.kind = cell.kind;  // re-inherited on parse
  cell.first_order.segments_n = draws.index();
  cell.first_order.chunks_m = draws.index();
  cell.first_order.rational_n = draws.number();
  cell.first_order.rational_m = draws.number();
  cell.first_order.work = draws.number();
  cell.first_order.overhead = draws.number();
  cell.first_order.coefficients.error_free = draws.number();
  cell.first_order.coefficients.reexecuted_work = draws.number();
  cell.exact_at_first_order = draws.number();
  cell.segments_n = draws.index();
  cell.chunks_m = draws.index();
  cell.work = draws.number();
  cell.overhead = draws.number();
  cell.warm_started = draws.coin();
  return cell;
}

rs::SimCell draw_sim_cell(Draws& draws) {
  rs::SimCell cell;
  cell.point_index = draws.index();
  cell.kind = draws.kind();
  cell.weibull_shape = draws.number();
  cell.faulty_ops = draws.number();
  cell.mean = draws.number();
  cell.ci_low = draws.number();
  cell.ci_high = draws.number();
  cell.runs = draws.index();
  cell.early_stopped = draws.coin();
  return cell;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool sim_cells_bit_identical(const rs::SimCell& a, const rs::SimCell& b) {
  return a.point_index == b.point_index && a.kind == b.kind &&
         same_bits(a.weibull_shape, b.weibull_shape) &&
         same_bits(a.faulty_ops, b.faulty_ops) && same_bits(a.mean, b.mean) &&
         same_bits(a.ci_low, b.ci_low) && same_bits(a.ci_high, b.ci_high) &&
         a.runs == b.runs && a.early_stopped == b.early_stopped;
}

/// The request and signature members every cell line leads with.
void expect_line_head(const ru::JsonValue& line, const std::string& id,
                      rc::GridSignature signature) {
  EXPECT_EQ(line.find("type")->as_string(), "cell");
  EXPECT_EQ(line.find("request")->as_string(), id);
  EXPECT_EQ(line.find("signature")->as_string(), signature.hex());
}

}  // namespace

TEST(WireFormat, SeededLinesMatchTreeReferenceAndRoundTripBitExactly) {
  namespace ref = rs::reference;
  Draws draws(20160523);
  const ru::JsonValue stats = pin_stats();
  for (int i = 0; i < 10000; ++i) {
    SCOPED_TRACE("draw " + std::to_string(i));
    const std::string id = draws.id();
    const rc::GridSignature signature{draws.next()};

    const rc::SweepCell cell = draw_cell(draws);
    const std::string line = rs::cell_line(id, signature, cell);
    ASSERT_EQ(line, ref::cell_line(id, signature, cell));
    ASSERT_EQ(rs::to_json(cell).dump(), ref::to_json(cell).dump());
    const ru::JsonValue parsed = ru::JsonValue::parse(line);
    expect_line_head(parsed, id, signature);
    ASSERT_TRUE(rc::cells_bit_identical(rs::cell_from_json(parsed), cell));

    const rs::SimCell sim_cell = draw_sim_cell(draws);
    const std::string sim_line = rs::sim_cell_line(id, signature, sim_cell);
    ASSERT_EQ(sim_line, ref::sim_cell_line(id, signature, sim_cell));
    ASSERT_EQ(rs::to_json(sim_cell).dump(), ref::to_json(sim_cell).dump());
    const ru::JsonValue sim_parsed = ru::JsonValue::parse(sim_line);
    expect_line_head(sim_parsed, id, signature);
    ASSERT_TRUE(sim_cells_bit_identical(rs::sim_cell_from_json(sim_parsed),
                                        sim_cell));

    // Summary lines depend on table sizes, kinds and runs only.
    rc::SweepTable table;
    rs::SimTable sim_table;
    for (std::uint64_t k = draws.below(7); k > 0; --k) {
      table.kinds.push_back(draws.kind());
    }
    sim_table.kinds = table.kinds;
    table.points.resize(draws.below(9));
    sim_table.points.resize(table.points.size());
    table.cells.resize(draws.below(50));
    sim_table.cells.resize(table.cells.size());
    for (rs::SimCell& each : sim_table.cells) {
      each.runs = draws.below(1u << 20);
    }
    const ru::JsonValue* block = draws.coin() ? &stats : nullptr;
    const bool hit = draws.coin();
    const bool joined = draws.coin();
    ASSERT_EQ(rs::done_line(id, signature, table, hit, joined, block),
              ref::done_line(id, signature, table, hit, joined, block));
    ASSERT_EQ(rs::sim_done_line(id, signature, sim_table, hit, block),
              ref::sim_done_line(id, signature, sim_table, hit, block));

    const std::string field = draws.id();
    const std::string message = draws.id();
    const auto retry_ms = static_cast<std::int64_t>(draws.below(100000));
    ASSERT_EQ(rs::error_line(id, field, message),
              ref::error_line(id, field, message));
    ASSERT_EQ(rs::overloaded_line(id, retry_ms),
              ref::overloaded_line(id, retry_ms));
    ASSERT_EQ(rs::pong_line(id), ref::pong_line(id));
  }
}

TEST(ServiceStats, CountersTrackSubmissionOutcomes) {
  rs::SweepService service;
  const rs::ServiceStats fresh = service.stats();
  EXPECT_EQ(fresh.submits, 0u);
  EXPECT_EQ(fresh.tables_computed, 0u);
  EXPECT_EQ(fresh.cache_capacity, 64u);

  const auto grid = small_grid();
  (void)service.submit(grid);  // miss -> compute
  (void)service.submit(grid);  // identity hit
  const rs::ServiceStats after = service.stats();
  EXPECT_EQ(after.submits, 2u);
  EXPECT_EQ(after.tables_computed, 1u);
  EXPECT_EQ(after.cache_hits, 1u);
  EXPECT_EQ(after.disk_hits, 0u);
  EXPECT_EQ(after.cache_lookup_hits, 1u);
  EXPECT_GE(after.cache_lookup_misses, 1u);
  EXPECT_EQ(after.cache_size, 1u);
}

TEST(ServiceStats, DiskReloadAndSeedCountersSurface) {
  const ScratchDir dir("stats_disk");
  {
    rs::ServiceOptions options;
    options.cache_dir = dir.str();
    rs::SweepService service(options);
    (void)service.submit(small_grid());
  }  // destructor spills to dir
  rs::ServiceOptions options;
  options.cache_dir = dir.str();
  rs::SweepService service(options);
  (void)service.submit(small_grid());  // lazy disk reload
  rs::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_EQ(stats.disk_loads, 1u);
  EXPECT_EQ(stats.tables_computed, 0u);

  // An extended grid seeds from the reloaded table: the seed counters
  // must say so (behavior itself is pinned by the SeedReuse tests).
  auto extended = small_grid();
  extended.node_counts.push_back(4096);
  (void)service.submit(extended);
  stats = service.stats();
  EXPECT_EQ(stats.seeded_computes, 1u);
  EXPECT_GE(stats.seed_hits, 1u);
}

TEST(JsonlSession, StatsRequestAndOptInDoneLineStats) {
  rs::SweepService service;
  std::vector<std::string> lines;
  std::vector<bool> terminal;
  rs::JsonlSession session(service, [&](std::string&& line, bool end) {
    lines.push_back(std::move(line));
    terminal.push_back(end);
  });

  session.handle_line("{\"type\": \"stats\", \"id\": \"s\"}");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(terminal[0]);
  const auto stats0 = ru::JsonValue::parse(lines[0]);
  EXPECT_EQ(stats0.find("type")->as_string(), "stats");
  EXPECT_EQ(stats0.find("request")->as_string(), "s");
  EXPECT_EQ(stats0.find("service")->find("submits")->as_double(), 0.0);
  EXPECT_EQ(stats0.find("cache")->find("capacity")->as_double(), 64.0);

  lines.clear();
  session.handle_line(
      "{\"id\": \"with\", \"platforms\": [\"hera\"], \"node_counts\": [512], "
      "\"kinds\": [\"PD\"], \"stats\": true}");
  ASSERT_FALSE(lines.empty());
  const auto done = ru::JsonValue::parse(lines.back());
  EXPECT_EQ(done.find("type")->as_string(), "done");
  ASSERT_NE(done.find("stats"), nullptr);
  EXPECT_EQ(done.find("stats")->find("service")->find("submits")->as_double(),
            1.0);
  EXPECT_EQ(
      done.find("stats")->find("cache")->find("misses")->as_double() >= 1.0,
      true);

  lines.clear();
  session.handle_line(
      "{\"id\": \"without\", \"platforms\": [\"hera\"], "
      "\"node_counts\": [512], \"kinds\": [\"PD\"]}");
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(ru::JsonValue::parse(lines.back()).find("stats"), nullptr);
  EXPECT_FALSE(session.any_request_errors());

  // Stats requests are validated as strictly as scenario requests: a
  // typo'd member gets a located error, not silence.
  lines.clear();
  session.handle_line("{\"type\": \"stats\", \"request\": \"typo\"}");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(lines[0].find("unknown field 'request'"), std::string::npos);
  lines.clear();
  session.handle_line("{\"type\": \"stats\", \"id\": 7}");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"field\":\"id\""), std::string::npos);
  EXPECT_TRUE(session.any_request_errors());
}

TEST(JsonlSession, LineNumberingAndErrorTracking) {
  rs::SweepService service;
  std::vector<std::string> lines;
  rs::JsonlSession session(service, [&](std::string&& line, bool) {
    lines.push_back(std::move(line));
  });
  session.handle_line("# a comment");
  session.handle_line("");
  EXPECT_TRUE(lines.empty());  // skipped, but counted
  EXPECT_EQ(session.lines_seen(), 2u);
  EXPECT_FALSE(session.any_request_errors());

  session.handle_line("not json");
  ASSERT_EQ(lines.size(), 1u);
  // Default ids number over ALL input lines, like the stdin server.
  EXPECT_NE(lines[0].find("\"request\":\"line-3\""), std::string::npos);
  EXPECT_NE(lines[0].find("invalid JSON"), std::string::npos);
  EXPECT_TRUE(session.any_request_errors());

  session.handle_line("{\"platforms\": [\"hera\"], \"node_counts\": [0]}");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"request\":\"line-4\""), std::string::npos);

  // A served request after errors still works; the error flag persists.
  session.handle_line(
      "{\"id\": \"ok\", \"platforms\": [\"hera\"], \"node_counts\": [512], "
      "\"kinds\": [\"PD\"]}");
  EXPECT_NE(lines.back().find("\"type\":\"done\""), std::string::npos);
  EXPECT_TRUE(session.any_request_errors());
}

TEST(JsonlSession, CancellationStopsOutputNotTheCompute) {
  rs::SweepService service;
  auto cancelled = std::make_shared<std::atomic<bool>>(false);
  std::vector<std::string> lines;
  rs::JsonlSession session(
      service,
      [&](std::string&& line, bool) { lines.push_back(std::move(line)); },
      rs::JsonlSession::Options(), cancelled);

  cancelled->store(true);
  session.handle_line(
      "{\"id\": \"gone\", \"platforms\": [\"hera\"], \"node_counts\": [512], "
      "\"kinds\": [\"PD\"]}");
  EXPECT_TRUE(lines.empty());          // nothing emitted for a gone client
  EXPECT_EQ(service.stats().submits, 0u);  // nor work started after cancel
}
