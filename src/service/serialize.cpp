#include "resilience/service/serialize.hpp"

#include <cmath>
#include <concepts>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "resilience/service/cost_model.hpp"
#include "resilience/service/sim_table.hpp"
#include "resilience/service/sweep_service.hpp"

namespace resilience::service {

namespace {

using util::JsonValue;

const JsonValue& require(const JsonValue& json, const char* field) {
  const JsonValue* value = json.find(field);
  if (value == nullptr) {
    throw std::runtime_error(std::string("serialize: missing field '") +
                             field + "'");
  }
  return *value;
}

double require_double(const JsonValue& json, const char* field) {
  return require(json, field).as_double();
}

std::size_t require_index(const JsonValue& json, const char* field) {
  const double value = require(json, field).as_double();
  if (!(value >= 0.0) || value != std::floor(value) || value > 9.007199254740992e15) {
    throw std::runtime_error(std::string("serialize: field '") + field +
                             "' is not a non-negative integer");
  }
  return static_cast<std::size_t>(value);
}

/// Family names in table order: the "kinds" array of tables and done
/// lines.
JsonValue kinds_json(const std::vector<core::PatternKind>& kinds) {
  JsonValue out = JsonValue::array();
  for (const core::PatternKind kind : kinds) {
    out.push_back(core::pattern_name(kind));
  }
  return out;
}

std::vector<core::PatternKind> kinds_from_json(const JsonValue& json) {
  std::vector<core::PatternKind> kinds;
  for (const JsonValue& kind : json.as_array()) {
    kinds.push_back(core::pattern_kind_from_name(kind.as_string()));
  }
  return kinds;
}

/// to_json of every element, as an array (points and cells of tables).
template <class Items>
JsonValue array_json(const Items& items) {
  JsonValue out = JsonValue::array();
  for (const auto& item : items) {
    out.push_back(to_json(item));
  }
  return out;
}

/// Appends one JSON object straight into a string: how every response
/// line is rendered, with no JsonValue tree in between. Keys are this
/// file's fixed identifiers and go out unescaped; values go through
/// util's one number formatter and one quoter, so the bytes are the ones
/// JsonValue::dump() writes for the same members (integers as doubles,
/// Infinity/NaN tokens). close() appends the closing brace.
class LineWriter {
 public:
  explicit LineWriter(std::string& out) : out_(out) { out_ += '{'; }

  void field(std::string_view key, double value) {
    begin(key);
    util::append_json_number(out_, value);
  }
  template <std::integral T>
  void field(std::string_view key, T value) {
    field(key, static_cast<double>(value));
  }
  void field(std::string_view key, bool value) {
    begin(key);
    out_ += value ? "true" : "false";
  }
  void field(std::string_view key, std::string_view value) {
    begin(key);
    util::append_json_quote(out_, value);
  }
  void field(std::string_view key, const char* value) {
    field(key, std::string_view(value));
  }
  void field(std::string_view key, const std::string& value) {
    field(key, std::string_view(value));
  }
  /// The 16 lowercase hex digits of GridSignature::hex(), quoted.
  void field(std::string_view key, core::GridSignature signature) {
    static constexpr char kHex[] = "0123456789abcdef";
    begin(key);
    char text[18];
    text[0] = '"';
    text[17] = '"';
    std::uint64_t value = signature.value;
    for (int i = 16; i > 0; --i, value >>= 4) {
      text[i] = kHex[value & 0xF];
    }
    out_.append(text, sizeof text);
  }
  /// Family names in table order, as an array of strings.
  void field(std::string_view key, const std::vector<core::PatternKind>& kinds) {
    begin(key);
    out_ += '[';
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      if (i > 0) {
        out_ += ',';
      }
      util::append_json_quote(out_, core::pattern_name(kinds[i]));
    }
    out_ += ']';
  }
  /// An already-built block (an opt-in stats block), embedded verbatim.
  void field(std::string_view key, const JsonValue& value) {
    begin(key);
    value.dump_to(out_);
  }
  /// A nested object whose members `fill(LineWriter&)` writes.
  template <class Fill>
  void object(std::string_view key, Fill&& fill) {
    begin(key);
    LineWriter inner(out_);
    fill(inner);
    inner.close();
  }
  void close() { out_ += '}'; }

 private:
  void begin(std::string_view key) {
    if (!first_) {
      out_ += ',';
    }
    first_ = false;
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }

  std::string& out_;
  bool first_ = true;
};

/// The same member calls building a JsonValue object instead: how
/// to_json() of a cell shares its key list with the line renderers.
class TreeWriter {
 public:
  explicit TreeWriter(JsonValue& object) : object_(object) {}

  template <class T>
  void field(std::string_view key, const T& value) {
    object_.set(std::string(key), JsonValue(value));
  }
  template <class Fill>
  void object(std::string_view key, Fill&& fill) {
    JsonValue inner = JsonValue::object();
    TreeWriter writer(inner);
    fill(writer);
    object_.set(std::string(key), std::move(inner));
  }

 private:
  JsonValue& object_;
};

/// The members of a SweepCell, in wire order: the one key list behind
/// cell_line() and to_json(SweepCell). The family is written once, as
/// the paper's name; the nested first_order block omits it.
template <class Writer>
void write_fields(Writer& out, const core::SweepCell& cell) {
  out.field("point", cell.point_index);
  out.field("kind", core::pattern_name(cell.kind));
  out.object("first_order", [&](Writer& first_order) {
    const core::FirstOrderSolution& solution = cell.first_order;
    first_order.field("segments_n", solution.segments_n);
    first_order.field("chunks_m", solution.chunks_m);
    first_order.field("rational_n", solution.rational_n);
    first_order.field("rational_m", solution.rational_m);
    first_order.field("work", solution.work);
    first_order.field("overhead", solution.overhead);
    first_order.field("error_free", solution.coefficients.error_free);
    first_order.field("reexecuted_work",
                      solution.coefficients.reexecuted_work);
  });
  out.field("exact_at_first_order", cell.exact_at_first_order);
  out.field("segments_n", cell.segments_n);
  out.field("chunks_m", cell.chunks_m);
  out.field("work", cell.work);
  out.field("overhead", cell.overhead);
  out.field("warm_started", cell.warm_started);
}

/// The members of a SimCell, in wire order: the one key list behind
/// sim_cell_line() and to_json(SimCell).
template <class Writer>
void write_fields(Writer& out, const SimCell& cell) {
  out.field("point", cell.point_index);
  out.field("kind", core::pattern_name(cell.kind));
  out.field("weibull_shape", cell.weibull_shape);
  out.field("faulty_ops", cell.faulty_ops);
  out.field("mean", cell.mean);
  out.field("ci_low", cell.ci_low);
  out.field("ci_high", cell.ci_high);
  out.field("runs", cell.runs);
  out.field("early_stopped", cell.early_stopped);
}

/// Reserved capacity of a rendered line before its request id: a little
/// above the typical length, so one allocation covers the whole line.
constexpr std::size_t kCellLineBytes = 512;
constexpr std::size_t kSimCellLineBytes = 256;
constexpr std::size_t kSummaryLineBytes = 256;

/// Opens a response line: {"type":<type>,"request":<id>
LineWriter open_line(std::string& out, std::size_t reserve, const char* type,
                     std::string_view request_id) {
  out.reserve(reserve + request_id.size());
  LineWriter line(out);
  line.field("type", type);
  line.field("request", request_id);
  return line;
}

}  // namespace

JsonValue to_json(const core::SweepCell& cell) {
  JsonValue out = JsonValue::object();
  TreeWriter writer(out);
  write_fields(writer, cell);
  return out;
}

core::SweepCell cell_from_json(const JsonValue& json) {
  core::SweepCell cell;
  cell.point_index = require_index(json, "point");
  cell.kind = core::pattern_kind_from_name(require(json, "kind").as_string());

  const JsonValue& first_order = require(json, "first_order");
  cell.first_order.kind = cell.kind;
  cell.first_order.segments_n = require_index(first_order, "segments_n");
  cell.first_order.chunks_m = require_index(first_order, "chunks_m");
  cell.first_order.rational_n = require_double(first_order, "rational_n");
  cell.first_order.rational_m = require_double(first_order, "rational_m");
  cell.first_order.work = require_double(first_order, "work");
  cell.first_order.overhead = require_double(first_order, "overhead");
  cell.first_order.coefficients.error_free =
      require_double(first_order, "error_free");
  cell.first_order.coefficients.reexecuted_work =
      require_double(first_order, "reexecuted_work");

  cell.exact_at_first_order = require_double(json, "exact_at_first_order");
  cell.segments_n = require_index(json, "segments_n");
  cell.chunks_m = require_index(json, "chunks_m");
  cell.work = require_double(json, "work");
  cell.overhead = require_double(json, "overhead");
  cell.warm_started = require(json, "warm_started").as_bool();
  return cell;
}

JsonValue to_json(const core::Platform& platform) {
  JsonValue out = JsonValue::object();
  out.set("name", platform.name);
  out.set("nodes", platform.nodes);
  out.set("fail_stop", platform.rates.fail_stop);
  out.set("silent", platform.rates.silent);
  out.set("disk_checkpoint", platform.disk_checkpoint);
  out.set("memory_checkpoint", platform.memory_checkpoint);
  return out;
}

core::Platform platform_from_json(const JsonValue& json) {
  core::Platform platform;
  platform.name = require(json, "name").as_string();
  platform.nodes = require_index(json, "nodes");
  platform.rates.fail_stop = require_double(json, "fail_stop");
  platform.rates.silent = require_double(json, "silent");
  platform.disk_checkpoint = require_double(json, "disk_checkpoint");
  platform.memory_checkpoint = require_double(json, "memory_checkpoint");
  return platform;
}

JsonValue to_json(const core::ModelParams& params) {
  JsonValue costs = JsonValue::object();
  costs.set("disk_checkpoint", params.costs.disk_checkpoint);
  costs.set("memory_checkpoint", params.costs.memory_checkpoint);
  costs.set("disk_recovery", params.costs.disk_recovery);
  costs.set("memory_recovery", params.costs.memory_recovery);
  costs.set("guaranteed_verification", params.costs.guaranteed_verification);
  costs.set("partial_verification", params.costs.partial_verification);
  costs.set("recall", params.costs.recall);
  JsonValue rates = JsonValue::object();
  rates.set("fail_stop", params.rates.fail_stop);
  rates.set("silent", params.rates.silent);
  JsonValue out = JsonValue::object();
  out.set("costs", std::move(costs));
  out.set("rates", std::move(rates));
  return out;
}

core::ModelParams params_from_json(const JsonValue& json) {
  core::ModelParams params;
  const JsonValue& costs = require(json, "costs");
  params.costs.disk_checkpoint = require_double(costs, "disk_checkpoint");
  params.costs.memory_checkpoint = require_double(costs, "memory_checkpoint");
  params.costs.disk_recovery = require_double(costs, "disk_recovery");
  params.costs.memory_recovery = require_double(costs, "memory_recovery");
  params.costs.guaranteed_verification =
      require_double(costs, "guaranteed_verification");
  params.costs.partial_verification =
      require_double(costs, "partial_verification");
  params.costs.recall = require_double(costs, "recall");
  const JsonValue& rates = require(json, "rates");
  params.rates.fail_stop = require_double(rates, "fail_stop");
  params.rates.silent = require_double(rates, "silent");
  return params;
}

JsonValue to_json(const core::ScenarioPoint& point) {
  JsonValue out = JsonValue::object();
  out.set("platform_index", point.platform_index);
  out.set("node_index", point.node_index);
  out.set("rate_index", point.rate_index);
  out.set("cost_index", point.cost_index);
  out.set("platform", to_json(point.platform));
  out.set("params", to_json(point.params));
  return out;
}

core::ScenarioPoint point_from_json(const JsonValue& json) {
  core::ScenarioPoint point;
  point.platform_index = require_index(json, "platform_index");
  point.node_index = require_index(json, "node_index");
  point.rate_index = require_index(json, "rate_index");
  point.cost_index = require_index(json, "cost_index");
  point.platform = platform_from_json(require(json, "platform"));
  point.params = params_from_json(require(json, "params"));
  return point;
}

JsonValue to_json(const core::SweepTable& table) {
  JsonValue out = JsonValue::object();
  out.set("type", "sweep_table");
  out.set("kinds", kinds_json(table.kinds));
  out.set("points", array_json(table.points));
  out.set("cells", array_json(table.cells));
  return out;
}

core::SweepTable table_from_json(const JsonValue& json) {
  core::SweepTable table;
  table.kinds = kinds_from_json(require(json, "kinds"));
  for (const JsonValue& point : require(json, "points").as_array()) {
    table.points.push_back(point_from_json(point));
  }
  for (const JsonValue& cell : require(json, "cells").as_array()) {
    table.cells.push_back(cell_from_json(cell));
  }
  if (table.kinds.empty() ||
      table.cells.size() != table.points.size() * table.kinds.size()) {
    throw std::runtime_error(
        "serialize: cell count does not match points x kinds");
  }
  // Each cell must sit in its point-major/family-minor slot, or cell()'s
  // index arithmetic would silently return the wrong cell on permuted
  // (e.g. stream-reassembled) input.
  for (std::size_t i = 0; i < table.cells.size(); ++i) {
    const core::SweepCell& cell = table.cells[i];
    if (cell.point_index != i / table.kinds.size() ||
        cell.kind != table.kinds[i % table.kinds.size()]) {
      throw std::runtime_error(
          "serialize: cell " + std::to_string(i) +
          " is out of point-major/family-minor order (point " +
          std::to_string(cell.point_index) + ", kind " +
          core::pattern_name(cell.kind) + ")");
    }
  }
  table.index_kinds();
  return table;
}

std::string cell_line(const std::string& request_id,
                      core::GridSignature signature,
                      const core::SweepCell& cell) {
  std::string out;
  LineWriter line = open_line(out, kCellLineBytes, "cell", request_id);
  line.field("signature", signature);
  write_fields(line, cell);
  line.close();
  return out;
}

JsonValue to_json(const SimCell& cell) {
  JsonValue out = JsonValue::object();
  TreeWriter writer(out);
  write_fields(writer, cell);
  return out;
}

SimCell sim_cell_from_json(const JsonValue& json) {
  SimCell cell;
  cell.point_index = require_index(json, "point");
  cell.kind = core::pattern_kind_from_name(require(json, "kind").as_string());
  cell.weibull_shape = require_double(json, "weibull_shape");
  cell.faulty_ops = require_double(json, "faulty_ops");
  cell.mean = require_double(json, "mean");
  cell.ci_low = require_double(json, "ci_low");
  cell.ci_high = require_double(json, "ci_high");
  cell.runs = static_cast<std::uint64_t>(require_index(json, "runs"));
  cell.early_stopped = require(json, "early_stopped").as_bool();
  return cell;
}

JsonValue to_json(const SimTable& table) {
  JsonValue shapes = JsonValue::array();
  for (const double shape : table.params.weibull_shape) {
    shapes.push_back(shape);
  }
  JsonValue ops = JsonValue::array();
  for (const double factor : table.params.faulty_ops) {
    ops.push_back(factor);
  }
  JsonValue sim = JsonValue::object();
  sim.set("seed", table.params.seed);
  sim.set("target_ci", table.params.target_ci);
  sim.set("max_runs", table.params.max_runs);
  sim.set("min_runs", table.params.min_runs);
  sim.set("patterns_per_run", table.params.patterns_per_run);
  sim.set("weibull_shape", std::move(shapes));
  sim.set("faulty_ops", std::move(ops));
  JsonValue out = JsonValue::object();
  out.set("type", "sim_table");
  out.set("kinds", kinds_json(table.kinds));
  out.set("points", array_json(table.points));
  out.set("sim", std::move(sim));
  out.set("cells", array_json(table.cells));
  return out;
}

SimTable sim_table_from_json(const JsonValue& json) {
  SimTable table;
  table.kinds = kinds_from_json(require(json, "kinds"));
  for (const JsonValue& point : require(json, "points").as_array()) {
    table.points.push_back(point_from_json(point));
  }
  const JsonValue& sim = require(json, "sim");
  table.params.seed =
      static_cast<std::uint64_t>(require_index(sim, "seed"));
  table.params.target_ci = require_double(sim, "target_ci");
  table.params.max_runs =
      static_cast<std::uint64_t>(require_index(sim, "max_runs"));
  table.params.min_runs =
      static_cast<std::uint64_t>(require_index(sim, "min_runs"));
  table.params.patterns_per_run =
      static_cast<std::uint64_t>(require_index(sim, "patterns_per_run"));
  table.params.weibull_shape.clear();
  for (const JsonValue& shape : require(sim, "weibull_shape").as_array()) {
    table.params.weibull_shape.push_back(shape.as_double());
  }
  table.params.faulty_ops.clear();
  for (const JsonValue& factor : require(sim, "faulty_ops").as_array()) {
    table.params.faulty_ops.push_back(factor.as_double());
  }
  for (const JsonValue& cell : require(json, "cells").as_array()) {
    table.cells.push_back(sim_cell_from_json(cell));
  }
  if (table.kinds.empty() || table.params.weibull_shape.empty() ||
      table.params.faulty_ops.empty() ||
      table.cells.size() != table.cell_count()) {
    throw std::runtime_error(
        "serialize: sim cell count does not match points x kinds x axes");
  }
  // Each cell must sit in its canonical point/family/shape/ops slot, or
  // cell_index() arithmetic would return the wrong cell on permuted
  // (e.g. stream-reassembled) input.
  const std::size_t shapes_n = table.params.weibull_shape.size();
  const std::size_t ops_n = table.params.faulty_ops.size();
  for (std::size_t i = 0; i < table.cells.size(); ++i) {
    const SimCell& cell = table.cells[i];
    const std::size_t ops_index = i % ops_n;
    const std::size_t shape_index = (i / ops_n) % shapes_n;
    const std::size_t kind_index = (i / (ops_n * shapes_n)) % table.kinds.size();
    const std::size_t point_index = i / (ops_n * shapes_n * table.kinds.size());
    if (cell.point_index != point_index ||
        cell.kind != table.kinds[kind_index] ||
        cell.weibull_shape != table.params.weibull_shape[shape_index] ||
        cell.faulty_ops != table.params.faulty_ops[ops_index]) {
      throw std::runtime_error("serialize: sim cell " + std::to_string(i) +
                               " is out of canonical order (point " +
                               std::to_string(cell.point_index) + ", kind " +
                               core::pattern_name(cell.kind) + ")");
    }
  }
  return table;
}

JsonValue to_json(const ServiceStats& stats) {
  JsonValue service = JsonValue::object();
  service.set("submits", stats.submits);
  service.set("cache_hits", stats.cache_hits);
  service.set("disk_hits", stats.disk_hits);
  service.set("joined_in_flight", stats.joined_in_flight);
  service.set("tables_computed", stats.tables_computed);
  service.set("seeded_computes", stats.seeded_computes);
  service.set("deadline_timeouts", stats.deadline_timeouts);
  JsonValue cache = JsonValue::object();
  cache.set("size", stats.cache_size);
  cache.set("capacity", stats.cache_capacity);
  cache.set("hits", stats.cache_lookup_hits);
  cache.set("misses", stats.cache_lookup_misses);
  cache.set("seed_hits", stats.seed_hits);
  cache.set("disk_loads", stats.disk_loads);
  cache.set("disk_rejects", stats.disk_rejects);
  JsonValue sim = JsonValue::object();
  sim.set("submits", stats.sim_submits);
  sim.set("cache_hits", stats.sim_cache_hits);
  sim.set("disk_hits", stats.sim_disk_hits);
  sim.set("cells", stats.sim_cells);
  sim.set("runs", stats.sim_runs);
  sim.set("early_stops", stats.sim_early_stops);
  sim.set("runs_per_second", stats.sim_runs_per_second);
  sim.set("joined_in_flight", stats.sim_joined_in_flight);
  sim.set("disk_rejects", stats.sim_disk_rejects);
  JsonValue out = JsonValue::object();
  out.set("service", std::move(service));
  out.set("cache", std::move(cache));
  out.set("sim", std::move(sim));
  return out;
}

JsonValue to_json(const CostEstimate& estimate) {
  JsonValue out = JsonValue::object();
  out.set("units", estimate.units);
  out.set("cells", estimate.cells);
  out.set("chains", estimate.chains);
  out.set("seeded_chains", estimate.seeded_chains);
  out.set("identity_hit", estimate.identity_hit);
  return out;
}

std::string stats_line(const std::string& request_id, const ServiceStats& stats,
                       const util::JsonValue* transport) {
  std::string out;
  LineWriter line = open_line(out, kSummaryLineBytes, "stats", request_id);
  const JsonValue blocks = to_json(stats);
  for (const auto& [key, value] : blocks.as_object()) {
    line.field(key, value);
  }
  if (transport != nullptr) {
    line.field("transport", *transport);
  }
  line.close();
  return out;
}

JsonValue stats_block(const ServiceStats& stats, const CostEstimate& cost) {
  JsonValue block = to_json(stats);
  // Appended AFTER the service/cache blocks: existing consumers match the
  // stats prefix textually, and insertion order is emission order.
  block.set("cost", to_json(cost));
  return block;
}

std::string done_line(const std::string& request_id,
                      core::GridSignature signature,
                      const core::SweepTable& table, bool cache_hit,
                      bool joined_in_flight, const util::JsonValue* stats) {
  std::string out;
  LineWriter line = open_line(out, kSummaryLineBytes, "done", request_id);
  line.field("signature", signature);
  line.field("points", table.points.size());
  line.field("kinds", table.kinds);
  line.field("cells", table.cells.size());
  line.field("cache_hit", cache_hit);
  line.field("joined_in_flight", joined_in_flight);
  if (stats != nullptr) {
    line.field("stats", *stats);
  }
  line.close();
  return out;
}

std::string sim_cell_line(const std::string& request_id,
                          core::GridSignature signature, const SimCell& cell) {
  std::string out;
  LineWriter line = open_line(out, kSimCellLineBytes, "cell", request_id);
  line.field("signature", signature);
  write_fields(line, cell);
  line.close();
  return out;
}

std::string sim_done_line(const std::string& request_id,
                          core::GridSignature signature, const SimTable& table,
                          bool cache_hit, const util::JsonValue* stats) {
  std::uint64_t total_runs = 0;
  for (const SimCell& cell : table.cells) {
    total_runs += cell.runs;
  }
  std::string out;
  LineWriter line = open_line(out, kSummaryLineBytes, "done", request_id);
  line.field("signature", signature);
  line.field("mode", "simulate");
  line.field("points", table.points.size());
  line.field("kinds", table.kinds);
  line.field("cells", table.cells.size());
  line.field("runs", total_runs);
  line.field("cache_hit", cache_hit);
  if (stats != nullptr) {
    line.field("stats", *stats);
  }
  line.close();
  return out;
}

std::string pong_line(const std::string& request_id) {
  std::string out;
  LineWriter line = open_line(out, 32, "pong", request_id);
  line.close();
  return out;
}

std::string error_line(const std::string& request_id, const std::string& field,
                       const std::string& message) {
  std::string out;
  LineWriter line = open_line(out, 64 + field.size() + message.size(),
                              "error", request_id);
  line.field("field", field);
  line.field("message", message);
  line.close();
  return out;
}

std::string overloaded_line(const std::string& request_id,
                            std::int64_t retry_after_ms) {
  // An error line (same leading fields, so clients that only know
  // "type":"error" still terminate the request) extended with the
  // machine-readable shed marker. "field" is empty: the request itself
  // was fine — the server's queue was not.
  std::string out;
  LineWriter line = open_line(out, kSummaryLineBytes, "error", request_id);
  line.field("field", "");
  line.field("message",
             "server overloaded: request shed at admission; retry after " +
                 std::to_string(retry_after_ms) + " ms");
  line.field("code", "overloaded");
  line.field("retry_after_ms", retry_after_ms);
  line.close();
  return out;
}

}  // namespace resilience::service
