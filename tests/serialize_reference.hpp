#pragma once

// Reference renderers for the response lines: the tree-building
// implementation the library used before lines were rendered by direct
// appends. Each line is built as a util::JsonValue object and dumped, so
// its bytes follow from JsonValue::dump() alone. test_service requires
// the library's renderers to match these byte for byte on seeded input;
// nothing outside tests/ uses them.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "resilience/core/sweep.hpp"
#include "resilience/service/sim_table.hpp"
#include "resilience/util/json.hpp"

namespace resilience::service::reference {

inline util::JsonValue kinds_json(const std::vector<core::PatternKind>& kinds) {
  util::JsonValue out = util::JsonValue::array();
  for (const core::PatternKind kind : kinds) {
    out.push_back(core::pattern_name(kind));
  }
  return out;
}

inline util::JsonValue to_json(const core::SweepCell& cell) {
  util::JsonValue first_order = util::JsonValue::object();
  first_order.set("segments_n", cell.first_order.segments_n);
  first_order.set("chunks_m", cell.first_order.chunks_m);
  first_order.set("rational_n", cell.first_order.rational_n);
  first_order.set("rational_m", cell.first_order.rational_m);
  first_order.set("work", cell.first_order.work);
  first_order.set("overhead", cell.first_order.overhead);
  first_order.set("error_free", cell.first_order.coefficients.error_free);
  first_order.set("reexecuted_work",
                  cell.first_order.coefficients.reexecuted_work);

  util::JsonValue out = util::JsonValue::object();
  out.set("point", cell.point_index);
  out.set("kind", core::pattern_name(cell.kind));
  out.set("first_order", std::move(first_order));
  out.set("exact_at_first_order", cell.exact_at_first_order);
  out.set("segments_n", cell.segments_n);
  out.set("chunks_m", cell.chunks_m);
  out.set("work", cell.work);
  out.set("overhead", cell.overhead);
  out.set("warm_started", cell.warm_started);
  return out;
}

inline util::JsonValue to_json(const SimCell& cell) {
  util::JsonValue out = util::JsonValue::object();
  out.set("point", cell.point_index);
  out.set("kind", core::pattern_name(cell.kind));
  out.set("weibull_shape", cell.weibull_shape);
  out.set("faulty_ops", cell.faulty_ops);
  out.set("mean", cell.mean);
  out.set("ci_low", cell.ci_low);
  out.set("ci_high", cell.ci_high);
  out.set("runs", cell.runs);
  out.set("early_stopped", cell.early_stopped);
  return out;
}

/// {"type":<type>,"request":<id>,"signature":<hex>} followed by every
/// member of `body`.
inline util::JsonValue cell_head_and(const char* type,
                                     const std::string& request_id,
                                     core::GridSignature signature,
                                     const util::JsonValue& body) {
  util::JsonValue line = util::JsonValue::object();
  line.set("type", type);
  line.set("request", request_id);
  line.set("signature", signature.hex());
  for (const auto& [key, value] : body.as_object()) {
    line.set(key, value);
  }
  return line;
}

inline std::string cell_line(const std::string& request_id,
                             core::GridSignature signature,
                             const core::SweepCell& cell) {
  return cell_head_and("cell", request_id, signature,
                       reference::to_json(cell)).dump();
}

inline std::string sim_cell_line(const std::string& request_id,
                                 core::GridSignature signature,
                                 const SimCell& cell) {
  return cell_head_and("cell", request_id, signature,
                       reference::to_json(cell)).dump();
}

inline std::string done_line(const std::string& request_id,
                             core::GridSignature signature,
                             const core::SweepTable& table, bool cache_hit,
                             bool joined_in_flight,
                             const util::JsonValue* stats = nullptr) {
  util::JsonValue line = util::JsonValue::object();
  line.set("type", "done");
  line.set("request", request_id);
  line.set("signature", signature.hex());
  line.set("points", table.points.size());
  line.set("kinds", kinds_json(table.kinds));
  line.set("cells", table.cells.size());
  line.set("cache_hit", cache_hit);
  line.set("joined_in_flight", joined_in_flight);
  if (stats != nullptr) {
    line.set("stats", *stats);
  }
  return line.dump();
}

inline std::string sim_done_line(const std::string& request_id,
                                 core::GridSignature signature,
                                 const SimTable& table, bool cache_hit,
                                 const util::JsonValue* stats = nullptr) {
  std::uint64_t total_runs = 0;
  for (const SimCell& cell : table.cells) {
    total_runs += cell.runs;
  }
  util::JsonValue line = util::JsonValue::object();
  line.set("type", "done");
  line.set("request", request_id);
  line.set("signature", signature.hex());
  line.set("mode", "simulate");
  line.set("points", table.points.size());
  line.set("kinds", kinds_json(table.kinds));
  line.set("cells", table.cells.size());
  line.set("runs", total_runs);
  line.set("cache_hit", cache_hit);
  if (stats != nullptr) {
    line.set("stats", *stats);
  }
  return line.dump();
}

inline std::string pong_line(const std::string& request_id) {
  util::JsonValue line = util::JsonValue::object();
  line.set("type", "pong");
  line.set("request", request_id);
  return line.dump();
}

inline std::string error_line(const std::string& request_id,
                              const std::string& field,
                              const std::string& message) {
  util::JsonValue line = util::JsonValue::object();
  line.set("type", "error");
  line.set("request", request_id);
  line.set("field", field);
  line.set("message", message);
  return line.dump();
}

inline std::string overloaded_line(const std::string& request_id,
                                   std::int64_t retry_after_ms) {
  util::JsonValue line = util::JsonValue::object();
  line.set("type", "error");
  line.set("request", request_id);
  line.set("field", "");
  line.set("message",
           "server overloaded: request shed at admission; retry after " +
               std::to_string(retry_after_ms) + " ms");
  line.set("code", "overloaded");
  line.set("retry_after_ms", retry_after_ms);
  return line.dump();
}

}  // namespace resilience::service::reference
