#pragma once

// JSON (de)serialization of the sweep result types — the one place result
// formatting lives. The figure drivers, the JSONL streaming service and
// the cache persistence all emit through these functions, so a table
// printed by a bench harness and a table streamed by sweep_server carry
// byte-identical values: doubles use the canonical shortest-round-trip
// form of util/json, and serialize -> parse -> re-serialize is
// byte-identical (pinned by test_service).
//
// Two renderings share each cell type's key list (one write_fields() per
// type in serialize.cpp):
//   * to_json() builds a util::JsonValue tree — tables, spills, tests;
//   * the *_line() response renderers append straight into one reserved
//     std::string, with no JsonValue built per line or cell. Numbers and
//     strings go through util::append_json_number/append_json_quote, the
//     same formatter and quoter JsonValue::dump() uses, so a line's bytes
//     equal the dump of the equivalent tree (test_service pins both the
//     literal bytes and a seeded equivalence against a tree reference).

#include <cstdint>
#include <string>

#include "resilience/core/sweep.hpp"
#include "resilience/util/json.hpp"

namespace resilience::service {

struct ServiceStats;  // sweep_service.hpp; serialization only reads it
struct CostEstimate;  // cost_model.hpp; serialization only reads it
struct SimCell;       // sim_table.hpp; serialization only reads them
struct SimTable;

/// SweepCell <-> JSON. The cell's family is serialized once (as the
/// paper's name, e.g. "PDMV*"); the nested first_order block omits it and
/// re-inherits it on parse.
[[nodiscard]] util::JsonValue to_json(const core::SweepCell& cell);
[[nodiscard]] core::SweepCell cell_from_json(const util::JsonValue& json);

/// Platform <-> JSON (name, nodes, platform-level rates and costs).
[[nodiscard]] util::JsonValue to_json(const core::Platform& platform);
[[nodiscard]] core::Platform platform_from_json(const util::JsonValue& json);

/// ModelParams <-> JSON (flat cost + rate fields).
[[nodiscard]] util::JsonValue to_json(const core::ModelParams& params);
[[nodiscard]] core::ModelParams params_from_json(const util::JsonValue& json);

/// ScenarioPoint <-> JSON (axis indices + resolved platform and params).
[[nodiscard]] util::JsonValue to_json(const core::ScenarioPoint& point);
[[nodiscard]] core::ScenarioPoint point_from_json(const util::JsonValue& json);

/// SweepTable <-> JSON. table_from_json() re-indexes the family lookup,
/// so cell() works on a deserialized table.
[[nodiscard]] util::JsonValue to_json(const core::SweepTable& table);
[[nodiscard]] core::SweepTable table_from_json(const util::JsonValue& json);

/// SimCell <-> JSON (simulate mode); the family is serialized as the
/// paper's name like SweepCell's.
[[nodiscard]] util::JsonValue to_json(const SimCell& cell);
[[nodiscard]] SimCell sim_cell_from_json(const util::JsonValue& json);

/// SimTable <-> JSON. sim_table_from_json() re-validates the canonical
/// point-major/family/shape/ops cell order, so index arithmetic works on
/// a deserialized table.
[[nodiscard]] util::JsonValue to_json(const SimTable& table);
[[nodiscard]] SimTable sim_table_from_json(const util::JsonValue& json);

/// ServiceStats -> JSON: {"service":{submission counters},"cache":{tier
/// counters},"sim":{simulate-mode counters}} — the block a `stats`
/// request returns and an opt-in done line embeds.
[[nodiscard]] util::JsonValue to_json(const ServiceStats& stats);

/// CostEstimate -> JSON: {"units","cells","chains","seeded_chains",
/// "identity_hit"} — the admission-time prediction (see stats_block).
[[nodiscard]] util::JsonValue to_json(const CostEstimate& estimate);

/// The opt-in done-line stats block: to_json(stats) with the
/// admission-time CostEstimate appended last as a "cost" member, so
/// estimates are auditable against the latencies the transport records.
[[nodiscard]] util::JsonValue stats_block(const ServiceStats& stats,
                                          const CostEstimate& cost);

/// One streamed-response JSONL line (no trailing newline):
///   cell_line  -> {"type":"cell","request":...,"signature":...,<cell>}
///   done_line  -> {"type":"done", summary of the finished table; with a
///                  non-null `stats` a trailing "stats" block, embedded
///                  verbatim (requests opt in via "stats": true; the
///                  router passes its merged {"shards": [...]} block)}
///   stats_line -> {"type":"stats","request":...,<ServiceStats blocks>}
///   error_line -> {"type":"error","request":...,"field":...,"message":...}
///   overloaded_line -> an error line extended with a machine-readable
///                  "code":"overloaded" and a "retry_after_ms" hint — the
///                  admission-control rejection; retriable by contract
///                  (nothing executed), unlike plain error lines
///   pong_line  -> {"type":"pong","request":...} — the health probe's
///                 answer; a terminal line like done/stats/error
/// stats_line's optional `transport` appends a transport-layer block
/// (scheduler counters + latency histograms — see
/// NetServer::overload_stats_json) after the service/cache blocks. Both
/// optional blocks are opt-in so the stdin path's bytes are untouched.
[[nodiscard]] std::string cell_line(const std::string& request_id,
                                    core::GridSignature signature,
                                    const core::SweepCell& cell);
[[nodiscard]] std::string done_line(const std::string& request_id,
                                    core::GridSignature signature,
                                    const core::SweepTable& table,
                                    bool cache_hit, bool joined_in_flight,
                                    const util::JsonValue* stats = nullptr);
/// Simulate-mode lines, same shape discipline as the sweep ones:
///   sim_cell_line -> {"type":"cell", ..., "mean","ci_low","ci_high",
///                     "runs","early_stopped"}
///   sim_done_line -> {"type":"done", ..., "mode":"simulate", "runs"
///                     (total over all cells), optional stats block}
[[nodiscard]] std::string sim_cell_line(const std::string& request_id,
                                        core::GridSignature signature,
                                        const SimCell& cell);
[[nodiscard]] std::string sim_done_line(const std::string& request_id,
                                        core::GridSignature signature,
                                        const SimTable& table, bool cache_hit,
                                        const util::JsonValue* stats = nullptr);
[[nodiscard]] std::string stats_line(const std::string& request_id,
                                     const ServiceStats& stats,
                                     const util::JsonValue* transport = nullptr);
[[nodiscard]] std::string error_line(const std::string& request_id,
                                     const std::string& field,
                                     const std::string& message);
[[nodiscard]] std::string overloaded_line(const std::string& request_id,
                                          std::int64_t retry_after_ms);
[[nodiscard]] std::string pong_line(const std::string& request_id);

}  // namespace resilience::service
