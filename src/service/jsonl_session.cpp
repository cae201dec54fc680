#include "resilience/service/jsonl_session.hpp"

#include <chrono>
#include <exception>
#include <optional>
#include <utility>

#include "resilience/service/cost_model.hpp"
#include "resilience/service/sim_service.hpp"

namespace resilience::service {

namespace {

/// The sink a scenario request streams through: forwards formatted cell
/// lines (unless the client is gone) and optionally keeps the raw cells
/// for the outcome hook. The runner serializes on_cell calls, so no
/// locking here.
class SessionSink final : public core::CellSink {
 public:
  SessionSink(const std::string& request_id, core::GridSignature signature,
              bool stream, bool collect,
              std::function<void(std::string&&)> forward,
              std::shared_ptr<const std::atomic<bool>> cancelled)
      : request_id_(request_id),
        signature_(signature),
        stream_(stream),
        collect_(collect),
        forward_(std::move(forward)),
        cancelled_(std::move(cancelled)) {}

  void on_cell(const core::SweepCell& cell) override {
    if (collect_) {
      cells_.push_back(cell);
    }
    if (stream_ && !(cancelled_ != nullptr &&
                     cancelled_->load(std::memory_order_acquire))) {
      forward_(cell_line(request_id_, signature_, cell));
    }
  }

  [[nodiscard]] std::vector<core::SweepCell>& cells() noexcept {
    return cells_;
  }

 private:
  const std::string& request_id_;  ///< outlives the sink (owned by caller)
  core::GridSignature signature_;
  bool stream_;
  bool collect_;
  std::function<void(std::string&&)> forward_;
  std::shared_ptr<const std::atomic<bool>> cancelled_;
  std::vector<core::SweepCell> cells_;
};

}  // namespace

bool is_request_line(std::string_view line) {
  const std::size_t first = line.find_first_not_of(" \t\r");
  return first != std::string_view::npos && line[first] != '#';
}

JsonlSession::JsonlSession(SweepService& service, LineFn emit, Options options,
                           std::shared_ptr<const std::atomic<bool>> cancelled)
    : service_(service),
      emit_(std::move(emit)),
      options_(options),
      cancelled_(std::move(cancelled)) {}

void JsonlSession::emit(std::string line, bool end_of_response) {
  if (!cancelled()) {
    emit_(std::move(line), end_of_response);
  }
}

void JsonlSession::handle_line(std::string_view line) {
  ++lines_;
  if (!is_request_line(line)) {
    return;  // blank lines and comments between requests are fine
  }
  if (cancelled()) {
    return;  // client is gone; don't start work on its behalf
  }
  const std::string default_id = "line-" + std::to_string(lines_);

  // One parse serves the type dispatch and the request constructor.
  util::JsonValue json;
  try {
    json = util::JsonValue::parse(line);
  } catch (const util::JsonError& error) {
    errors_ = true;
    emit(error_line(default_id, "",
                    std::string("invalid JSON: ") + error.what()),
         true);
    return;
  }

  if (json.is_object()) {
    if (const util::JsonValue* type = json.find("type")) {
      std::string id = default_id;
      if (const util::JsonValue* id_field = json.find("id")) {
        if (!id_field->is_string()) {
          errors_ = true;
          emit(error_line(default_id, "id", "expected a string"), true);
          return;
        }
        id = id_field->as_string();
      }
      const bool is_stats = type->is_string() && type->as_string() == "stats";
      const bool is_ping = type->is_string() && type->as_string() == "ping";
      if (!is_stats && !is_ping) {
        errors_ = true;
        emit(error_line(id, "type",
                        type->is_string()
                            ? "unknown request type '" + type->as_string() +
                                  "'"
                            : std::string("expected a string")),
             true);
        return;
      }
      // Same strictness as scenario requests: typo'd members must not be
      // silently ignored.
      for (const auto& [key, value] : json.as_object()) {
        if (key != "type" && key != "id") {
          errors_ = true;
          emit(error_line(id, key, "unknown field '" + key + "'"), true);
          return;
        }
      }
      if (is_ping) {
        emit(pong_line(id), true);
      } else if (options_.transport_stats) {
        const util::JsonValue transport = options_.transport_stats();
        emit(stats_line(id, service_.stats(), &transport), true);
      } else {
        emit(stats_line(id, service_.stats()), true);
      }
      return;
    }
  }

  ParsedLine parsed;
  try {
    parsed = parse_request(json, &service_, options_.default_deadline_ms);
  } catch (const RequestError& error) {
    errors_ = true;
    emit(error_line(default_id, error.field, error.what()), true);
    return;
  }
  serve_parsed(parsed, /*resident_only=*/false);
}

void JsonlSession::serve(ParsedLine& parsed, std::string_view) {
  ++lines_;
  if (cancelled()) {
    return;
  }
  serve_parsed(parsed, /*resident_only=*/false);
}

bool JsonlSession::serve_resident(ParsedLine& parsed) {
  if (cancelled()) {
    return false;
  }
  ++lines_;  // the request's own line number names its default id
  if (serve_parsed(parsed, /*resident_only=*/true)) {
    return true;
  }
  --lines_;
  return false;
}

bool JsonlSession::serve_parsed(ParsedLine& parsed, bool resident_only) {
  ScenarioRequest& request = parsed.request;
  if (request.id.empty()) {
    request.id = "line-" + std::to_string(lines_);
  }

  // Compute budget: the request's own deadline wins; the session default
  // covers requests that state none (resolved in parse_request). Anchored
  // here — execution start — so transport/queue wait never eats into the
  // stated budget.
  const int deadline_ms = parsed.deadline_ms;
  core::CancelToken cancel(cancelled_);
  if (deadline_ms > 0) {
    cancel.set_deadline(std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms));
  }
  const core::GridSignature signature = parsed.signature;

  try {
    if (request.simulate) {
      // Server-side budget cap: refused at admission, before any compute
      // — the error names the field so clients can lower their ask.
      if (options_.sim_max_runs > 0 &&
          request.sim.max_runs > options_.sim_max_runs) {
        if (resident_only) {
          return false;
        }
        errors_ = true;
        emit(error_line(request.id, "sim.max_runs",
                        "exceeds the server cap of " +
                            std::to_string(options_.sim_max_runs) +
                            " runs per cell"),
             true);
        return true;
      }
      const CostEstimate cost = request.include_stats
                                    ? estimate_cost(request, &service_)
                                    : CostEstimate{};
      SimCellFn sink;
      if (options_.stream) {
        sink = [this, &request, signature](const SimCell& cell) {
          if (!cancelled()) {
            emit_(sim_cell_line(request.id, signature, cell), false);
          }
        };
      }
      const std::optional<SimSubmitResult> result =
          resident_only
              ? service_.sim().submit_resident(request, signature, sink, cancel)
              : service_.sim().submit(request, sink, cancel);
      if (!result) {
        return false;
      }
      std::optional<util::JsonValue> stats;
      if (request.include_stats) {
        stats = stats_block(service_.stats(), cost);
      }
      emit(sim_done_line(request.id, result->signature, *result->table,
                         result->cache_hit, stats ? &*stats : nullptr),
           true);
      return true;
    }
    // Price the request BEFORE submitting: the estimate must reflect the
    // cache state an admission controller saw, not the state after this
    // very request published its table. Only when the client asked for
    // stats — the probe is cheap but not free.
    const CostEstimate cost = request.include_stats
                                  ? estimate_cost(request, &service_)
                                  : CostEstimate{};
    SessionSink sink(
        request.id, signature, options_.stream, options_.collect,
        [this](std::string&& cell) { emit_(std::move(cell), false); },
        cancelled_);
    core::CellSink* const sink_ptr =
        options_.stream || options_.collect ? &sink : nullptr;
    const std::optional<SubmitResult> result =
        resident_only
            ? service_.submit_resident(request, signature, sink_ptr, cancel)
            : service_.submit(request, sink_ptr, cancel);
    if (!result) {
      return false;
    }
    // No JsonValue on the plain done path: the block exists only when
    // the request asked for it.
    std::optional<util::JsonValue> stats;
    if (request.include_stats) {
      stats = stats_block(service_.stats(), cost);
    }
    emit(done_line(request.id, result->signature, *result->table,
                   result->cache_hit, result->joined_in_flight,
                   stats ? &*stats : nullptr),
         true);
    if (outcome_) {
      outcome_(Outcome{std::move(request), *result, std::move(sink.cells())});
    }
  } catch (const core::SweepCancelled& cancelled) {
    if (!cancelled.deadline_expired()) {
      return true;  // disconnect cancellation: the client is gone, stay silent
    }
    errors_ = true;
    emit(error_line(request.id, "deadline_ms",
                    "deadline of " + std::to_string(deadline_ms) +
                        " ms exceeded before the sweep completed"),
         true);
  } catch (const std::exception& error) {
    // Validation ran at parse time, so this is an engine/runtime failure
    // (resource exhaustion, cache IO); the protocol answer is an error
    // line, not a dropped connection or a dead server.
    errors_ = true;
    emit(error_line(request.id, "",
                    std::string("internal error: ") + error.what()),
         true);
  }
  return true;
}

}  // namespace resilience::service
