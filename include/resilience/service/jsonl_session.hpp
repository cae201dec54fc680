#pragma once

// One JSONL request/response session over a SweepService — the request
// processing that used to live inside sweep_server's main loop, factored
// out so every front-end (the stdin CLI, the epoll daemon, the loopback
// bench) speaks byte-identical protocol BY CONSTRUCTION: the stdin path
// feeds input lines through handle_line(), which parses each line once
// and serves it; the daemon, which already parsed and priced every
// scenario line at admission, hands that ParsedLine to serve() (or, for
// a memory-resident identity hit, to serve_resident() on its event-loop
// thread). All three run the same serve path and emit the same lines.
//
// Per input line:
//   * blank / '#'-comment     — skipped (still counted: default request
//                               ids are "line-N" over ALL input lines,
//                               matching the historical stdin numbering);
//   * {"type":"stats", ...}   — answered with one stats_line snapshot;
//   * {"type":"ping", ...}    — answered with one pong_line; the health /
//                               readiness probe (no compute involved);
//   * scenario request object — validated, submitted (cells streamed as
//                               cell_lines), finished with a done_line
//                               (carrying a stats block when the request
//                               set "stats": true); "mode": "simulate"
//                               requests route to the SimService instead
//                               (Monte Carlo cells, a "mode":"simulate"
//                               done line) through the same emit seam;
//   * anything invalid        — one error_line naming the offending
//                               field; the session keeps going.
//
// Cancellation: a front-end may hand in a shared cancel flag (the
// daemon's per-connection token, set on disconnect). Once it reads true
// the session stops formatting and emitting lines — mid-request, the
// flag folds into the submit's cancel token, so the abandoned sweep also
// unwinds at its next cell instead of computing for a client that is
// gone (a cancelled sweep publishes no table; the next submission of the
// grid recomputes it).
//
// Deadlines: a request's "deadline_ms" (or, when absent, the session's
// default_deadline_ms) bounds COMPUTE time, measured from when the
// session starts executing the request — queue/transport wait is
// excluded, so the bound a client states is about the engine, not about
// pipeline depth. On expiry the request answers with one located
// {"type":"error"} line (field "deadline_ms") and the session moves on;
// cells already streamed before expiry remain valid (their values never
// depend on cancellation). If the submit manages to finish despite an
// expired deadline — e.g. a cache hit raced the clock — the finished
// done line is served rather than discarded.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "resilience/service/cost_model.hpp"
#include "resilience/service/line_session.hpp"
#include "resilience/service/scenario_request.hpp"
#include "resilience/service/serialize.hpp"
#include "resilience/service/sweep_service.hpp"

namespace resilience::service {

struct JsonlSessionOptions {
  bool stream = true;    ///< emit cell lines (done/error always emit)
  bool collect = false;  ///< keep streamed cells for the outcome hook
  /// Deadline applied to requests that carry none of their own
  /// ("deadline_ms" absent or 0); 0 = unbounded. A request's explicit
  /// field always wins.
  int default_deadline_ms = 0;
  /// When set, a {"type":"stats"} answer additionally carries this
  /// snapshot as a trailing "transport" block (the daemon wires
  /// NetServer::overload_stats_json here). Unset on the stdin path, so
  /// its stats bytes are exactly the historical ones.
  std::function<util::JsonValue()> transport_stats;
  /// Hard server-side cap on a simulate request's sim.max_runs (0 =
  /// uncapped). A request over the cap answers with one error line
  /// (field "sim.max_runs") before any compute — the simulate analogue
  /// of bounding compute budgets at admission.
  std::uint64_t sim_max_runs = 0;
};

/// True when `line` is a request — not blank, not a '#' comment. The one
/// copy of the protocol's skip rule: handle_line applies it, and
/// pipelining clients use it to predict how many responses a request
/// file will produce (every request line gets exactly one terminal
/// done/stats/error line).
[[nodiscard]] bool is_request_line(std::string_view line);

class JsonlSession final : public LineSession {
 public:
  using Options = JsonlSessionOptions;

  /// Receives each response line (no terminator). `end_of_response` is
  /// true on done/stats/error lines — the cue for per-response flushing
  /// on buffered transports.
  using LineFn = LineSession::LineFn;

  /// Everything sweep_server --check needs about one served request.
  struct Outcome {
    ScenarioRequest request;
    SubmitResult result;
    std::vector<core::SweepCell> cells;  ///< filled when options.collect
  };
  using OutcomeFn = std::function<void(const Outcome& outcome)>;

  JsonlSession(SweepService& service, LineFn emit,
               Options options = Options(),
               std::shared_ptr<const std::atomic<bool>> cancelled = nullptr);

  /// Called after each successfully served ANALYTIC scenario request
  /// (not for stats requests, errors, or "mode": "simulate" requests —
  /// sim determinism is pinned by test_sim_service, not --check).
  void set_outcome_hook(OutcomeFn hook) { outcome_ = std::move(hook); }

  /// Processes one input line end to end (submit included — callers
  /// wanting concurrency run sessions on their own threads, one per
  /// connection). Exceptions from the engine surface as an error_line,
  /// never propagate.
  void handle_line(std::string_view line) override;

  /// Serves a scenario line the daemon parsed at admission: the same
  /// path handle_line takes after its own parse.
  void serve(ParsedLine& parsed, std::string_view line) override;

  /// serve() confined to a memory-resident identity hit (see
  /// LineSession::serve_resident): the same cell/done lines, from the
  /// caller's thread, or false with nothing emitted or counted.
  bool serve_resident(ParsedLine& parsed) override;

  /// A transport consumed one input line without handing it over (shed at
  /// admission): tick the line counter so later default "line-N" ids stay
  /// aligned with a run where every line reached handle_line.
  void note_skipped_line() override { ++lines_; }

  /// Input lines seen so far (blank and comment lines included).
  [[nodiscard]] std::size_t lines_seen() const noexcept { return lines_; }
  /// True when any line produced an error response (parse, validation or
  /// internal) — what sweep_server's exit code reports.
  [[nodiscard]] bool any_request_errors() const noexcept { return errors_; }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_ != nullptr &&
           cancelled_->load(std::memory_order_acquire);
  }

 private:
  void emit(std::string line, bool end_of_response);
  /// Serves one parsed scenario request; false (nothing emitted) only
  /// when `resident_only` and it is not a memory-resident identity hit.
  bool serve_parsed(ParsedLine& parsed, bool resident_only);

  SweepService& service_;
  LineFn emit_;
  Options options_;
  std::shared_ptr<const std::atomic<bool>> cancelled_;
  OutcomeFn outcome_;
  std::size_t lines_ = 0;
  bool errors_ = false;
};

}  // namespace resilience::service
