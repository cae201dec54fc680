#pragma once

// The protocol-session interface the network front-end drives: one
// object per connection, fed input lines, answering through an emit
// callback. service::JsonlSession (the sweep service protocol) and
// net::RouterSession (the sharded-fleet front) both implement it, which
// is what lets one epoll transport serve either role — the transport
// never knows whether a line is computed locally or fanned out to
// shards. Scenario lines arrive already parsed (serve/serve_resident):
// the transport parses each one once at admission, to price it.

#include <functional>
#include <string>
#include <string_view>

namespace resilience::service {

struct ParsedLine;  // cost_model.hpp

class LineSession {
 public:
  /// Receives each response line (no terminator). `end_of_response` is
  /// true on terminal lines (done/stats/error/pong) — the cue for
  /// per-response flushing on buffered transports.
  using LineFn = std::function<void(std::string&& line, bool end_of_response)>;

  virtual ~LineSession() = default;

  /// Processes one input line end to end. Implementations must not let
  /// exceptions escape — protocol failures answer with an error line.
  virtual void handle_line(std::string_view line) = 0;

  /// Processes one request line the transport already parsed at
  /// admission (`parsed.scenario` is true; `line` is its raw text), so a
  /// session that serves scenario requests itself never parses it again.
  /// May consume `parsed`. Default: forwards the raw line to handle_line —
  /// right for sessions that pass lines on rather than serve them (the
  /// router).
  virtual void serve(ParsedLine& parsed, std::string_view line) {
    (void)parsed;
    handle_line(line);
  }

  /// Serves `parsed` on the calling thread — the transport's event loop —
  /// only if it is a memory-resident identity hit, the one answer that
  /// needs no disk, no wait and no compute. Returns false, having emitted
  /// nothing, counted nothing and consumed no input line, in every other
  /// case; the transport then runs serve() on a worker as usual.
  /// Default: false.
  virtual bool serve_resident(ParsedLine& parsed) {
    (void)parsed;
    return false;
  }

  /// Informs the session of an input line the TRANSPORT consumed without
  /// ever calling handle_line — e.g. a request shed at admission, whose
  /// rejection the transport formatted itself. Sessions that number
  /// default request ids by input line ("line-N") must count these, or
  /// every id after a shed would drift off the stdin numbering. Default:
  /// no-op (sessions without line-positional state don't care).
  virtual void note_skipped_line() {}
};

}  // namespace resilience::service
