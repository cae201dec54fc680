#pragma once

// Spans for the traced run, and the in-process replay that records them.
//
// A span is (name, start, end, parent, request id). A layer's self time is
// its span's duration minus the part of that interval its child spans
// cover; a root span's self time is time no layer span covers, and is
// reported (bench.unattributed_us), never dropped. Spans live in memory
// and are summarized when the run ends.
//
// The replay feeds a workload's request lines through the program's
// public functions in the order service::JsonlSession calls them, with a
// span around each call, and times the compute kernels directly on the
// inputs of the misses it saw.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  /// Opens a span now; returns its handle (0 when disabled).
  std::uint32_t begin(const char* name, std::uint32_t parent,
                      std::uint32_t request);
  void end(std::uint32_t span);
  /// Renames an open or closed span (the submit span learns whether it
  /// was a hit only when the call returns).
  void rename(std::uint32_t span, const char* name);
  /// Records a finished span with explicit times (wire spans).
  void record(const char* name, std::uint32_t parent, std::uint32_t request,
              double start_s, double end_s);

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;  ///< summed durations
    double self_s = 0.0;   ///< summed self times
  };
  /// Per span name, self times computed from the parent links.
  [[nodiscard]] std::map<std::string, Totals> summarize() const;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::uint32_t request;
    double start;
    double end;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// Per-layer numbers gathered by the in-process replay.
struct ReplayReport {
  std::map<std::string, double> metrics;  ///< per_layer names -> values
};

/// Replays `lines` (JSONL requests, newline-terminated) in process: once
/// untraced and once traced on fresh services, then times the kernels of
/// up to `kernel_requests` misses directly. `warm_lines` are replayed
/// first on each service (the catalogue warm fill) and count as requests.
ReplayReport replay_in_process(const std::vector<std::string>& warm_lines,
                               const std::vector<std::string>& lines,
                               std::size_t kernel_requests);

}  // namespace perfbench
