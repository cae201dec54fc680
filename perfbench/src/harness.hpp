#pragma once

// Measurement primitives of the benchmark, kept free of sockets and
// processes so the self-tests can pin them down: the seeded generator,
// the Poisson arrival schedule, the percentile rule, response digests and
// the failure tally behind `failed`/`failed_ratio`.
//
// Everything here is the benchmark's own code. Input generation in
// particular must never call into the program under test: a change to
// the program must not change the requests it is measured on.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's only source of randomness. Same seed, same
/// stream, on every platform (std:: distributions are implementation
/// defined, so none are used).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform();
  /// Uniform integer in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// Mixes several words into one seed (stream derivation: one seed per
/// workload, client and purpose).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b = 0);

/// Send offsets in seconds from the start of an open-loop step: Poisson
/// arrivals (exponential gaps) at `rate_per_s`, every offset below
/// `duration_s`. Deterministic per seed.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     double duration_s);

/// Rank (0-based, ascending order) of the reported tail: p99, or, when
/// the sample is too small for p99 to have ten samples beyond it, the
/// highest rank that still has ten. Requires n >= 11.
std::size_t tail_rank(std::size_t n);

/// Median and tail of a latency sample (any unit), with the sample count
/// and the percentile the tail actually is.
struct Quantiles {
  std::size_t samples = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;  ///< 99 when the sample supports p99
};

/// Throws std::invalid_argument on fewer than 11 samples.
Quantiles latency_quantiles(std::vector<double> values);

/// Plain median (lower median for an even count); 0 for an empty input.
double median(std::vector<double> values);

/// Cost per unit of work of consecutive measured segments: segment s
/// runs from marks[s] to marks[s + 1] and does work[s]. Throws
/// std::runtime_error unless there is exactly one more mark than segments
/// (a closing mark that never came: the server stopped answering early)
/// and every segment did some work.
std::vector<double> segment_costs(const std::vector<double>& marks,
                                  const std::vector<double>& work);

/// num / den, or 0 when den is not positive (a ratio whose base is empty).
double ratio(double num, double den);

/// 64-bit hash of a byte string (word-at-a-time multiply/xorshift).
std::uint64_t hash_bytes(std::string_view bytes, std::uint64_t seed = 0);

/// How one request ended, as the client sees it.
enum class Outcome {
  kOk,
  kError,       ///< an error line other than the two below
  kOverloaded,  ///< admission shed: "code":"overloaded"
  kDeadline,    ///< deadline error line (field "deadline_ms")
  kMissing,     ///< no terminal line arrived
  kWrongBytes,  ///< answered, but not what the reference answers
};

/// Classifies a terminal line (done/stats/pong are kOk).
Outcome classify_terminal(std::string_view line);

/// True for every response line except streamed cells.
bool is_terminal(std::string_view line);

/// Digest of one response, built line by line as bytes arrive. The
/// request id is left out of the hashes (the reference may be rendered
/// under another id) and checked separately against `expected_id`.
struct ResponseDigest {
  std::uint64_t ordered = 0;    ///< order-sensitive (exact streams)
  std::uint64_t unordered = 0;  ///< order-free sum (cold misses)
  std::uint32_t lines = 0;
  std::uint64_t cells = 0;  ///< the done line's "cells"
  std::uint64_t runs = 0;   ///< the done line's "runs" (simulate)
  bool complete = false;
  bool id_mismatch = false;
  Outcome outcome = Outcome::kMissing;

  /// Folds one line in; `expected_id` is the id the request carried.
  void add_line(std::string_view line, std::string_view expected_id);
};

/// Hash of a line without its "request" id value; the per-line unit of
/// both digests and of the sorted workload digest.
std::uint64_t line_hash(std::string_view line);

/// The failure tally: every request sent ends up in exactly one bucket.
struct FailureTally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t deadline = 0;
  std::uint64_t missing = 0;
  std::uint64_t wrong_bytes = 0;

  void add(Outcome outcome);
  [[nodiscard]] std::uint64_t failed() const;
  [[nodiscard]] double failed_ratio() const;
  void merge(const FailureTally& other);
};

/// Checks a received response against its reference digest. `exact`
/// demands identical line order; otherwise lines may come in any order.
/// Returns the outcome to tally (kWrongBytes on any mismatch of an
/// otherwise successful answer).
Outcome verify(const ResponseDigest& got, const ResponseDigest& want,
               bool exact);

/// Seconds on the steady clock (arbitrary epoch).
double now_s();

/// The first `"key":<digits>` value of a JSON line; 0 when absent. Only
/// for the flat unsigned fields of response lines ("cells", "runs").
std::uint64_t read_uint_field(std::string_view line, std::string_view key);

}  // namespace perfbench
