#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

constexpr std::string_view kIdKey = "\"request\":\"";

/// The request id's [begin, end) inside a response line, or npos/npos.
std::pair<std::size_t, std::size_t> id_span(std::string_view line) {
  const std::size_t key = line.find(kIdKey);
  if (key == std::string_view::npos) {
    return {std::string_view::npos, std::string_view::npos};
  }
  const std::size_t begin = key + kIdKey.size();
  const std::size_t end = line.find('"', begin);
  return {begin, end == std::string_view::npos ? line.size() : end};
}

}  // namespace

std::uint64_t Rng::next() {
  state_ += kMul;
  return mix64(state_);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::below(std::uint64_t n) {
  // Modulo bias is < n / 2^64: irrelevant for workload shaping.
  return next() % n;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  return mix64(mix64(mix64(seed) ^ (a * kMul)) ^ (b + 0x632be59bd9b4e019ULL));
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     double duration_s) {
  if (!(rate_per_s > 0.0) || !(duration_s > 0.0)) {
    throw std::invalid_argument("poisson_schedule: rate and duration > 0");
  }
  Rng rng(seed);
  std::vector<double> offsets;
  offsets.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) +
                  16);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate_per_s;
    if (t >= duration_s) {
      return offsets;
    }
    offsets.push_back(t);
  }
}

std::size_t tail_rank(std::size_t n) {
  if (n < 11) {
    throw std::invalid_argument("tail_rank: need at least 11 samples");
  }
  const std::size_t p99 = (99 * n + 99) / 100 - 1;  // ceil(0.99 n) - 1
  return std::min(p99, n - 11);
}

Quantiles latency_quantiles(std::vector<double> values) {
  const std::size_t n = values.size();
  const std::size_t tail = tail_rank(n);
  std::sort(values.begin(), values.end());
  Quantiles q;
  q.samples = n;
  q.p50 = values[(n - 1) / 2];
  q.tail = values[tail];
  q.tail_percentile = 100.0 * static_cast<double>(tail + 1) /
                      static_cast<double>(n);
  return q;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(
                                         (values.size() - 1) / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

std::vector<double> segment_costs(const std::vector<double>& marks,
                                  const std::vector<double>& work) {
  if (marks.size() != work.size() + 1) {
    throw std::runtime_error(
        "cost segments incomplete: " + std::to_string(marks.size()) +
        " marks for " + std::to_string(work.size()) + " segments");
  }
  std::vector<double> costs;
  for (std::size_t s = 0; s < work.size(); ++s) {
    if (!(work[s] > 0.0)) {
      throw std::runtime_error("cost segment " + std::to_string(s) +
                               " did no work");
    }
    costs.push_back((marks[s + 1] - marks[s]) / work[s]);
  }
  return costs;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t hash_bytes(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = mix64(seed ^ (bytes.size() * kMul));
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 29;
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  h = (h ^ tail) * kMul;
  return mix64(h);
}

bool is_terminal(std::string_view line) {
  return !starts_with(line, "{\"type\":\"cell\"");
}

Outcome classify_terminal(std::string_view line) {
  if (!starts_with(line, "{\"type\":\"error\"")) {
    return Outcome::kOk;
  }
  if (line.find("\"code\":\"overloaded\"") != std::string_view::npos) {
    return Outcome::kOverloaded;
  }
  if (line.find("\"field\":\"deadline_ms\"") != std::string_view::npos) {
    return Outcome::kDeadline;
  }
  return Outcome::kError;
}

std::uint64_t line_hash(std::string_view line) {
  const auto [begin, end] = id_span(line);
  if (begin == std::string_view::npos) {
    return hash_bytes(line);
  }
  return hash_bytes(line.substr(end), hash_bytes(line.substr(0, begin)));
}

std::uint64_t read_uint_field(std::string_view line, std::string_view key) {
  std::string pattern;
  pattern.reserve(key.size() + 3);
  pattern.append("\"").append(key).append("\":");
  const std::size_t at = line.find(pattern);
  if (at == std::string_view::npos) {
    return 0;
  }
  std::uint64_t value = 0;
  for (std::size_t i = at + pattern.size();
       i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
    value = value * 10 + static_cast<std::uint64_t>(line[i] - '0');
  }
  return value;
}

void ResponseDigest::add_line(std::string_view line,
                              std::string_view expected_id) {
  const std::uint64_t h = line_hash(line);
  ordered = mix64(ordered ^ h) + lines;
  unordered += mix64(h);
  ++lines;
  const auto [begin, end] = id_span(line);
  if (begin == std::string_view::npos ||
      line.substr(begin, end - begin) != expected_id) {
    id_mismatch = true;
  }
  if (is_terminal(line)) {
    complete = true;
    outcome = classify_terminal(line);
    cells = read_uint_field(line, "cells");
    runs = read_uint_field(line, "runs");
  }
}

void FailureTally::add(Outcome outcome) {
  ++sent;
  switch (outcome) {
    case Outcome::kOk: ++ok; break;
    case Outcome::kError: ++errors; break;
    case Outcome::kOverloaded: ++overloaded; break;
    case Outcome::kDeadline: ++deadline; break;
    case Outcome::kMissing: ++missing; break;
    case Outcome::kWrongBytes: ++wrong_bytes; break;
  }
}

std::uint64_t FailureTally::failed() const {
  return errors + overloaded + deadline + missing + wrong_bytes;
}

double FailureTally::failed_ratio() const {
  return sent == 0 ? 0.0
                   : static_cast<double>(failed()) / static_cast<double>(sent);
}

void FailureTally::merge(const FailureTally& other) {
  sent += other.sent;
  ok += other.ok;
  errors += other.errors;
  overloaded += other.overloaded;
  deadline += other.deadline;
  missing += other.missing;
  wrong_bytes += other.wrong_bytes;
}

Outcome verify(const ResponseDigest& got, const ResponseDigest& want,
               bool exact) {
  if (!got.complete) {
    return Outcome::kMissing;
  }
  if (got.outcome != Outcome::kOk) {
    return got.outcome;
  }
  const bool same = got.lines == want.lines && !got.id_mismatch &&
                    (exact ? got.ordered == want.ordered
                           : got.unordered == want.unordered);
  return same ? Outcome::kOk : Outcome::kWrongBytes;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
