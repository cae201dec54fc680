// Self-tests of the benchmark harness: the percentile rule, the seeded
// Poisson schedule, open-loop latency charged from the scheduled send
// time, the failure accounting behind failed_ratio, span self times and
// the determinism of the generated workloads.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "trace.hpp"
#include "wire.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Percentile, TailHasAtLeastTenSamplesBeyondIt) {
  EXPECT_EQ(tail_rank(1000), 989u);  // p99 exactly: 10 beyond
  EXPECT_EQ(tail_rank(100000), 98999u);
  EXPECT_EQ(tail_rank(500), 489u);  // too small for p99: 10 beyond
  EXPECT_EQ(tail_rank(11), 0u);
  EXPECT_THROW((void)tail_rank(10), std::invalid_argument);
  for (std::size_t n = 11; n < 3000; n += 7) {
    EXPECT_GE(n - 1 - tail_rank(n), 10u) << n;
  }
}

TEST(Percentile, QuantilesOfAKnownSample) {
  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) {
    values.push_back(i);
  }
  const Quantiles q = latency_quantiles(values);
  EXPECT_EQ(q.samples, 1000u);
  EXPECT_EQ(q.p50, 500.0);
  EXPECT_EQ(q.tail, 990.0);
  EXPECT_DOUBLE_EQ(q.tail_percentile, 99.0);

  values.resize(200);  // 1000 .. 801: p99 would leave only 2 beyond
  const Quantiles small = latency_quantiles(values);
  EXPECT_EQ(small.tail, 990.0);
  EXPECT_DOUBLE_EQ(small.tail_percentile, 95.0);
}

TEST(Poisson, DeterministicPerSeed) {
  const std::vector<double> a = poisson_schedule(7, 1000.0, 2.0);
  const std::vector<double> b = poisson_schedule(7, 1000.0, 2.0);
  const std::vector<double> c = poisson_schedule(8, 1000.0, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Poisson, RateAndOrder) {
  const std::vector<double> offsets = poisson_schedule(3, 1000.0, 100.0);
  ASSERT_FALSE(offsets.empty());
  EXPECT_NEAR(static_cast<double>(offsets.size()), 100000.0, 1500.0);
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    ASSERT_GT(offsets[i], offsets[i - 1]);
  }
  EXPECT_LT(offsets.back(), 100.0);
}

/// A one-connection line server that answers each request with a done
/// line, stalling once before answering request number `stall_at`, and
/// closing the connection after `close_after` answers (never when < 0).
class StallingServer {
 public:
  StallingServer(int stall_at, int stall_ms, int close_after = -1) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(listen_fd_, 1) != 0) {
      throw std::runtime_error("stub server: bind/listen failed");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, stall_at, stall_ms, close_after] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      std::string buffer;
      char chunk[4096];
      int seen = 0;
      for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0) {
          break;
        }
        buffer.append(chunk, static_cast<std::size_t>(n));
        for (std::size_t nl = buffer.find('\n'); nl != std::string::npos;
             nl = buffer.find('\n')) {
          const std::string line = buffer.substr(0, nl);
          buffer.erase(0, nl + 1);
          if (++seen == stall_at) {
            std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
          }
          const std::size_t at = line.find("\"id\":\"") + 6;
          const std::string id = line.substr(at, line.find('"', at) - at);
          const std::string answer =
              "{\"type\":\"done\",\"request\":\"" + id + "\",\"cells\":1}\n";
          (void)::send(fd, answer.data(), answer.size(), MSG_NOSIGNAL);
          if (seen == close_after) {
            break;
          }
        }
        if (seen == close_after) {
          break;
        }
      }
      ::close(fd);
    });
  }
  ~StallingServer() {
    thread_.join();
    ::close(listen_fd_);
  }
  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(OpenLoop, StallIsChargedToLaterRequestsFromTheirScheduledTime) {
  constexpr int kRequests = 60;
  constexpr int kStallAt = 10;  // 1-based: request index 9 stalls
  constexpr int kStallMs = 120;
  StallingServer server(kStallAt, kStallMs);
  std::vector<WireRequest> requests(kRequests);
  std::vector<double> offsets;
  for (int i = 0; i < kRequests; ++i) {
    offsets.push_back(0.002 * i);  // every 2 ms
    requests[i].id = "r" + std::to_string(i);
    requests[i].line = "{\"id\":\"" + requests[i].id + "\"}\n";
  }
  {
    Conn conn(server.port());
    double start = 0.0;
    run_open_loop({&conn}, offsets, requests, 5.0, &start);
  }
  const double stall_end = requests[kStallAt - 1].scheduled + kStallMs * 1e-3;
  for (int i = 0; i < kRequests; ++i) {
    const WireRequest& r = requests[i];
    ASSERT_TRUE(r.digest.complete) << i;
    ASSERT_FALSE(r.digest.id_mismatch) << i;
    // The generator kept its schedule through the stall...
    EXPECT_LT(r.sent - r.scheduled, 0.02) << i;
    const double latency = r.done - r.scheduled;
    if (i >= kStallAt - 1 && r.scheduled < stall_end) {
      // ...so every request due during the stall carries the wait it
      // suffered, counted from when it was due.
      EXPECT_GE(latency, stall_end - r.scheduled - 0.005) << i;
    }
  }
  // Requests due well before the stall are fast.
  EXPECT_LT(requests[2].done - requests[2].scheduled, 0.05);
}

TEST(WindowLoop, AnswersEverythingItSendsAndStopsOnTime) {
  StallingServer server(/*stall_at=*/5, /*stall_ms=*/50);
  std::vector<WireRequest> requests(100000);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].id = "w" + std::to_string(i);
    requests[i].line = "{\"id\":\"" + requests[i].id + "\"}\n";
  }
  std::size_t sent = 0;
  {
    Conn conn(server.port());
    conn.set_receive_timeout_ms(5000);
    const double start = now_s();
    sent = run_window_loop(conn, requests, 4, start + 0.3);
    EXPECT_LT(now_s() - start, 2.0);
  }
  ASSERT_GT(sent, 10u);
  ASSERT_LT(sent, requests.size());
  for (std::size_t i = 0; i < sent; ++i) {
    ASSERT_TRUE(requests[i].digest.complete) << i;
    ASSERT_FALSE(requests[i].digest.id_mismatch) << i;
  }
  // At most four in flight: request i + 4 goes out only after answer i.
  for (std::size_t i = 0; i + 4 < sent; ++i) {
    ASSERT_GE(requests[i + 4].sent, requests[i].done) << i;
  }
}

TEST(SegmentCosts, OneMoreMarkThanSegmentsAndWorkInEach) {
  EXPECT_EQ(segment_costs({0.0, 2.0, 5.0}, {1.0, 3.0}),
            (std::vector<double>{2.0, 1.0}));
  EXPECT_THROW((void)segment_costs({0.0, 2.0}, {1.0, 3.0}),
               std::runtime_error);
  EXPECT_THROW((void)segment_costs({0.0, 2.0, 5.0}, {1.0, 0.0}),
               std::runtime_error);
}

TEST(ClosedLoop, ServerClosingEarlyFailsTheCostSegments) {
  // The closed-loop CPU marks: one at the start and one after every
  // fifth answer, for four segments. The server answers 7 requests and
  // hangs up, so the marks stop short and the cost must not be computed.
  StallingServer server(/*stall_at=*/-1, /*stall_ms=*/0, /*close_after=*/7);
  std::vector<WireRequest> requests(20);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].id = "c" + std::to_string(i);
    requests[i].line = "{\"id\":\"" + requests[i].id + "\"}\n";
  }
  std::vector<double> marks{0.0};
  Conn conn(server.port());
  conn.set_receive_timeout_ms(5000);
  const std::size_t sent = run_closed_loop(
      conn, requests, now_s(), requests.size(), [&](std::size_t answered) {
        if (answered % 5 == 0) {
          marks.push_back(static_cast<double>(answered));
        }
      });
  EXPECT_EQ(sent, 8u);  // the eighth went out and was never answered
  EXPECT_FALSE(requests[7].digest.complete);
  EXPECT_EQ(marks.size(), 2u);
  EXPECT_THROW((void)segment_costs(marks, std::vector<double>(4, 5.0)),
               std::runtime_error);
}

TEST(FailureAccounting, EveryKindOfFailureCounts) {
  const std::string cell_a =
      "{\"type\":\"cell\",\"request\":\"x\",\"point\":0,\"v\":1}";
  const std::string cell_b =
      "{\"type\":\"cell\",\"request\":\"x\",\"point\":1,\"v\":2}";
  const std::string done =
      "{\"type\":\"done\",\"request\":\"x\",\"cells\":2,\"cache_hit\":false}";
  ResponseDigest want;
  for (const std::string& line : {cell_a, cell_b, done}) {
    want.add_line(line, "x");
  }
  const auto answer = [](const std::vector<std::string>& lines,
                         const std::string& id) {
    ResponseDigest d;
    for (const std::string& line : lines) {
      d.add_line(line, id);
    }
    return d;
  };
  FailureTally tally;
  // Correct answers: exact order, and reordered cells where allowed.
  tally.add(verify(answer({cell_a, cell_b, done}, "x"), want, true));
  tally.add(verify(answer({cell_b, cell_a, done}, "x"), want, false));
  // The id is excluded from the hashes: an answer under another id
  // matches a reference rendered under "x".
  const std::string other_done =
      "{\"type\":\"done\",\"request\":\"y\",\"cells\":2,\"cache_hit\":false}";
  const std::string other_a =
      "{\"type\":\"cell\",\"request\":\"y\",\"point\":0,\"v\":1}";
  const std::string other_b =
      "{\"type\":\"cell\",\"request\":\"y\",\"point\":1,\"v\":2}";
  tally.add(verify(answer({other_a, other_b, other_done}, "y"), want, true));
  EXPECT_EQ(tally.failed(), 0u);

  // Reordered cells on an exact stream: wrong bytes.
  tally.add(verify(answer({cell_b, cell_a, done}, "x"), want, true));
  // A changed value: wrong bytes.
  tally.add(verify(
      answer({cell_a, "{\"type\":\"cell\",\"request\":\"x\",\"point\":1,"
                      "\"v\":3}",
              done},
             "x"),
      want, false));
  // An answer under the wrong id: wrong bytes.
  tally.add(verify(answer({cell_a, cell_b, done}, "z"), want, false));
  // No terminal line: missing.
  tally.add(verify(answer({cell_a}, "x"), want, false));
  tally.add(verify(ResponseDigest{}, want, false));
  // Error, overload shed and deadline lines.
  tally.add(verify(answer({"{\"type\":\"error\",\"request\":\"x\",\"field\":"
                           "\"node_counts[0]\",\"message\":\"bad\"}"},
                          "x"),
                   want, false));
  tally.add(verify(answer({"{\"type\":\"error\",\"request\":\"x\",\"field\":"
                           "\"\",\"message\":\"busy\",\"code\":\"overloaded\","
                           "\"retry_after_ms\":4}"},
                          "x"),
                   want, false));
  tally.add(verify(answer({cell_a, "{\"type\":\"error\",\"request\":\"x\","
                                   "\"field\":\"deadline_ms\",\"message\":"
                                   "\"deadline of 5 ms exceeded\"}"},
                          "x"),
                   want, false));

  EXPECT_EQ(tally.sent, 11u);
  EXPECT_EQ(tally.ok, 3u);
  EXPECT_EQ(tally.wrong_bytes, 3u);
  EXPECT_EQ(tally.missing, 2u);
  EXPECT_EQ(tally.errors, 1u);
  EXPECT_EQ(tally.overloaded, 1u);
  EXPECT_EQ(tally.deadline, 1u);
  EXPECT_EQ(tally.failed(), 8u);
  EXPECT_DOUBLE_EQ(tally.failed_ratio(), 8.0 / 11.0);
}

TEST(ResponseDigest, ReadsDoneLineCounts) {
  ResponseDigest d;
  d.add_line(
      "{\"type\":\"done\",\"request\":\"s\",\"mode\":\"simulate\","
      "\"cells\":4,\"runs\":640,\"cache_hit\":false}",
      "s");
  EXPECT_TRUE(d.complete);
  EXPECT_EQ(d.cells, 4u);
  EXPECT_EQ(d.runs, 640u);
  EXPECT_EQ(d.outcome, Outcome::kOk);
}

TEST(Tracer, SelfTimeIsDurationMinusChildCoverage) {
  Tracer tracer(true);
  tracer.record("root", Tracer::kNoParent, 1, 0.0, 10.0);
  tracer.record("a", 0, 1, 1.0, 3.0);
  tracer.record("a", 0, 1, 2.0, 5.0);   // overlaps the first child
  tracer.record("b", 0, 1, 7.0, 12.0);  // clipped to the parent
  const auto totals = tracer.summarize();
  EXPECT_DOUBLE_EQ(totals.at("root").self_s, 10.0 - 4.0 - 3.0);
  EXPECT_DOUBLE_EQ(totals.at("a").self_s, 5.0);
  EXPECT_EQ(totals.at("a").count, 2u);
  EXPECT_DOUBLE_EQ(totals.at("b").total_s, 5.0);

  Tracer off(false);
  EXPECT_EQ(off.begin("x", Tracer::kNoParent, 0), 0u);
  EXPECT_TRUE(off.summarize().empty());
}

TEST(Workloads, DeterministicPerSeed) {
  const auto a = hit_catalogue(5);
  const auto b = hit_catalogue(5);
  const auto c = hit_catalogue(6);
  ASSERT_EQ(a.size(), 256u);
  std::set<std::string> distinct;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rest, b[i].rest);
    distinct.insert(a[i].rest);
  }
  EXPECT_EQ(distinct.size(), 256u);
  EXPECT_NE(a[0].rest, c[0].rest);

  const ZipfPicker zipf(a.size());
  Rng r1(9);
  Rng r2(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zipf.draw(r1), zipf.draw(r2));
  }
}

TEST(Workloads, ColdStreamRepeatsOnlyFromWellBack) {
  const auto stream = cold_stream(11, 0, 4000);
  std::size_t repeats = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    for (std::size_t j = (i >= 256 ? i - 256 : 0); j < i; ++j) {
      if (stream[j].rest == stream[i].rest) {
        EXPECT_GE(i - j, 16u);
        ++repeats;
        break;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(repeats) / 4000.0, 1.0 / 8.0, 0.02);
  // The other client's stream shares no grid with this one.
  const auto other = cold_stream(11, 1, 400);
  std::set<std::string> mine;
  for (const auto& body : stream) {
    mine.insert(body.rest);
  }
  for (const auto& body : other) {
    EXPECT_EQ(mine.count(body.rest), 0u);
  }
}

TEST(Workloads, SimulateSeedsAreDistinct) {
  std::set<std::string> seeds;
  for (std::size_t client = 0; client < 2; ++client) {
    for (const auto& body : simulate_stream(4, client, 500)) {
      const std::size_t at = body.rest.find("\"seed\":");
      seeds.insert(body.rest.substr(at, body.rest.find(',', at) - at));
    }
  }
  EXPECT_EQ(seeds.size(), 1000u);
}

}  // namespace
}  // namespace perfbench
