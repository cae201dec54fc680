// End-to-end tests of the epoll transport daemon (net::NetServer +
// net::Client): responses byte-identical to the stdin sweep_server path
// (both run service::JsonlSession, and these tests pin that the network
// adds nothing), pipelining order, two concurrent pipelined clients,
// cancellation on disconnect, the connection limit, oversized-line
// rejection, slow-client drop, the stats surface, the graceful drain and
// the identity hits the event loop answers itself.
//
// Determinism note: requests here use single-cell or single-chain grids
// whenever a cache miss is compared, so even a cache-miss compute streams
// its cells in a deterministic order and full response streams compare
// with EXPECT_EQ — no sort-normalization needed (the CI net smoke covers
// the multi-chain case). Hits replay in table order.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "resilience/net/client.hpp"
#include "resilience/net/server.hpp"
#include "resilience/net/socket.hpp"
#include "resilience/service/jsonl_session.hpp"

namespace rn = resilience::net;
namespace rs = resilience::service;

namespace {

using Lines = std::vector<std::string>;

/// NetServer on a background thread; the destructor drains and joins.
class TestDaemon {
 public:
  explicit TestDaemon(rn::NetServerOptions options = {})
      : server_(std::move(options)), thread_([this] { server_.run(); }) {}

  ~TestDaemon() {
    server_.stop();
    thread_.join();
  }

  rn::NetServer& operator*() noexcept { return server_; }
  rn::NetServer* operator->() noexcept { return &server_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }

 private:
  rn::NetServer server_;
  std::thread thread_;
};

/// One-cell scenario request: deterministic response bytes even on a
/// cache miss (single chain, single cell).
std::string one_cell_request(const std::string& id, const std::string& platform,
                             std::size_t nodes) {
  return "{\"id\": \"" + id + "\", \"platforms\": [\"" + platform +
         "\"], \"node_counts\": [" + std::to_string(nodes) +
         "], \"kinds\": [\"PD\"]}";
}

/// The stdin sweep_server path in-process: a fresh service + JsonlSession
/// over the given input lines — the byte-for-byte reference every
/// transport response is held to.
Lines stdin_path_lines(const Lines& input,
                       rs::ServiceOptions options = {}) {
  // Defaults match NetServerOptions::service.
  rs::SweepService service(std::move(options));
  Lines out;
  rs::JsonlSession session(service, [&out](std::string&& line, bool) {
    out.push_back(std::move(line));
  });
  for (const std::string& line : input) {
    session.handle_line(line);
  }
  return out;
}

Lines flatten(const std::vector<Lines>& responses) {
  Lines out;
  for (const Lines& response : responses) {
    out.insert(out.end(), response.begin(), response.end());
  }
  return out;
}

/// Unwraps a response the test expects the server to have finished; an
/// incomplete one (server closed mid-response) fails the test here
/// instead of as a confusing line-diff downstream.
Lines complete_lines(rn::Client::Response response) {
  EXPECT_TRUE(response.complete);
  return std::move(response.lines);
}

TEST(NetServer, ServesByteIdenticalToStdinPath) {
  const Lines input{
      "# comment lines count toward line numbering",
      one_cell_request("", "hera", 512),  // empty id -> default "line-2"
      "",
      one_cell_request("again", "hera", 512),     // cache hit
      "{\"id\": \"bad\", \"platforms\": [\"hera\"], \"node_counts\": [0]}",
      "not json at all",
  };
  const Lines expected = stdin_path_lines(input);
  ASSERT_FALSE(expected.empty());

  TestDaemon daemon;
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  Lines got;
  for (const std::string& line : input) {
    client.send_line(line);
  }
  // 4 request lines (comment + blank excluded) -> 4 responses.
  for (int i = 0; i < 4; ++i) {
    const Lines response = complete_lines(client.read_response());
    ASSERT_FALSE(response.empty()) << "response " << i;
    got.insert(got.end(), response.begin(), response.end());
  }
  EXPECT_EQ(got, expected);

  // The default "line-N" ids must match the stdin numbering (comments
  // and blanks counted), or the two paths are not interchangeable.
  bool saw_line2 = false;
  for (const std::string& line : got) {
    if (line.find("\"request\":\"line-2\"") != std::string::npos) {
      saw_line2 = true;
    }
  }
  EXPECT_TRUE(saw_line2);
}

TEST(NetServer, TwoConcurrentPipelinedClientsMatchTheirSerialReferences) {
  // Disjoint request sets (no cross-client cache interference in the
  // done-line flags); each client's stream must equal ITS OWN stdin-path
  // reference byte for byte, concurrency notwithstanding.
  const Lines input_a{
      one_cell_request("a1", "hera", 256),
      one_cell_request("a2", "hera", 1024),
      one_cell_request("a3", "hera", 256),  // repeat -> cache_hit
  };
  const Lines input_b{
      one_cell_request("b1", "atlas", 256),
      one_cell_request("b2", "atlas", 2048),
      one_cell_request("b3", "atlas", 2048),  // repeat -> cache_hit
  };
  const Lines expected_a = stdin_path_lines(input_a);
  const Lines expected_b = stdin_path_lines(input_b);

  TestDaemon daemon;
  std::atomic<bool> failed{false};
  const auto drive = [&](const Lines& input, const Lines& expected) {
    try {
      rn::Client client;
      client.connect("127.0.0.1", daemon.port());
      std::string all;
      for (const std::string& line : input) {
        all += line;
        all += '\n';
      }
      client.send_raw(all);  // pipelined: every request before any read
      std::vector<Lines> responses;
      for (std::size_t i = 0; i < input.size(); ++i) {
        rn::Client::Response response = client.read_response();
        if (!response.complete) {
          failed.store(true);
        }
        responses.push_back(std::move(response.lines));
      }
      if (flatten(responses) != expected) {
        failed.store(true);
      }
    } catch (...) {
      failed.store(true);
    }
  };
  std::thread thread_a(drive, input_a, expected_a);
  std::thread thread_b(drive, input_b, expected_b);
  thread_a.join();
  thread_b.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(daemon->stats().accepted, 2u);
  EXPECT_EQ(daemon->stats().requests_started, 6u);
}

TEST(NetServer, PipelinedResponsesArriveInRequestOrder) {
  TestDaemon daemon;
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  constexpr int kRequests = 12;
  std::string all;
  for (int i = 0; i < kRequests; ++i) {
    // Alternate two grids so hits and misses interleave.
    all += one_cell_request("r" + std::to_string(i), "hera",
                            i % 2 == 0 ? 512 : 4096);
    all += '\n';
  }
  client.send_raw(all);
  for (int i = 0; i < kRequests; ++i) {
    const Lines response = complete_lines(client.read_response());
    ASSERT_FALSE(response.empty());
    const std::string tag = "\"request\":\"r" + std::to_string(i) + "\"";
    for (const std::string& line : response) {
      EXPECT_NE(line.find(tag), std::string::npos)
          << "response " << i << " carried: " << line;
    }
    EXPECT_NE(response.back().find("\"type\":\"done\""), std::string::npos);
  }
}

TEST(NetServer, StatsRequestAndOptInDoneLineStats) {
  TestDaemon daemon;
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());

  // A stats request answers with one stats line.
  const Lines stats0 =
      complete_lines(client.transact("{\"type\": \"stats\", \"id\": \"s0\"}"));
  ASSERT_EQ(stats0.size(), 1u);
  EXPECT_NE(stats0[0].find("\"type\":\"stats\""), std::string::npos);
  EXPECT_NE(stats0[0].find("\"request\":\"s0\""), std::string::npos);
  EXPECT_NE(stats0[0].find("\"submits\":0"), std::string::npos);
  EXPECT_NE(stats0[0].find("\"cache\":{"), std::string::npos);

  // A scenario request with "stats": true gets the snapshot on its done
  // line; without the flag the done line stays stats-free.
  const std::string with_stats =
      "{\"id\": \"w\", \"platforms\": [\"hera\"], \"node_counts\": [512], "
      "\"kinds\": [\"PD\"], \"stats\": true}";
  const Lines first = complete_lines(client.transact(with_stats));
  ASSERT_FALSE(first.empty());
  EXPECT_NE(first.back().find("\"stats\":{\"service\":{\"submits\":1"),
            std::string::npos);
  const Lines plain =
      complete_lines(client.transact(one_cell_request("p", "hera", 512)));
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain.back().find("\"stats\":{"), std::string::npos);

  // After a miss + a hit the counters must say so.
  const Lines stats1 = complete_lines(client.transact("{\"type\": \"stats\"}"));
  ASSERT_EQ(stats1.size(), 1u);
  EXPECT_NE(stats1[0].find("\"submits\":2"), std::string::npos);
  EXPECT_NE(stats1[0].find("\"cache_hits\":1"), std::string::npos);
  EXPECT_NE(stats1[0].find("\"tables_computed\":1"), std::string::npos);
}

TEST(NetServer, UnknownTypeAnswersErrorLine) {
  TestDaemon daemon;
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  const Lines response = complete_lines(
      client.transact("{\"type\": \"shutdown\", \"id\": \"x\"}"));
  ASSERT_EQ(response.size(), 1u);
  EXPECT_NE(response[0].find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(response[0].find("unknown request type 'shutdown'"),
            std::string::npos);
}

TEST(NetServer, DisconnectMidRequestLeavesServerServing) {
  TestDaemon daemon;
  {
    rn::Client dropper;
    dropper.connect("127.0.0.1", daemon.port());
    // A 24-cell batch: enough work that the disconnect lands mid-compute
    // on most runs (the cancellation path), and a correctness no-op when
    // it doesn't.
    dropper.send_line(
        "{\"id\": \"doomed\", \"platforms\": [\"hera\", \"atlas\"], "
        "\"node_counts\": [256, 1024]}");
    // Wait until the request actually started executing, then vanish.
    for (int i = 0; i < 1000 && daemon->stats().requests_started == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(daemon->stats().requests_started, 1u);
    dropper.close();
  }
  // The server must keep serving other clients, bit-for-bit correct.
  const Lines input{one_cell_request("after", "hera", 512)};
  const Lines expected = stdin_path_lines(input);
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  EXPECT_EQ(complete_lines(client.transact(input[0])), expected);
}

TEST(NetServer, ConnectionLimitAnswersErrorAndCloses) {
  rn::NetServerOptions options;
  options.max_connections = 1;
  TestDaemon daemon(std::move(options));

  rn::Client first;
  first.connect("127.0.0.1", daemon.port());
  // Prove the slot is actually taken (accept is asynchronous).
  const Lines ok =
      complete_lines(first.transact(one_cell_request("one", "hera", 512)));
  ASSERT_FALSE(ok.empty());

  rn::Client second;
  second.connect("127.0.0.1", daemon.port());
  const std::optional<std::string> line = second.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(line->find("connection limit reached (1)"), std::string::npos);
  EXPECT_EQ(second.read_line(), std::nullopt);  // closed after the reply
  EXPECT_GE(daemon->stats().rejected_over_limit, 1u);

  // The admitted client is unaffected.
  EXPECT_FALSE(
      complete_lines(first.transact(one_cell_request("two", "hera", 1024)))
          .empty());
}

TEST(NetServer, OversizedLineGetsLocatedErrorThenClose) {
  rn::NetServerOptions options;
  options.max_line_bytes = 1024;
  TestDaemon daemon(std::move(options));
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());

  // A good request pipelined ahead of the monster line must still get
  // its full response, in order, before the framing error line.
  client.send_line(one_cell_request("good", "hera", 512));
  client.send_line(std::string(4096, 'x'));
  const Lines good = complete_lines(client.read_response());
  ASSERT_FALSE(good.empty());
  EXPECT_NE(good.back().find("\"request\":\"good\""), std::string::npos);
  EXPECT_NE(good.back().find("\"type\":\"done\""), std::string::npos);

  const Lines error = complete_lines(client.read_response());
  ASSERT_EQ(error.size(), 1u);
  EXPECT_NE(error[0].find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(error[0].find("\"request\":\"line-2\""), std::string::npos);
  EXPECT_NE(error[0].find("1024-byte line limit"), std::string::npos);
  EXPECT_EQ(client.read_line(), std::nullopt);  // no resync: closed
  EXPECT_EQ(daemon->stats().dropped_framing, 1u);
}

TEST(NetServer, SlowClientIsDroppedAtTheWriteBufferLimit) {
  rn::NetServerOptions options;
  options.write_buffer_limit = 32 * 1024;
  options.send_buffer_bytes = 4 * 1024;  // keep kernel buffering small
  TestDaemon daemon(std::move(options));
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());

  // ~200 first-order-only cells per request, several requests, and a
  // client that never reads: the outbound queue must cross the limit and
  // the daemon must drop the connection rather than buffer without
  // bound.
  std::string request =
      "{\"platforms\": [\"hera\"], \"numeric_optimum\": false, "
      "\"rate_factors\": [";
  for (int i = 0; i < 200; ++i) {
    if (i > 0) {
      request += ", ";
    }
    request += "{\"fail_stop\": " + std::to_string(1.0 + i * 0.01) + "}";
  }
  request += "]}";
  for (int i = 0; i < 8; ++i) {
    client.send_line(request);
  }
  for (int i = 0; i < 10000 && daemon->stats().dropped_slow == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(daemon->stats().dropped_slow, 1u);
}

TEST(NetServer, GracefulDrainFinishesReceivedRequestsThenCloses) {
  auto daemon = std::make_unique<TestDaemon>();
  rn::Client client;
  client.connect("127.0.0.1", daemon->port());
  const std::string request = one_cell_request("draining", "hera", 512);
  const Lines expected = stdin_path_lines({request});
  client.send_line(request);
  // Stop only once the request is in execution: "already received" work
  // must complete and flush through the drain.
  for (int i = 0; i < 5000 && (*daemon)->stats().requests_started == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ((*daemon)->stats().requests_started, 1u);
  (*daemon)->stop();

  Lines got;
  for (;;) {
    std::optional<std::string> line = client.read_line();
    if (!line.has_value()) {
      break;  // drained and closed
    }
    got.push_back(std::move(*line));
  }
  EXPECT_EQ(got, expected);
  daemon.reset();  // run() must have returned; join succeeds
}

TEST(NetServer, HalfClosingClientGetsAllResponsesThenEof) {
  // The `printf ... | nc` shape: send everything, half-close, read until
  // the server closes. The server must answer every request and then
  // close on its own — regression for the connection lingering open
  // after its last response drains on a pure writability edge.
  TestDaemon daemon;
  const Lines input{
      one_cell_request("h1", "hera", 512),
      one_cell_request("h2", "hera", 1024),
  };
  const Lines expected = stdin_path_lines(input);
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  for (const std::string& line : input) {
    client.send_line(line);
  }
  client.shutdown_send();
  Lines got;
  for (;;) {
    std::optional<std::string> line = client.read_line();
    if (!line.has_value()) {
      break;  // the server closed; no drain was requested
    }
    got.push_back(std::move(*line));
  }
  EXPECT_EQ(got, expected);
}

TEST(NetServer, FramingErrorBehindAFullPipelineStillDrainsTheBacklog) {
  // Regression: a burst that trips the pipeline-depth read hold AND ends
  // in an oversized line (input_closed while read_hold is set) must
  // still answer every queued request and the deferred framing error —
  // the hold-release path used to strand the backlog.
  rn::NetServerOptions options;
  options.max_pipeline_depth = 4;
  options.max_line_bytes = 512;
  TestDaemon daemon(std::move(options));
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());

  constexpr int kRequests = 8;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += one_cell_request("f" + std::to_string(i), "hera", 512);
    burst += '\n';
  }
  burst += std::string(2048, 'x');
  burst += '\n';
  client.send_raw(burst);

  for (int i = 0; i < kRequests; ++i) {
    const Lines response = complete_lines(client.read_response());
    ASSERT_FALSE(response.empty()) << "response " << i;
    EXPECT_NE(response.back().find("\"request\":\"f" + std::to_string(i) +
                                   "\""),
              std::string::npos);
  }
  const Lines error = complete_lines(client.read_response());
  ASSERT_EQ(error.size(), 1u);
  EXPECT_NE(error[0].find("512-byte line limit"), std::string::npos);
  EXPECT_EQ(client.read_line(), std::nullopt);
}

TEST(NetServer, CrlfRequestsAreServed) {
  TestDaemon daemon;
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  const std::string request = one_cell_request("crlf", "hera", 512);
  const Lines expected = stdin_path_lines({request});
  client.send_raw(request + "\r\n");
  EXPECT_EQ(complete_lines(client.read_response()), expected);
}

TEST(NetServer, PingAnswersOnePongLine) {
  TestDaemon daemon;
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());

  const std::string ping = "{\"type\": \"ping\", \"id\": \"hp\"}";
  const Lines response = complete_lines(client.transact(ping));
  ASSERT_EQ(response.size(), 1u);
  EXPECT_EQ(response[0], "{\"type\":\"pong\",\"request\":\"hp\"}");
  // Same bytes as the stdin path — the probe is part of the protocol,
  // not a daemon-only extra.
  EXPECT_EQ(response, stdin_path_lines({ping}));

  // A ping is not a compute submit: the counters must stay untouched.
  const Lines stats = complete_lines(client.transact("{\"type\": \"stats\"}"));
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_NE(stats[0].find("\"submits\":0"), std::string::npos);
}

/// A grid that cannot finish inside a short deadline when its cells are
/// held back (see slowed_cells): 3072 cells of full numeric optimization.
std::string doomed_request(const std::string& id, int deadline_ms) {
  std::string request =
      "{\"id\": \"" + id +
      "\", \"platforms\": [\"hera\", \"atlas\", \"coastal\", \"coastalssd\"], "
      "\"node_counts\": [256, 1024, 4096, 16384], \"rate_factors\": [";
  for (int i = 0; i < 8; ++i) {
    if (i > 0) {
      request += ", ";
    }
    request += "{\"fail_stop\": " + std::to_string(0.611 + i * 0.017) + "}";
  }
  request += "], \"cost_overrides\": [{\"disk_checkpoint\": 311.0}, "
             "{\"disk_checkpoint\": 313.0}, {\"disk_checkpoint\": 317.0}, "
             "{\"disk_checkpoint\": 319.0}]";
  if (deadline_ms > 0) {
    request += ", \"deadline_ms\": " + std::to_string(deadline_ms);
  }
  request += "}";
  return request;
}

/// Serves each connection with the daemon's JsonlSession over `service`,
/// but holds every streamed cell line back 1 ms before emitting it. Cells
/// stream under the runner's sink lock and the deadline is polled per
/// cell, so a grid of N cells then takes at least N ms on any CPU: a
/// deadline far below that expires by construction, not because the
/// machine is slow.
rn::NetServerOptions slowed_cells(rs::SweepService& service,
                                  int default_deadline_ms = 0) {
  rn::NetServerOptions options;
  options.default_deadline_ms = default_deadline_ms;
  options.session_factory = [&service, default_deadline_ms](
                                rs::LineSession::LineFn emit,
                                std::shared_ptr<std::atomic<bool>> cancel) {
    rs::JsonlSession::Options session_options;
    session_options.default_deadline_ms = default_deadline_ms;
    return std::make_unique<rs::JsonlSession>(
        service,
        [emit = std::move(emit)](std::string&& line, bool end_of_response) {
          if (!end_of_response) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          emit(std::move(line), end_of_response);
        },
        std::move(session_options), std::move(cancel));
  };
  return options;
}

TEST(NetServer, DeadlineExceededAnswersErrorAndServerKeepsServing) {
  rs::SweepService service;
  TestDaemon daemon(slowed_cells(service));
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());

  const auto start = std::chrono::steady_clock::now();
  const Lines response =
      complete_lines(client.transact(doomed_request("doomed", 100)));
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(response.empty());
  EXPECT_NE(response.back().find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(response.back().find("\"request\":\"doomed\""), std::string::npos);
  EXPECT_NE(response.back().find("deadline of 100 ms exceeded"),
            std::string::npos);
  // The tight 2x-deadline bound is the bench's gate; here a lenient one
  // catches only "the deadline did nothing" (CI machines can stall).
  EXPECT_LT(elapsed_ms, 5000.0);

  // The timeout is visible in the stats surface...
  const Lines stats = complete_lines(client.transact("{\"type\": \"stats\"}"));
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_NE(stats[0].find("\"deadline_timeouts\":1"), std::string::npos);

  // ...and the worker it released still serves, bit-for-bit correct.
  const std::string after = one_cell_request("after", "hera", 512);
  EXPECT_EQ(complete_lines(client.transact(after)),
            stdin_path_lines({after}));
}

TEST(NetServer, DefaultDeadlineAppliesWhenRequestCarriesNone) {
  rs::SweepService service;
  TestDaemon daemon(slowed_cells(service, 50));
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());

  // No deadline_ms in the request: the server default must bound it.
  const Lines response =
      complete_lines(client.transact(doomed_request("defaulted", 0)));
  ASSERT_FALSE(response.empty());
  EXPECT_NE(response.back().find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(response.back().find("deadline of 50 ms exceeded"),
            std::string::npos);

  // An explicit request deadline wins over the default: long enough for
  // a single-cell grid to finish normally.
  const std::string roomy =
      "{\"id\": \"roomy\", \"platforms\": [\"hera\"], \"node_counts\": [512], "
      "\"kinds\": [\"PD\"], \"deadline_ms\": 60000}";
  const Lines served = complete_lines(client.transact(roomy));
  ASSERT_FALSE(served.empty());
  EXPECT_NE(served.back().find("\"type\":\"done\""), std::string::npos);
}

// ------------------------------------------------ inline identity hits --
//
// A memory-resident identity hit of at most 24 cells is answered on the
// event-loop thread itself; everything else — misses, disk-resident hits,
// hits evicted between admission and execution, big hits — still goes to
// a worker. Either way the bytes are the stdin path's.

/// Sends `lines` in one write and reads one response per line.
std::vector<Lines> pipeline(rn::Client& client, const Lines& lines) {
  std::string all;
  for (const std::string& line : lines) {
    all += line;
    all += '\n';
  }
  client.send_raw(all);
  std::vector<Lines> responses;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    responses.push_back(complete_lines(client.read_response()));
  }
  return responses;
}

/// One single-chain request of `nodes.size()` cells on hera.
std::string chain_request(const std::string& id,
                          const std::vector<std::size_t>& nodes) {
  std::string list;
  for (const std::size_t n : nodes) {
    list += (list.empty() ? "" : ", ") + std::to_string(n);
  }
  return "{\"id\": \"" + id +
         "\", \"platforms\": [\"hera\"], \"node_counts\": [" + list +
         "], \"kinds\": [\"PD\"]}";
}

/// A scratch cache directory removed on scope exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("resilience_net_" + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

TEST(NetServerInline, MixedHitsAndMissesAnswerInOrderLikeTheStdinPath) {
  const auto sim_request = [](const std::string& id) {
    return "{\"id\": \"" + id +
           "\", \"platforms\": [\"hera\"], \"node_counts\": [512], "
           "\"kinds\": [\"PD\"], \"mode\": \"simulate\", \"sim\": "
           "{\"seed\": 5, \"max_runs\": 64, \"min_runs\": 32, "
           "\"patterns_per_run\": 10}}";
  };
  const Lines warm{
      one_cell_request("wa", "hera", 512),
      one_cell_request("wb", "atlas", 1024),
      sim_request("ws"),
  };
  const Lines mixed{
      one_cell_request("a1", "hera", 512),     // resident: loop thread
      one_cell_request("c1", "coastal", 256),  // miss: worker
      one_cell_request("b1", "atlas", 1024),   // resident, behind a miss
      sim_request("s1"),                       // resident simulate table
      one_cell_request("a2", "hera", 512),     // resident
      one_cell_request("d1", "hera", 2048),    // miss
      one_cell_request("c2", "coastal", 256),  // priced cold, replays
  };
  Lines input = warm;
  input.insert(input.end(), mixed.begin(), mixed.end());
  const Lines expected = stdin_path_lines(input);

  TestDaemon daemon;
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  client.set_receive_timeout(30000);
  Lines got;
  for (const std::string& line : warm) {
    const Lines response = complete_lines(client.transact(line));
    got.insert(got.end(), response.begin(), response.end());
  }
  EXPECT_EQ(daemon->overload_stats().answered_inline, 0u);
  const Lines pipelined = flatten(pipeline(client, mixed));
  got.insert(got.end(), pipelined.begin(), pipelined.end());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(daemon->overload_stats().answered_inline, 4u);
  EXPECT_EQ(daemon->stats().requests_started, input.size());
  // Inline answers are accounted like worker runs in every stage
  // histogram (polled: a sample lands just after its response is sent).
  const auto accounted = [&] {
    const rn::OverloadStats stats = daemon->overload_stats();
    return stats.queue_wait.count == input.size() &&
           stats.compute.count == input.size() &&
           stats.write.count == input.size();
  };
  for (int i = 0; i < 5000 && !accounted(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(accounted());
}

TEST(NetServerInline, HitEvictedBeforeItRunsIsServedByAWorker) {
  // Capacity 1: B's compute evicts A between A's admission (priced as a
  // hit) and A's turn, so the loop thread must find nothing and hand A
  // to the worker, which recomputes it exactly as the stdin path does.
  const std::string a = one_cell_request("a", "hera", 512);
  const std::string b =
      chain_request("b", {256, 384, 512 + 1, 768, 1024, 1536, 2048, 4096});
  rs::ServiceOptions service;
  service.cache_capacity = 1;
  const Lines expected = stdin_path_lines({a, b, a}, service);

  rn::NetServerOptions options;
  options.request_workers = 1;
  options.service = service;
  TestDaemon daemon(std::move(options));
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  client.set_receive_timeout(30000);
  Lines got = complete_lines(client.transact(a));
  const std::vector<Lines> tail = pipeline(client, {b, a});
  got.insert(got.end(), tail[0].begin(), tail[0].end());
  got.insert(got.end(), tail[1].begin(), tail[1].end());
  EXPECT_EQ(got, expected);
  EXPECT_NE(tail[1].back().find("\"cache_hit\":false"), std::string::npos)
      << tail[1].back();
  EXPECT_EQ(daemon->overload_stats().answered_inline, 0u);
  EXPECT_EQ(daemon->stats().requests_started, 3u);
}

TEST(NetServerInline, DiskResidentHitIsServedByAWorker) {
  const std::string a = one_cell_request("a", "hera", 512);
  const std::string b = one_cell_request("b", "atlas", 512);
  const ScratchDir reference_dir("inline_disk_ref");
  const ScratchDir daemon_dir("inline_disk");
  rs::ServiceOptions service;
  service.cache_capacity = 1;  // B's insert spills A: A lives on disk only
  service.cache_dir = reference_dir.str();
  const Lines expected = stdin_path_lines({a, b, a}, service);

  rn::NetServerOptions options;
  options.service = service;
  options.service.cache_dir = daemon_dir.str();
  TestDaemon daemon(std::move(options));
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  client.set_receive_timeout(30000);
  Lines got;
  for (const std::string& line : {a, b, a}) {
    const Lines response = complete_lines(client.transact(line));
    got.insert(got.end(), response.begin(), response.end());
  }
  EXPECT_EQ(got, expected);
  EXPECT_NE(got.back().find("\"cache_hit\":true"), std::string::npos)
      << got.back();
  EXPECT_EQ(daemon->service().stats().disk_hits, 1u);
  EXPECT_EQ(daemon->overload_stats().answered_inline, 0u);
}

TEST(NetServerInline, HitAboveTheCellBoundIsServedByAWorker) {
  // 3 platforms x 4 node counts x 6 kinds = 72 cells > 24; first-order
  // only, so the cold warm-up stays cheap.
  const std::string big =
      "{\"id\": \"big\", \"platforms\": [\"hera\", \"atlas\", \"coastal\"], "
      "\"node_counts\": [256, 512, 1024, 2048], \"numeric_optimum\": false}";
  const std::string small = one_cell_request("small", "hera", 512);
  const Lines expected = stdin_path_lines({big, small, big, small});

  TestDaemon daemon;
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  client.set_receive_timeout(30000);
  const Lines cold_big = complete_lines(client.transact(big));
  ASSERT_EQ(cold_big.size(), 73u);  // 72 cells + done
  (void)complete_lines(client.transact(small));
  const std::vector<Lines> warm = pipeline(client, {big, small});
  const Lines tail(expected.end() - static_cast<std::ptrdiff_t>(
                                        warm[0].size() + warm[1].size()),
                   expected.end());
  EXPECT_EQ(flatten(warm), tail);
  EXPECT_NE(warm[0].back().find("\"cache_hit\":true"), std::string::npos);
  // Only the one-cell hit was answered on the loop thread.
  EXPECT_EQ(daemon->overload_stats().answered_inline, 1u);
}

TEST(NetServerInline, DeepPipelineOfHitsDoesNotHoldUpOtherConnections) {
  // 1 platform x 4 node counts x 6 kinds = 24 cells, the largest inline
  // hit. The loop thread answers such hits in budgeted slices and reads
  // other sockets in between, so a ping from another connection is
  // answered long before the flood is.
  const std::string grid =
      "\"platforms\": [\"hera\"], \"node_counts\": [256, 512, 1024, 2048], "
      "\"numeric_optimum\": false}";
  TestDaemon daemon;
  rn::Client flood;
  flood.connect("127.0.0.1", daemon.port());
  flood.set_receive_timeout(60000);
  ASSERT_TRUE(flood.transact("{\"id\": \"warm\", " + grid).complete);

  constexpr std::uint64_t kHits = 256;
  std::string burst;
  for (std::uint64_t i = 0; i < kHits; ++i) {
    burst += "{\"id\": \"hit-" + std::to_string(i) + "\", " + grid + "\n";
  }
  flood.send_raw(burst);
  // The loop thread is serving the flood once its first answer is out.
  ASSERT_TRUE(flood.read_response().complete);

  rn::Client other;
  other.connect("127.0.0.1", daemon.port());
  other.set_receive_timeout(60000);
  const Lines pong =
      complete_lines(other.transact("{\"type\": \"ping\", \"id\": \"p\"}"));
  const std::uint64_t inline_at_pong =
      daemon->overload_stats().answered_inline;
  EXPECT_EQ(pong, Lines{"{\"type\":\"pong\",\"request\":\"p\"}"});
  EXPECT_LT(inline_at_pong, kHits);

  for (std::uint64_t i = 1; i < kHits; ++i) {
    const rn::Client::Response response = flood.read_response();
    ASSERT_TRUE(response.complete) << "response " << i;
    EXPECT_NE(response.lines.back().find("\"request\":\"hit-" +
                                         std::to_string(i) + "\""),
              std::string::npos);
  }
  EXPECT_EQ(daemon->stats().requests_started, kHits + 2);
}

/// Sends a resident hit while another connection keeps a worker busy
/// with a cold grid of thousands of numerically optimized cells — with
/// or without a resident hit of its own pipelined behind it — and
/// returns how many requests the loop thread had answered itself when
/// the hit's answer arrived.
std::uint64_t inline_answers_beside_a_busy_connection(
    std::size_t request_workers, bool busy_has_a_hit_queued) {
  const std::string hit = one_cell_request("hit", "hera", 512);
  rn::NetServerOptions options;
  options.request_workers = request_workers;
  TestDaemon daemon(std::move(options));
  rn::Client busy;
  busy.connect("127.0.0.1", daemon.port());
  busy.set_receive_timeout(60000);
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  client.set_receive_timeout(60000);
  EXPECT_TRUE(client.transact(hit).complete);

  const std::uint64_t busy_lines = busy_has_a_hit_queued ? 2 : 1;
  busy.send_raw(doomed_request("cold", 0) + "\n" +
                (busy_has_a_hit_queued
                     ? one_cell_request("queued", "hera", 512) + "\n"
                     : ""));
  for (int i = 0;
       i < 5000 && daemon->overload_stats().admitted < 1 + busy_lines; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  client.send_line(hit);
  const Lines answer = complete_lines(client.read_response());
  const std::uint64_t answered_inline =
      daemon->overload_stats().answered_inline;
  EXPECT_FALSE(answer.empty());
  if (!answer.empty()) {
    EXPECT_NE(answer.back().find("\"cache_hit\":true"), std::string::npos);
  }
  for (std::uint64_t i = 0; i < busy_lines; ++i) {
    EXPECT_TRUE(busy.read_response().complete);
  }
  return answered_inline;
}

TEST(NetServerInline, HitsGoToWorkersWhenTwoConnectionsHaveHitsToRender) {
  // The other connection only computes: the loop thread answers the hit.
  EXPECT_EQ(inline_answers_beside_a_busy_connection(2, false), 1u);
  // It has a hit of its own waiting, and two workers could render both
  // in parallel: the hit runs on the free worker.
  EXPECT_EQ(inline_answers_beside_a_busy_connection(2, true), 0u);
  // One worker, held by the cold grid: the loop thread answers the hit.
  EXPECT_EQ(inline_answers_beside_a_busy_connection(1, true), 1u);
}

/// Answers every line with a pong, but only once `gate` opens.
class GatedSession final : public rs::LineSession {
 public:
  GatedSession(LineFn emit, std::shared_future<void> gate)
      : emit_(std::move(emit)), gate_(std::move(gate)) {}

  void handle_line(std::string_view) override {
    gate_.wait();
    emit_("{\"type\":\"pong\"}", true);
  }

 private:
  LineFn emit_;
  std::shared_future<void> gate_;
};

TEST(NetServer, ParsedRequestsCountTowardTheBacklogByteWatermark) {
  // Each line names 200 platforms: about 1.5 KB of text, but about 19 KB
  // once parsed. Reading must pause when the parsed backlog reaches half
  // the write-buffer limit (32 KB), i.e. within the first 16 KB read —
  // counting text alone admits about 29 lines before pausing — and
  // resume once it drains, for every line (a worker-run item must give
  // back all the bytes it was charged, or reading never resumes).
  std::promise<void> open;
  const std::shared_future<void> gate = open.get_future().share();
  rn::NetServerOptions options;
  options.write_buffer_limit = 64 * 1024;
  options.request_workers = 1;
  options.session_factory = [gate](rs::LineSession::LineFn emit,
                                   std::shared_ptr<std::atomic<bool>>) {
    return std::make_unique<GatedSession>(std::move(emit), gate);
  };
  TestDaemon daemon(std::move(options));
  std::string platforms;
  for (int i = 0; i < 200; ++i) {
    platforms += i == 0 ? "\"hera\"" : ", \"hera\"";
  }
  constexpr int kLines = 40;
  std::string burst;
  for (int i = 0; i < kLines; ++i) {
    burst += "{\"id\": \"w" + std::to_string(i) + "\", \"platforms\": [" +
             platforms + "], \"node_counts\": [512], \"kinds\": [\"PD\"]}\n";
  }
  rn::Client client;
  client.connect("127.0.0.1", daemon.port());
  client.set_receive_timeout(30000);
  client.send_raw(burst);
  for (int i = 0; i < 5000 && daemon->overload_stats().admitted < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const std::uint64_t admitted_while_blocked =
      daemon->overload_stats().admitted;
  open.set_value();  // before any check, so the daemon can drain
  EXPECT_GE(admitted_while_blocked, 2u);
  EXPECT_LE(admitted_while_blocked, 16u);
  for (int i = 0; i < kLines; ++i) {
    ASSERT_TRUE(client.read_response().complete) << "response " << i;
  }
  EXPECT_EQ(daemon->overload_stats().admitted,
            static_cast<std::uint64_t>(kLines));
}

/// A deliberately misbehaving server for client-robustness tests: accepts
/// one connection, writes `payload`, then either stalls (holding the
/// socket open) or closes. Runs on its own thread; release() unblocks
/// the stall and joins.
class MisbehavingServer {
 public:
  MisbehavingServer(std::string payload, bool close_after_payload)
      : listener_(rn::listen_tcp("127.0.0.1", 0, 4, &port_)),
        thread_([this, payload = std::move(payload), close_after_payload] {
          rn::Fd conn;
          for (int i = 0; i < 10000 && !conn.valid() && !done_.load(); ++i) {
            conn = rn::accept_connection(listener_.fd());
            if (!conn.valid()) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
          }
          std::size_t sent = 0;
          while (conn.valid() && sent < payload.size() && !done_.load()) {
            std::size_t n = 0;
            const rn::IoStatus status = rn::write_some(
                conn.fd(), payload.data() + sent, payload.size() - sent, &n);
            if (status == rn::IoStatus::kOk) {
              sent += n;
            } else if (status == rn::IoStatus::kWouldBlock) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            } else {
              return;
            }
          }
          if (close_after_payload) {
            conn.reset();  // orderly FIN mid-response
          }
          while (!done_.load()) {  // stall: keep the socket open, say nothing
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}

  ~MisbehavingServer() { release(); }

  void release() {
    done_.store(true);
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  std::uint16_t port_ = 0;
  rn::Fd listener_;
  std::atomic<bool> done_{false};
  std::thread thread_;
};

TEST(NetClient, ReceiveTimeoutSurfacesMidResponseStall) {
  // One cell line arrives, then the server stalls forever mid-response:
  // with a receive timeout armed the client must throw instead of
  // hanging (the error the resilient client turns into a retry).
  MisbehavingServer server("{\"type\":\"cell\",\"request\":\"x\"}\n",
                           /*close_after_payload=*/false);
  rn::Client client;
  client.connect("127.0.0.1", server.port());
  client.set_receive_timeout(100);
  // Nothing is sent: the misbehaving server talks unprompted, and unread
  // request bytes at its close would turn the FIN into an RST.
  EXPECT_THROW((void)client.read_response(), std::runtime_error);
  server.release();
}

TEST(NetClient, MidResponseCloseReportsIncomplete) {
  // The server dies after a non-terminal line: read_response must hand
  // back what arrived with complete == false, not spin or invent a
  // terminal line.
  MisbehavingServer server("{\"type\":\"cell\",\"request\":\"x\"}\n",
                           /*close_after_payload=*/true);
  rn::Client client;
  client.connect("127.0.0.1", server.port());
  const rn::Client::Response response = client.read_response();
  EXPECT_FALSE(response.complete);
  ASSERT_EQ(response.lines.size(), 1u);
  EXPECT_EQ(response.lines[0], "{\"type\":\"cell\",\"request\":\"x\"}");
  server.release();
}

TEST(NetClient, TruncatedTerminalLookingTailReportsIncomplete) {
  // The nasty case: the connection dies mid-LINE, and the unterminated
  // tail happens to prefix-match a terminal line. The complete flag must
  // still say no — this is exactly the truncation the old
  // is-last-line-terminal heuristic could not see.
  MisbehavingServer server(
      "{\"type\":\"cell\",\"request\":\"x\"}\n{\"type\":\"done\",\"requ",
      /*close_after_payload=*/true);
  rn::Client client;
  client.connect("127.0.0.1", server.port());
  const rn::Client::Response response = client.read_response();
  EXPECT_FALSE(response.complete);
  ASSERT_EQ(response.lines.size(), 2u);
  EXPECT_EQ(response.lines[1], "{\"type\":\"done\",\"requ");
  server.release();
}

}  // namespace
