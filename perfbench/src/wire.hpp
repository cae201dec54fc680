#pragma once

// The client side of the wire and the server processes it talks to:
// blocking loopback connections with their own line framer, the open-loop
// and closed-loop drivers, and fork/exec'd daemons that are always
// stopped and reaped (SIGTERM, then SIGKILL past a grace period; the
// children also get SIGKILL if the benchmark itself dies).

#include <sys/types.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// One blocking TCP connection to 127.0.0.1:port (TCP_NODELAY) that
/// frames the byte stream into response lines.
class Conn {
 public:
  explicit Conn(std::uint16_t port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  /// Writes every byte (blocking); throws on a broken connection.
  void send_all(std::string_view bytes);
  /// One read(), then hands every complete buffered line to `on_line`.
  /// False at EOF or on a socket error (including a receive timeout).
  bool read_some(const std::function<void(std::string_view)>& on_line);
  /// Hands over lines up to and including the next terminal line, and no
  /// further (later pipelined answers stay buffered); false if the stream
  /// ended first.
  bool read_response(const std::function<void(std::string_view)>& on_line);
  /// Bounds every blocking read (0 = forever).
  void set_receive_timeout_ms(int timeout_ms);
  /// Ends the read side: a read blocked in another thread returns EOF.
  void shutdown_read();

 private:
  /// Next complete buffered line, if any (valid until the next read).
  bool pop_line(std::string_view& line);
  /// One read() into the buffer; false at EOF or on an error.
  bool fill();

  int fd_ = -1;
  std::string buffer_;
  std::size_t consumed_ = 0;  ///< bytes of buffer_ already handed out
};

/// One request on the wire: its bytes (newline included), its id and,
/// after the run, its timings in now_s() seconds and response digest.
struct WireRequest {
  std::string line;
  std::string id;
  double scheduled = 0.0;  ///< open loop: when it was due; closed: = sent
  double sent = 0.0;
  double done = 0.0;  ///< terminal line arrival; 0 if it never came
  ResponseDigest digest;
};

/// Open loop: request i is sent at start + offsets[i] on connection
/// i % conns.size(), whether or not earlier answers have arrived; a
/// second thread receives. Returns when every response arrived or
/// `drain_timeout_s` passed without progress after the last send.
/// `start` is filled with the step's time origin.
void run_open_loop(const std::vector<Conn*>& conns,
                   const std::vector<double>& offsets,
                   std::vector<WireRequest>& requests, double drain_timeout_s,
                   double* start);

/// Closed loop on one connection: send, wait for the terminal line,
/// repeat, until `stop_at` (now_s()) has passed and at least `min_count`
/// requests completed, or the stream is exhausted. `on_answer` gets the
/// number answered so far after each answer. Returns how many requests
/// were sent.
std::size_t run_closed_loop(
    Conn& conn, std::vector<WireRequest>& requests, double stop_at,
    std::size_t min_count,
    const std::function<void(std::size_t answered)>& on_answer);

/// Pipelined closed loop on one connection: keeps `window` requests in
/// flight (the next goes out as soon as an answer ends) until `stop_at`,
/// then collects the answers still owed. Returns how many were sent.
std::size_t run_window_loop(Conn& conn, std::vector<WireRequest>& requests,
                            std::size_t window, double stop_at);

/// A daemon child process (stdout/stderr to `log_file`).
class ServerProc {
 public:
  ServerProc(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_file);
  ~ServerProc();
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  /// Polls `port_file` (written atomically by the daemon) until it holds
  /// a port; throws if the child exits or `timeout_s` passes.
  std::uint16_t wait_port(const std::string& port_file, double timeout_s);
  /// Peak resident set (VmHWM) in KiB; 0 if unreadable.
  [[nodiscard]] long peak_rss_kb() const;
  /// CPU time the process's live threads have run, in seconds, from the
  /// scheduler's per-thread accounting (which leaves out time the
  /// hypervisor stole); 0 if unreadable.
  [[nodiscard]] double cpu_seconds() const;
  /// SIGTERM, wait up to `grace_s`, then SIGKILL; always reaps. Returns
  /// true when the child exited 0 on its own (graceful drain).
  bool stop(double grace_s = 15.0);

 private:
  pid_t pid_ = -1;
};

/// Sends one ping on `conn` and waits for its pong; false otherwise.
bool ping(Conn& conn, const std::string& id);

/// Sends {"type":"stats"} on a fresh connection; returns the stats line
/// ("" on failure).
std::string fetch_stats(std::uint16_t port);

}  // namespace perfbench
