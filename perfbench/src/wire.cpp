#include "wire.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

std::runtime_error sys_error(const std::string& what) {
  return std::runtime_error(what + ": " + std::strerror(errno));
}

/// Sleeps until the send is due. No spinning: a spinning generator takes
/// a core the servers need, and on a virtual machine it still suffers the
/// host's scheduling hiccups (the lag that remains is measured and
/// reported, and a run whose lag exceeds the workload's latency limit is
/// marked invalid).
void wait_until(double due) {
  for (;;) {
    const double remaining = due - now_s();
    if (remaining <= 20e-6) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(remaining));
  }
}

}  // namespace

Conn::Conn(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw sys_error("socket");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::runtime_error error = sys_error("connect");
    ::close(fd_);
    throw error;
  }
  const int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Conn::~Conn() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void Conn::send_all(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw sys_error("send");
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

bool Conn::fill() {
  if (consumed_ > 0) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  char chunk[1 << 16];
  ssize_t n = 0;
  do {
    n = ::read(fd_, chunk, sizeof(chunk));
  } while (n < 0 && errno == EINTR);
  if (n <= 0) {
    return false;
  }
  buffer_.append(chunk, static_cast<std::size_t>(n));
  return true;
}

bool Conn::pop_line(std::string_view& line) {
  const std::size_t nl = buffer_.find('\n', consumed_);
  if (nl == std::string::npos) {
    return false;
  }
  line = std::string_view(buffer_.data() + consumed_, nl - consumed_);
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);
  }
  consumed_ = nl + 1;
  return true;
}

bool Conn::read_some(const std::function<void(std::string_view)>& on_line) {
  if (!fill()) {
    return false;
  }
  std::string_view line;
  while (pop_line(line)) {
    on_line(line);
  }
  return true;
}

bool Conn::read_response(
    const std::function<void(std::string_view)>& on_line) {
  for (;;) {
    std::string_view line;
    while (pop_line(line)) {
      on_line(line);
      if (is_terminal(line)) {
        return true;
      }
    }
    if (!fill()) {
      return false;
    }
  }
}

void Conn::set_receive_timeout_ms(int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void Conn::shutdown_read() { (void)::shutdown(fd_, SHUT_RD); }

std::size_t run_window_loop(Conn& conn, std::vector<WireRequest>& requests,
                            std::size_t window, double stop_at) {
  std::mutex mutex;
  std::condition_variable changed;
  std::size_t answered = 0;  // guarded by mutex
  bool receiver_done = false;  // guarded by mutex
  std::exception_ptr receiver_error;
  std::thread receiver([&] {
    try {
      std::size_t index = 0;
      const auto on_line = [&](std::string_view line) {
        if (index >= requests.size()) {
          return;
        }
        WireRequest& request = requests[index];
        request.digest.add_line(line, request.id);
        if (is_terminal(line)) {
          request.done = now_s();
          ++index;
          const std::lock_guard<std::mutex> lock(mutex);
          answered = index;
          changed.notify_all();
        }
      };
      while (conn.read_some(on_line)) {
      }
    } catch (...) {
      receiver_error = std::current_exception();
    }
    const std::lock_guard<std::mutex> lock(mutex);
    receiver_done = true;
    changed.notify_all();
  });

  std::size_t sent = 0;
  try {
    while (sent < requests.size()) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        changed.wait(lock, [&] {
          return sent - answered < window || receiver_done;
        });
        if (receiver_done) {
          break;
        }
      }
      if (now_s() >= stop_at) {
        break;
      }
      WireRequest& request = requests[sent];
      request.sent = request.scheduled = now_s();
      conn.send_all(request.line);
      ++sent;
    }
    std::unique_lock<std::mutex> lock(mutex);
    changed.wait_for(lock, std::chrono::seconds(30),
                     [&] { return answered == sent || receiver_done; });
  } catch (...) {
    conn.shutdown_read();
    receiver.join();
    throw;
  }
  conn.shutdown_read();
  receiver.join();
  if (receiver_error) {
    std::rethrow_exception(receiver_error);
  }
  return sent;
}

void run_open_loop(const std::vector<Conn*>& conns,
                   const std::vector<double>& offsets,
                   std::vector<WireRequest>& requests, double drain_timeout_s,
                   double* start) {
  const std::size_t total = offsets.size();
  const std::size_t width = conns.size();
  if (requests.size() < total || width == 0) {
    throw std::invalid_argument("run_open_loop: too few requests/conns");
  }
  std::atomic<bool> sender_done{false};
  std::exception_ptr receiver_error;
  std::thread receiver([&] {
    try {
      const int ep = ::epoll_create1(EPOLL_CLOEXEC);
      if (ep < 0) {
        throw sys_error("epoll_create1");
      }
      for (std::size_t c = 0; c < width; ++c) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = c;
        (void)::epoll_ctl(ep, EPOLL_CTL_ADD, conns[c]->fd(), &ev);
      }
      std::vector<std::size_t> answered(width, 0);
      std::size_t completed = 0;
      std::size_t alive = width;
      double last_progress = now_s();
      while (completed < total && alive > 0) {
        epoll_event events[8];
        const int n = ::epoll_wait(ep, events, 8, 20);
        const std::size_t before = completed;
        for (int e = 0; e < n; ++e) {
          const std::size_t c = events[e].data.u64;
          const bool open =
              conns[c]->read_some([&](std::string_view line) {
                const std::size_t index = answered[c] * width + c;
                if (index >= total) {
                  return;  // not ours (cannot happen with a sane server)
                }
                WireRequest& request = requests[index];
                request.digest.add_line(line, request.id);
                if (is_terminal(line)) {
                  request.done = now_s();
                  ++answered[c];
                  ++completed;
                }
              });
          if (!open) {
            (void)::epoll_ctl(ep, EPOLL_CTL_DEL, conns[c]->fd(), nullptr);
            --alive;
          }
        }
        const double t = now_s();
        if (completed != before) {
          last_progress = t;
        }
        if (sender_done.load(std::memory_order_acquire) &&
            t - last_progress > drain_timeout_s) {
          break;
        }
      }
      ::close(ep);
    } catch (...) {
      receiver_error = std::current_exception();
    }
  });

  // Timer slack is per thread: without it a sleeping sender wakes up to
  // 50 us late by design.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  *start = now_s() + 0.002;
  try {
    for (std::size_t i = 0; i < total; ++i) {
      WireRequest& request = requests[i];
      request.scheduled = *start + offsets[i];
      wait_until(request.scheduled);
      request.sent = now_s();
      conns[i % width]->send_all(request.line);
    }
  } catch (...) {
    sender_done.store(true, std::memory_order_release);
    receiver.join();
    throw;
  }
  sender_done.store(true, std::memory_order_release);
  receiver.join();
  if (receiver_error) {
    std::rethrow_exception(receiver_error);
  }
}

std::size_t run_closed_loop(
    Conn& conn, std::vector<WireRequest>& requests, double stop_at,
    std::size_t min_count,
    const std::function<void(std::size_t answered)>& on_answer) {
  std::size_t i = 0;
  while (i < requests.size()) {
    if (i >= min_count && now_s() >= stop_at) {
      break;
    }
    WireRequest& request = requests[i++];
    request.sent = request.scheduled = now_s();
    conn.send_all(request.line);
    const bool open = conn.read_response([&](std::string_view line) {
      request.digest.add_line(line, request.id);
    });
    if (request.digest.complete) {
      request.done = now_s();
      on_answer(i);
    }
    if (!open) {
      break;  // the rest stays unsent; the caller counts this one missing
    }
  }
  return i;
}

ServerProc::ServerProc(const std::string& binary,
                       const std::vector<std::string>& args,
                       const std::string& log_file) {
  // Everything the child touches is prepared before fork(): between
  // fork and exec only async-signal-safe calls are allowed.
  std::vector<std::string> storage;
  storage.push_back(binary);
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : storage) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    throw sys_error("fork");
  }
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) {
      ::_exit(127);
    }
    const int log = ::open(log_file.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    const int null = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
    }
    if (null >= 0) {
      ::dup2(null, STDIN_FILENO);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
}

ServerProc::~ServerProc() { stop(2.0); }

std::uint16_t ServerProc::wait_port(const std::string& port_file,
                                    double timeout_s) {
  const double deadline = now_s() + timeout_s;
  while (now_s() < deadline) {
    std::ifstream in(port_file);
    std::string text;
    if (in && std::getline(in, text) && !text.empty()) {
      const long port = std::strtol(text.c_str(), nullptr, 10);
      if (port > 0 && port < 65536) {
        return static_cast<std::uint16_t>(port);
      }
    }
    int status = 0;
    if (pid_ > 0 && ::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("server exited before listening (see " +
                               port_file + ".log)");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  throw std::runtime_error("server did not write " + port_file);
}

long ServerProc::peak_rss_kb() const {
  if (pid_ <= 0) {
    return 0;
  }
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

double ServerProc::cpu_seconds() const {
  if (pid_ <= 0) {
    return 0.0;
  }
  const std::string tasks = "/proc/" + std::to_string(pid_) + "/task";
  DIR* dir = ::opendir(tasks.c_str());
  if (dir == nullptr) {
    return 0.0;
  }
  double total = 0.0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') {
      continue;
    }
    std::ifstream in(tasks + "/" + entry->d_name + "/schedstat");
    double run_ns = 0.0;
    if (in >> run_ns) {
      total += run_ns * 1e-9;
    }
  }
  ::closedir(dir);
  return total;
}

bool ServerProc::stop(double grace_s) {
  if (pid_ <= 0) {
    return false;
  }
  ::kill(pid_, SIGTERM);
  int status = 0;
  const double deadline = now_s() + grace_s;
  for (;;) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_ || (done < 0 && errno != EINTR)) {
      break;
    }
    if (now_s() >= deadline) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

bool ping(Conn& conn, const std::string& id) {
  conn.send_all("{\"type\":\"ping\",\"id\":\"" + id + "\"}\n");
  bool pong = false;
  const bool open = conn.read_response([&](std::string_view line) {
    pong = line.rfind("{\"type\":\"pong\"", 0) == 0;
  });
  return open && pong;
}

std::string fetch_stats(std::uint16_t port) {
  try {
    Conn conn(port);
    conn.set_receive_timeout_ms(10000);
    conn.send_all("{\"type\":\"stats\",\"id\":\"bench-stats\"}\n");
    std::string stats;
    if (conn.read_response(
            [&](std::string_view line) { stats.assign(line); })) {
      return stats;
    }
  } catch (const std::exception&) {
  }
  return "";
}

}  // namespace perfbench
