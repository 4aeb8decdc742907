#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <system_error>
#include <stdexcept>
#include <thread>

namespace multival::serve {

namespace {

using Clock = std::chrono::steady_clock;

// Receive-deadline defaults (see Client): a request that carries its own
// deadline gets that plus kReceiveGrace of transport/queue slack; one that
// relies on the server default gets kReceiveCeiling.  Either way call()
// can never block forever on a wedged transport.
constexpr std::chrono::milliseconds kReceiveGrace{10000};
constexpr std::chrono::milliseconds kReceiveCeiling{60000};

// Pending connections the kernel holds for accept().
constexpr int kListenBacklog = 64;

// sockaddr_un::sun_path is ~108 bytes; a longer path cannot be bound.
sockaddr_un make_unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("serve: bad socket path '" + path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in make_tcp_address(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  const std::string host = ep.host == "localhost" ? "127.0.0.1" : ep.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("serve: bad TCP host '" + ep.host +
                             "' (numeric IPv4 or 'localhost')");
  }
  return addr;
}

void set_nodelay(int fd) {
  // Request/response lines are latency-bound, not bandwidth-bound: never
  // let Nagle hold a framed message back.
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("serve: " + what + ": " +
                           std::system_category().message(errno));
}

// Full-buffer send; MSG_NOSIGNAL so a vanished peer yields EPIPE, not
// SIGPIPE.  Returns false once the connection is unusable.
bool send_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::send(fd, data, n, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

}  // namespace

std::string Endpoint::to_string() const {
  if (kind == Kind::kUnix) {
    return path;
  }
  return host + ":" + std::to_string(port);
}

Endpoint parse_endpoint(const std::string& text) {
  if (text.empty()) {
    throw std::runtime_error("serve: empty endpoint");
  }
  const std::size_t colon = text.rfind(':');
  if (colon != std::string::npos && colon + 1 < text.size()) {
    const char* first = text.data() + colon + 1;
    const char* last = text.data() + text.size();
    unsigned port = 0;
    const auto [ptr, ec] = std::from_chars(first, last, port);
    if (ec == std::errc{} && ptr == last) {
      if (port > 65535) {
        throw std::runtime_error("serve: TCP port out of range in '" + text +
                                 "'");
      }
      Endpoint ep;
      ep.kind = Endpoint::Kind::kTcp;
      ep.host = colon == 0 ? "127.0.0.1" : text.substr(0, colon);
      ep.port = static_cast<std::uint16_t>(port);
      return ep;
    }
  }
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = text;
  return ep;
}

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {
  bound_ = parse_endpoint(opts_.endpoint);
  if (bound_.kind == Endpoint::Kind::kUnix) {
    const sockaddr_un addr = make_unix_address(bound_.path);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      throw_errno("socket() failed");
    }
    ::unlink(bound_.path.c_str());  // stale socket from a previous run
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd_, kListenBacklog) != 0) {
      const std::string err = std::system_category().message(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("serve: cannot listen on " + bound_.path +
                               ": " + err);
    }
  } else {
    sockaddr_in addr = make_tcp_address(bound_);
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      throw_errno("socket() failed");
    }
    const int one = 1;
    (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof one);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd_, kListenBacklog) != 0) {
      const std::string err = std::system_category().message(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw std::runtime_error("serve: cannot listen on " +
                               bound_.to_string() + ": " + err);
    }
    // Port 0 asked the kernel for an ephemeral port: read back the real one
    // so bound_endpoint() is always connectable.
    sockaddr_in actual{};
    socklen_t len = sizeof actual;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&actual),
                      &len) == 0) {
      bound_.port = ntohs(actual.sin_port);
    }
  }
  service_ = std::make_unique<Service>(opts_.service);
}

Server::~Server() {
  stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (bound_.kind == Endpoint::Kind::kUnix) {
    ::unlink(bound_.path.c_str());
  }
}

void Server::stop() { stop_requested_.store(true); }

void Server::run() {
  while (!stop_requested_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout ms=*/100);
    if (ready <= 0) {
      continue;  // timeout (re-check the stop flag) or EINTR
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    if (bound_.kind == Endpoint::Kind::kTcp) {
      set_nodelay(fd);
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    conn_threads_.emplace_back([this, conn] { serve_connection(conn); });
  }
  // Teardown: unblock every connection reader (each reader closes its own
  // fd on exit), join them, then drain the service so no completion
  // callback can outlive the connections.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const ConnPtr& conn : conns_) {
      std::lock_guard<std::mutex> wlock(conn->write_mu);
      if (conn->open) {
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }
  for (std::thread& t : conn_threads_) {
    t.join();
  }
  conn_threads_.clear();
  service_->shutdown();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
}

void Server::serve_connection(const ConnPtr& conn) {
  // The buffer survives across recv() calls, so a request split over many
  // segments (down to one byte each) and several requests coalesced into a
  // single segment both frame correctly.
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t k = ::recv(conn->fd, chunk, sizeof chunk, 0);
    if (k < 0 && errno == EINTR) {
      continue;
    }
    if (k <= 0) {
      break;  // peer closed, error, or teardown shutdown()
    }
    buffer.append(chunk, static_cast<std::size_t>(k));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos; nl = buffer.find('\n', start)) {
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty()) {
        handle_line(conn, line);
      }
    }
    buffer.erase(0, start);
  }
  // The reader owns the fd: closing only here (under the write lock) means
  // a completion callback can never write to a recycled descriptor.
  std::lock_guard<std::mutex> lock(conn->write_mu);
  conn->open = false;
  ::close(conn->fd);
}

void Server::handle_line(const ConnPtr& conn, const std::string& line) {
  Request request;
  try {
    request = decode_request(line);
  } catch (const std::exception& e) {
    write_response(conn, Response{0, Status::kError, e.what()});
    return;
  }
  if (request.verb == Verb::kShutdown) {
    write_response(conn, Response{request.id, Status::kOk, "bye"});
    stop();
    return;
  }
  service_->submit_async(std::move(request), [conn](Response response) {
    write_response(conn, response);
  });
}

void Server::write_response(const ConnPtr& conn, const Response& r) {
  const std::string line = encode_response(r) + "\n";
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (!conn->open) {
    return;
  }
  if (!send_all(conn->fd, line.data(), line.size())) {
    // Wake the reader (which owns the close); do not close here.
    ::shutdown(conn->fd, SHUT_RDWR);
  }
}

Client::Client(const std::string& endpoint,
               std::chrono::milliseconds connect_timeout,
               std::chrono::milliseconds receive_timeout)
    : receive_timeout_(receive_timeout) {
  const Endpoint ep = parse_endpoint(endpoint);
  sockaddr_un unix_addr{};
  sockaddr_in tcp_addr{};
  const sockaddr* addr = nullptr;
  socklen_t addr_len = 0;
  int family = AF_UNIX;
  if (ep.kind == Endpoint::Kind::kUnix) {
    unix_addr = make_unix_address(ep.path);
    addr = reinterpret_cast<const sockaddr*>(&unix_addr);
    addr_len = sizeof unix_addr;
  } else {
    tcp_addr = make_tcp_address(ep);
    addr = reinterpret_cast<const sockaddr*>(&tcp_addr);
    addr_len = sizeof tcp_addr;
    family = AF_INET;
  }
  const auto deadline = Clock::now() + connect_timeout;
  std::chrono::milliseconds backoff{10};
  for (;;) {
    fd_ = ::socket(family, SOCK_STREAM, 0);
    if (fd_ < 0) {
      throw std::runtime_error("serve client: socket() failed: " +
                               std::system_category().message(errno));
    }
    if (::connect(fd_, addr, addr_len) == 0) {
      if (ep.kind == Endpoint::Kind::kTcp) {
        set_nodelay(fd_);
      }
      return;
    }
    const int saved_errno = errno;
    const std::string err = std::system_category().message(saved_errno);
    ::close(fd_);
    fd_ = -1;
    // Only the "server not up yet" races are worth retrying: the socket
    // file not bound yet, or bound but the backlog not accepting yet.
    const bool transient = saved_errno == ENOENT || saved_errno == ECONNREFUSED;
    if (!transient || Clock::now() + backoff > deadline) {
      throw std::runtime_error("serve client: cannot connect to " +
                               ep.to_string() + ": " + err);
    }
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, std::chrono::milliseconds{1000});
  }
}

Client::~Client() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Response Client::call(const Request& r) {
  const std::string line = encode_request(r) + "\n";
  if (!send_all(fd_, line.data(), line.size())) {
    throw std::runtime_error("serve client: send failed: " +
                             std::system_category().message(errno));
  }
  // Receive deadline: the server's kTimeout guarantee only covers work it
  // dequeues — a wedged transport or hung server would otherwise block this
  // recv forever.  Derive the bound from the request's own deadline unless
  // the caller pinned one.
  const std::chrono::milliseconds budget =
      receive_timeout_.count() > 0
          ? receive_timeout_
          : (r.deadline.count() > 0 ? r.deadline + kReceiveGrace
                                    : kReceiveCeiling);
  const auto deadline = Clock::now() + budget;
  char chunk[4096];
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      const std::string resp_line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (resp_line.empty()) {
        continue;
      }
      return decode_response(resp_line);
    }
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (remaining.count() <= 0) {
      throw ClientTimeout("serve client: no response within " +
                          std::to_string(budget.count()) +
                          "ms (hung server or stalled transport)");
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0 && errno == EINTR) {
      continue;
    }
    if (ready == 0) {
      throw ClientTimeout("serve client: no response within " +
                          std::to_string(budget.count()) +
                          "ms (hung server or stalled transport)");
    }
    const ssize_t k = ::recv(fd_, chunk, sizeof chunk, 0);
    if (k < 0 && errno == EINTR) {
      continue;
    }
    if (k <= 0) {
      throw std::runtime_error(
          "serve client: connection closed before a response arrived");
    }
    buffer_.append(chunk, static_cast<std::size_t>(k));
  }
}

}  // namespace multival::serve
