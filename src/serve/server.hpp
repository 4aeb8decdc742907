// Socket front end over serve::Service, plus the matching synchronous
// client.  Two transports speak the same newline-framed protocol
// (serve/protocol):
//
//   - Unix domain sockets, addressed by a filesystem path;
//   - TCP, addressed as "host:port" (numeric IPv4 or "localhost"; port 0
//     binds an ephemeral port, reported by Server::bound_endpoint()).
//
// An endpoint string whose last ':'-separated field is a decimal port is
// TCP; anything else is a Unix path (see parse_endpoint).
//
// The server accepts stream connections; each connection carries
// newline-delimited protocol lines.  The reader is robust to arbitrary
// packetisation: requests delivered one byte at a time and several requests
// coalesced into one segment are both reassembled from the same buffer,
// and each received byte is searched for the newline once.  A line longer
// than kMaxRequestLine gets one error response, and the server then closes
// the connection.  Each connection has one reader thread; the accept loop
// joins the readers of closed connections before it admits a new one, and
// serves at most kMaxConnections at once.
// Requests are submitted to the service and responses are written back on
// whichever thread completes them (a per-connection write lock keeps lines
// intact), so responses to one connection may arrive out of request order —
// clients correlate by id.  A "shutdown" request stops the accept loop
// after acknowledging; run() then drains the service and returns.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace multival::serve {

/// The longest request line a server accepts, in bytes, newline excluded.
inline constexpr std::size_t kMaxRequestLine = std::size_t{16} << 20;

/// The most connections a server serves at once.  A connection past the cap
/// gets one `overloaded` response line and is closed.
inline constexpr std::size_t kMaxConnections = 256;

/// A parsed transport address: a Unix socket path or a TCP host:port.
struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;         ///< kUnix: filesystem path
  std::string host;         ///< kTcp: numeric IPv4 or "localhost"
  std::uint16_t port = 0;   ///< kTcp: 0 = bind an ephemeral port

  [[nodiscard]] std::string to_string() const;
};

/// Endpoint grammar: "<host>:<port>" with a decimal port (host may be empty,
/// meaning loopback) is TCP; everything else is a Unix socket path.  Throws
/// std::runtime_error on an empty string or an out-of-range port.
[[nodiscard]] Endpoint parse_endpoint(const std::string& text);

struct ServerOptions {
  /// Required: Unix path or "host:port" (see parse_endpoint).  A Unix path
  /// is unlinked and re-bound on start; TCP binds with SO_REUSEADDR.
  std::string endpoint;
  ServiceOptions service;
};

class Server {
 public:
  /// Binds and listens; throws std::runtime_error on socket failure.
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Accept loop; returns after stop() (or a client "shutdown" request)
  /// once all connection readers have been joined and the service drained.
  void run();

  /// Requests the accept loop to exit (thread-safe, non-blocking).
  void stop();

  /// The address actually bound — for TCP with port 0 this carries the
  /// kernel-assigned ephemeral port, ready to hand to a Client.
  [[nodiscard]] const Endpoint& bound_endpoint() const { return bound_; }

  [[nodiscard]] Service& service() { return *service_; }

 private:
  struct Connection {
    int fd = -1;
    std::mutex write_mu;
    bool open = true;  // guarded by write_mu
    std::atomic<bool> done{false};  // the reader has closed fd
  };
  using ConnPtr = std::shared_ptr<Connection>;

  /// A connection and the thread that reads it.
  struct Reader {
    ConnPtr conn;
    std::thread thread;
  };

  /// Joins the readers whose connections have closed and drops them.
  void reap_readers();
  void serve_connection(const ConnPtr& conn);
  void handle_line(const ConnPtr& conn, const std::string& line);
  static void write_response(const ConnPtr& conn, const Response& r);

  ServerOptions opts_;
  Endpoint bound_;
  std::unique_ptr<Service> service_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_requested_{false};
  std::vector<Reader> readers_;  // touched by run() only
};

/// The client gave up waiting for a response: the transport (not the
/// service) wedged — a hung server, a stalled network.  Distinct from the
/// server-side Status::kTimeout, which is a well-formed response.
struct ClientTimeout : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Blocking client: one outstanding request at a time per Client, so the
/// next response line on the connection is always the answer to call().
class Client {
 public:
  /// Connects to a Unix path or "host:port"; throws std::runtime_error on
  /// failure.  A non-zero @p connect_timeout keeps retrying transient
  /// connect() failures (server still starting: ENOENT / ECONNREFUSED) with
  /// exponential backoff — 10ms doubling up to 1s between attempts — until
  /// the timeout elapses.  Zero means a single attempt.
  ///
  /// @p receive_timeout bounds how long call() waits for a response; zero
  /// derives the bound per call from the request deadline (deadline plus a
  /// 10s grace for transport and queue slack) so a hung server surfaces as
  /// a ClientTimeout instead of blocking forever.  Requests without a
  /// deadline fall back to a 60s ceiling.
  explicit Client(const std::string& endpoint,
                  std::chrono::milliseconds connect_timeout =
                      std::chrono::milliseconds{0},
                  std::chrono::milliseconds receive_timeout =
                      std::chrono::milliseconds{0});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends @p r and waits for the response with the same id.  Throws
  /// ClientTimeout when the receive deadline expires first (the connection
  /// is unusable afterwards: a late response would desynchronise framing).
  [[nodiscard]] Response call(const Request& r);

 private:
  int fd_ = -1;
  std::chrono::milliseconds receive_timeout_{0};
  std::string buffer_;
};

}  // namespace multival::serve
