#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "net/ipv4.hpp"
#include "obs/metrics.hpp"
#include "serve/report_json.hpp"
#include "util/io.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace iotscope::serve {

namespace {

/// Hard ceiling on a request head; anything larger is a 400 and a close
/// (no endpoint here needs more than a couple hundred bytes).
constexpr std::size_t kMaxRequestBytes = 16 * 1024;

std::shared_ptr<const std::string> make_body(std::string body) {
  return std::make_shared<const std::string>(std::move(body));
}

void set_recv_timeout(int fd, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                    errno == EWOULDBLOCK)) {
        continue;
      }
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

ReportServer::ReportServer(const inventory::IoTDeviceDatabase& db,
                           SnapshotProvider provider, ServerOptions options)
    : db_(&db),
      provider_(std::move(provider)),
      options_(options),
      cache_(options.cache_shards, options.cache_entries_per_shard),
      requests_counter_(obs::Registry::instance().counter("serve.requests")),
      errors_counter_(obs::Registry::instance().counter("serve.errors")),
      hits_counter_(obs::Registry::instance().counter("serve.cache.hits")),
      misses_counter_(obs::Registry::instance().counter("serve.cache.misses")),
      connections_gauge_(
          obs::Registry::instance().gauge("serve.connections")),
      request_stage_(obs::Registry::instance().stage("serve.request")) {
  options_.threads = util::ThreadPool::resolve(options_.threads);
}

ReportServer::~ReportServer() { stop(); }

void ReportServer::start() {
  if (running_.load(std::memory_order_acquire)) return;
  stopping_.store(false, std::memory_order_release);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw util::IoError(std::string("serve: socket() failed: ") +
                        std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw util::IoError("serve: cannot bind 127.0.0.1:" +
                        std::to_string(options_.port) + ": " +
                        std::strerror(err));
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw util::IoError(std::string("serve: listen() failed: ") +
                        std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  // Enough queue slack that a burst of accepted sockets does not stall
  // the accept loop while every worker is mid-render.
  connections_ = std::make_unique<util::BoundedQueue<int>>(
      options_.threads * 4, "serve.backlog");
  pool_ = std::make_unique<util::ThreadPool>(options_.threads);
  running_.store(true, std::memory_order_release);

  accept_thread_ = std::thread([this] { accept_loop(); });
  // run_indexed is a blocking fork/join in which the calling thread
  // participates, so it gets a thread of its own; with count == size()
  // every participant claims exactly one long-running worker_loop and we
  // end up with `threads` concurrent request handlers.
  pool_runner_ = std::thread([this] {
    pool_->run_indexed(pool_->size(), [this](std::size_t) { worker_loop(); });
  });
}

void ReportServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // Unblock accept(2): shutdown() forces a pending accept to return on
  // Linux. close() frees the port, but only after the accept thread is
  // joined: that thread reads listen_fd_ for every accept, so resetting
  // it any earlier is a data race.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (connections_) connections_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (pool_runner_.joinable()) pool_runner_.join();
  // Drain sockets that were queued but never claimed by a worker.
  if (connections_) {
    while (auto fd = connections_->pop()) ::close(*fd);
  }
  pool_.reset();
  connections_.reset();
}

void ReportServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Listening socket closed by stop(), or a fatal accept error:
      // either way the server is done accepting.
      break;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    set_recv_timeout(fd, options_.read_timeout);
    if (!connections_->push(fd)) {
      ::close(fd);  // queue closed: shutting down
      break;
    }
  }
}

void ReportServer::worker_loop() {
  while (auto fd = connections_->pop()) {
    connections_gauge_.add(1);
    try {
      serve_connection(*fd);
    } catch (...) {
      // A connection must never take its worker down; drop it and move on.
    }
    ::close(*fd);
    connections_gauge_.add(-1);
  }
}

void ReportServer::serve_connection(int fd) {
  std::string buffer;
  const auto idle_deadline_ns = [&] {
    return obs::now_ns() +
           static_cast<std::uint64_t>(options_.idle_timeout.count()) *
               1'000'000ULL;
  };
  std::uint64_t deadline = idle_deadline_ns();

  while (!stopping_.load(std::memory_order_acquire)) {
    // Assemble one request head (requests are GETs; bodies are ignored).
    std::size_t head_end = buffer.find("\r\n\r\n");
    while (head_end == std::string::npos) {
      if (buffer.size() > kMaxRequestBytes) {
        send_all(fd, render_response(400, error_body("request too large"),
                                     "application/json", false));
        return;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n == 0) return;  // peer closed
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          if (stopping_.load(std::memory_order_acquire)) return;
          if (obs::now_ns() > deadline) return;  // idle keep-alive expired
          continue;
        }
        return;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      head_end = buffer.find("\r\n\r\n");
    }

    const std::string_view head(buffer.data(), head_end + 4);
    const auto request = parse_request(head);
    if (!request) {
      send_all(fd, render_response(400, error_body("malformed request"),
                                   "application/json", false));
      return;
    }

    const RoutedResponse response = handle_request(*request);
    const bool keep_alive =
        request->keep_alive && !stopping_.load(std::memory_order_acquire);
    if (!send_all(fd, render_response(response.status, *response.body,
                                      "application/json", keep_alive))) {
      return;
    }
    if (!keep_alive) return;
    buffer.erase(0, head_end + 4);  // keep pipelined bytes, if any
    deadline = idle_deadline_ns();
  }
}

RoutedResponse ReportServer::handle(std::string_view method,
                                    std::string_view target) {
  std::string raw;
  raw.reserve(method.size() + target.size() + 16);
  raw.append(method);
  raw += ' ';
  raw.append(target);
  raw += " HTTP/1.1\r\n\r\n";
  const auto request = parse_request(raw);
  if (!request) {
    return RoutedResponse{400, make_body(error_body("malformed request"))};
  }
  return handle_request(*request);
}

RoutedResponse ReportServer::handle_request(const HttpRequest& request) {
  requests_counter_.add(1);
  obs::ScopedTimer timer(request_stage_);
  RoutedResponse response = route(request);
  if (response.status >= 400) errors_counter_.add(1);
  return response;
}

RoutedResponse ReportServer::route(const HttpRequest& request) {
  if (request.method != "GET") {
    return RoutedResponse{405, make_body(error_body("method not allowed"))};
  }
  const std::string_view path = request.path;

  if (path == "/healthz") {
    const Snapshot snapshot = provider_();
    std::string body = "{\"status\": \"ok\", \"epoch\": ";
    body += std::to_string(snapshot.epoch);
    body += ", \"has_snapshot\": ";
    body += snapshot.report ? "true" : "false";
    body += "}\n";
    return RoutedResponse{200, make_body(std::move(body))};
  }
  if (path == "/metrics") {
    return RoutedResponse{
        200, make_body(obs::render_json(obs::Registry::instance().snapshot()))};
  }

  if (!path.starts_with("/report/")) {
    return RoutedResponse{404, make_body(error_body("no such endpoint"))};
  }

  const Snapshot snapshot = provider_();
  if (!snapshot.report) {
    return RoutedResponse{
        503, make_body(error_body("no snapshot published yet"))};
  }

  // The raw target (path + query, percent-encoded) is the cache key:
  // distinct parameters are distinct keys, and the epoch namespace makes
  // a snapshot swap an implicit flush.
  if (auto cached = cache_.get(snapshot.epoch, request.target)) {
    hits_counter_.add(1);
    return RoutedResponse{200, std::move(cached)};
  }
  misses_counter_.add(1);

  const core::Report& report = *snapshot.report;
  std::optional<std::string> body;
  int bad_request_status = 0;
  std::string bad_request_reason;

  if (path == "/report/summary") {
    body = render_summary(snapshot.epoch, report, *db_);
  } else if (path.starts_with("/report/country/")) {
    body = render_country(snapshot.epoch, report, *db_,
                          path.substr(std::strlen("/report/country/")));
  } else if (path.starts_with("/report/isp/")) {
    body = render_isp(snapshot.epoch, report, *db_,
                      path.substr(std::strlen("/report/isp/")));
  } else if (path.starts_with("/report/type/")) {
    body = render_type(snapshot.epoch, report, *db_,
                       path.substr(std::strlen("/report/type/")));
  } else if (path == "/report/ports/top") {
    std::size_t k = 10;
    if (const auto raw = request.param("k")) {
      const auto parsed = util::parse_decimal(*raw);
      if (!parsed || *parsed == 0) {
        bad_request_status = 400;
        bad_request_reason = "k must be a positive integer";
      } else {
        k = static_cast<std::size_t>(*parsed);
      }
    }
    if (bad_request_status == 0) {
      body = render_top_ports(snapshot.epoch, report, k);
    }
  } else if (path.starts_with("/report/device/") &&
             path.ends_with("/timeline")) {
    const auto ip_text = path.substr(
        std::strlen("/report/device/"),
        path.size() - std::strlen("/report/device/") -
            std::strlen("/timeline"));
    const auto ip = net::Ipv4Address::parse(ip_text);
    if (!ip) {
      bad_request_status = 400;
      bad_request_reason = "not an IPv4 address";
    } else {
      body = render_device_timeline(snapshot.epoch, report, *db_, *ip);
    }
  } else {
    return RoutedResponse{404, make_body(error_body("no such endpoint"))};
  }

  if (bad_request_status != 0) {
    return RoutedResponse{bad_request_status,
                          make_body(error_body(bad_request_reason))};
  }
  if (!body) {
    return RoutedResponse{404, make_body(error_body("not found"))};
  }
  auto shared = make_body(*std::move(body));
  cache_.put(snapshot.epoch, request.target, shared);
  return RoutedResponse{200, std::move(shared)};
}

}  // namespace iotscope::serve
