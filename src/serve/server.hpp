// The multi-tenant snapshot query server (ROADMAP item 2): an embedded
// HTTP/1.1 + JSON layer answering operator-dashboard queries against
// immutable report snapshots. One blocking accept loop feeds accepted
// connections through a BoundedQueue to a util::ThreadPool worker pool;
// every request is answered against whatever snapshot the provider
// returns at that instant — one shared_ptr copy on the streaming study
// side — so queries never wait on ingestion and ingestion never waits
// on queries.
//
//   GET /healthz                        liveness + current epoch
//   GET /metrics                        obs registry snapshot as JSON
//   GET /report/summary                 headline totals
//   GET /report/country/<name>          per-country breakdown
//   GET /report/isp/<name>              per-ISP breakdown
//   GET /report/type/<t>                per-consumer-type breakdown
//   GET /report/ports/top?k=N           top scanned UDP ports
//   GET /report/device/<ip>/timeline    one source's activity ledger
//
// Rendered /report/* bodies are cached in a sharded LRU keyed on
// (epoch, request target): a snapshot swap bumps the epoch, so every
// stale entry misses (and is replaced) on its next lookup — no explicit
// invalidation pass, no lock across the swap.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "core/report.hpp"
#include "inventory/database.hpp"
#include "serve/cache.hpp"
#include "serve/http.hpp"
#include "util/bounded_queue.hpp"
#include "util/thread_pool.hpp"

namespace iotscope::obs {
class Counter;
class Gauge;
class Stage;
}  // namespace iotscope::obs

namespace iotscope::serve {

/// What the server queries: an epoch-stamped immutable report. The two
/// members must be loaded together (the streaming study bundles them in
/// one atomic pointer) so a reader can never pair a new report with an
/// old epoch — the cache keys on the epoch.
struct Snapshot {
  std::uint64_t epoch = 0;
  std::shared_ptr<const core::Report> report;
};

/// Called once per request (and once per cache fill); must be safe to
/// call concurrently from every worker thread. Return a null report
/// while no snapshot has been published yet (the server answers 503).
using SnapshotProvider = std::function<Snapshot()>;

struct ServerOptions {
  /// Port to bind on 127.0.0.1; 0 asks the kernel for an ephemeral port
  /// (read it back from port() after start()).
  std::uint16_t port = 0;
  /// Worker threads answering requests (plus one accept thread and one
  /// pool-runner thread). 0 = auto (hardware concurrency).
  unsigned threads = 4;
  /// LRU shards and entries per shard for the rendered-response cache.
  std::size_t cache_shards = 8;
  std::size_t cache_entries_per_shard = 128;
  /// listen(2) backlog.
  int backlog = 128;
  /// Per-recv timeout; workers re-check the stop flag at this cadence,
  /// so stop() latency is bounded by it even mid-keep-alive.
  std::chrono::milliseconds read_timeout{200};
  /// A keep-alive connection idle longer than this is closed.
  std::chrono::milliseconds idle_timeout{5000};
};

/// One routed response, socket-free — the unit the cache stores and the
/// tests assert on.
struct RoutedResponse {
  int status = 500;
  std::shared_ptr<const std::string> body;
};

class ReportServer {
 public:
  /// The database must outlive the server; the provider is copied.
  ReportServer(const inventory::IoTDeviceDatabase& db,
               SnapshotProvider provider, ServerOptions options = {});
  ~ReportServer();

  ReportServer(const ReportServer&) = delete;
  ReportServer& operator=(const ReportServer&) = delete;

  /// Binds, listens, and spawns the accept loop + worker pool. Throws
  /// util::IoError if the port cannot be bound.
  void start();

  /// Stops accepting, drains the workers, joins every thread. Idempotent;
  /// also run by the destructor.
  void stop();

  /// The bound port (after start()); useful with options.port == 0.
  std::uint16_t port() const noexcept { return port_; }

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Routes one request exactly as the socket path would (same cache,
  /// same renderers) without any socket involved. Thread-safe.
  RoutedResponse handle(std::string_view method, std::string_view target);

  CacheStats cache_stats() const { return cache_.stats(); }

 private:
  void accept_loop();
  void worker_loop();
  /// Serves one accepted connection until close/idle/stop.
  void serve_connection(int fd);
  /// route() wrapped with the request counter + latency stage.
  RoutedResponse handle_request(const HttpRequest& request);
  RoutedResponse route(const HttpRequest& request);

  const inventory::IoTDeviceDatabase* db_;
  SnapshotProvider provider_;
  ServerOptions options_;
  ResponseCache cache_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::unique_ptr<util::BoundedQueue<int>> connections_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::thread accept_thread_;
  std::thread pool_runner_;  ///< hosts the blocking run_indexed fork/join

  // Observability handles, resolved once at construction.
  obs::Counter& requests_counter_;   ///< serve.requests
  obs::Counter& errors_counter_;     ///< serve.errors (status >= 400)
  obs::Counter& hits_counter_;       ///< serve.cache.hits
  obs::Counter& misses_counter_;     ///< serve.cache.misses
  obs::Gauge& connections_gauge_;    ///< serve.connections (live sockets)
  obs::Stage& request_stage_;        ///< serve.request — route+render time
};

}  // namespace iotscope::serve
