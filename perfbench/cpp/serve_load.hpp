// The query load: one client thread holding one keep-alive connection in a
// closed loop with no think time, drawing targets Zipf(s=1) over the
// operator-dashboard mix BM_ServeQuery uses (summary, top ports, healthz,
// 24 countries, 32 ISPs, ~190 device timelines). The loop can be paused
// so phases that time the ingest path alone run without it.
#pragma once

#include <sched.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "serve/server.hpp"
#include "trace.hpp"

namespace perfbench {

/// Restricts the calling thread to the machine's last CPU until the scope
/// ends; threads started inside the scope keep that single-CPU mask. The
/// server and its client are started inside one, so a query is the
/// server's path plus the loopback rather than a cross-vCPU wake-up,
/// which on a KVM guest costs more than the request itself and varies
/// with which vCPUs happen to be idle.
class PinnedScope {
 public:
  PinnedScope();
  ~PinnedScope();
  PinnedScope(const PinnedScope&) = delete;
  PinnedScope& operator=(const PinnedScope&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// The query universe, hot to cold, percent-encoded.
std::vector<std::string> query_targets(const inventory::IoTDeviceDatabase& db);

/// Socket queries per estimation window: query_p50_us and query_p90_us
/// are the smallest per-window percentiles.
constexpr std::size_t kQueryWindow = 50000;

/// Latencies in µs, kept in constant memory so a long run's samples do
/// not show in the process's peak RSS: a histogram of 10 ns buckets for
/// pooled percentiles (samples above 2 ms count as 2 ms), and the p50 and
/// p90 of every window of kQueryWindow consecutive samples.
class LatencyRecorder {
 public:
  void add(double us);
  std::size_t count() const noexcept { return count_; }
  /// Quantile over every sample.
  double pooled(double q) const;
  /// Smallest per-window p50 / p90: the least disturbed stretch of the
  /// run. A trailing partial window is left out unless it is the only one.
  double fastest_window_p50() const { return fastest(window_p50_, 0.5); }
  double fastest_window_p90() const { return fastest(window_p90_, 0.9); }

 private:
  static constexpr double kBucketUs = 0.01;
  static constexpr std::size_t kBuckets = 200000;

  double fastest(const std::vector<double>& per_window, double q) const;

  std::vector<std::uint32_t> buckets_ = std::vector<std::uint32_t>(kBuckets);
  std::vector<double> window_;
  std::vector<double> window_p50_;
  std::vector<double> window_p90_;
  std::size_t count_ = 0;
};

struct QueryStats {
  LatencyRecorder latency_us;  ///< socket queries, client-observed
  LatencyRecorder handle_us;   ///< direct ReportServer::handle calls
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  double active_s = 0;  ///< wall time the loop ran unpaused
};

/// The serve.* per-layer metrics: handle() percentiles, socket share,
/// cache hits, and the unsteady client diagnostics (p99, QPS).
void add_serve_metrics(RunResult& result, const QueryStats& queries,
                       double cache_hit_share);

class QueryClient {
 public:
  /// Starts paused.
  QueryClient(serve::ReportServer& server, std::vector<std::string> targets,
              std::uint64_t seed);
  ~QueryClient();
  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  /// Runs the loop until the next pause(). With a tracer, every other
  /// query calls ReportServer::handle directly instead of going through
  /// the socket (the two share one Zipf stream), and every 64th query of
  /// each kind is recorded as a span.
  void resume(Tracer* tracer = nullptr);
  /// Returns once the loop is parked between queries.
  void pause();

  /// Stops the thread and hands back everything recorded.
  QueryStats finish();

 private:
  enum class State { Paused, Running, Stopping };
  void loop();
  void check(const std::string& target, int status, const std::string& body);

  serve::ReportServer& server_;
  const std::vector<std::string> targets_;
  const std::uint64_t seed_;
  QueryStats stats_;

  std::mutex mutex_;
  std::condition_variable cv_;
  State state_ = State::Paused;  ///< guarded by mutex_
  Tracer* tracer_ = nullptr;     ///< guarded by mutex_; set while paused
  bool parked_ = true;           ///< guarded by mutex_
  std::atomic<bool> run_{false};  ///< fast-path mirror of state_ == Running
  std::thread thread_;           ///< last: started after the members above
};

}  // namespace perfbench
