#include "serve_load.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_set>

#include "serve/client.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

std::string percent_encode(std::string_view raw) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  for (const unsigned char c : raw) {
    const bool unreserved = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '-' || c == '.' ||
                            c == '_' || c == '~' || c == '/';
    if (unreserved) {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 0xF]);
    }
  }
  return out;
}

bool is_device_timeline(const std::string& target) {
  return target.starts_with("/report/device/") &&
         target.ends_with("/timeline");
}

}  // namespace

PinnedScope::PinnedScope() {
  if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) last = cpu;
  }
  if (last < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
}

PinnedScope::~PinnedScope() {
  if (pinned_) ::sched_setaffinity(0, sizeof saved_, &saved_);
}

std::vector<std::string> query_targets(const inventory::IoTDeviceDatabase& db) {
  std::vector<std::string> targets;
  targets.emplace_back("/report/summary");
  for (const int k : {10, 5, 20, 3}) {
    targets.push_back("/report/ports/top?k=" + std::to_string(k));
  }
  targets.emplace_back("/healthz");
  std::unordered_set<inventory::CountryId> countries;
  for (const auto& device : db.devices()) {
    if (countries.insert(device.country).second) {
      targets.push_back("/report/country/" +
                        percent_encode(db.country_name(device.country)));
    }
    if (countries.size() >= 24) break;
  }
  for (std::size_t i = 0; i < db.isps().size() && i < 32; ++i) {
    targets.push_back("/report/isp/" + percent_encode(db.isps()[i].name));
  }
  const std::size_t stride = std::max<std::size_t>(1, db.size() / 192);
  for (std::size_t i = 0; i < db.size(); i += stride) {
    targets.push_back("/report/device/" + db.devices()[i].ip.to_string() +
                      "/timeline");
  }
  return targets;
}

void LatencyRecorder::add(double us) {
  const auto bucket = static_cast<std::size_t>(std::max(0.0, us) / kBucketUs);
  ++buckets_[std::min(bucket, kBuckets - 1)];
  ++count_;
  window_.push_back(us);
  if (window_.size() == kQueryWindow) {
    window_p50_.push_back(quantile(window_, 0.5));
    window_p90_.push_back(quantile(window_, 0.9));
    window_.clear();
  }
}

double LatencyRecorder::pooled(double q) const {
  if (count_ == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen > rank) return (static_cast<double>(b) + 0.5) * kBucketUs;
  }
  return static_cast<double>(kBuckets) * kBucketUs;
}

double LatencyRecorder::fastest(const std::vector<double>& per_window,
                                double q) const {
  if (per_window.empty()) return quantile(window_, q);
  return smallest(per_window);
}

void add_serve_metrics(RunResult& result, const QueryStats& queries,
                       double cache_hit_share) {
  const double handle_p50 = queries.handle_us.pooled(0.5);
  result.add("serve.handle_p50_us", handle_p50, "us");
  result.add("serve.handle_p99_us", queries.handle_us.pooled(0.99), "us");
  result.add("serve.socket_p50_us",
             queries.latency_us.pooled(0.5) - handle_p50, "us");
  result.add("serve.cache_hit_share", cache_hit_share, "ratio");
  result.add("serve.query_p99_us", queries.latency_us.pooled(0.99), "us");
  result.add("serve.qps",
             queries.active_s > 0
                 ? static_cast<double>(queries.attempted) / queries.active_s
                 : 0,
             "1/s");
}

QueryClient::QueryClient(serve::ReportServer& server,
                         std::vector<std::string> targets, std::uint64_t seed)
    : server_(server),
      targets_(std::move(targets)),
      seed_(seed),
      thread_([this] { loop(); }) {}

QueryClient::~QueryClient() {
  if (thread_.joinable()) finish();
}

void QueryClient::resume(Tracer* tracer) {
  std::lock_guard<std::mutex> lock(mutex_);
  tracer_ = tracer;
  state_ = State::Running;
  run_.store(true, std::memory_order_release);
  cv_.notify_all();
}

void QueryClient::pause() {
  std::unique_lock<std::mutex> lock(mutex_);
  state_ = State::Paused;
  run_.store(false, std::memory_order_release);
  cv_.wait(lock, [this] { return parked_; });
}

QueryStats QueryClient::finish() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state_ = State::Stopping;
    run_.store(false, std::memory_order_release);
    cv_.notify_all();
  }
  thread_.join();
  return std::move(stats_);
}

void QueryClient::check(const std::string& target, int status,
                        const std::string& body) {
  // Device timelines are the only targets that may name a source with no
  // data in the served snapshot; every other target must answer.
  if (status == 200) return;
  if (status == 404 && is_device_timeline(target) &&
      body.find("not found") != std::string::npos) {
    return;
  }
  ++stats_.failed;
  if (stats_.failures.size() < 10) {
    stats_.failures.push_back("query " + target + " answered " +
                              std::to_string(status));
  }
}

void QueryClient::loop() {
  // Zipf(s=1) CDF over the targets, hot first.
  std::vector<double> cdf(targets_.size());
  double sum = 0;
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    sum += 1.0 / static_cast<double>(i + 1);
    cdf[i] = sum;
  }
  for (auto& c : cdf) c /= sum;
  util::Rng rng(seed_);
  std::optional<serve::HttpClient> client;

  std::uint64_t n = 0;
  bool running = false;
  Clock::time_point resumed{};
  Tracer* tracer = nullptr;  // copy of tracer_, refreshed on every resume
  for (;;) {
    if (!running || !run_.load(std::memory_order_acquire)) {
      std::unique_lock<std::mutex> lock(mutex_);
      if (running) stats_.active_s += seconds_between(resumed, Clock::now());
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return state_ != State::Paused; });
      if (state_ == State::Stopping) return;
      parked_ = false;
      running = true;
      tracer = tracer_;
      resumed = Clock::now();
      continue;
    }

    const auto at = std::lower_bound(cdf.begin(), cdf.end(), rng.uniform01());
    const std::string& target =
        targets_[std::min<std::size_t>(at - cdf.begin(), targets_.size() - 1)];
    const bool direct = tracer != nullptr && (n & 1) != 0;
    const bool sampled = tracer != nullptr && n % 128 < 2;
    const auto query_id = static_cast<std::int64_t>(n++);
    ++stats_.attempted;

    if (direct) {
      const auto t0 = Clock::now();
      const auto response = server_.handle("GET", target);
      const auto t1 = Clock::now();
      stats_.handle_us.add(seconds_between(t0, t1) * 1e6);
      if (sampled) tracer->add("serve.handle", t0, t1, 0, query_id);
      check(target, response.status, *response.body);
      continue;
    }
    if (!client) client.emplace(server_.port());
    const auto t0 = Clock::now();
    const auto response = client->get(target);
    const auto t1 = Clock::now();
    if (!response) {
      ++stats_.failed;
      if (stats_.failures.size() < 10) {
        stats_.failures.push_back("connection broke on " + target);
      }
      client.reset();
      continue;
    }
    stats_.latency_us.add(seconds_between(t0, t1) * 1e6);
    if (sampled) tracer->add("serve.query", t0, t1, 0, query_id);
    check(target, response->status, response->body);
  }
}

}  // namespace perfbench
