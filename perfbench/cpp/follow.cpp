// follow-serve: the live daemon. Each cycle is one live replay — an
// open-loop writer publishing the corpus's hours into an empty followed
// directory while StreamingStudy::follow ingests them and a ReportServer
// answers a closed-loop client from the latest published snapshot — then
// catch-up replays of the full directory through a fresh study with the
// client paused.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <thread>

#include "core/stream.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "serve_load.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

/// Catch-up replays after every live replay.
constexpr int kCatchUpsPerCycle = 6;
/// Monitor sampling period for the watermark and the published epoch.
constexpr auto kMonitorPeriod = std::chrono::microseconds(100);

core::PipelineOptions daemon_pipeline() {
  core::PipelineOptions options;
  options.threads = 1;
  return options;
}

core::StreamOptions daemon_stream(int snapshot_every = 1) {
  core::StreamOptions options;
  options.snapshot_every = snapshot_every;
  options.evict_after_hours = 6;
  return options;  // poll_interval stays at its default
}

/// What the server's provider reads: the study being followed, its epoch
/// offset (epochs keep rising across replays so the response cache never
/// serves a stale body), and the previous replay's final report to serve
/// until this study publishes its first snapshot.
struct Live {
  std::shared_ptr<telescope::FlowTupleStore> store;
  std::shared_ptr<core::StreamingStudy> study;  // destroyed before store
  std::uint64_t epoch_base = 0;
  serve::Snapshot fallback;
};

struct CatchUp {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t root = 0;
};

/// Replays an already complete followed directory through a fresh study,
/// as a restarted daemon works off its backlog: new study -> follow until
/// drained -> finalize -> characterize -> analyze_maliciousness. Periodic
/// snapshots are off (the live replays measure per-hour publication);
/// admission, decode, observe and eviction are the daemon's own. Checks
/// the report and the stream counters.
CatchUp catch_up(const Dataset& data, const Corpus& corpus,
                 const fs::path& dir, Tracer* tracer, std::int64_t index,
                 RunResult& result) {
  CatchUp out;
  const std::uint64_t root = tracer ? tracer->next_id() : 0;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  std::optional<telescope::FlowTupleStore> store;
  std::optional<core::StreamingStudy> study;
  {
    ScopedSpan span(tracer, "stream.study_new", root);
    store.emplace(dir);
    study.emplace(data.db, *store, daemon_pipeline(),
                  daemon_stream(/*snapshot_every=*/0));
  }
  {
    ScopedSpan span(tracer, "stream.follow", root);
    study->follow([] { return true; });
  }
  core::Report report;
  {
    ScopedSpan span(tracer, "stream.finalize", root);
    report = study->finalize();
  }
  PostAnalysis post;
  {
    ScopedSpan span(tracer, "core.post", root);
    post = post_analyze(report, data);
  }
  const auto t1 = Clock::now();
  out.cpu_s = process_cpu_s() - cpu0;
  out.wall_s = seconds_between(t0, t1);
  if (tracer != nullptr) {
    tracer->add("catch_up", t0, t1, 0, index, root);
    out.root = root;
  }
  ++result.attempted;
  const auto& stats = study->stats();
  if (stats.hours_admitted != static_cast<std::uint64_t>(corpus.hours) ||
      stats.hours_late != 0 || stats.hours_corrupt != 0) {
    result.fail("catch-up " + std::to_string(index) + ": admitted " +
                std::to_string(stats.hours_admitted) + " hours (" +
                std::to_string(stats.hours_late) + " late, " +
                std::to_string(stats.hours_corrupt) + " corrupt)");
  }
  if (render_report(report, post, data) != corpus.reference) {
    result.fail("catch-up " + std::to_string(index) +
                ": report differs from the seed's reference");
  }
  if (const auto why = truth_mismatch(report, data.db, corpus.truth);
      !why.empty()) {
    result.fail("catch-up " + std::to_string(index) + ": " + why);
  }
  return out;
}

std::vector<fs::path> corpus_hour_files(const Corpus& corpus) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(corpus.files.flowtuples)) {
    const auto name = entry.path().filename().string();
    if (name.starts_with("flowtuple-")) files.push_back(entry.path());
  }
  // flowtuple-NNNN: name order is interval order.
  std::sort(files.begin(), files.end());
  return files;
}

double stage_seconds(const char* name) {
  return static_cast<double>(
             obs::Registry::instance().stage(name).total_ns()) * 1e-9;
}

double ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

RunResult run_follow(const RunConfig& config, const Corpus& corpus) {
  RunResult result;
  Tracer tracer;
  Tracer* const traced = config.trace ? &tracer : nullptr;
  const auto run_start = Clock::now();
  const fs::path work =
      config.work_dir / ("follow-" + std::to_string(::getpid()));
  fs::remove_all(work);
  fs::create_directories(work);
  const auto period = std::chrono::milliseconds(config.smoke ? 5 : 20);
  const std::vector<fs::path> hour_files = corpus_hour_files(corpus);
  const int hours = static_cast<int>(hour_files.size());
  if (hours != corpus.hours) {
    result.fail("corpus lists " + std::to_string(hours) + " hour files, "
                "manifest says " + std::to_string(corpus.hours));
  }

  // Set-up includes the daemon's own start: a study over an empty
  // directory and a started server.
  const fs::path empty = work / "setup";
  SetupSampler setup(
      corpus.files, traced,
      [&empty, traced](const Dataset& loaded, std::uint64_t span)
          -> std::shared_ptr<void> {
        struct Started {
          std::optional<telescope::FlowTupleStore> store;
          std::optional<core::StreamingStudy> study;
          std::optional<serve::ReportServer> server;
        };
        auto started = std::make_shared<Started>();
        {
          ScopedSpan study_span(traced, "stream.study_new", span);
          started->store.emplace(empty);
          started->study.emplace(loaded.db, *started->store,
                                 daemon_pipeline(), daemon_stream());
        }
        ScopedSpan server_span(traced, "serve.start", span);
        serve::ServerOptions options;
        options.port = 0;
        started->server.emplace(loaded.db, [] { return serve::Snapshot{}; },
                                options);
        started->server->start();
        return started;
      });
  const std::unique_ptr<Dataset> data = setup.burst();

  // ---- the daemon's server and client, up for the whole run ------------
  std::atomic<std::shared_ptr<const Live>> live;
  serve::ServerOptions server_options;
  server_options.port = 0;
  serve::ReportServer server(
      data->db,
      [&live]() -> serve::Snapshot {
        const auto current = live.load(std::memory_order_acquire);
        if (!current) return {};
        if (auto published = current->study->latest_published()) {
          return {current->epoch_base + published->epoch,
                  std::shared_ptr<const core::Report>(published,
                                                      &published->report)};
        }
        return current->fallback;
      },
      server_options);
  std::optional<QueryClient> client;
  {
    PinnedScope pin;
    server.start();
    client.emplace(server, query_targets(data->db), config.seed);
  }

  // Per live replay freshness percentiles, [untraced, traced] replays.
  std::vector<double> replay_p50[2];
  std::vector<double> replay_p90[2];
  std::vector<double> fold_ms;
  std::vector<double> publish_ms;
  std::vector<double> lag_ms;
  std::vector<double> decode_s;
  std::vector<double> observe_s;
  std::vector<double> snapshot_s;
  std::vector<double> finalize_s;
  std::vector<double> post_s;
  double backlog_max = 0;
  std::uint64_t evicted = 0;
  std::uint64_t late = 0;
  std::uint64_t corrupt = 0;
  std::vector<CatchUp> catch_ups[2];  // [untraced, traced]
  std::uint64_t epoch_base = 0;
  serve::Snapshot fallback;

  // Traced runs need one untraced and one traced cycle at least.
  const int min_cycles = traced != nullptr ? 2 : 1;
  double cycle_s = 0;
  for (int cycle = 0;
       cycle < min_cycles ||
       seconds_between(run_start, Clock::now()) + cycle_s <= config.seconds;
       ++cycle) {
    const auto cycle_start = Clock::now();
    if (cycle > 0) setup.burst();
    // Traced runs alternate untraced and traced cycles, so the tracing
    // overhead is measured within one window.
    Tracer* const cycle_tracer = traced != nullptr && cycle % 2 == 1 ? traced
                                                                      : nullptr;
    const fs::path dir = work / ("replay-" + std::to_string(cycle));
    auto store = std::make_shared<telescope::FlowTupleStore>(dir);
    auto study = std::make_shared<core::StreamingStudy>(
        data->db, *store, daemon_pipeline(), daemon_stream());
    live.store(std::make_shared<const Live>(
                   Live{store, study, epoch_base, fallback}),
               std::memory_order_release);
    if (fallback.report) client->resume(cycle_tracer);

    const double decode0 = stage_seconds("store.decode");
    const double observe0 = stage_seconds("stream.admit");
    const double snapshot0 = stage_seconds("stream.snapshot");

    std::vector<Clock::time_point> published(hours);
    std::vector<Clock::time_point> folded(hours);
    std::vector<Clock::time_point> visible(hours);
    std::atomic<bool> writer_done{false};
    std::atomic<bool> monitor_stop{false};

    // Samples the watermark and the published epoch. With a snapshot per
    // admitted hour and hours admitted in order, epoch e of this study is
    // the first snapshot that contains the e-th hour.
    std::thread monitor([&] {
      ::prctl(PR_SET_TIMERSLACK, 1UL);
      int seen_folded = 0;
      int seen_visible = 0;
      bool client_started = fallback.report != nullptr;
      const std::vector<int>& intervals = data->intervals;
      while (seen_visible < hours &&
             !monitor_stop.load(std::memory_order_acquire)) {
        const auto now = Clock::now();
        const int watermark = study->watermark();
        const auto epoch = static_cast<int>(
            std::min<std::uint64_t>(study->epoch(), hours));
        while (seen_folded < hours && intervals[seen_folded] < watermark) {
          folded[seen_folded++] = now;
        }
        while (seen_visible < epoch) visible[seen_visible++] = now;
        if (!client_started && epoch > 0) {
          client->resume(cycle_tracer);
          client_started = true;
        }
        std::this_thread::sleep_for(kMonitorPeriod);
      }
    });

    std::string daemon_error;
    double finalize_time = 0;
    std::shared_ptr<const core::PublishedReport> final_published;
    std::thread daemon([&] {
      try {
        study->follow(
            [&] { return writer_done.load(std::memory_order_acquire); });
        const auto f0 = Clock::now();
        study->finalize();
        finalize_time = seconds_between(f0, Clock::now());
        final_published = study->latest_published();
      } catch (const std::exception& error) {
        daemon_error = error.what();
      }
    });

    // The writer: open loop, one hour per period, atomic publication
    // (a temp name, then rename in the followed directory, as
    // FlowTupleStore::put does). The temp name is a hard link to the
    // corpus file, so publishing writes no data: the writer never holds
    // the corpus in memory, and disk write-back stalls on this shared
    // host cannot delay a publication.
    std::string writer_error;
    const auto schedule0 = Clock::now() + period;
    try {
      for (int h = 0; h < hours; ++h) {
        const auto due = schedule0 + h * period;
        std::this_thread::sleep_until(due);
        const auto name = hour_files[h].filename();
        std::string tmp_name = ".";
        tmp_name += name.string();
        tmp_name += ".tmp";
        const fs::path tmp = dir / tmp_name;
        const auto w0 = Clock::now();
        fs::create_hard_link(hour_files[h], tmp);
        fs::rename(tmp, dir / name);
        published[h] = Clock::now();
        lag_ms.push_back(ms(published[h] - due));
        if (cycle_tracer != nullptr) {
          cycle_tracer->add("gen.publish", w0, published[h], 0, h);
        }
      }
    } catch (const std::exception& error) {
      writer_error = error.what();  // the threads below still stop
    }
    writer_done.store(true, std::memory_order_release);
    daemon.join();
    monitor_stop.store(true, std::memory_order_release);
    monitor.join();
    client->pause();

    // ---- checks and per-hour samples of this replay --------------------
    result.attempted += static_cast<std::uint64_t>(hours) + 1;
    if (!writer_error.empty()) result.fail("writer: " + writer_error);
    if (!daemon_error.empty()) result.fail("daemon: " + daemon_error);
    const auto& stats = study->stats();
    late += stats.hours_late;
    corrupt += stats.hours_corrupt;
    evicted = std::max(evicted, stats.profiles_evicted);
    if (stats.hours_admitted != static_cast<std::uint64_t>(hours) ||
        stats.hours_late != 0 || stats.hours_corrupt != 0) {
      result.fail("replay " + std::to_string(cycle) + ": admitted " +
                  std::to_string(stats.hours_admitted) + " hours (" +
                  std::to_string(stats.hours_late) + " late, " +
                  std::to_string(stats.hours_corrupt) + " corrupt)");
    }
    std::vector<std::pair<Clock::time_point, int>> backlog_events;
    std::vector<double> freshness_ms;
    for (int h = 0; h < hours; ++h) {
      if (visible[h] == Clock::time_point{} ||
          folded[h] == Clock::time_point{}) {
        result.fail("replay " + std::to_string(cycle) + ": hour " +
                    std::to_string(h) + " never reached a snapshot");
        continue;
      }
      freshness_ms.push_back(ms(visible[h] - published[h]));
      fold_ms.push_back(ms(folded[h] - published[h]));
      publish_ms.push_back(ms(visible[h] - folded[h]));
      backlog_events.emplace_back(published[h], 1);
      backlog_events.emplace_back(visible[h], -1);
      if (cycle_tracer != nullptr) {
        const auto hour = cycle_tracer->add("stream.hour", published[h],
                                            visible[h], 0, h);
        cycle_tracer->add("stream.fold", published[h], folded[h], hour, h);
        cycle_tracer->add("stream.publish", folded[h], visible[h], hour, h);
      }
    }
    replay_p50[cycle_tracer != nullptr].push_back(quantile(freshness_ms, 0.5));
    replay_p90[cycle_tracer != nullptr].push_back(quantile(freshness_ms, 0.9));
    std::sort(backlog_events.begin(), backlog_events.end());
    int backlog = 0;
    for (const auto& [at, delta] : backlog_events) {
      backlog += delta;
      backlog_max = std::max(backlog_max, static_cast<double>(backlog));
    }
    decode_s.push_back(stage_seconds("store.decode") - decode0);
    observe_s.push_back(stage_seconds("stream.admit") - observe0);
    snapshot_s.push_back(stage_seconds("stream.snapshot") - snapshot0);
    finalize_s.push_back(finalize_time);
    if (final_published) {
      const auto p0 = Clock::now();
      const PostAnalysis post = post_analyze(final_published->report, *data);
      post_s.push_back(seconds_between(p0, Clock::now()));
      if (render_report(final_published->report, post, *data) !=
          corpus.reference) {
        result.fail("replay " + std::to_string(cycle) +
                    ": final report differs from batch-default's reference");
      }
      if (const auto why = truth_mismatch(final_published->report, data->db,
                                          corpus.truth);
          !why.empty()) {
        result.fail("replay " + std::to_string(cycle) + ": " + why);
      }
      fallback = {epoch_base + final_published->epoch,
                  std::shared_ptr<const core::Report>(
                      final_published, &final_published->report)};
      epoch_base += final_published->epoch;
    } else {
      result.fail("replay " + std::to_string(cycle) + ": no final report");
    }

    // ---- catch-up replays of the now complete directory ----------------
    for (int c = 0; c < kCatchUpsPerCycle; ++c) {
      catch_ups[cycle_tracer != nullptr].push_back(
          catch_up(*data, corpus, dir, cycle_tracer,
                   cycle * kCatchUpsPerCycle + c, result));
    }
    cycle_s = seconds_between(cycle_start, Clock::now());
  }

  QueryStats queries = client->finish();
  const auto cache = server.cache_stats();
  server.stop();
  live.store(nullptr);
  fs::remove_all(work);
  result.attempted += queries.attempted;
  result.failed += queries.failed;
  for (auto& failure : queries.failures) result.failures.push_back(failure);

  const auto best = [](const std::vector<CatchUp>& runs,
                       double CatchUp::*field) {
    std::vector<double> values;
    for (const auto& run : runs) values.push_back(run.*field);
    return smallest(values);
  };

  if (!config.trace) {
    // The fastest catch-up, the fastest live replay's freshness
    // percentiles, and the fastest query window: neighbours on a shared
    // host only ever add time.
    result.add("setup_s", setup.setup_s(), "s");
    result.add("analyze_s", best(catch_ups[0], &CatchUp::wall_s), "s");
    result.add("cpu_s", best(catch_ups[0], &CatchUp::cpu_s), "s");
    result.add("freshness_p50_ms", smallest(replay_p50[0]), "ms");
    result.add("freshness_p90_ms", smallest(replay_p90[0]), "ms");
    result.add("query_p50_us", queries.latency_us.fastest_window_p50(), "us");
    result.add("query_p90_us", queries.latency_us.fastest_window_p90(), "us");
    std::fprintf(stderr,
                 "perfbench: %zu live replays (freshness p50 per replay "
                 "%.2f..%.2f ms), %zu catch-ups, %zu queries (pooled p50 "
                 "%.2f us, p90 %.2f us), writer lag p99 %.3f ms, peak RSS "
                 "%.1f MiB\n",
                 finalize_s.size(), smallest(replay_p50[0]),
                 quantile(replay_p50[0], 1.0), catch_ups[0].size(),
                 queries.latency_us.count(), queries.latency_us.pooled(0.5),
                 queries.latency_us.pooled(0.9), quantile(lag_ms, 0.99),
                 peak_rss_mb());
    return result;
  }

  const CatchUp* fastest = nullptr;
  for (const auto& run : catch_ups[1]) {
    if (fastest == nullptr || run.wall_s < fastest->wall_s) fastest = &run;
  }
  auto self = fastest ? tracer.self_seconds(fastest->root)
                      : std::map<std::string, double>{};
  const double decode = median(decode_s);
  const double records = static_cast<double>(corpus.records);
  const double cache_lookups = static_cast<double>(cache.hits + cache.misses);
  const double pass_s = fastest ? fastest->wall_s : 0;

  const LoadTimes load = setup.layer_medians();
  result.add("mem.peak_rss_mb", peak_rss_mb(), "MiB");
  result.add("inventory.load_s", load.inventory_s, "s");
  result.add("intel.load_s", load.intel_s, "s");
  result.add("telescope.open_s", load.open_s, "s");
  result.add("telescope.decode_s", decode, "s");
  result.add("telescope.decode_records_per_s", records / decode, "1/s");
  result.add("telescope.decode_packets_per_s",
             static_cast<double>(corpus.packets) / decode, "1/s");
  result.add("pipeline.observe_s", median(observe_s), "s");
  result.add("pipeline.finalize_s", median(finalize_s), "s");
  result.add("core.post_s", median(post_s), "s");
  result.add("stream.fold_p50_ms", quantile(fold_ms, 0.5), "ms");
  result.add("stream.fold_p90_ms", quantile(fold_ms, 0.9), "ms");
  result.add("stream.publish_p50_ms", quantile(publish_ms, 0.5), "ms");
  result.add("stream.publish_p90_ms", quantile(publish_ms, 0.9), "ms");
  result.add("stream.snapshot_s", median(snapshot_s), "s");
  result.add("stream.backlog_max_hours", backlog_max, "count");
  result.add("stream.evicted", static_cast<double>(evicted), "count");
  result.add("stream.late_hours", static_cast<double>(late), "count");
  result.add("stream.corrupt_hours", static_cast<double>(corrupt), "count");
  add_serve_metrics(result, queries,
                    cache_lookups > 0
                        ? static_cast<double>(cache.hits) / cache_lookups
                        : 0);
  result.add("gen.lag_p99_ms", quantile(lag_ms, 0.99), "ms");
  result.add("trace.pass_s", pass_s, "s");
  result.add("trace.unattributed_s", self["catch_up"], "s");
  result.add("trace.unattributed_pct",
             pass_s > 0 ? 100.0 * self["catch_up"] / pass_s : 0, "%");
  const double untraced_p50 = smallest(replay_p50[0]);
  result.add("trace.overhead_pct",
             untraced_p50 > 0
                 ? 100.0 * (smallest(replay_p50[1]) / untraced_p50 - 1)
                 : 0,
             "%");
  tracer.write_chrome_json(config.trace_out);
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n", tracer.size(),
               config.trace_out.string().c_str());
  return result;
}

}  // namespace perfbench
