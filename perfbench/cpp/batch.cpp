// batch-default and batch-skew: repeated full replays of an on-disk
// corpus, with queries between them against the report served the way
// `iotscope analyze --serve` serves it.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "serve_load.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Share of the run spent on passes; the rest serves queries.
constexpr double kPassShare = 0.85;
/// Passes run at least this many times (the first is the warm-up).
constexpr int kMinPasses = 4;
/// Passes pause this often for a set-up burst and a query burst (well
/// inside the server's 5 s keep-alive idle timeout).
constexpr double kBreakEvery_s = 1.5;

struct PassOutcome {
  double wall_s = 0;
  double cpu_s = 0;
  double report_s = 0;  ///< pass start until finalize() returned
  std::uint64_t root = 0;  ///< the pass span (traced passes)
  std::uint64_t decode_instr = 0;
  std::uint64_t observe_instr = 0;
  bool counted = true;  ///< every hour ran on the counter's thread
  unsigned lanes = 0;  ///< the pipeline's resolved thread count
  std::string rendered;
  std::shared_ptr<const core::Report> report;
};

/// One traced hour, shared by its loader wrappers and its after-hour hook:
/// both may run on scheduler threads after observe_async has returned.
struct HourProbe {
  std::int64_t interval = 0;
  std::uint64_t span = 0;
  Clock::time_point submitted;
  std::uint64_t submitted_instr = 0;
  std::atomic<std::uint64_t> decode_instr{0};
  std::atomic<bool> off_thread{false};  ///< a loader ran off the counter's thread
};

/// What a traced pass's hooks add up; read after drain().
struct PassCounts {
  std::mutex mutex;
  std::uint64_t decode_instr = 0;
  std::uint64_t observe_instr = 0;
  bool counted = true;  ///< false once an hour ran off the counter's thread
};

/// One full replay: new pipeline -> every hour through observe_async
/// (hour_loaders) -> drain/finalize -> characterize ->
/// analyze_maliciousness. With a tracer, a span is recorded around every
/// call into a layer and user-mode instructions are counted around the
/// decode and observe calls made on the counter's thread.
PassOutcome run_pass(const Dataset& data, unsigned threads, Tracer* tracer,
                     std::int64_t pass_index,
                     const InstructionCounter* counter) {
  PassOutcome out;
  core::PipelineOptions options;
  options.threads = threads;
  const std::uint64_t root = tracer ? tracer->next_id() : 0;
  PassCounts counts;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();

  std::unique_ptr<core::AnalysisPipeline> pipeline;
  {
    ScopedSpan span(tracer, "core.pipeline_new", root);
    pipeline = std::make_unique<core::AnalysisPipeline>(data.db, options);
  }
  for (const int interval : data.intervals) {
    if (tracer == nullptr) {
      pipeline->observe_async(
          data.store.hour_loaders(interval, pipeline->threads()));
      continue;
    }
    std::vector<telescope::FlowTupleStore::HourPartLoader> loaders;
    {
      ScopedSpan span(tracer, "telescope.hour_loaders", root, interval);
      loaders = data.store.hour_loaders(interval, pipeline->threads());
    }
    auto probe = std::make_shared<HourProbe>();
    probe->interval = interval;
    probe->span = tracer->next_id();
    std::vector<core::AnalysisPipeline::HourLoader> wrapped;
    for (auto& loader : loaders) {
      wrapped.push_back([probe, tracer, counter, loader = std::move(loader)] {
        const bool here = counter->on_owner_thread();
        const std::uint64_t i0 = here ? counter->read() : 0;
        const auto s0 = Clock::now();
        net::FlowBatch batch = loader();
        const auto s1 = Clock::now();
        if (here) {
          probe->decode_instr += counter->read() - i0;
        } else {
          probe->off_thread = true;
        }
        tracer->add("telescope.decode", s0, s1, probe->span, probe->interval);
        return batch;
      });
    }
    probe->submitted_instr = counter->read();
    probe->submitted = Clock::now();
    pipeline->observe_async(
        std::move(wrapped),
        [probe, tracer, counter, root, &counts](const net::FlowBatch&, bool) {
          tracer->add("pipeline.observe_async", probe->submitted,
                      Clock::now(), root, probe->interval, probe->span);
          const bool here = counter->on_owner_thread() && !probe->off_thread;
          const std::uint64_t folded_instr = here ? counter->read() : 0;
          std::lock_guard<std::mutex> lock(counts.mutex);
          if (!here) {
            counts.counted = false;
            return;
          }
          counts.decode_instr += probe->decode_instr;
          counts.observe_instr +=
              folded_instr - probe->submitted_instr - probe->decode_instr;
        });
  }
  core::Report report;
  {
    ScopedSpan span(tracer, "pipeline.finalize", root);
    pipeline->drain();
    report = pipeline->finalize();
  }
  out.report_s = seconds_between(t0, Clock::now());
  PostAnalysis post;
  {
    ScopedSpan span(tracer, "core.post", root);
    post = post_analyze(report, data);
  }
  const auto t1 = Clock::now();
  out.cpu_s = process_cpu_s() - cpu0;
  out.wall_s = seconds_between(t0, t1);
  if (tracer != nullptr) {
    tracer->add("pass", t0, t1, 0, pass_index, root);
    out.root = root;
  }
  out.lanes = pipeline->threads();
  pipeline.reset();
  out.decode_instr = counts.decode_instr;
  out.observe_instr = counts.observe_instr;
  out.counted = counts.counted;
  out.rendered = render_report(report, post, data);
  out.report = std::make_shared<const core::Report>(std::move(report));
  return out;
}

}  // namespace

RunResult run_batch(const RunConfig& config, const Corpus& corpus,
                    unsigned threads) {
  RunResult result;
  Tracer tracer;
  Tracer* const traced = config.trace ? &tracer : nullptr;
  const auto run_start = Clock::now();

  SetupSampler setup(corpus.files, traced);
  const std::unique_ptr<Dataset> data = setup.burst();
  if (static_cast<int>(data->intervals.size()) != corpus.hours) {
    result.fail("store lists " + std::to_string(data->intervals.size()) +
                " hours, corpus has " + std::to_string(corpus.hours));
  }

  // ---- passes ---------------------------------------------------------
  InstructionCounter counter;
  auto& skew_gauge = obs::Registry::instance().gauge("pipeline.shard.skew");
  auto& claimed = obs::Registry::instance().counter("pipeline.morsel.claimed");
  auto& stolen = obs::Registry::instance().counter("pipeline.morsel.stolen");
  std::uint64_t morsels_claimed = 0;
  std::uint64_t morsels_stolen = 0;
  std::int64_t skew_max = 0;

  std::vector<PassOutcome> plain;
  std::vector<PassOutcome> with_trace;
  unsigned lanes = 1;

  // Queries run in breaks between passes, against the warm-up pass's
  // report (every pass renders the same report, checked below), served
  // frozen at epoch 1 as batch `analyze --serve` does. Spreading them over
  // the run lets the fastest-window estimator find the run's quiet
  // stretches, as the fastest pass does.
  std::optional<serve::ReportServer> server;
  std::optional<QueryClient> client;
  const auto run_end =
      run_start + std::chrono::duration<double>(config.seconds);
  auto last_break = Clock::now();
  const auto take_break = [&] {
    setup.burst();
    const double query_s = seconds_between(last_break, Clock::now()) *
                           (1 - kPassShare) / kPassShare;
    client->resume(traced);
    std::this_thread::sleep_for(std::chrono::duration<double>(query_s));
    client->pause();
    last_break = Clock::now();
  };
  for (int pass = 0; pass < kMinPasses || Clock::now() < run_end; ++pass) {
    if (pass > 0 &&
        seconds_between(last_break, Clock::now()) >= kBreakEvery_s) {
      take_break();
    }
    // Traced runs alternate untraced and traced passes so the overhead
    // is measured in one window; the warm-up pass is never traced.
    const bool trace_this = traced != nullptr && pass % 2 == 1;
    skew_gauge.reset();
    const std::uint64_t claimed0 = claimed.value();
    const std::uint64_t stolen0 = stolen.value();
    PassOutcome outcome = run_pass(*data, threads,
                                   trace_this ? traced : nullptr, pass,
                                   &counter);
    ++result.attempted;
    if (outcome.rendered != corpus.reference) {
      result.fail("pass " + std::to_string(pass) +
                  ": report differs from the seed's reference");
    }
    if (const auto why = truth_mismatch(*outcome.report, data->db, corpus.truth);
        !why.empty()) {
      result.fail("pass " + std::to_string(pass) + ": " + why);
    }
    outcome.rendered.clear();
    lanes = outcome.lanes;
    if (trace_this) {
      morsels_claimed += claimed.value() - claimed0;
      morsels_stolen += stolen.value() - stolen0;
      skew_max = std::max(skew_max, skew_gauge.max());
    }
    if (pass == 0) {  // warm-up; its report is the one served
      serve::ServerOptions server_options;
      server_options.port = 0;
      server.emplace(
          data->db,
          [report = outcome.report] { return serve::Snapshot{1, report}; },
          server_options);
      PinnedScope pin;
      server->start();
      client.emplace(*server, query_targets(data->db), config.seed);
      continue;
    }
    outcome.report.reset();  // only the served report stays alive
    (trace_this ? with_trace : plain).push_back(std::move(outcome));
  }
  take_break();  // the last passes get their share of queries too

  QueryStats queries = client->finish();
  const auto cache = server->cache_stats();
  const double cache_hit_share =
      cache.hits + cache.misses > 0
          ? static_cast<double>(cache.hits) /
                static_cast<double>(cache.hits + cache.misses)
          : 0;
  server->stop();
  result.attempted += queries.attempted;
  result.failed += queries.failed;
  for (auto& failure : queries.failures) result.failures.push_back(failure);

  const auto fastest = [](const std::vector<PassOutcome>& passes,
                          double PassOutcome::*field) {
    std::vector<double> values;
    for (const auto& p : passes) values.push_back(p.*field);
    return smallest(values);
  };

  if (!config.trace) {
    const double report_ms = fastest(plain, &PassOutcome::report_s) * 1e3;
    result.add("setup_s", setup.setup_s(), "s");
    result.add("analyze_s", fastest(plain, &PassOutcome::wall_s), "s");
    result.add("cpu_s", fastest(plain, &PassOutcome::cpu_s), "s");
    // Every hour is on disk when a pass starts and first appears in the
    // report finalize() returns, so each hour's freshness is the pass's
    // time to that report (fastest pass, like analyze_s).
    result.add("freshness_p50_ms", report_ms, "ms");
    result.add("freshness_p90_ms", report_ms, "ms");
    result.add("query_p50_us", queries.latency_us.fastest_window_p50(), "us");
    result.add("query_p90_us", queries.latency_us.fastest_window_p90(), "us");
    std::vector<double> walls;
    for (const auto& p : plain) walls.push_back(p.wall_s);
    std::fprintf(stderr,
                 "perfbench: %zu warm passes (fastest %.4f s, median %.4f s), "
                 "%zu queries (pooled p50 %.2f us, p90 %.2f us), peak RSS "
                 "%.1f MiB\n",
                 plain.size(), smallest(walls), median(walls),
                 queries.latency_us.count(),
                 queries.latency_us.pooled(0.5),
                 queries.latency_us.pooled(0.9), peak_rss_mb());
    return result;
  }

  // ---- per-layer budget from the fastest traced pass -------------------
  const PassOutcome* best = nullptr;
  for (const auto& p : with_trace) {
    if (best == nullptr || p.wall_s < best->wall_s) best = &p;
  }
  auto self = tracer.self_seconds(best->root);
  const double decode_s = self["telescope.decode"];
  const double records = static_cast<double>(corpus.records);
  std::uint64_t decode_instr = 0;
  std::uint64_t observe_instr = 0;
  bool counted = counter.ok();
  for (const auto& p : with_trace) {
    decode_instr += p.decode_instr;
    observe_instr += p.observe_instr;
    counted = counted && p.counted;
  }
  const double traced_records = records * static_cast<double>(with_trace.size());
  // The counter counts the thread that opened it: decode is counted when
  // every loader ran there, observe only at one lane as well.
  const bool observe_counted = counted && lanes == 1;
  if (!counted || !observe_counted) {
    const std::string why =
        !counter.ok() ? counter.error()
        : !counted    ? std::string("hours ran on scheduler threads")
                      : "observe runs on " + std::to_string(lanes) +
                            " worker threads; counted at 1 thread";
    if (!counted) {
      std::fprintf(stderr,
                   "perfbench: telescope.decode_instr_per_record: "
                   "unavailable (%s)\n",
                   why.c_str());
    }
    std::fprintf(stderr,
                 "perfbench: pipeline.observe_instr_per_record: unavailable "
                 "(%s)\n",
                 why.c_str());
  }
  const double untraced_best = fastest(plain, &PassOutcome::wall_s);
  const double traced_best = best->wall_s;
  const LoadTimes load = setup.layer_medians();

  result.add("mem.peak_rss_mb", peak_rss_mb(), "MiB");
  result.add("inventory.load_s", load.inventory_s, "s");
  result.add("intel.load_s", load.intel_s, "s");
  result.add("telescope.open_s", load.open_s, "s");
  result.add("telescope.hour_loaders_s", self["telescope.hour_loaders"], "s");
  result.add("telescope.decode_s", decode_s, "s");
  result.add("telescope.decode_records_per_s", records / decode_s, "1/s");
  result.add("telescope.decode_packets_per_s",
             static_cast<double>(corpus.packets) / decode_s, "1/s");
  result.add("telescope.decode_instr_per_record",
             counted ? static_cast<double>(decode_instr) / traced_records : 0,
             "count");
  result.add("pipeline.new_s", self["core.pipeline_new"], "s");
  result.add("pipeline.observe_s", self["pipeline.observe_async"], "s");
  result.add("pipeline.observe_instr_per_record",
             observe_counted
                 ? static_cast<double>(observe_instr) / traced_records
                 : 0,
             "count");
  result.add("pipeline.finalize_s", self["pipeline.finalize"], "s");
  result.add("pipeline.stolen_share",
             morsels_claimed + morsels_stolen > 0
                 ? static_cast<double>(morsels_stolen) /
                       static_cast<double>(morsels_claimed + morsels_stolen)
                 : 0,
             "ratio");
  result.add("pipeline.shard_skew_pct", static_cast<double>(skew_max), "%");
  result.add("core.post_s", self["core.post"], "s");
  add_serve_metrics(result, queries, cache_hit_share);
  result.add("trace.pass_s", traced_best, "s");
  result.add("trace.unattributed_s", self["pass"], "s");
  result.add("trace.unattributed_pct", 100.0 * self["pass"] / traced_best,
             "%");
  result.add("trace.overhead_pct",
             100.0 * (traced_best / untraced_best - 1.0), "%");
  tracer.write_chrome_json(config.trace_out);
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n", tracer.size(),
               config.trace_out.string().c_str());
  return result;
}

}  // namespace perfbench
