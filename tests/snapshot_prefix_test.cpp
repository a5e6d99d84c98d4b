// Mid-stream snapshot identity: AnalysisPipeline::snapshot() taken after
// hour N must be byte-identical to a fresh pipeline's finalize() over
// hours 0..N — the claim the streaming daemon's published epochs rest on
// (DESIGN.md §13). The snapshot reads cross-hour state the fan-in keeps
// (distinct devices per UDP port and per scan service, the discovery
// order), so a fold that drifts from a whole-study recount shows here
// first. Snapshots are taken from the after-hour hook, as StreamingStudy
// takes them: inline on the synchronous schedulers, on a scheduler lane
// under the graph scheduler while the next hour decodes. The graph cells
// carry the `tsan` ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/iotscope.hpp"
#include "core/report_text.hpp"
#include "telescope/capture.hpp"
#include "workload/synth.hpp"

namespace iotscope::core {
namespace {

workload::ScenarioConfig prefix_config(double heavy_hitter_share) {
  workload::ScenarioConfig config;
  config.inventory_scale = 0.005;
  config.traffic_scale = 0.001;
  config.noise_ratio = 0.05;
  config.heavy_hitter_share = heavy_hitter_share;
  return config;
}

std::string render_everything(const Report& report,
                              const inventory::IoTDeviceDatabase& inventory) {
  const auto character = characterize(report, inventory);
  return render_inference_report(report, character, inventory) +
         render_traffic_report(report, inventory);
}

/// The vectors the renderers only summarize, compared in full.
bool same_tables(const Report& a, const Report& b) {
  return a.udp_top_ports == b.udp_top_ports &&
         a.scan_services == b.scan_services && a.devices == b.devices;
}

/// One workload's hours, captured in memory, plus the batch references:
/// a fresh sequential pipeline finalized over each checked prefix.
struct Workload {
  workload::Scenario scenario;
  std::vector<net::FlowBatch> hours;
  /// Prefix lengths whose snapshot is compared against a batch run: the
  /// first, second and third hour, the quartiles, and the last two. A
  /// batch reference per hour would cost O(hours^2) observes.
  std::vector<std::size_t> checked;
  std::vector<Report> batch;           ///< finalize() over each prefix
  std::vector<std::string> rendered;   ///< render_everything(batch[i])

  explicit Workload(double heavy_hitter_share)
      : scenario(workload::build_scenario(prefix_config(heavy_hitter_share))) {
    const auto config = prefix_config(heavy_hitter_share);
    telescope::TelescopeCapture capture(
        telescope::DarknetSpace(config.darknet),
        [this](net::FlowBatch&& batch) { hours.push_back(std::move(batch)); });
    workload::synthesize_into(scenario, config, capture);

    const std::size_t n = hours.size();
    checked = {1, 2, 3, n / 4, n / 2, 3 * n / 4, n - 1, n};
    std::sort(checked.begin(), checked.end());
    checked.erase(std::unique(checked.begin(), checked.end()), checked.end());
    for (const std::size_t prefix : checked) {
      PipelineOptions options;
      options.threads = 1;
      AnalysisPipeline pipeline(scenario.inventory, options);
      for (std::size_t h = 0; h < prefix; ++h) pipeline.observe(hours[h]);
      batch.push_back(pipeline.finalize());
      rendered.push_back(render_everything(batch.back(), scenario.inventory));
    }
  }
};

const Workload& normal_workload() {
  static const Workload instance(0.0);
  return instance;
}

const Workload& heavy_hitter_workload() {
  static const Workload instance(0.8);
  return instance;
}

/// Streams every hour through observe_async and snapshots twice after
/// each one from the after-hour hook, then checks every snapshot against
/// the batch reference of its prefix and the end state against a
/// finalize() that never saw a snapshot.
void expect_snapshots_match_prefixes(const Workload& load,
                                     ShardScheduler scheduler,
                                     unsigned threads) {
  SCOPED_TRACE(testing::Message() << threads << " threads, scheduler "
                                  << static_cast<int>(scheduler));
  PipelineOptions options;
  options.threads = threads;
  options.scheduler = scheduler;
  AnalysisPipeline pipeline(load.scenario.inventory, options);

  // Written only from the hooks, which never overlap (the fence chain
  // serializes them); read after drain(). Gtest assertions are not
  // thread-safe, so the hooks tally instead of asserting.
  std::size_t folded = 0;
  std::size_t disagreements = 0;   ///< back-to-back snapshots differ
  std::size_t regressions = 0;     ///< discovery order not append-only
  std::size_t next_checked = 0;
  std::vector<Report> at_checked;
  Report previous;
  for (const net::FlowBatch& hour : load.hours) {
    pipeline.observe_async(hour, [&](const net::FlowBatch&, bool ok) {
      if (!ok) return;
      ++folded;
      Report first = pipeline.snapshot();
      const Report second = pipeline.snapshot();
      if (!same_tables(first, second) ||
          first.total_packets != second.total_packets) {
        ++disagreements;
      }
      // Devices keep their discovery rank from epoch to epoch.
      if (first.devices.size() < previous.devices.size() ||
          !std::equal(previous.devices.begin(), previous.devices.end(),
                      first.devices.begin(),
                      [](const DeviceTraffic& a, const DeviceTraffic& b) {
                        return a.device == b.device;
                      })) {
        ++regressions;
      }
      if (next_checked < load.checked.size() &&
          folded == load.checked[next_checked]) {
        at_checked.push_back(first);
        ++next_checked;
      }
      previous = std::move(first);
    });
  }
  pipeline.drain();

  ASSERT_EQ(folded, load.hours.size());
  EXPECT_EQ(disagreements, 0u);
  EXPECT_EQ(regressions, 0u);
  ASSERT_EQ(at_checked.size(), load.checked.size());
  for (std::size_t i = 0; i < at_checked.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "after " << load.checked[i] << " hours");
    EXPECT_EQ(render_everything(at_checked[i], load.scenario.inventory),
              load.rendered[i]);
    EXPECT_TRUE(same_tables(at_checked[i], load.batch[i]));
  }

  // snapshot() then finalize() is finalize() alone.
  const Report last_snapshot = pipeline.snapshot();
  const Report final_report = pipeline.finalize();
  EXPECT_EQ(render_everything(final_report, load.scenario.inventory),
            load.rendered.back());
  EXPECT_TRUE(same_tables(final_report, load.batch.back()));
  EXPECT_TRUE(same_tables(last_snapshot, final_report));
}

TEST(SnapshotPrefixTest, NormalWorkloadSynchronousSchedulers) {
  for (const auto scheduler :
       {ShardScheduler::Stealing, ShardScheduler::Static}) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      expect_snapshots_match_prefixes(normal_workload(), scheduler, threads);
    }
  }
}

TEST(SnapshotPrefixTest, HeavyHitterWorkloadSynchronousSchedulers) {
  for (const auto scheduler :
       {ShardScheduler::Stealing, ShardScheduler::Static}) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      expect_snapshots_match_prefixes(heavy_hitter_workload(), scheduler,
                                      threads);
    }
  }
}

TEST(SnapshotPrefixGraphTest, NormalWorkload) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    expect_snapshots_match_prefixes(normal_workload(), ShardScheduler::Graph,
                                    threads);
  }
}

TEST(SnapshotPrefixGraphTest, HeavyHitterWorkload) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    expect_snapshots_match_prefixes(heavy_hitter_workload(),
                                    ShardScheduler::Graph, threads);
  }
}

}  // namespace
}  // namespace iotscope::core
