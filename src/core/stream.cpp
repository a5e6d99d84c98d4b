#include "core/stream.hpp"

#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "util/io.hpp"
#include "util/logging.hpp"

namespace iotscope::core {

namespace {

/// Lane-to-hook channel for graph-mode quarantine: the guarded decode
/// task sets message-then-flag (release) on a scheduler lane; the
/// fence-serialized after-hook reads flag-then-message (acquire).
struct CorruptProbe {
  std::atomic<bool> corrupt{false};
  std::string message;
};

}  // namespace

StreamingStudy::StreamingStudy(const inventory::IoTDeviceDatabase& db,
                               const telescope::FlowTupleStore& store,
                               PipelineOptions pipeline_options,
                               StreamOptions options)
    : store_(&store),
      options_(options),
      pipeline_(db, std::move(pipeline_options)),
      watcher_(store),
      watermark_gauge_(obs::Registry::instance().gauge("stream.watermark")),
      snapshot_stage_(obs::Registry::instance().stage("stream.snapshot")),
      admit_stage_(obs::Registry::instance().stage("stream.admit")),
      decode_stage_(obs::Registry::instance().stage("store.decode")),
      hours_counter_(obs::Registry::instance().counter("stream.hours")),
      late_counter_(obs::Registry::instance().counter("stream.late_hours")),
      corrupt_counter_(
          obs::Registry::instance().counter("stream.corrupt_hours")),
      evicted_counter_(
          obs::Registry::instance().counter("stream.evicted")) {}

std::size_t StreamingStudy::poll_once() {
  const bool graph =
      pipeline_.options().scheduler == ShardScheduler::Graph;
  std::size_t admitted = 0;
  for (const int interval : watcher_.poll()) {
    if (interval < admit_frontier_) {
      // The merged reduction already moved past this slot (or, in graph
      // mode, the slot is already in the task graph); admitting it now
      // would reorder the stream against the batch run. Drop it, as a
      // dataflow watermark drops late data.
      ++stats_.hours_late;
      late_counter_.add(1);
      if (!warned_late_) {
        warned_late_ = true;
        IOTSCOPE_LOG_WARN(
            "stream: dropping late hour %d (frontier %d); further late "
            "hours counted silently",
            interval, admit_frontier_);
      }
      continue;
    }
    if (graph) {
      // Task-graph mode: hand the store read itself to the scheduler as
      // a decode task, so hour N+1's decode overlaps hour N's
      // observe/fan-in. Admission bookkeeping that later polls depend on
      // (frontier, admitted count, snapshot cadence) happens here at
      // submission; watermark/eviction/snapshot publication happen in
      // the fence-serialized after-hook once the hour is folded.
      //
      // One *guarded* whole-hour loader rather than hour_loaders(): a
      // decode task that throws would fail the scheduler and kill
      // follow() at its next drain point, and a corrupt hour split into
      // parts cannot be quarantined atomically (already-decoded parts
      // would partial-fold). The IoError is caught on the lane, flagged
      // through the probe, and the hour folds as empty — byte-equivalent
      // to never observing it. Cross-hour overlap (§16) is preserved;
      // only intra-hour decode splitting is given up in follow mode.
      admit_frontier_ = interval + 1;
      ++stats_.hours_admitted;
      hours_counter_.add(1);
      const bool snapshot_due = snapshot_due_now();
      auto probe = std::make_shared<CorruptProbe>();
      std::vector<telescope::FlowTupleStore::HourPartLoader> loaders;
      loaders.push_back([store = store_, interval, probe,
                         &decode_stage = decode_stage_]() -> net::FlowBatch {
        net::FlowBatch batch;
        batch.interval = interval;
        try {
          obs::ScopedTimer timer(decode_stage);
          // A nullopt read means the file was removed out from under us
          // (outside the store's contract) — fold the hour empty.
          if (auto loaded = store->get_batch(interval)) {
            batch = std::move(*loaded);
          }
        } catch (const util::IoError& error) {
          probe->message = error.what();
          probe->corrupt.store(true, std::memory_order_release);
          batch = net::FlowBatch{};
          batch.interval = interval;
        }
        return batch;
      });
      pipeline_.observe_async(
          std::move(loaders),
          [this, snapshot_due, probe](const net::FlowBatch& batch, bool ok) {
            if (probe->corrupt.load(std::memory_order_acquire)) {
              note_corrupt_hour(batch.interval, probe->message);
            }
            hour_folded(batch, ok, snapshot_due);
          });
      ++admitted;
      continue;
    }
    // Atomic rename publication means a listed file is complete; a
    // nullopt read can only mean the file was removed, which is outside
    // the store's contract — skip rather than crash. A decode failure
    // (util::IoError) quarantines the hour: count it, fold nothing, and
    // move the watermark past it so ingestion continues.
    std::optional<net::FlowBatch> batch;
    try {
      obs::ScopedTimer timer(decode_stage_);
      batch = store_->get_batch(interval);
    } catch (const util::IoError& error) {
      note_corrupt_hour(interval, error.what());
      admit_frontier_ = interval + 1;
      ++stats_.hours_admitted;
      hours_counter_.add(1);
      net::FlowBatch empty;
      empty.interval = interval;
      hour_folded(empty, /*ok=*/true, snapshot_due_now());
      ++admitted;
      continue;
    }
    if (!batch) continue;
    admit(*batch);
    ++admitted;
  }
  return admitted;
}

void StreamingStudy::admit(const net::FlowBatch& batch) {
  {
    obs::ScopedTimer timer(admit_stage_);
    pipeline_.observe(batch);
  }
  admit_frontier_ = batch.interval + 1;
  ++stats_.hours_admitted;
  hours_counter_.add(1);
  hour_folded(batch, /*ok=*/true, snapshot_due_now());
}

bool StreamingStudy::snapshot_due_now() const {
  return options_.snapshot_every > 0 &&
         stats_.hours_admitted %
                 static_cast<std::uint64_t>(options_.snapshot_every) ==
             0;
}

void StreamingStudy::note_corrupt_hour(int interval,
                                       const std::string& message) {
  ++stats_.hours_corrupt;
  corrupt_counter_.add(1);
  if (!warned_corrupt_) {
    warned_corrupt_ = true;
    IOTSCOPE_LOG_WARN(
        "stream: quarantining corrupt hour %d (%s); further corrupt hours "
        "counted silently",
        interval, message.c_str());
  }
}

void StreamingStudy::hour_folded(const net::FlowBatch& batch, bool ok,
                                 bool snapshot_due) {
  // An aborted hour (a task in its subgraph failed) folded nothing; the
  // error itself is rethrown from the next drain point — here we only
  // refrain from advancing the watermark past work that never happened.
  if (!ok) return;
  watermark_.store(batch.interval + 1, std::memory_order_release);
  watermark_gauge_.set(batch.interval + 1);

  if (options_.evict_after_hours > 0) {
    const std::size_t evicted = pipeline_.evict_idle_unknown_profiles(
        batch.interval + 1 - options_.evict_after_hours);
    if (evicted > 0) {
      stats_.profiles_evicted += evicted;
      evicted_counter_.add(static_cast<std::int64_t>(evicted));
    }
  }

  if (snapshot_due) publish_snapshot();
}

void StreamingStudy::follow(const std::function<bool()>& should_stop) {
  for (;;) {
    if (poll_once() != 0) continue;
    // Only consult the stop predicate on a drained store: a stop raised
    // while hours are still landing must not strand published files.
    if (should_stop()) {
      // The writer may have published more hours between our empty poll
      // and the stop signal (a finishing writer publishes its last file
      // and THEN raises the flag) — drain once more so a stop observed
      // in that window never strands the tail of the stream.
      while (poll_once() != 0) {
      }
      // Graph mode: submitted hours may still be in flight; returning
      // means every admitted hour is folded (and a task error from any
      // of them surfaces here, on the ingest thread).
      pipeline_.drain();
      return;
    }
    std::this_thread::sleep_for(options_.poll_interval);
  }
}

std::shared_ptr<const Report> StreamingStudy::publish_snapshot() {
  std::shared_ptr<const PublishedReport> published;
  {
    obs::ScopedTimer timer(snapshot_stage_);
    published = std::make_shared<const PublishedReport>(
        PublishedReport{stats_.snapshots_published + 1, pipeline_.snapshot()});
  }
  // Server workers reading latest_ concurrently see either the previous
  // snapshot or this one, never a torn pointer.
  publish(published);
  ++stats_.snapshots_published;
  return {published, &published->report};
}

void StreamingStudy::publish(
    std::shared_ptr<const PublishedReport> published) {
  std::lock_guard<std::mutex> lock(latest_mutex_);
  latest_.swap(published);
}

std::shared_ptr<const Report> StreamingStudy::latest_snapshot() const {
  auto published = latest_published();
  if (!published) return nullptr;
  // Aliasing constructor: the Report pointer shares the
  // PublishedReport's control block, so the epoch wrapper stays alive
  // exactly as long as any reader holds the report.
  return {published, &published->report};
}

std::shared_ptr<const PublishedReport> StreamingStudy::latest_published()
    const {
  std::lock_guard<std::mutex> lock(latest_mutex_);
  return latest_;
}

std::uint64_t StreamingStudy::epoch() const noexcept {
  const auto published = latest_published();
  return published ? published->epoch : 0;
}

Report StreamingStudy::finalize() {
  Report report = pipeline_.finalize();
  publish(std::make_shared<const PublishedReport>(
      PublishedReport{stats_.snapshots_published + 1, report}));
  ++stats_.snapshots_published;
  return report;
}

}  // namespace iotscope::core
