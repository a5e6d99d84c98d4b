#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <ctime>
#include <optional>

#include "trace.hpp"

namespace perfbench {

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::unique_ptr<Dataset> load_dataset(const CorpusFiles& files,
                                      Tracer* tracer, std::uint64_t parent,
                                      LoadTimes* times) {
  const auto t0 = Clock::now();
  std::optional<inventory::IoTDeviceDatabase> db;
  {
    ScopedSpan span(tracer, "inventory.load_csv", parent);
    db = inventory::IoTDeviceDatabase::load_csv(files.inventory);
  }
  const auto t1 = Clock::now();
  intel::ThreatRepository threats;
  intel::MalwareDatabase malware;
  intel::FamilyResolver resolver;
  {
    ScopedSpan span(tracer, "intel.load", parent);
    threats = intel::ThreatRepository::load_csv(files.threats);
    malware = intel::MalwareDatabase::import_xml(files.malware);
    resolver = intel::FamilyResolver::load_csv(files.verdicts);
  }
  const auto t2 = Clock::now();
  std::optional<telescope::FlowTupleStore> store;
  std::vector<int> intervals;
  {
    ScopedSpan span(tracer, "telescope.open", parent);
    store.emplace(files.flowtuples);
    intervals = store->intervals();
  }
  if (times != nullptr) {
    *times = {seconds_between(t0, t1), seconds_between(t1, t2),
              seconds_between(t2, Clock::now())};
  }
  return std::unique_ptr<Dataset>(new Dataset{
      std::move(*db), std::move(threats), std::move(malware),
      std::move(resolver), std::move(*store), std::move(intervals)});
}

SetupSampler::SetupSampler(const CorpusFiles& files, Tracer* tracer,
                           Extra extra)
    : files_(files), tracer_(tracer), extra_(std::move(extra)) {}

std::unique_ptr<Dataset> SetupSampler::burst() {
  std::unique_ptr<Dataset> data;
  std::vector<double> times;
  for (int rep = 0; rep < kSetupBurst; ++rep) {
    data.reset();
    const std::uint64_t root = tracer_ ? tracer_->next_id() : 0;
    LoadTimes parts;
    const auto t0 = Clock::now();
    data = load_dataset(files_, tracer_, root, &parts);
    const std::shared_ptr<void> started = extra_ ? extra_(*data, root) : nullptr;
    const auto t1 = Clock::now();
    times.push_back(seconds_between(t0, t1));
    parts_.push_back(parts);
    if (tracer_ != nullptr) tracer_->add("setup", t0, t1, 0, rep, root);
  }
  burst_medians_.push_back(median(times));
  return data;
}

double SetupSampler::setup_s() const { return smallest(burst_medians_); }

LoadTimes SetupSampler::layer_medians() const {
  std::vector<double> inventory, intel, open;
  for (const auto& p : parts_) {
    inventory.push_back(p.inventory_s);
    intel.push_back(p.intel_s);
    open.push_back(p.open_s);
  }
  return {median(inventory), median(intel), median(open)};
}

void RunResult::fail(std::string why) {
  ++failed;
  if (failures.size() < 20) failures.push_back(std::move(why));
}

}  // namespace perfbench
