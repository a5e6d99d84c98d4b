// Shared plumbing for the end-to-end benchmark: clocks, resource usage,
// order statistics, the loaded dataset, and the result every workload
// returns. Nothing here calls into a measured layer except
// load_dataset(), whose calls are the set-up the benchmark times.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "intel/malware.hpp"
#include "intel/threat.hpp"
#include "inventory/database.hpp"
#include "telescope/store.hpp"

namespace iotscope::core {}
namespace iotscope::serve {}
namespace iotscope::workload {}

namespace perfbench {

// The benchmark names the library's modules the way the library does.
namespace core = iotscope::core;
namespace intel = iotscope::intel;
namespace inventory = iotscope::inventory;
namespace net = iotscope::net;
namespace obs = iotscope::obs;
namespace serve = iotscope::serve;
namespace telescope = iotscope::telescope;
namespace util = iotscope::util;
namespace workload = iotscope::workload;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds consumed by every thread of the process so far.
double process_cpu_s();

/// High-water resident set size of the process, in MiB.
double peak_rss_mb();

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Files of one generated corpus (see corpus.hpp).
struct CorpusFiles {
  std::filesystem::path inventory;
  std::filesystem::path threats;
  std::filesystem::path malware;
  std::filesystem::path verdicts;
  std::filesystem::path flowtuples;
};

/// Everything a pass reads: what `iotscope analyze` loads from a dataset
/// directory. Held by pointer so a fresh load never reuses an old one.
struct Dataset {
  inventory::IoTDeviceDatabase db;
  intel::ThreatRepository threats;
  intel::MalwareDatabase malware;
  intel::FamilyResolver resolver;
  telescope::FlowTupleStore store;
  std::vector<int> intervals;
};

class Tracer;

/// Seconds spent in each layer of one load_dataset() call.
struct LoadTimes {
  double inventory_s = 0;  ///< IoTDeviceDatabase::load_csv
  double intel_s = 0;      ///< the three intel loads
  double open_s = 0;       ///< FlowTupleStore + intervals()
};

/// Loads a dataset: the inventory parse, the three intel loads, and
/// opening (listing) the hourly store. With a tracer, each layer's call
/// is a span under `parent`.
std::unique_ptr<Dataset> load_dataset(const CorpusFiles& files,
                                      Tracer* tracer = nullptr,
                                      std::uint64_t parent = 0,
                                      LoadTimes* times = nullptr);

/// Repetitions per set-up burst.
constexpr int kSetupBurst = 5;

/// Set-up time, sampled in bursts spread over the run: a burst before the
/// first pass and more between later passes or cycles. Each repetition is
/// a full load that reuses nothing, plus the workload's `extra` start-up
/// work. setup_s is the smallest burst median: a burst's median discards a
/// one-off hiccup, and taking the fastest burst discards the slow phases
/// neighbours impose on a shared host for seconds at a time.
class SetupSampler {
 public:
  /// Timed start-up work after the load (the daemon's study and server);
  /// whatever it returns is released after the repetition's clock stops.
  using Extra = std::function<std::shared_ptr<void>(const Dataset&,
                                                    std::uint64_t span)>;

  SetupSampler(const CorpusFiles& files, Tracer* tracer, Extra extra = {});

  /// Runs one burst and returns the dataset its last repetition loaded.
  std::unique_ptr<Dataset> burst();

  double setup_s() const;
  /// Medians over every repetition, per layer.
  LoadTimes layer_medians() const;

 private:
  CorpusFiles files_;
  Tracer* tracer_;
  Extra extra_;
  std::vector<double> burst_medians_;
  std::vector<LoadTimes> parts_;
};

/// The smallest value; 0 for an empty sample.
inline double smallest(const std::vector<double>& values) {
  return values.empty() ? 0 : *std::min_element(values.begin(), values.end());
}

/// One named measurement in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run hands back to main(): the contract's counters,
/// the metrics for the requested mode, and every correctness failure
/// (each one also counted in `failed`).
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;

  void fail(std::string why);
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

}  // namespace perfbench
