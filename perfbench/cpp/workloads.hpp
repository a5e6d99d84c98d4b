// The three workloads (see perfbench/README.md for why each exists).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "corpus.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 20170412;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::filesystem::path work_dir;   ///< scratch space for followed stores
  std::filesystem::path trace_out;  ///< Chrome trace JSON (traced runs)
};

/// batch-default (threads = 1) and batch-skew (threads = 0: the CLI
/// default, every hardware thread).
RunResult run_batch(const RunConfig& config, const Corpus& corpus,
                    unsigned threads);

/// follow-serve: open-loop writer, StreamingStudy::follow, ReportServer,
/// closed-loop client.
RunResult run_follow(const RunConfig& config, const Corpus& corpus);

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The untraced run's metrics; every workload reports all of them.
extern const std::vector<MetricDef> kEndToEndMetrics;
/// The traced run's metrics; a layer that does no work on a workload (or
/// a counter the host lacks) reports 0.
extern const std::vector<MetricDef> kPerLayerMetrics;

}  // namespace perfbench
