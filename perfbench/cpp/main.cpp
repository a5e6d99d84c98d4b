// perfbench: the end-to-end benchmark binary. perfbench/run.py
// builds it and calls it twice per run:
//
//   perfbench prepare --workload W --seed N [--smoke] --root DIR
//                     [--commit C]
//       generates (or verifies and reuses) the workload's seeded corpus in
//       a process of its own, so generation never shows in the run's
//       memory high-water mark, and records C as its generating commit;
//   perfbench run --workload W --seed N --seconds S --trace 0|1 [--smoke]
//                 --root DIR [--commit C]
//       measures, checks every output, and prints one JSON result line.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "corpus.hpp"
#include "workloads.hpp"

namespace perfbench {

const std::vector<MetricDef> kEndToEndMetrics = {
    {"setup_s", "s"},          {"analyze_s", "s"},
    {"cpu_s", "s"},            {"freshness_p50_ms", "ms"},
    {"freshness_p90_ms", "ms"}, {"query_p50_us", "us"},
    {"query_p90_us", "us"},
};

const std::vector<MetricDef> kPerLayerMetrics = {
    {"mem.peak_rss_mb", "MiB"},
    {"inventory.load_s", "s"},
    {"intel.load_s", "s"},
    {"telescope.open_s", "s"},
    {"telescope.hour_loaders_s", "s"},
    {"telescope.decode_s", "s"},
    {"telescope.decode_records_per_s", "1/s"},
    {"telescope.decode_packets_per_s", "1/s"},
    {"telescope.decode_instr_per_record", "count"},
    {"pipeline.new_s", "s"},
    {"pipeline.observe_s", "s"},
    {"pipeline.observe_instr_per_record", "count"},
    {"pipeline.finalize_s", "s"},
    {"pipeline.stolen_share", "ratio"},
    {"pipeline.shard_skew_pct", "%"},
    {"core.post_s", "s"},
    {"stream.fold_p50_ms", "ms"},
    {"stream.fold_p90_ms", "ms"},
    {"stream.publish_p50_ms", "ms"},
    {"stream.publish_p90_ms", "ms"},
    {"stream.snapshot_s", "s"},
    {"stream.backlog_max_hours", "count"},
    {"stream.evicted", "count"},
    {"stream.late_hours", "count"},
    {"stream.corrupt_hours", "count"},
    {"serve.handle_p50_us", "us"},
    {"serve.handle_p99_us", "us"},
    {"serve.socket_p50_us", "us"},
    {"serve.cache_hit_share", "ratio"},
    {"serve.query_p99_us", "us"},
    {"serve.qps", "1/s"},
    {"gen.lag_p99_ms", "ms"},
    {"trace.pass_s", "s"},
    {"trace.unattributed_s", "s"},
    {"trace.unattributed_pct", "%"},
    {"trace.overhead_pct", "%"},
};

namespace {

struct Workload {
  const char* corpus_kind;
  bool follow;
  unsigned threads;  ///< batch only; 0 = every hardware thread
};

const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> table = {
      {"batch-default", {"default", false, 1}},
      {"batch-skew", {"skew", false, 0}},
      {"follow-serve", {"default", true, 1}},
  };
  return table;
}

struct Args {
  std::string command;
  std::map<std::string, std::string> values;

  bool has(const std::string& key) const { return values.count(key) != 0; }
  std::string get(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) {
      throw std::invalid_argument("missing --" + key);
    }
    return it->second;
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc < 2) throw std::invalid_argument("missing command");
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      throw std::invalid_argument("unexpected argument '" + std::string(arg) +
                                  "'");
    }
    std::string key(arg.substr(2));
    std::string value;
    if (key == "smoke") {
      value = std::string(1, '1');  // a flag
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("--" + key + " needs a value");
    }
    args.values.insert_or_assign(std::move(key), std::move(value));
  }
  return args;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

int run(const Args& args) {
  const std::string name = args.get("workload");
  const auto workload = workloads().find(name);
  if (workload == workloads().end()) {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  RunConfig config;
  config.seed = std::stoull(args.get("seed"));
  config.smoke = args.has("smoke");
  const std::filesystem::path root = args.get("root");
  const CorpusSpec spec{workload->second.corpus_kind, config.seed,
                        config.smoke};
  const std::string commit = args.has("commit") ? args.get("commit") : "unknown";

  if (args.command == "prepare") {
    const Corpus corpus = ensure_corpus(spec, root / "corpus", commit);
    std::fprintf(stderr, "perfbench: corpus %s digest %s (%llu records, "
                         "%llu packets, %d hours)\n",
                 spec.name().c_str(), corpus.digest.c_str(),
                 static_cast<unsigned long long>(corpus.records),
                 static_cast<unsigned long long>(corpus.packets), corpus.hours);
    return 0;
  }
  if (args.command != "run") {
    throw std::invalid_argument("unknown command '" + args.command + "'");
  }

  config.seconds = std::stod(args.get("seconds"));
  const std::string trace = args.get("trace");
  if (trace != "0" && trace != "1") {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  config.trace = trace == "1";
  config.work_dir = root / "work";
  config.trace_out = root / "traces" /
                     (name + "-s" + std::to_string(config.seed) + ".json");
  const Corpus corpus = open_corpus(spec, root / "corpus");

  const unsigned nproc = std::thread::hardware_concurrency();
  char provenance[1024];
  // corpus_commit names the build that rendered the reference: when it is
  // `commit`, the reference came from the code under test (see corpus.cpp
  // for what still checks it independently).
  std::snprintf(provenance, sizeof provenance,
                "{\"workload\": \"%s\", \"build_type\": \"%s\", \"commit\": "
                "\"%s\", \"nproc\": %u, \"seed\": %llu, \"corpus\": \"%s\", "
                "\"corpus_digest\": \"%s\", \"corpus_commit\": \"%s\", "
                "\"records\": %llu, \"packets\": "
                "%llu, \"hours\": %d, \"seconds\": %g, \"trace\": %d}",
                name.c_str(), PERFBENCH_BUILD_TYPE,
                json_escape(commit).c_str(), nproc,
                static_cast<unsigned long long>(config.seed),
                spec.name().c_str(), corpus.digest.c_str(),
                json_escape(corpus.commit).c_str(),
                static_cast<unsigned long long>(corpus.records),
                static_cast<unsigned long long>(corpus.packets), corpus.hours,
                config.seconds, config.trace ? 1 : 0);
  std::fprintf(stderr, "perfbench: provenance %s\n", provenance);

  RunResult result = workload->second.follow
                         ? run_follow(config, corpus)
                         : run_batch(config, corpus, workload->second.threads);

  // Every metric of the mode, in the declared order. A per-layer metric a
  // workload does not produce reads 0; a missing end-to-end metric or a
  // non-finite value is a failure.
  std::map<std::string, double> produced;
  for (const auto& metric : result.metrics) produced[metric.name] = metric.value;
  const auto& defs = config.trace ? kPerLayerMetrics : kEndToEndMetrics;
  std::string metrics;
  for (const auto& def : defs) {
    double value = 0;
    if (const auto it = produced.find(def.name); it != produced.end()) {
      value = it->second;
    } else if (!config.trace) {
      result.fail(std::string("metric ") + def.name + " was not measured");
    }
    if (!std::isfinite(value)) {
      result.fail(std::string("metric ") + def.name + " is not finite");
      value = 0;
    }
    char entry[256];
    std::snprintf(entry, sizeof entry,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name, value, def.unit);
    metrics += entry;
    std::fprintf(stderr, "perfbench:   %-36s %16.6g %s\n", def.name, value,
                 def.unit);
  }
  for (const auto& failure : result.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", failure.c_str());
  }
  std::printf("# perfbench %s\n", provenance);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
