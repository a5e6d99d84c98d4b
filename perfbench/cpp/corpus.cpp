#include "corpus.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "core/pipeline.hpp"
#include "core/report_text.hpp"
#include "intel/synth.hpp"
#include "net/flow_batch.hpp"
#include "telescope/capture.hpp"
#include "util/io.hpp"
#include "workload/scenario.hpp"
#include "workload/synth.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

/// Corpora kept on disk beside the one in use; older ones are deleted so a
/// sweep over many seeds does not fill the disk.
constexpr std::size_t kKeepCorpora = 4;

/// Thread counts of the two reference pipelines. The measured workloads
/// run at 1 thread (batch-default, follow-serve) and at every hardware
/// thread (batch-skew), so on any machine at least one reference takes a
/// path the measured run does not; both must render the same bytes.
constexpr unsigned kReferenceThreads[] = {1, 3};

/// One source device's term of Truth::device_digest; the digest is the
/// wrapping sum of the terms, so it does not depend on device order.
std::uint64_t device_term(std::uint32_t ip, std::uint64_t packets, int first,
                          int last) {
  std::uint64_t h = ip;
  for (const std::uint64_t v :
       {packets, static_cast<std::uint64_t>(first) << 32 |
                     static_cast<std::uint32_t>(last)}) {
    h = (h ^ v) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 32;
  }
  return h;
}

/// Tallies Truth from records as the generator emits them.
class TruthTally {
 public:
  explicit TruthTally(const workload::Scenario& scenario)
      : scenario_(scenario) {
    const auto& devices = scenario.inventory.devices();
    for (std::size_t i = 0; i < devices.size(); ++i) {
      device_of_.emplace(devices[i].ip.value(), static_cast<std::uint32_t>(i));
    }
  }

  void add(const net::FlowBatch& batch) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::uint32_t ip = batch.src[i].value();
      const std::uint64_t n = batch.pkt_count[i];
      if (device_of_.count(ip) == 0) {
        truth_.unattributed_packets += n;
        continue;
      }
      truth_.attributed_packets += n;
      auto [it, fresh] = sources_.try_emplace(ip);
      Source& source = it->second;
      source.packets += n;
      if (fresh || batch.interval < source.first) source.first = batch.interval;
      if (fresh || batch.interval > source.last) source.last = batch.interval;
    }
  }

  /// The finished tally. Throws if a source device has no plan in the
  /// scenario's ground truth: the generator emitted for a clean device.
  Truth finish() {
    for (const auto& [ip, source] : sources_) {
      const std::uint32_t device = device_of_.at(ip);
      if (scenario_.truth.plan_for(device) == nullptr) {
        throw std::runtime_error("generator emitted records from unplanned "
                                 "device " + std::to_string(device));
      }
      if (scenario_.inventory.devices()[device].is_consumer()) {
        ++truth_.consumer_devices;
      } else {
        ++truth_.cps_devices;
      }
      truth_.device_digest +=
          device_term(ip, source.packets, source.first, source.last);
    }
    return truth_;
  }

 private:
  struct Source {
    std::uint64_t packets = 0;
    int first = 0;
    int last = 0;
  };
  const workload::Scenario& scenario_;
  std::unordered_map<std::uint32_t, std::uint32_t> device_of_;
  std::unordered_map<std::uint32_t, Source> sources_;
  Truth truth_;
};

workload::ScenarioConfig scenario_config(const CorpusSpec& spec) {
  workload::ScenarioConfig config;
  config.seed = spec.seed;
  // The bench-default scale (core::StudyConfig::bench_default): 33,100
  // devices, ~3.1M records over 143 hours.
  config.inventory_scale = spec.smoke ? 0.01 : 0.10;
  config.traffic_scale = spec.smoke ? 0.002 : 0.02;
  if (spec.kind == "skew") {
    // As BM_PipelineSkewed*: the heavy hitter adds share/(1-share) = 4x
    // the base records, so the base traffic is cut to a quarter.
    config.traffic_scale *= 0.25;
    config.heavy_hitter_share = 0.8;
  } else if (spec.kind != "default") {
    throw std::invalid_argument("unknown corpus kind '" + spec.kind + "'");
  }
  return config;
}

CorpusFiles files_in(const fs::path& dir) {
  return CorpusFiles{dir / "inventory.csv", dir / "threats.csv",
                     dir / "malware", dir / "verdicts.csv",
                     dir / "flowtuples"};
}

/// 64-bit content digest over every file under `dir` except the manifest:
/// relative path, size and bytes, in sorted path order.
std::string digest_of(const fs::path& dir) {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().filename() != "MANIFEST") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
  };
  std::vector<char> buffer(1 << 20);
  for (const auto& path : paths) {
    for (const char c : fs::relative(path, dir).generic_string()) {
      mix(static_cast<unsigned char>(c));
    }
    mix(fs::file_size(path));
    std::ifstream in(path, std::ios::binary);
    while (in) {
      in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      const auto n = static_cast<std::size_t>(in.gcount());
      std::size_t i = 0;
      for (; i + 8 <= n; i += 8) {
        std::uint64_t word;
        std::memcpy(&word, buffer.data() + i, 8);
        mix(word);
      }
      for (; i < n; ++i) mix(static_cast<unsigned char>(buffer[i]));
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
  return hex;
}

std::map<std::string, std::string> read_manifest(const fs::path& dir) {
  std::map<std::string, std::string> fields;
  std::ifstream in(dir / "MANIFEST");
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq != std::string::npos) fields[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return fields;
}

/// Opens the corpus in `dir` if its manifest has every field, matches the
/// spec, and records the digest of the files; nullopt otherwise.
std::optional<Corpus> try_open(const CorpusSpec& spec, const fs::path& dir) {
  if (!fs::exists(dir / "MANIFEST")) return std::nullopt;
  auto fields = read_manifest(dir);
  for (const char* key :
       {"spec", "commit", "records", "packets", "hours",
        "truth.attributed_packets", "truth.unattributed_packets",
        "truth.consumer_devices", "truth.cps_devices", "truth.device_digest",
        "digest"}) {
    if (fields[key].empty()) return std::nullopt;
  }
  if (fields["spec"] != spec.name() || fields["digest"] != digest_of(dir)) {
    return std::nullopt;
  }
  Corpus corpus;
  corpus.files = files_in(dir);
  corpus.digest = fields["digest"];
  corpus.commit = fields["commit"];
  corpus.reference = util::read_file(dir / "reference.txt");
  corpus.records = std::stoull(fields["records"]);
  corpus.packets = std::stoull(fields["packets"]);
  corpus.hours = std::stoi(fields["hours"]);
  corpus.truth.attributed_packets = std::stoull(fields["truth.attributed_packets"]);
  corpus.truth.unattributed_packets =
      std::stoull(fields["truth.unattributed_packets"]);
  corpus.truth.consumer_devices = std::stoull(fields["truth.consumer_devices"]);
  corpus.truth.cps_devices = std::stoull(fields["truth.cps_devices"]);
  corpus.truth.device_digest =
      std::stoull(fields["truth.device_digest"], nullptr, 16);
  return corpus;
}

void evict_old_corpora(const fs::path& root, const std::string& keep) {
  std::vector<std::pair<fs::file_time_type, fs::path>> dirs;
  for (const auto& entry : fs::directory_iterator(root)) {
    if (entry.is_directory() && entry.path().filename() != keep) {
      dirs.emplace_back(entry.last_write_time(), entry.path());
    }
  }
  std::sort(dirs.rbegin(), dirs.rend());
  for (std::size_t i = kKeepCorpora - 1; i < dirs.size(); ++i) {
    fs::remove_all(dirs[i].second);
  }
}

void generate(const CorpusSpec& spec, const fs::path& dir,
              const std::string& commit) {
  const auto config = scenario_config(spec);
  const CorpusFiles files = files_in(dir);
  const auto scenario = workload::build_scenario(config);
  scenario.inventory.save_csv(files.inventory);

  // The references fold the in-memory hours as the generator emits them,
  // before any store encode or decode, submitted whole (no loaders), over
  // the inventory as saved to disk.
  const auto db = inventory::IoTDeviceDatabase::load_csv(files.inventory);
  std::vector<std::unique_ptr<core::AnalysisPipeline>> references;
  for (const unsigned threads : kReferenceThreads) {
    core::PipelineOptions options;
    options.threads = threads;
    references.push_back(std::make_unique<core::AnalysisPipeline>(db, options));
  }
  TruthTally tally(scenario);
  telescope::FlowTupleStore store(files.flowtuples);
  store.set_write_format(telescope::StoreFormat::Compressed);
  std::uint64_t records = 0;
  std::uint64_t packets = 0;
  int hours = 0;
  telescope::TelescopeCapture capture(
      telescope::DarknetSpace(config.darknet), [&](net::FlowBatch&& batch) {
        store.put(batch);
        records += batch.size();
        packets += batch.total_packets();
        ++hours;
        tally.add(batch);
        for (auto& reference : references) reference->observe_async(batch);
      });
  workload::synthesize_into(scenario, config, capture);
  const Truth truth = tally.finish();

  intel::ThreatSynthConfig threat_config;
  threat_config.seed ^= spec.seed;
  intel::synthesize_threat_repository(scenario, config, threat_config)
      .save_csv(files.threats);
  intel::MalwareSynthConfig malware_config;
  malware_config.seed ^= spec.seed;
  malware_config.corpus_size = spec.smoke ? 120 : 500;
  const auto malware =
      intel::synthesize_malware_corpus(scenario, config, malware_config);
  malware.database.export_xml(files.malware);
  malware.resolver.save_csv(files.verdicts);

  const auto data = load_dataset(files);
  std::string rendered;
  for (std::size_t r = 0; r < references.size(); ++r) {
    references[r]->drain();
    const core::Report report = references[r]->finalize();
    const std::string label = "the " + std::to_string(kReferenceThreads[r]) +
                              "-thread reference pipeline";
    if (const auto why = truth_mismatch(report, data->db, truth);
        !why.empty()) {
      throw std::runtime_error(label + " disagrees with the generator's "
                               "records: " + why);
    }
    std::string text = render_report(report, post_analyze(report, *data), *data);
    if (r > 0 && text != rendered) {
      throw std::runtime_error(label + " renders another report than the " +
                               std::to_string(kReferenceThreads[0]) +
                               "-thread one");
    }
    rendered = std::move(text);
  }
  util::write_file(dir / "reference.txt", rendered);

  char manifest[1024];
  std::snprintf(manifest, sizeof manifest,
                "spec=%s\ncommit=%s\nrecords=%" PRIu64 "\npackets=%" PRIu64
                "\nhours=%d\ntruth.attributed_packets=%" PRIu64
                "\ntruth.unattributed_packets=%" PRIu64
                "\ntruth.consumer_devices=%" PRIu64
                "\ntruth.cps_devices=%" PRIu64
                "\ntruth.device_digest=%016" PRIx64 "\ndigest=%s\n",
                spec.name().c_str(), commit.c_str(), records, packets, hours,
                truth.attributed_packets, truth.unattributed_packets,
                truth.consumer_devices, truth.cps_devices,
                truth.device_digest, digest_of(dir).c_str());
  util::write_file(dir / "MANIFEST", manifest);
}

}  // namespace

std::string CorpusSpec::name() const {
  return (smoke ? "smoke-" : "") + kind + "-s" + std::to_string(seed);
}

Corpus ensure_corpus(const CorpusSpec& spec, const fs::path& root,
                     const std::string& commit) {
  const fs::path dir = root / spec.name();
  if (auto corpus = try_open(spec, dir)) return *corpus;

  fs::create_directories(root);
  evict_old_corpora(root, spec.name());
  const fs::path staging =
      root / (".staging-" + spec.name() + "-" + std::to_string(::getpid()));
  fs::remove_all(staging);
  fs::create_directories(staging);
  generate(spec, staging, commit);
  fs::remove_all(dir);
  fs::rename(staging, dir);
  if (auto corpus = try_open(spec, dir)) return *corpus;
  throw std::runtime_error("corpus " + dir.string() +
                           " does not match its manifest after generation");
}

Corpus open_corpus(const CorpusSpec& spec, const fs::path& root) {
  if (auto corpus = try_open(spec, root / spec.name())) return *corpus;
  throw std::runtime_error("corpus " + spec.name() + " is missing under " +
                           root.string() + " or its digest does not match");
}

PostAnalysis post_analyze(const core::Report& report, const Dataset& data) {
  PostAnalysis post;
  post.character = core::characterize(report, data.db);
  core::MaliciousnessOptions options;
  options.top_per_realm = static_cast<std::size_t>(
      static_cast<double>(report.discovered_total()) * 0.15);
  post.malicious = core::analyze_maliciousness(
      report, data.db, data.threats, data.malware, data.resolver, options);
  return post;
}

std::string render_report(const core::Report& report,
                          const PostAnalysis& post, const Dataset& data) {
  return core::render_inference_report(report, post.character, data.db) +
         "\n" + core::render_traffic_report(report, data.db) + "\n" +
         core::render_maliciousness_report(post.malicious);
}

std::string truth_mismatch(const core::Report& report,
                           const inventory::IoTDeviceDatabase& db,
                           const Truth& truth) {
  Truth seen;
  seen.attributed_packets = report.total_packets;
  seen.unattributed_packets = report.unattributed_packets;
  seen.consumer_devices = report.discovered_consumer;
  seen.cps_devices = report.discovered_cps;
  for (const auto& device : report.devices) {
    seen.device_digest += device_term(db.devices()[device.device].ip.value(),
                                      device.packets, device.first_interval,
                                      device.last_interval);
  }
  std::string why;
  const auto compare = [&why](const char* name, std::uint64_t got,
                              std::uint64_t want) {
    if (got == want) return;
    if (!why.empty()) why += "; ";
    why += std::string(name) + " " + std::to_string(got) + ", want " +
           std::to_string(want);
  };
  compare("attributed packets", seen.attributed_packets,
          truth.attributed_packets);
  compare("unattributed packets", seen.unattributed_packets,
          truth.unattributed_packets);
  compare("consumer devices", seen.consumer_devices, truth.consumer_devices);
  compare("CPS devices", seen.cps_devices, truth.cps_devices);
  compare("device ledger digest", seen.device_digest, truth.device_digest);
  return why;
}

}  // namespace perfbench
