// Seeded benchmark corpora. Each corpus is a dataset directory exactly as
// `iotscope synth --compress` lays it out (inventory.csv, threats.csv,
// malware/, verdicts.csv, flowtuples/*.iftc) plus the reference rendering
// of its report and a MANIFEST recording a content digest, the commit that
// generated it, and the benchmark's own tally of the records. Generation
// uses only public workload/intel/telescope calls; the measured program
// later sees nothing but these files.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "core/characterize.hpp"
#include "core/malicious.hpp"
#include "core/report.hpp"

namespace perfbench {

/// Which corpus: the bench-default scenario, or the same inventory with
/// one heavy-hitter source emitting 80% of every hour. `smoke` shrinks
/// both to a size that generates and replays in well under a second.
struct CorpusSpec {
  std::string kind;  ///< "default" or "skew"
  std::uint64_t seed = 20170412;
  bool smoke = false;

  /// Directory name under the corpus root (kind, size and seed).
  std::string name() const;
};

/// What any correct report of a corpus attributes, tallied by the
/// benchmark from the generator's in-memory records with a plain hash map
/// over the inventory's addresses. No pipeline code takes part, so a
/// defect shared by every pipeline path, and hence by the reference
/// rendering, still shows.
struct Truth {
  std::uint64_t attributed_packets = 0;    ///< from inventory addresses
  std::uint64_t unattributed_packets = 0;  ///< from every other address
  std::uint64_t consumer_devices = 0;      ///< distinct consumer sources
  std::uint64_t cps_devices = 0;           ///< distinct CPS sources
  /// Order-independent digest over every source device's address,
  /// packets, and first and last hour.
  std::uint64_t device_digest = 0;
};

struct Corpus {
  CorpusFiles files;
  std::string digest;     ///< hex content digest of every corpus file
  std::string commit;     ///< the commit whose build generated the corpus
  std::string reference;  ///< rendered reference report (see render_report)
  Truth truth;
  std::uint64_t records = 0;
  std::uint64_t packets = 0;
  int hours = 0;
};

/// Returns the corpus for `spec` under `root`, reusing an existing one only
/// when its recorded digest matches its files, and generating it (into a
/// temporary directory renamed into place) otherwise. `commit` is recorded
/// as the generating commit of a new corpus.
Corpus ensure_corpus(const CorpusSpec& spec, const std::filesystem::path& root,
                     const std::string& commit);

/// Opens an existing corpus and verifies its digest; throws if it is
/// missing or its files no longer match the manifest.
Corpus open_corpus(const CorpusSpec& spec, const std::filesystem::path& root);

/// The post-report analyses a pass runs: characterize() and
/// analyze_maliciousness() with the CLI's explored quota.
struct PostAnalysis {
  core::CharacterizationReport character;
  core::MaliciousnessReport malicious;
};
PostAnalysis post_analyze(const core::Report& report, const Dataset& data);

/// Inference + traffic + maliciousness renderings, concatenated: the text
/// every pass must reproduce byte for byte.
std::string render_report(const core::Report& report,
                          const PostAnalysis& post, const Dataset& data);

/// Every way `report` disagrees with `truth`, joined by "; " (empty when
/// it agrees). `db` is the inventory the report's device indices name.
std::string truth_mismatch(const core::Report& report,
                           const inventory::IoTDeviceDatabase& db,
                           const Truth& truth);

}  // namespace perfbench
