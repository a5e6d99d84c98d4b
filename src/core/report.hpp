// The analysis report: every quantity the paper's evaluation section
// derives from the darknet/inventory correlation, in one structured
// result. Populated by AnalysisPipeline; consumed by the bench harness
// (one binary per table/figure), the examples, and the test suite.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/stats.hpp"
#include "analysis/timeseries.hpp"
#include "inventory/database.hpp"
#include "net/protocol.hpp"
#include "util/flat_hash.hpp"

namespace iotscope::core {

/// Upper bound on named scan services tracked per device (spec rows + the
/// residual bucket; currently 15).
inline constexpr std::size_t kMaxScanServices = 16;

/// Per-device traffic ledger accumulated by the correlation engine.
struct DeviceTraffic {
  std::uint32_t device = 0;  ///< index into the inventory
  int first_interval = -1;   ///< hour of first observed packet
  int last_interval = -1;    ///< hour of last observed packet
  std::uint64_t packets = 0;
  /// TCP scanning packets per named service (row-aligned with the scan
  /// service table); drives campaign clustering.
  std::array<std::uint64_t, kMaxScanServices> scan_by_service{};

  // Per-class packet counts (the classifier's taxonomy).
  std::uint64_t tcp_scan = 0;
  std::uint64_t tcp_backscatter = 0;
  std::uint64_t icmp_scan = 0;
  std::uint64_t icmp_backscatter = 0;
  std::uint64_t udp = 0;
  std::uint64_t tcp_other = 0;
  std::uint64_t icmp_other = 0;

  std::uint8_t days_active_mask = 0;  ///< bit d set if active on day d

  std::uint64_t backscatter() const noexcept {
    return tcp_backscatter + icmp_backscatter;
  }
  std::uint64_t tcp() const noexcept {
    return tcp_scan + tcp_backscatter + tcp_other;
  }
  std::uint64_t icmp() const noexcept {
    return icmp_scan + icmp_backscatter + icmp_other;
  }
  int days_active() const noexcept { return __builtin_popcount(days_active_mask); }

  /// Index of the service receiving most of this device's scan packets;
  /// -1 if the device never scanned.
  int dominant_scan_service() const noexcept {
    int best = -1;
    std::uint64_t best_packets = 0;
    for (std::size_t s = 0; s < scan_by_service.size(); ++s) {
      if (scan_by_service[s] > best_packets) {
        best_packets = scan_by_service[s];
        best = static_cast<int>(s);
      }
    }
    return best;
  }

  bool operator==(const DeviceTraffic&) const = default;
};

/// Behavioural profile of a non-inventory ("unknown") source that emitted
/// sustained traffic — the raw material for the fuzzy IoT fingerprinting
/// of Discussion §VI. Only sources above a per-hour activity floor are
/// profiled, so one-packet background radiation never accumulates here.
struct UnknownSourceProfile {
  net::Ipv4Address ip;
  std::uint64_t packets = 0;
  std::uint64_t tcp_syn_packets = 0;
  std::uint64_t iot_port_packets = 0;  ///< toward IoT-associated ports
  int first_interval = -1;
  int last_interval = -1;
};

/// A (packets, distinct destination IPs, distinct destination ports)
/// triple of hourly series — the axes of Figures 5 and 9.
struct TrafficSeries {
  analysis::HourlySeries packets;
  analysis::HourlySeries dst_ips;
  analysis::HourlySeries dst_ports;
};

/// Per-realm split of any accumulator.
template <typename T>
struct ByRealm {
  T consumer;
  T cps;

  T& of(bool is_consumer) noexcept { return is_consumer ? consumer : cps; }
  const T& of(bool is_consumer) const noexcept {
    return is_consumer ? consumer : cps;
  }
};

/// One row of the scanned-services table (Table V).
struct ScanServiceRow {
  std::string name;
  std::uint64_t packets = 0;
  std::uint64_t consumer_packets = 0;
  std::size_t consumer_devices = 0;
  std::size_t cps_devices = 0;

  bool operator==(const ScanServiceRow&) const = default;
};

/// One row of the UDP port table (Table IV).
struct UdpPortRow {
  net::Port port = 0;
  std::uint64_t packets = 0;
  std::size_t devices = 0;

  bool operator==(const UdpPortRow&) const = default;
};

/// An inferred DoS attack interval (Section IV-B1's narrative).
struct DosSpike {
  int interval = 0;
  double backscatter_packets = 0;
  std::uint32_t top_victim = 0;   ///< inventory index of the dominant victim
  double top_victim_share = 0.0;  ///< its share of the interval's packets
};

/// The full analysis result.
struct Report {
  // ---- correlation / inference (Section III) ----
  std::uint64_t total_packets = 0;       ///< packets attributed to IoT devices
  std::uint64_t unattributed_packets = 0;  ///< darknet packets from unknown IPs
  std::vector<DeviceTraffic> devices;    ///< one entry per discovered device
  /// Inventory index -> position in `devices` (use traffic_for()).
  util::FlatMap<std::uint32_t, std::uint32_t> device_index;
  std::size_t discovered_consumer = 0;
  std::size_t discovered_cps = 0;
  /// Cumulative devices discovered by end of each day, per realm (Fig 2).
  std::array<std::size_t, 6> cumulative_by_day_consumer{};
  std::array<std::size_t, 6> cumulative_by_day_cps{};
  /// Devices active per day (any traffic), total over days / 6 gives the
  /// paper's "10,889 unsolicited IoT devices daily".
  std::array<std::size_t, 6> active_by_day_consumer{};
  std::array<std::size_t, 6> active_by_day_cps{};

  // ---- protocol mix (Fig 4) ----
  ByRealm<std::uint64_t> tcp_packets{};
  ByRealm<std::uint64_t> udp_packets{};
  ByRealm<std::uint64_t> icmp_packets{};

  // ---- UDP characterization (Fig 5, Table IV) ----
  ByRealm<TrafficSeries> udp_series;
  std::vector<UdpPortRow> udp_top_ports;  ///< descending by packets (top 32)
  std::uint64_t udp_total_packets = 0;
  std::size_t udp_device_count = 0;
  std::size_t udp_consumer_devices = 0;
  std::size_t udp_distinct_ports = 0;
  /// Pearson correlation of hourly (#dst ports, #dst IPs) for consumer
  /// devices (the paper reports r = 0.95, p < 0.0001).
  analysis::PearsonResult udp_consumer_port_ip_correlation;

  // ---- backscatter / DoS (Figs 6-8) ----
  ByRealm<analysis::HourlySeries> backscatter_series;
  std::size_t dos_victims = 0;
  std::size_t dos_victims_cps = 0;
  std::uint64_t backscatter_total = 0;
  ByRealm<std::uint64_t> backscatter_packets{};
  std::vector<DosSpike> dos_spikes;  ///< dominant-victim attack intervals
  /// Mann–Whitney U over hourly backscatter (CPS vs consumer).
  analysis::MannWhitneyResult backscatter_mwu;

  // ---- TCP scanning (Fig 9, Table V, Fig 10) ----
  ByRealm<TrafficSeries> scan_series;
  std::uint64_t tcp_scan_total = 0;
  std::size_t scanner_devices = 0;
  std::size_t scanner_consumer_devices = 0;
  std::vector<ScanServiceRow> scan_services;  ///< ordered as in the spec
  /// Hourly packets per named service (row-aligned with scan_services).
  std::vector<analysis::HourlySeries> scan_service_series;
  /// Pearson correlation of hourly (#scanners, packets) — paper finds none.
  analysis::PearsonResult scan_device_packet_correlation;

  // ---- unknown-source profiles (fingerprinting substrate) ----
  std::vector<UnknownSourceProfile> unknown_sources;

  // ---- ICMP scanning ----
  std::uint64_t icmp_scan_total = 0;
  std::size_t icmp_scanner_devices = 0;
  std::uint64_t icmp_scan_consumer_packets = 0;
  std::size_t icmp_scanner_consumer_devices = 0;

  // ---- helpers ----
  const DeviceTraffic* traffic_for(std::uint32_t device) const noexcept {
    const std::uint32_t* index = device_index.find(device);
    return index ? &devices[*index] : nullptr;
  }

  std::size_t discovered_total() const noexcept {
    return discovered_consumer + discovered_cps;
  }
};

}  // namespace iotscope::core
