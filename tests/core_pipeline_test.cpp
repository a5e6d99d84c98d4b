// Deterministic pipeline tests over hand-crafted inventories and flows —
// exact expected ledgers, series, and roll-ups (no randomness).
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/characterize.hpp"
#include "workload/spec.hpp"

namespace iotscope::core {
namespace {

using inventory::ConsumerType;
using inventory::DeviceCategory;
using inventory::DeviceRecord;
using inventory::IoTDeviceDatabase;
using net::Ipv4Address;

/// Two consumer devices, one CPS device, known countries/ISPs.
IoTDeviceDatabase tiny_inventory() {
  IoTDeviceDatabase db;
  const auto& catalog = db.catalog();
  const auto ru = catalog.country_id("Russian Federation");
  const auto cn = catalog.country_id("China");
  const auto er = db.add_isp("JSC ER-Telecom", ru);
  const auto ct = db.add_isp("China Telecom", cn);

  DeviceRecord router;
  router.ip = Ipv4Address::from_octets(95, 1, 1, 1);
  router.category = DeviceCategory::Consumer;
  router.consumer_type = ConsumerType::Router;
  router.country = ru;
  router.isp = er;
  db.add_device(router);

  DeviceRecord camera;
  camera.ip = Ipv4Address::from_octets(95, 1, 1, 2);
  camera.category = DeviceCategory::Consumer;
  camera.consumer_type = ConsumerType::IpCamera;
  camera.country = ru;
  camera.isp = er;
  db.add_device(camera);

  DeviceRecord plc;
  plc.ip = Ipv4Address::from_octets(112, 2, 2, 2);
  plc.category = DeviceCategory::Cps;
  plc.services = {0, 4};  // Telvent + Ethernet/IP
  plc.country = cn;
  plc.isp = ct;
  db.add_device(plc);
  return db;
}

net::FlowTuple flow(Ipv4Address src, net::Protocol proto, std::uint8_t flags,
                    net::Port dst_port, std::uint64_t count,
                    std::uint32_t dst_low = 1) {
  net::FlowTuple t;
  t.src = src;
  t.dst = Ipv4Address(0x0A000000u + dst_low);
  t.protocol = proto;
  t.tcp_flags = flags;
  t.dst_port = dst_port;
  t.src_port = proto == net::Protocol::Icmp ? dst_port : net::Port{40000};
  t.packet_count = count;
  return t;
}

class PipelineTest : public ::testing::Test {
 protected:
  IoTDeviceDatabase db_ = tiny_inventory();
  const Ipv4Address router_ = Ipv4Address::from_octets(95, 1, 1, 1);
  const Ipv4Address camera_ = Ipv4Address::from_octets(95, 1, 1, 2);
  const Ipv4Address plc_ = Ipv4Address::from_octets(112, 2, 2, 2);
  const Ipv4Address unknown_ = Ipv4Address::from_octets(8, 8, 8, 8);

  net::HourlyFlows hour(int interval, std::vector<net::FlowTuple> records) {
    net::HourlyFlows flows;
    flows.interval = interval;
    flows.start_time = util::AnalysisWindow::interval_start(interval);
    flows.records = std::move(records);
    return flows;
  }
};

TEST_F(PipelineTest, CorrelationAttributesAndFiltersUnknownSources) {
  AnalysisPipeline pipeline(db_);
  pipeline.observe(hour(0, {
      flow(router_, net::Protocol::Tcp, net::kSyn, 23, 10),
      flow(unknown_, net::Protocol::Tcp, net::kSyn, 23, 99),
  }));
  const auto report = pipeline.finalize();
  EXPECT_EQ(report.total_packets, 10u);
  EXPECT_EQ(report.unattributed_packets, 99u);
  EXPECT_EQ(report.discovered_total(), 1u);
  EXPECT_EQ(report.discovered_consumer, 1u);
  const auto* ledger = report.traffic_for(0);
  ASSERT_NE(ledger, nullptr);
  EXPECT_EQ(ledger->tcp_scan, 10u);
  EXPECT_EQ(ledger->first_interval, 0);
}

TEST_F(PipelineTest, ClassCountersPerLedger) {
  AnalysisPipeline pipeline(db_);
  pipeline.observe(hour(2, {
      flow(plc_, net::Protocol::Tcp, net::kSyn, 22, 5),
      flow(plc_, net::Protocol::Tcp, net::kSyn | net::kAck, 1234, 7),
      flow(plc_, net::Protocol::Tcp, net::kRst, 1234, 3),
      flow(plc_, net::Protocol::Tcp, net::kAck, 80, 2),
      flow(plc_, net::Protocol::Udp, 0, 37547, 11),
      flow(plc_, net::Protocol::Icmp, 0,
           static_cast<net::Port>(net::IcmpType::EchoRequest), 4),
      flow(plc_, net::Protocol::Icmp, 0,
           static_cast<net::Port>(net::IcmpType::EchoReply), 6),
  }));
  const auto report = pipeline.finalize();
  const auto* ledger = report.traffic_for(2);
  ASSERT_NE(ledger, nullptr);
  EXPECT_EQ(ledger->tcp_scan, 5u);
  EXPECT_EQ(ledger->tcp_backscatter, 10u);  // SYN-ACK + RST
  EXPECT_EQ(ledger->tcp_other, 2u);
  EXPECT_EQ(ledger->udp, 11u);
  EXPECT_EQ(ledger->icmp_scan, 4u);
  EXPECT_EQ(ledger->icmp_backscatter, 6u);
  EXPECT_EQ(ledger->backscatter(), 16u);
  EXPECT_EQ(ledger->packets, 38u);
  EXPECT_EQ(ledger->tcp(), 17u);
  EXPECT_EQ(ledger->icmp(), 10u);
  // Realm roll-ups (all CPS here).
  EXPECT_EQ(report.tcp_packets.cps, 17u);
  EXPECT_EQ(report.udp_packets.cps, 11u);
  EXPECT_EQ(report.icmp_packets.cps, 10u);
  EXPECT_EQ(report.tcp_packets.consumer, 0u);
}

TEST_F(PipelineTest, DiscoveryCurveUsesFirstInterval) {
  AnalysisPipeline pipeline(db_);
  pipeline.observe(hour(0, {flow(router_, net::Protocol::Tcp, net::kSyn, 23, 1)}));
  pipeline.observe(hour(30, {flow(camera_, net::Protocol::Udp, 0, 53, 1)}));
  pipeline.observe(
      hour(120, {flow(plc_, net::Protocol::Tcp, net::kSyn, 445, 1),
                 flow(router_, net::Protocol::Tcp, net::kSyn, 23, 1)}));
  const auto report = pipeline.finalize();
  // Day 0: router. Day 1 (hour 30): camera. Day 5 (hour 120): plc.
  EXPECT_EQ(report.cumulative_by_day_consumer[0], 1u);
  EXPECT_EQ(report.cumulative_by_day_consumer[1], 2u);
  EXPECT_EQ(report.cumulative_by_day_consumer[5], 2u);
  EXPECT_EQ(report.cumulative_by_day_cps[4], 0u);
  EXPECT_EQ(report.cumulative_by_day_cps[5], 1u);
  // Daily activity: router active on days 0 and 5.
  EXPECT_EQ(report.active_by_day_consumer[0], 1u);
  EXPECT_EQ(report.active_by_day_consumer[5], 1u);
  const auto* router_ledger = report.traffic_for(0);
  EXPECT_EQ(router_ledger->days_active(), 2);
}

TEST_F(PipelineTest, UdpPortTableAndDistinctDeviceCounts) {
  AnalysisPipeline pipeline(db_);
  pipeline.observe(hour(0, {
      flow(router_, net::Protocol::Udp, 0, 37547, 20),
      flow(camera_, net::Protocol::Udp, 0, 37547, 5),
      flow(camera_, net::Protocol::Udp, 0, 137, 8),
  }));
  // Same devices hit 37547 again next hour: device counts must not double.
  pipeline.observe(hour(1, {
      flow(router_, net::Protocol::Udp, 0, 37547, 2),
  }));
  const auto report = pipeline.finalize();
  ASSERT_GE(report.udp_top_ports.size(), 2u);
  EXPECT_EQ(report.udp_top_ports[0].port, 37547);
  EXPECT_EQ(report.udp_top_ports[0].packets, 27u);
  EXPECT_EQ(report.udp_top_ports[0].devices, 2u);
  EXPECT_EQ(report.udp_top_ports[1].port, 137);
  EXPECT_EQ(report.udp_top_ports[1].devices, 1u);
  EXPECT_EQ(report.udp_total_packets, 35u);
  EXPECT_EQ(report.udp_device_count, 2u);
  EXPECT_EQ(report.udp_consumer_devices, 2u);
  EXPECT_EQ(report.udp_distinct_ports, 2u);
}

TEST_F(PipelineTest, UdpSeriesCountsDistinctDestinationsPerHour) {
  AnalysisPipeline pipeline(db_);
  pipeline.observe(hour(0, {
      flow(router_, net::Protocol::Udp, 0, 100, 1, /*dst_low=*/1),
      flow(router_, net::Protocol::Udp, 0, 100, 1, /*dst_low=*/2),
      flow(router_, net::Protocol::Udp, 0, 200, 1, /*dst_low=*/2),
  }));
  const auto report = pipeline.finalize();
  EXPECT_DOUBLE_EQ(report.udp_series.consumer.packets.at(0), 3.0);
  EXPECT_DOUBLE_EQ(report.udp_series.consumer.dst_ips.at(0), 2.0);
  EXPECT_DOUBLE_EQ(report.udp_series.consumer.dst_ports.at(0), 2.0);
  EXPECT_DOUBLE_EQ(report.udp_series.cps.packets.at(0), 0.0);
}

TEST_F(PipelineTest, ScanServiceAttributionByPort) {
  AnalysisPipeline pipeline(db_);
  pipeline.observe(hour(0, {
      flow(router_, net::Protocol::Tcp, net::kSyn, 23, 100),
      flow(router_, net::Protocol::Tcp, net::kSyn, 2323, 10),
      flow(plc_, net::Protocol::Tcp, net::kSyn, 23, 40),
      flow(camera_, net::Protocol::Tcp, net::kSyn, 7547, 30),
      flow(camera_, net::Protocol::Tcp, net::kSyn, 12345, 7),  // "Other"
  }));
  const auto report = pipeline.finalize();
  const auto telnet = static_cast<std::size_t>(
      workload::scan_service_index("Telnet"));
  EXPECT_EQ(report.scan_services[telnet].packets, 150u);
  EXPECT_EQ(report.scan_services[telnet].consumer_packets, 110u);
  EXPECT_EQ(report.scan_services[telnet].consumer_devices, 1u);
  EXPECT_EQ(report.scan_services[telnet].cps_devices, 1u);
  const auto cwmp = static_cast<std::size_t>(
      workload::scan_service_index("CWMP"));
  EXPECT_EQ(report.scan_services[cwmp].packets, 30u);
  const auto other = static_cast<std::size_t>(
      workload::scan_service_index("Other"));
  EXPECT_EQ(report.scan_services[other].packets, 7u);
  EXPECT_EQ(report.tcp_scan_total, 187u);
  EXPECT_EQ(report.scanner_devices, 3u);
  EXPECT_EQ(report.scanner_consumer_devices, 2u);
  // Per-service hourly series align with totals.
  EXPECT_DOUBLE_EQ(report.scan_service_series[telnet].at(0), 150.0);
}

TEST_F(PipelineTest, DosSpikeDetectionFindsDominantVictim) {
  AnalysisPipeline pipeline(db_);
  // Low-level backscatter everywhere, a massive single-victim spike at 10.
  for (int h = 0; h < 20; ++h) {
    std::vector<net::FlowTuple> records = {
        flow(camera_, net::Protocol::Tcp, net::kSyn | net::kAck, 80, 5)};
    if (h == 10) {
      records.push_back(
          flow(plc_, net::Protocol::Tcp, net::kSyn | net::kAck, 44818, 5000));
    }
    pipeline.observe(hour(h, std::move(records)));
  }
  const auto report = pipeline.finalize();
  ASSERT_EQ(report.dos_spikes.size(), 1u);
  EXPECT_EQ(report.dos_spikes[0].interval, 10);
  EXPECT_EQ(report.dos_spikes[0].top_victim, 2u);  // the PLC's index
  EXPECT_GT(report.dos_spikes[0].top_victim_share, 0.99);
  EXPECT_EQ(report.dos_victims, 2u);
  EXPECT_EQ(report.dos_victims_cps, 1u);
  EXPECT_EQ(report.backscatter_packets.cps, 5000u);
  EXPECT_EQ(report.backscatter_packets.consumer, 100u);
}

TEST_F(PipelineTest, FinalizeIsIdempotent) {
  AnalysisPipeline pipeline(db_);
  pipeline.observe(hour(0, {flow(router_, net::Protocol::Tcp, net::kSyn, 23, 3)}));
  const auto a = pipeline.finalize();
  const auto b = pipeline.finalize();
  EXPECT_EQ(a.total_packets, b.total_packets);
  EXPECT_EQ(a.discovered_total(), b.discovered_total());
}

// ---------------- characterization over the same tiny inventory ----------

TEST_F(PipelineTest, CharacterizeJoinsCountryIspTypeProtocol) {
  AnalysisPipeline pipeline(db_);
  pipeline.observe(hour(0, {
      flow(router_, net::Protocol::Tcp, net::kSyn, 23, 1),
      flow(camera_, net::Protocol::Tcp, net::kSyn, 23, 1),
      flow(plc_, net::Protocol::Tcp, net::kSyn, 23, 1),
  }));
  const auto report = pipeline.finalize();
  const auto character = characterize(report, db_);

  EXPECT_EQ(character.countries_with_compromised, 2u);
  ASSERT_FALSE(character.by_country_compromised.empty());
  EXPECT_EQ(db_.country_name(character.by_country_compromised[0].country),
            "Russian Federation");
  EXPECT_EQ(character.by_country_compromised[0].compromised_consumer, 2u);
  EXPECT_DOUBLE_EQ(character.by_country_compromised[0].pct_compromised(),
                   100.0);

  ASSERT_EQ(character.consumer_isps.size(), 1u);
  EXPECT_EQ(db_.isp_name(character.consumer_isps[0].isp), "JSC ER-Telecom");
  EXPECT_EQ(character.consumer_isps[0].devices, 2u);
  ASSERT_EQ(character.cps_isps.size(), 1u);
  EXPECT_EQ(db_.isp_name(character.cps_isps[0].isp), "China Telecom");

  EXPECT_EQ(character.consumer_types[static_cast<std::size_t>(
                ConsumerType::Router)], 1u);
  EXPECT_EQ(character.consumer_types[static_cast<std::size_t>(
                ConsumerType::IpCamera)], 1u);

  // The PLC supports two protocols; both counted (non-exclusive).
  ASSERT_EQ(character.cps_protocols.size(), 2u);
  EXPECT_EQ(character.cps_protocols_in_use, 2u);
}

TEST_F(PipelineTest, DevicesWithNoTrafficAreNotDiscovered) {
  AnalysisPipeline pipeline(db_);
  pipeline.observe(hour(0, {flow(plc_, net::Protocol::Udp, 0, 53, 1)}));
  const auto report = pipeline.finalize();
  EXPECT_EQ(report.discovered_total(), 1u);
  EXPECT_EQ(report.traffic_for(0), nullptr);
  EXPECT_EQ(report.traffic_for(1), nullptr);
  EXPECT_NE(report.traffic_for(2), nullptr);
}

// ---------------- cross-hour folds under every scheduler ----------------
//
// The distinct-device counts per UDP port and per scan service are kept
// at fan-in, from each hour's (key, device) pairs of every worker
// partial. These run the hand-built hours at {1, 4} threads under the
// morsel-stealing and task-graph schedulers, where one device's records
// can land in several partials.

struct SchedulerCell {
  unsigned threads;
  ShardScheduler scheduler;
};

constexpr SchedulerCell kFoldCells[] = {
    {1, ShardScheduler::Stealing},
    {4, ShardScheduler::Stealing},
    {1, ShardScheduler::Graph},
    {4, ShardScheduler::Graph},
};

Report run_cell(const IoTDeviceDatabase& db, const SchedulerCell& cell,
                const std::vector<net::HourlyFlows>& hours) {
  PipelineOptions options;
  options.threads = cell.threads;
  options.scheduler = cell.scheduler;
  AnalysisPipeline pipeline(db, options);
  for (const auto& flows : hours) {
    net::FlowBatch batch;
    batch.assign_rows(flows);
    pipeline.observe_async(std::move(batch));
  }
  return pipeline.finalize();
}

TEST_F(PipelineTest, UdpTopPortsCutAtRank32OrdersTiesByPort) {
  // 28 ports with distinct totals (ranks 1..28; one pair tied at the
  // top), then 12 ports tied at 500 packets (ranks 29..40) straddling
  // the 32-row cut, then one straggler. Every port's packets are split
  // between the router (hour 0) and the camera (hour 1), and the tied
  // ports are sent in scrambled order.
  struct Expected {
    net::Port port;
    std::uint64_t packets;
  };
  std::vector<Expected> all;
  std::vector<net::FlowTuple> hour0, hour1;
  const auto send = [&](net::Port port, std::uint64_t packets) {
    all.push_back({port, packets});
    hour0.push_back(
        flow(router_, net::Protocol::Udp, 0, port, packets - 200));
    hour1.push_back(flow(camera_, net::Protocol::Udp, 0, port, 200));
  };
  send(3001, 1000);
  send(3000, 1000);
  for (net::Port i = 2; i < 28; ++i) send(3000 + i, 1000 - 10 * i);
  for (const net::Port port : {4011, 4003, 4007, 4001, 4010, 4005, 4000, 4009,
                               4002, 4008, 4004, 4006}) {
    send(port, 500);
  }
  send(2000, 250);
  std::sort(all.begin(), all.end(), [](const Expected& a, const Expected& b) {
    if (a.packets != b.packets) return a.packets > b.packets;
    return a.port < b.port;
  });
  all.resize(32);

  for (const SchedulerCell& cell : kFoldCells) {
    SCOPED_TRACE(testing::Message() << cell.threads << " threads, scheduler "
                                    << static_cast<int>(cell.scheduler));
    const auto report =
        run_cell(db_, cell, {hour(0, hour0), hour(1, hour1)});
    ASSERT_EQ(report.udp_top_ports.size(), 32u);
    for (std::size_t r = 0; r < 32; ++r) {
      EXPECT_EQ(report.udp_top_ports[r].port, all[r].port) << "rank " << r;
      EXPECT_EQ(report.udp_top_ports[r].packets, all[r].packets);
      EXPECT_EQ(report.udp_top_ports[r].devices, 2u);
    }
    EXPECT_EQ(report.udp_top_ports[0].port, 3000);
    EXPECT_EQ(report.udp_top_ports[1].port, 3001);
    // The cut keeps the four lowest-numbered of the twelve tied ports.
    EXPECT_EQ(report.udp_top_ports[28].port, 4000);
    EXPECT_EQ(report.udp_top_ports[31].port, 4003);
    EXPECT_EQ(report.udp_distinct_ports, 41u);
  }
}

TEST_F(PipelineTest, DeviceSplitAcrossMorselsAndHoursCountsOnce) {
  // The router sends 3,000 UDP records to one port and 3,000 telnet
  // scans in each of two hours: 6,000 records an hour, so its one
  // partition bucket spans three 2,048-record morsels that different
  // workers may claim, and each hour may put it in different partials.
  // Its port row and its service row must still count it once — a
  // per-partial count would see it up to six times.
  static_assert(kMorselRecords < 3000);
  const auto hour_of = [&](int interval) {
    std::vector<net::FlowTuple> records;
    for (std::uint32_t i = 0; i < 3000; ++i) {
      records.push_back(flow(router_, net::Protocol::Udp, 0, 5353, 1, i));
      records.push_back(
          flow(router_, net::Protocol::Tcp, net::kSyn, 23, 1, i));
    }
    return hour(interval, std::move(records));
  };
  auto second = hour_of(1);
  second.records.push_back(flow(plc_, net::Protocol::Tcp, net::kSyn, 23, 1));
  const auto telnet =
      static_cast<std::size_t>(workload::scan_service_index("Telnet"));

  for (const SchedulerCell& cell : kFoldCells) {
    SCOPED_TRACE(testing::Message() << cell.threads << " threads, scheduler "
                                    << static_cast<int>(cell.scheduler));
    const auto report = run_cell(db_, cell, {hour_of(0), second});
    ASSERT_EQ(report.udp_top_ports.size(), 1u);
    EXPECT_EQ(report.udp_top_ports[0].port, 5353);
    EXPECT_EQ(report.udp_top_ports[0].packets, 6000u);
    EXPECT_EQ(report.udp_top_ports[0].devices, 1u);
    EXPECT_EQ(report.scan_services[telnet].packets, 6001u);
    EXPECT_EQ(report.scan_services[telnet].consumer_devices, 1u);
    EXPECT_EQ(report.scan_services[telnet].cps_devices, 1u);

    // One ledger, discovered first, holding both hours.
    ASSERT_EQ(report.devices.size(), 2u);
    EXPECT_EQ(report.devices[0].device, 0u);
    EXPECT_EQ(report.devices[1].device, 2u);
    const auto* router = report.traffic_for(0);
    ASSERT_NE(router, nullptr);
    EXPECT_EQ(router->packets, 12000u);
    EXPECT_EQ(router->udp, 6000u);
    EXPECT_EQ(router->tcp_scan, 6000u);
    EXPECT_EQ(router->first_interval, 0);
    EXPECT_EQ(router->last_interval, 1);
    EXPECT_EQ(report.udp_device_count, 1u);
    EXPECT_EQ(report.scanner_devices, 2u);
  }
}

}  // namespace
}  // namespace iotscope::core
