// Exhaustive tests of the darknet traffic taxonomy.
#include "core/classifier.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>

namespace iotscope::core {
namespace {

net::FlowTuple tcp_flow(std::uint8_t flags) {
  net::FlowTuple t;
  t.protocol = net::Protocol::Tcp;
  t.tcp_flags = flags;
  return t;
}

net::FlowTuple icmp_flow(net::IcmpType type) {
  net::FlowTuple t;
  t.protocol = net::Protocol::Icmp;
  t.src_port = static_cast<net::Port>(type);
  return t;
}

// ctest lists each parameterized case under its parameter as gtest prints
// it. The default printer dumps a struct's raw bytes, padding included,
// which made these names change from run to run; each case instead
// prints the fixed name it is listed under (an earlier byte dump).
struct TcpCase {
  std::uint8_t flags;
  FlowClass expected;
  const char* name;
};

void PrintTo(const TcpCase& c, std::ostream* os) { *os << c.name; }

class TcpTaxonomyTest : public ::testing::TestWithParam<TcpCase> {};

TEST_P(TcpTaxonomyTest, ClassifiesFlagCombination) {
  const auto& param = GetParam();
  EXPECT_EQ(classify(tcp_flow(param.flags)), param.expected)
      << net::tcp_flags_to_string(param.flags);
}

INSTANTIATE_TEST_SUITE_P(
    FlagCombos, TcpTaxonomyTest,
    ::testing::Values(
        TcpCase{net::kSyn, FlowClass::TcpScan,
                "8-byte object <02-00 01-1B 00-00 00-00>"},
        TcpCase{net::kSyn | net::kPsh, FlowClass::TcpScan,
                "8-byte object <0A-00 04-00 00-00 00-00>"},
        TcpCase{net::kSyn | net::kUrg, FlowClass::TcpScan,
                "8-byte object <22-FF 48-00 00-00 00-00>"},
        TcpCase{net::kSyn | net::kAck, FlowClass::TcpBackscatter,
                "8-byte object <12-FF 70-00 01-00 00-00>"},
        TcpCase{net::kRst, FlowClass::TcpBackscatter,
                "8-byte object <04-00 00-00 01-00 00-00>"},
        TcpCase{net::kRst | net::kAck, FlowClass::TcpBackscatter,
                "8-byte object <14-00 00-00 01-00 00-00>"},
        TcpCase{net::kSyn | net::kRst, FlowClass::TcpBackscatter,
                "8-byte object <06-00 00-00 01-00 00-00>"},
        TcpCase{net::kAck, FlowClass::TcpOther,
                "8-byte object <10-00 00-00 05-00 00-00>"},
        TcpCase{net::kAck | net::kPsh, FlowClass::TcpOther,
                "8-byte object <18-00 01-1B 05-00 00-00>"},
        TcpCase{net::kFin | net::kAck, FlowClass::TcpOther,
                "8-byte object <11-00 04-00 05-00 00-00>"},
        TcpCase{net::kSyn | net::kFin, FlowClass::TcpOther,
                "8-byte object <03-DA 48-00 05-00 00-00>"},  // anomalous
        TcpCase{0, FlowClass::TcpOther,
                "8-byte object <00-DA 55-00 05-00 00-00>"}));

TEST(Taxonomy, UdpAlwaysUdp) {
  net::FlowTuple t;
  t.protocol = net::Protocol::Udp;
  t.dst_port = 37547;
  EXPECT_EQ(classify(t), FlowClass::Udp);
}

struct IcmpCase {
  net::IcmpType type;
  FlowClass expected;
  const char* name;
};

void PrintTo(const IcmpCase& c, std::ostream* os) { *os << c.name; }

class IcmpTaxonomyTest : public ::testing::TestWithParam<IcmpCase> {};

TEST_P(IcmpTaxonomyTest, ClassifiesIcmpType) {
  const auto& param = GetParam();
  EXPECT_EQ(classify(icmp_flow(param.type)), param.expected)
      << net::to_string(param.type);
}

INSTANTIATE_TEST_SUITE_P(
    Types, IcmpTaxonomyTest,
    ::testing::Values(
        IcmpCase{net::IcmpType::EchoRequest, FlowClass::IcmpScan,
                 "8-byte object <08-25 15-62 02-00 00-00>"},
        IcmpCase{net::IcmpType::EchoReply, FlowClass::IcmpBackscatter,
                 "8-byte object <00-19 EF-6A 03-00 00-00>"},
        IcmpCase{net::IcmpType::DestinationUnreachable,
                 FlowClass::IcmpBackscatter,
                 "8-byte object <03-1D 15-62 03-00 00-00>"},
        IcmpCase{net::IcmpType::SourceQuench, FlowClass::IcmpBackscatter,
                 "8-byte object <04-19 EF-6A 03-00 00-00>"},
        IcmpCase{net::IcmpType::Redirect, FlowClass::IcmpBackscatter,
                 "8-byte object <05-00 00-00 03-00 00-00>"},
        IcmpCase{net::IcmpType::TimeExceeded, FlowClass::IcmpBackscatter,
                 "8-byte object <0B-FF FF-FF 03-00 00-00>"},
        IcmpCase{net::IcmpType::ParameterProblem, FlowClass::IcmpBackscatter,
                 "8-byte object <0C-00 00-00 03-00 00-00>"},
        IcmpCase{net::IcmpType::TimestampReply, FlowClass::IcmpBackscatter,
                 "8-byte object <0E-5C 15-62 03-00 00-00>"},
        IcmpCase{net::IcmpType::InformationReply, FlowClass::IcmpBackscatter,
                 "8-byte object <10-00 00-00 03-00 00-00>"},
        IcmpCase{net::IcmpType::AddressMaskReply, FlowClass::IcmpBackscatter,
                 "8-byte object <12-3A 15-62 03-00 00-00>"},
        IcmpCase{net::IcmpType::TimestampRequest, FlowClass::IcmpOther,
                 "8-byte object <0D-1D 15-62 06-00 00-00>"},
        IcmpCase{net::IcmpType::InformationRequest, FlowClass::IcmpOther,
                 "8-byte object <0F-5F A7-D8 06-00 00-00>"},
        IcmpCase{net::IcmpType::AddressMaskRequest, FlowClass::IcmpOther,
                 "8-byte object <11-4B BE-4B 06-00 00-00>"}));

TEST(Taxonomy, StrictOptionsNarrowBackscatter) {
  TaxonomyOptions strict;
  strict.full_icmp_reply_family = false;
  strict.rst_counts_as_backscatter = false;

  EXPECT_EQ(classify(tcp_flow(net::kRst), strict), FlowClass::TcpOther);
  EXPECT_EQ(classify(tcp_flow(net::kSyn | net::kAck), strict),
            FlowClass::TcpBackscatter);  // SYN-ACK always backscatter
  EXPECT_EQ(classify(icmp_flow(net::IcmpType::EchoReply), strict),
            FlowClass::IcmpBackscatter);
  EXPECT_EQ(classify(icmp_flow(net::IcmpType::TimeExceeded), strict),
            FlowClass::IcmpOther);  // outside the strict pair
}

TEST(Taxonomy, ClassPredicatesAndNames) {
  EXPECT_TRUE(is_scanning(FlowClass::TcpScan));
  EXPECT_TRUE(is_scanning(FlowClass::IcmpScan));
  EXPECT_FALSE(is_scanning(FlowClass::Udp));
  EXPECT_TRUE(is_backscatter(FlowClass::TcpBackscatter));
  EXPECT_TRUE(is_backscatter(FlowClass::IcmpBackscatter));
  EXPECT_FALSE(is_backscatter(FlowClass::TcpScan));
  EXPECT_STREQ(to_string(FlowClass::TcpScan), "TCP scanning");
  EXPECT_STREQ(to_string(FlowClass::Udp), "UDP");
}

}  // namespace
}  // namespace iotscope::core
