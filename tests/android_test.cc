#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "android/device.h"
#include "android/proc_net.h"
#include "android/tun_device.h"
#include "android/vpn_service.h"
#include "concurrent/lane_affinity.h"
#include "net/net_context.h"
#include "net/server.h"
#include "netpkt/packet.h"
#include "netpkt/tcp.h"
#include "sim/event_loop.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

using moppkt::IpAddr;
using moputil::Millis;

// A parseable app->tunnel TCP datagram for flow-classification tests; the
// app-side port is the only thing that varies the flow hash here.
std::vector<uint8_t> FlowDatagram(uint16_t app_port, uint32_t seq = 101) {
  moppkt::TcpSegmentSpec spec;
  spec.src_port = app_port;
  spec.dst_port = 443;
  spec.seq = seq;
  spec.ack = 5001;
  spec.flags = moppkt::AckFlag();
  return moppkt::BuildTcpDatagram(spec, IpAddr(10, 0, 0, 2), IpAddr(93, 1, 2, 3));
}

struct DroidFixture {
  mopsim::EventLoop loop;
  mopnet::PathTable paths;
  mopnet::ServerFarm farm;
  mopdroid::AndroidDevice device;

  explicit DroidFixture(int sdk = 24)
      : device(&loop, MakeProfile(), &paths, &farm, 11, sdk) {}

  static mopnet::NetworkProfile MakeProfile() {
    mopnet::NetworkProfile p;
    p.first_hop_one_way = std::make_shared<moputil::FixedDelay>(Millis(1));
    return p;
  }
};

TEST(TunDevice, QueueAndReadBack) {
  mopsim::EventLoop loop;
  mopdroid::TunDevice tun(&loop);
  int notifications = 0;
  tun.on_outgoing_ready = [&] { ++notifications; };
  tun.InjectOutgoing({1, 2, 3});
  tun.InjectOutgoing({4, 5});
  EXPECT_EQ(notifications, 2);
  EXPECT_EQ(tun.OutgoingDepth(), 2u);
  auto p1 = tun.ReadOutgoing();
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->data.ToVector(), (std::vector<uint8_t>{1, 2, 3}));
  auto p2 = tun.ReadOutgoing();
  ASSERT_TRUE(p2.has_value());
  EXPECT_FALSE(tun.ReadOutgoing().has_value());
  EXPECT_EQ(tun.packets_out(), 2u);
  EXPECT_EQ(tun.bytes_out(), 5u);
  EXPECT_EQ(tun.outgoing_high_water(), 2u);
}

TEST(TunDevice, InjectTimestamps) {
  mopsim::EventLoop loop;
  mopdroid::TunDevice tun(&loop);
  loop.Schedule(Millis(7), [&] { tun.InjectOutgoing({1}); });
  loop.Run();
  auto p = tun.ReadOutgoing();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->injected_at, Millis(7));
}

TEST(TunDevice, WriteIncomingDelivers) {
  mopsim::EventLoop loop;
  mopdroid::TunDevice tun(&loop);
  std::vector<uint8_t> got;
  tun.on_deliver_to_apps = [&](moppkt::PacketBuf d) { got = d.ToVector(); };
  tun.WriteIncoming({9, 8, 7});
  EXPECT_EQ(got, (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_EQ(tun.packets_in(), 1u);
}

TEST(TunDevice, ClosedDropsTraffic) {
  mopsim::EventLoop loop;
  mopdroid::TunDevice tun(&loop);
  tun.Close();
  tun.InjectOutgoing({1});
  EXPECT_FALSE(tun.HasOutgoing());
}

// ---- Multi-queue tun egress (thread model v4) -------------------------------

TEST(TunDeviceMultiQueue, FlowHashAssignmentIsStableAndMatchesTheOracle) {
  mopsim::EventLoop loop;
  mopdroid::TunDevice tun(&loop);
  tun.ConfigureQueues(4);
  ASSERT_EQ(tun.queue_count(), 4u);
  // Each flow's packets land on exactly the queue FlowLaneOf names — the
  // same rule the TunReader uses for lanes, so flow->queue is one oracle.
  for (uint16_t port = 40000; port < 40032; ++port) {
    std::vector<uint8_t> wire = FlowDatagram(port);
    auto flow = moppkt::PeekFlow(wire);
    ASSERT_TRUE(flow.ok());
    size_t want = moppkt::FlowLaneOf(flow.value(), 4);
    uint64_t before = tun.queue_packets_out(want);
    tun.InjectOutgoing(wire);
    tun.InjectOutgoing(FlowDatagram(port, 1561));
    EXPECT_EQ(tun.queue_packets_out(want), before + 2);
  }
  uint64_t total = 0;
  for (size_t q = 0; q < 4; ++q) {
    total += tun.queue_packets_out(q);
  }
  EXPECT_EQ(total, 64u);
  EXPECT_EQ(tun.packets_out(), 64u);
}

TEST(TunDeviceMultiQueue, BurstReadsRoundRobinAcrossQueues) {
  mopsim::EventLoop loop;
  mopdroid::TunDevice tun(&loop);
  tun.ConfigureQueues(2);
  // Find one flow per queue, then make queue 0 an elephant: 6 packets
  // against queue 1's one. A shared-FIFO drain would return the elephant
  // run first; the round-robin burst interleaves.
  uint16_t port_q0 = 0, port_q1 = 0;
  for (uint16_t port = 40000; port_q0 == 0 || port_q1 == 0; ++port) {
    auto flow = moppkt::PeekFlow(FlowDatagram(port));
    ASSERT_TRUE(flow.ok());
    (moppkt::FlowLaneOf(flow.value(), 2) == 0 ? port_q0 : port_q1) = port;
  }
  for (uint32_t i = 0; i < 6; ++i) {
    tun.InjectOutgoing(FlowDatagram(port_q0, 101 + i * 1460));
  }
  tun.InjectOutgoing(FlowDatagram(port_q1));
  std::vector<mopdroid::TunDevice::OutPacket> burst;
  ASSERT_EQ(tun.ReadOutgoingBurst(3, &burst), 3u);
  // One per non-empty queue per turn: q0, q1, then q0 again.
  auto port_of = [](const mopdroid::TunDevice::OutPacket& p) {
    return moppkt::ParsePacket(p.data.bytes()).value().tcp->src_port;
  };
  EXPECT_EQ(port_of(burst[0]), port_q0);
  EXPECT_EQ(port_of(burst[1]), port_q1);
  EXPECT_EQ(port_of(burst[2]), port_q0);
  // The rest of the elephant drains in FIFO order.
  burst.clear();
  ASSERT_EQ(tun.ReadOutgoingBurst(16, &burst), 4u);
  uint32_t prev_seq = 0;
  for (const auto& p : burst) {
    uint32_t seq = moppkt::ParsePacket(p.data.bytes()).value().tcp->seq;
    EXPECT_EQ(port_of(p), port_q0);
    EXPECT_GT(seq, prev_seq);
    prev_seq = seq;
  }
  EXPECT_FALSE(tun.HasOutgoing());
}

TEST(TunDeviceMultiQueue, SingleQueueKeepsLegacyFifoOrder) {
  mopsim::EventLoop loop;
  mopdroid::TunDevice tun(&loop);  // default: one queue, the paper model
  ASSERT_EQ(tun.queue_count(), 1u);
  for (uint16_t port = 40000; port < 40008; ++port) {
    tun.InjectOutgoing(FlowDatagram(port));
  }
  // Strict injection order across flows — no sharding, no rotation.
  for (uint16_t port = 40000; port < 40008; ++port) {
    auto p = tun.ReadOutgoing();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(moppkt::ParsePacket(p->data.bytes()).value().tcp->src_port, port);
  }
}

TEST(TunDeviceMultiQueue, PerQueueDeliveryAndHighWaterTallies) {
  mopsim::EventLoop loop;
  mopdroid::TunDevice tun(&loop);
  tun.ConfigureQueues(3);
  int delivered = 0;
  tun.on_deliver_to_apps = [&](moppkt::PacketBuf) { ++delivered; };
  moppkt::BufPool pool;
  tun.WriteIncoming(2, pool.AcquireCopy(FlowDatagram(40000)));
  tun.WriteIncoming(2, pool.AcquireCopy(FlowDatagram(40001)));
  tun.WriteIncoming(0, pool.AcquireCopy(FlowDatagram(40002)));
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(tun.queue_packets_in(2), 2u);
  EXPECT_EQ(tun.queue_packets_in(0), 1u);
  EXPECT_EQ(tun.queue_packets_in(1), 0u);
  EXPECT_EQ(tun.packets_in(), 3u);
  // Ingress high water is tracked per queue as well as globally.
  std::vector<uint8_t> wire = FlowDatagram(40010);
  auto flow = moppkt::PeekFlow(wire);
  ASSERT_TRUE(flow.ok());
  size_t q = moppkt::FlowLaneOf(flow.value(), 3);
  tun.InjectOutgoing(wire);
  tun.InjectOutgoing(FlowDatagram(40010, 1561));
  EXPECT_EQ(tun.queue_high_water(q), 2u);
}

TEST(TunDeviceMultiQueueDeathTest, ReconfigureAfterTrafficAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  mopsim::EventLoop loop;
  mopdroid::TunDevice tun(&loop);
  tun.InjectOutgoing(FlowDatagram(40000));
  // Queued packets were classified under the old queue count; re-sharding
  // them silently would break per-flow FIFO. MOP_CHECK is active in all
  // build types, so this aborts in Release too.
  EXPECT_DEATH(tun.ConfigureQueues(4), "before any traffic");
}

#if MOPEYE_LANE_CHECKS

TEST(TunQueueAffinityDeathTest, ForeignLaneWritingOwnedQueueAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  mopsim::EventLoop loop;
  mopdroid::TunDevice tun(&loop);
  tun.ConfigureQueues(2);
  {
    mopcc::LaneScope scope(0);  // lane 0 owns queue 0 exclusively
    tun.CheckQueueWriteAffinity(0);
  }
  {
    mopcc::LaneScope scope(1);  // its own queue is fine
    tun.CheckQueueWriteAffinity(1);
  }
  EXPECT_DEATH(
      {
        mopcc::LaneScope scope(1);  // lane 1 flushing lane 0's queue is not
        tun.CheckQueueWriteAffinity(0);
      },
      "lane-affinity violation");
}

#else  // !MOPEYE_LANE_CHECKS

TEST(TunQueueAffinity, CompiledOutInRelease) {
  // The per-queue writer stamp must vanish under NDEBUG: foreign-context
  // writes are silent no-ops, exactly like the bare LaneAffinityChecker.
  mopsim::EventLoop loop;
  mopdroid::TunDevice tun(&loop);
  tun.ConfigureQueues(2);
  tun.CheckQueueWriteAffinity(0);
  std::thread([&] { tun.CheckQueueWriteAffinity(0); }).join();  // must be silent
}

#endif  // MOPEYE_LANE_CHECKS

TEST(ProcNet, RenderParsesBackExactly) {
  mopnet::KernelConnTable table;
  mopnet::ConnEntry e;
  e.proto = moppkt::IpProto::kTcp;
  e.local = {IpAddr(10, 0, 0, 2), 40001};
  e.remote = {IpAddr(93, 12, 34, 56), 443};
  e.state = mopnet::ConnState::kEstablished;
  e.uid = 10077;
  table.Register(e);
  e.local.port = 40002;
  e.remote = {IpAddr(8, 8, 8, 8), 53};
  e.proto = moppkt::IpProto::kUdp;
  e.uid = 10099;
  table.Register(e);

  mopdroid::ProcNet proc(&table);
  auto tcp_rows = mopdroid::ParseProcNet(proc.Render(moppkt::IpProto::kTcp));
  ASSERT_TRUE(tcp_rows.ok());
  ASSERT_EQ(tcp_rows.value().size(), 1u);
  EXPECT_EQ(tcp_rows.value()[0].local.ToString(), "10.0.0.2:40001");
  EXPECT_EQ(tcp_rows.value()[0].remote.ToString(), "93.12.34.56:443");
  EXPECT_EQ(tcp_rows.value()[0].uid, 10077);
  EXPECT_EQ(tcp_rows.value()[0].state, mopnet::ConnState::kEstablished);

  auto udp_rows = mopdroid::ParseProcNet(proc.Render(moppkt::IpProto::kUdp));
  ASSERT_TRUE(udp_rows.ok());
  ASSERT_EQ(udp_rows.value().size(), 1u);
  EXPECT_EQ(udp_rows.value()[0].uid, 10099);
}

TEST(ProcNet, KernelHexFormat) {
  // The kernel prints little-endian hex: 10.0.0.2:40001 -> "0200000A:9C41".
  mopnet::KernelConnTable table;
  mopnet::ConnEntry e;
  e.proto = moppkt::IpProto::kTcp;
  e.local = {IpAddr(10, 0, 0, 2), 40001};
  e.remote = {IpAddr(93, 12, 34, 56), 443};
  table.Register(e);
  mopdroid::ProcNet proc(&table);
  std::string text = proc.Render(moppkt::IpProto::kTcp);
  EXPECT_NE(text.find("0200000A:9C41"), std::string::npos);
  EXPECT_NE(text.find("38220C5D:01BB"), std::string::npos);
}

TEST(ProcNet, ParseRejectsGarbage) {
  auto r = mopdroid::ParseProcNet("header\nthis is not a row\n");
  EXPECT_FALSE(r.ok());
}

// ---- Reference oracle: the snprintf/istringstream ProcNet ----
//
// The formatted-IO implementation of Render and ParseProcNet, kept as the
// specification the allocation-free code must match byte for byte (render)
// and entry for entry, error for error (parse).

std::string OracleAddrHex(const moppkt::SocketAddr& a) {
  uint32_t v = a.ip.value();
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%02X%02X%02X%02X:%04X", v & 0xff, (v >> 8) & 0xff,
                (v >> 16) & 0xff, (v >> 24) & 0xff, a.port);
  return buf;
}

std::string OracleRender(const mopnet::KernelConnTable& table, moppkt::IpProto proto) {
  std::ostringstream os;
  os << "  sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt"
        "   uid  timeout inode\n";
  int sl = 0;
  table.ForEach(proto, [&](const mopnet::ConnEntry& e) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%4d: %s %s %02X %08X:%08X %02X:%08lX %08X %5d %8d %lu\n", sl++,
                  OracleAddrHex(e.local).c_str(), OracleAddrHex(e.remote).c_str(),
                  static_cast<unsigned>(e.state), 0u, 0u, 0u, 0ul, 0u, e.uid, 0,
                  static_cast<unsigned long>(e.inode));
    os << line;
  });
  return os.str();
}

bool OracleParseAddrHex(const std::string& s, moppkt::SocketAddr* out) {
  auto colon = s.find(':');
  if (colon == std::string::npos || colon != 8 || s.size() < 13) {
    return false;
  }
  uint64_t ip_le = 0;
  uint64_t port = 0;
  if (!moputil::ParseHexU64(s.substr(0, 8), &ip_le) ||
      !moputil::ParseHexU64(s.substr(9, 4), &port)) {
    return false;
  }
  uint32_t le = static_cast<uint32_t>(ip_le);
  uint32_t host = ((le & 0xff) << 24) | ((le & 0xff00) << 8) | ((le >> 8) & 0xff00) |
                  ((le >> 24) & 0xff);
  out->ip = moppkt::IpAddr(host);
  out->port = static_cast<uint16_t>(port);
  return true;
}

moputil::Result<std::vector<mopdroid::ProcNetEntry>> OracleParse(const std::string& text) {
  std::vector<mopdroid::ProcNetEntry> entries;
  std::istringstream is(text);
  std::string line;
  bool first = true;
  while (std::getline(is, line)) {
    if (first) {
      first = false;
      continue;
    }
    auto trimmed = moputil::Trim(line);
    if (trimmed.empty()) {
      continue;
    }
    std::istringstream ls{std::string(trimmed)};
    std::string sl, local, remote, st, queues, timer, retrnsmt, uid_s;
    if (!(ls >> sl >> local >> remote >> st >> queues >> timer >> retrnsmt >> uid_s)) {
      return moputil::InvalidArgument("bad /proc/net row: " + line);
    }
    mopdroid::ProcNetEntry e;
    if (!OracleParseAddrHex(local, &e.local) || !OracleParseAddrHex(remote, &e.remote)) {
      return moputil::InvalidArgument("bad /proc/net address: " + line);
    }
    uint64_t st_v = 0;
    if (!moputil::ParseHexU64(st, &st_v)) {
      return moputil::InvalidArgument("bad /proc/net state: " + line);
    }
    e.state = static_cast<mopnet::ConnState>(st_v);
    e.uid = std::atoi(uid_s.c_str());
    entries.push_back(e);
  }
  return entries;
}

// Parses `text` with both parsers and expects the same verdict and entries.
void ExpectParsersAgree(const std::string& text) {
  auto want = OracleParse(text);
  auto got = mopdroid::ParseProcNet(text);
  ASSERT_EQ(got.ok(), want.ok()) << text;
  if (!want.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    return;
  }
  ASSERT_EQ(got.value().size(), want.value().size()) << text;
  for (size_t i = 0; i < want.value().size(); ++i) {
    const auto& g = got.value()[i];
    const auto& w = want.value()[i];
    EXPECT_EQ(g.local, w.local) << "row " << i;
    EXPECT_EQ(g.remote, w.remote) << "row " << i;
    EXPECT_EQ(g.state, w.state) << "row " << i;
    EXPECT_EQ(g.uid, w.uid) << "row " << i;
  }
}

moppkt::SocketAddr RandomAddr(moputil::Rng& rng) {
  return {IpAddr(rng.NextU32()), static_cast<uint16_t>(rng.NextU32())};
}

// Re-spaces rendered text the way other kernels and hand edits do: runs of
// spaces and tabs between fields, CRLF endings, blank and whitespace-only
// lines. Field content is untouched.
std::string Respace(const std::string& text, moputil::Rng& rng) {
  std::string out;
  for (char c : text) {
    if (c == ' ') {
      static const char* const kGaps[] = {" ", "  ", "\t", " \t ", "\v", "\f"};
      out += kGaps[rng.UniformInt(0, 5)];
    } else if (c == '\n') {
      static const char* const kEnds[] = {"\n", "\r\n", "\n\n", "\n \t\n", "\n\r\n"};
      out += kEnds[rng.UniformInt(0, 4)];
    } else {
      out += c;
    }
  }
  return out;
}

TEST(ProcNet, MatchesFormattedIoOracleOnRandomTables) {
  moputil::Rng rng(20160516);
  for (int t = 0; t < 200; ++t) {
    // Every fourth table's inodes start past 2^32, wider than 8 digits.
    uint64_t first_inode = t % 4 == 3 ? (uint64_t{1} << 32) + rng.NextU32() : rng.NextU32();
    mopnet::KernelConnTable table(first_inode);
    auto rows = rng.UniformInt(0, 700);
    for (int64_t i = 0; i < rows; ++i) {
      mopnet::ConnEntry e;
      e.proto = rng.Bernoulli(0.7) ? moppkt::IpProto::kTcp : moppkt::IpProto::kUdp;
      e.local = RandomAddr(rng);
      e.remote = RandomAddr(rng);
      e.state = static_cast<mopnet::ConnState>(rng.UniformInt(0, 255));
      switch (rng.UniformInt(0, 3)) {
        case 0: e.uid = static_cast<int>(rng.UniformInt(0, 9)); break;
        case 1: e.uid = static_cast<int>(rng.UniformInt(10000, 99999)); break;
        case 2: e.uid = static_cast<int>(rng.UniformInt(-99999, -1)); break;
        default: e.uid = static_cast<int>(rng.NextU32()); break;  // any int
      }
      table.Register(e);
    }
    mopdroid::ProcNet proc(&table);
    for (moppkt::IpProto proto : {moppkt::IpProto::kTcp, moppkt::IpProto::kUdp}) {
      std::string text = proc.Render(proto);
      ASSERT_EQ(text, OracleRender(table, proto)) << "table " << t;
      ExpectParsersAgree(text);
      ExpectParsersAgree(Respace(text, rng));
    }
  }
}

TEST(ProcNet, RenderMatchesOracleAtFieldExtremes) {
  mopnet::KernelConnTable table(uint64_t{1} << 40);
  mopnet::ConnEntry e;
  e.proto = moppkt::IpProto::kTcp;
  e.local = {IpAddr(255, 255, 255, 255), 65535};
  e.remote = {IpAddr(0, 0, 0, 0), 0};
  e.state = mopnet::ConnState::kClosing;
  for (int uid : {-1, -2147483647 - 1, 2147483647, 0, 99999, 100000}) {
    e.uid = uid;
    table.Register(e);
  }
  mopdroid::ProcNet proc(&table);
  std::string text = proc.Render(moppkt::IpProto::kTcp);
  EXPECT_EQ(text, OracleRender(table, moppkt::IpProto::kTcp));
  EXPECT_NE(text.find("   -1 "), std::string::npos);
  EXPECT_NE(text.find(" 1099511627776\n"), std::string::npos);  // 2^40
  auto rows = mopdroid::ParseProcNet(text);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 6u);
  EXPECT_EQ(rows.value()[0].uid, -1);
  EXPECT_EQ(rows.value()[1].uid, -2147483647 - 1);
}

TEST(ProcNet, ParseMatchesOracleOnHandWrittenRows) {
  const std::string kHeader = "  sl  local_address rem_address   st ...\n";
  const std::string kRow =
      "   0: 0200000A:9C41 38220C5D:01BB 01 00000000:00000000 00:00000000 00000000 ";
  const std::string kTabs = "\t0:\t0200000A:9C41\t38220C5D:01BB\t01\t0:0\t0:0\t0\t10077\n";
  for (const std::string& body : {
           kRow + "10077        0 10000\n",       // plain
           kRow + "-1        0 10000\n",          // negative uid
           kRow + "+10077        0 10000\n",      // "+uid" token
           kRow + "12ab        0 10000\n",        // atoi stops at 'a'
           kRow + "x        0 10000\n",           // atoi garbage is 0
           kRow + "99999999999999999999 0 1\n",   // atoi overflow
           kRow + "-99999999999999999999 0 1\n",  // atoi underflow
           kRow + "10077        0 4294967296\n",  // inode >= 2^32
           kRow + "10077",                        // no trailing newline
           kTabs,                                 // tab-separated
           "\n   \t \n" + kRow + "7 0 1\n\r\n",   // blank and whitespace-only lines
           kRow + "7 0 1\n" + kRow + "8 0 2\n",   // two rows
           std::string(),                         // header only
       }) {
    ExpectParsersAgree(kHeader + body);
  }
  // The first line is the header, whatever it holds.
  ExpectParsersAgree(kRow + "1 0 1\n");
}

TEST(ProcNet, ParseRejectsRowsWithFewerThanEightFields) {
  const std::string kHeader = "header\n";
  std::string row = "0: 0200000A:9C41 38220C5D:01BB 01 00000000:00000000 00:00000000 00000000";
  auto r = mopdroid::ParseProcNet(kHeader + row + "\n");  // seven fields
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), moputil::StatusCode::kInvalidArgument);
  ExpectParsersAgree(kHeader + row + "\n");
  for (size_t cut = row.find(' '); cut != std::string::npos; cut = row.find(' ', cut + 1)) {
    ExpectParsersAgree(kHeader + row.substr(0, cut) + "\n");
    EXPECT_FALSE(mopdroid::ParseProcNet(kHeader + row.substr(0, cut)).ok());
  }
  ExpectParsersAgree(kHeader + row + " 10077\n");  // eight: accepted
  EXPECT_TRUE(mopdroid::ParseProcNet(kHeader + row + " 10077\n").ok());
  // Bad address and state fields are rejected the same way.
  ExpectParsersAgree(kHeader + "0: 0200000A9C41 38220C5D:01BB 01 0 0 0 7\n");
  ExpectParsersAgree(kHeader + "0: 0200000A:9C41 38220C5D:01BB zz 0 0 0 7\n");
}

TEST(ProcNet, ParseCostGrowsWithRows) {
  mopnet::KernelConnTable small_table, big_table;
  for (int i = 0; i < 5; ++i) {
    mopnet::ConnEntry e;
    e.proto = moppkt::IpProto::kTcp;
    e.local = {IpAddr(10, 0, 0, 2), static_cast<uint16_t>(40000 + i)};
    small_table.Register(e);
  }
  for (int i = 0; i < 400; ++i) {
    mopnet::ConnEntry e;
    e.proto = moppkt::IpProto::kTcp;
    e.local = {IpAddr(10, 0, 0, 2), static_cast<uint16_t>(40000 + i)};
    big_table.Register(e);
  }
  mopdroid::ProcNet small_proc(&small_table), big_proc(&big_table);
  moputil::Rng rng(5);
  double small_mean = 0, big_mean = 0;
  for (int i = 0; i < 200; ++i) {
    small_mean += moputil::ToMillis(small_proc.SampleParseCost(moppkt::IpProto::kTcp, rng));
    big_mean += moputil::ToMillis(big_proc.SampleParseCost(moppkt::IpProto::kTcp, rng));
  }
  EXPECT_GT(big_mean, small_mean * 1.5);  // more connections -> pricier parse
}

TEST(PackageManager, InstallLookupUninstall) {
  mopdroid::PackageManager pm;
  EXPECT_TRUE(pm.Install(10001, "com.a", "A"));
  EXPECT_FALSE(pm.Install(10001, "com.b", "B"));  // uid taken
  EXPECT_FALSE(pm.Install(10002, "com.a", "A2"));  // package taken
  EXPECT_EQ(pm.GetPackageForUid(10001)->label, "A");
  EXPECT_EQ(pm.GetPackageByName("com.a")->uid, 10001);
  pm.Uninstall(10001);
  EXPECT_FALSE(pm.GetPackageForUid(10001).has_value());
}

TEST(VpnService, EstablishActivatesRouting) {
  DroidFixture f;
  mopdroid::VpnService vpn(&f.device);
  mopdroid::VpnService::Builder builder(&vpn);
  builder.addAddress(IpAddr(10, 0, 0, 2)).setSession("test");
  mopdroid::TunDevice* tun = builder.establish();
  ASSERT_NE(tun, nullptr);
  EXPECT_TRUE(vpn.active());
  EXPECT_TRUE(f.device.vpn_active());
  // App packets now route into the tunnel.
  EXPECT_TRUE(f.device.KernelSendFromApp({1, 2, 3}));
  EXPECT_TRUE(tun->HasOutgoing());
  vpn.Stop();
  EXPECT_FALSE(f.device.vpn_active());
  EXPECT_FALSE(f.device.KernelSendFromApp({1}));
}

TEST(VpnService, EstablishRequiresAddress) {
  DroidFixture f;
  mopdroid::VpnService vpn(&f.device);
  mopdroid::VpnService::Builder builder(&vpn);
  EXPECT_EQ(builder.establish(), nullptr);
}

TEST(VpnService, DisallowedApplicationNeedsLollipop) {
  DroidFixture old_device(mopdroid::kSdkKitKat);
  old_device.device.package_manager().Install(10050, "com.mopeye", "MopEye");
  mopdroid::VpnService vpn(&old_device.device);
  mopdroid::VpnService::Builder builder(&vpn);
  auto st = builder.addDisallowedApplication("com.mopeye");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), moputil::StatusCode::kUnimplemented);

  DroidFixture new_device(mopdroid::kSdkLollipop);
  new_device.device.package_manager().Install(10050, "com.mopeye", "MopEye");
  mopdroid::VpnService vpn2(&new_device.device);
  mopdroid::VpnService::Builder builder2(&vpn2);
  EXPECT_TRUE(builder2.addDisallowedApplication("com.mopeye").ok());
  EXPECT_FALSE(builder2.addDisallowedApplication("com.not.installed").ok());
}

TEST(VpnService, ProtectMarksSocketAndCosts) {
  DroidFixture f;
  mopdroid::VpnService vpn(&f.device);
  auto ch = mopnet::SocketChannel::Create(&f.device.net());
  EXPECT_FALSE(ch->protected_socket());
  auto cost = vpn.protect(*ch);
  EXPECT_TRUE(ch->protected_socket());
  EXPECT_GT(cost, 0);
  EXPECT_EQ(vpn.protect_calls(), 1);
}

TEST(VpnService, DisallowedUidBypassesWithoutProtect) {
  DroidFixture f;
  f.device.package_manager().Install(10050, "com.mopeye", "MopEye");
  mopdroid::VpnService vpn(&f.device);
  mopdroid::VpnService::Builder builder(&vpn);
  builder.addAddress(IpAddr(10, 0, 0, 2));
  ASSERT_TRUE(builder.addDisallowedApplication("com.mopeye").ok());
  ASSERT_NE(builder.establish(), nullptr);

  f.paths.SetDefault(std::make_shared<moputil::FixedDelay>(Millis(5)));
  f.farm.AddTcpServer({IpAddr(93, 3, 3, 3), 80},
                      [] { return std::make_unique<mopnet::EchoBehavior>(); });
  // Unprotected socket of the disallowed app connects fine.
  auto ch = mopnet::SocketChannel::Create(&f.device.net());
  ch->set_owner_uid(10050);
  moputil::Status st;
  ch->Connect({IpAddr(93, 3, 3, 3), 80}, [&](moputil::Status s) { st = s; });
  f.loop.Run();
  EXPECT_TRUE(st.ok());
  // A normal app's unprotected socket loops.
  auto ch2 = mopnet::SocketChannel::Create(&f.device.net());
  ch2->set_owner_uid(10051);
  moputil::Status st2;
  ch2->Connect({IpAddr(93, 3, 3, 3), 80}, [&](moputil::Status s) { st2 = s; });
  f.loop.Run();
  EXPECT_FALSE(st2.ok());
  EXPECT_EQ(f.device.net().loop_violations(), 1);
}

TEST(AndroidDevice, DownloadManagerInjectsDummyPacket) {
  DroidFixture f;
  mopdroid::VpnService vpn(&f.device);
  mopdroid::VpnService::Builder builder(&vpn);
  builder.addAddress(IpAddr(10, 0, 0, 2));
  mopdroid::TunDevice* tun = builder.establish();
  ASSERT_NE(tun, nullptr);
  f.device.DownloadManagerEnqueue();
  f.loop.Run();
  EXPECT_GE(tun->packets_out(), 1u);  // the dummy download SYN
}

}  // namespace
