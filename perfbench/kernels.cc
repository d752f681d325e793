// Host-clock timing of the netpkt kernels the relay runs per packet: parse,
// checksum and template emit, at a small and an MSS-sized payload.
#include <map>
#include <string>
#include <vector>

#include "netpkt/checksum.h"
#include "netpkt/packet.h"
#include "netpkt/packet_buf.h"
#include "netpkt/tcp.h"
#include "netpkt/tcp_template.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

// Every result feeds this sink so the timed calls cannot be elided.
volatile uint64_t g_sink = 0;

// ns per call: median over repeats of a fixed-count loop. A template, so
// the timed call is not behind a std::function indirection.
template <typename Fn>
double NsPerCall(SpanRecorder* rec, const std::string& name, int calls, const Fn& fn) {
  ScopedSpan span(rec, "netpkt." + name);
  std::vector<double> ns;
  for (int r = 0; r < 7; ++r) {
    uint64_t acc = 0;
    int64_t t0 = WallNs();
    for (int i = 0; i < calls; ++i) {
      acc += static_cast<uint64_t>(fn());
    }
    ns.push_back(static_cast<double>(WallNs() - t0) / calls);
    g_sink = g_sink + acc;
  }
  return MedianOf(std::move(ns));
}

}  // namespace

std::map<std::string, double> TimeKernels(SpanRecorder* rec) {
  std::map<std::string, double> out;
  const moppkt::IpAddr app(10, 0, 0, 2), server(93, 1, 2, 3);
  for (size_t size : {size_t{64}, size_t{1460}}) {
    std::vector<uint8_t> payload(size, 0x42);
    moppkt::TcpSegmentSpec spec;
    spec.src_port = 40000;
    spec.dst_port = 443;
    spec.flags = moppkt::PshAckFlag();
    spec.payload = payload;
    std::vector<uint8_t> datagram = moppkt::BuildTcpDatagram(spec, app, server);
    std::string n = std::to_string(size);
    out["parse_ns." + n] = NsPerCall(rec, "parse_ns." + n, 20000, [&] {
      auto parsed = moppkt::ParsePacket(datagram);
      return parsed.ok() ? parsed.value().raw.size() : size_t{0};
    });
    out["csum_ns." + n] = NsPerCall(rec, "csum_ns." + n, 20000,
                                    [&] { return moppkt::Checksum(payload); });
  }
  moppkt::TcpPacketTemplate tmpl(server, app, 443, 40000);
  moppkt::BufPool pool;
  moppkt::PacketBuf buf = pool.Acquire();
  for (size_t size : {size_t{0}, size_t{1460}}) {
    std::vector<uint8_t> payload(size, 0x42);
    uint16_t ip_id = 0;
    std::string name = Cat("emit_ns.", std::to_string(size));
    out[name] = NsPerCall(rec, name, 20000, [&] {
      return tmpl.Emit(1, 2, moppkt::PshAckFlag(), 65535, ip_id++, payload, buf.writable());
    });
  }
  return out;
}

}  // namespace perfbench
