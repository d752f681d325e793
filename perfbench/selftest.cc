// Self-tests of the benchmark's own scoring helpers. Exits nonzero on the
// first failed expectation; run.py runs it before every benchmark run.
#include <cstdio>
#include <vector>

#include "perfbench/bench.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {  // unsorted on purpose
    v.push_back(i);
  }
  return v;
}

void TestTail() {
  // 1000 samples: p99 leaves exactly 10 beyond it, p99.9 only 1.
  Tail t = TailOf(Range(1000));
  Expect(t.n == 1000, "tail n");
  Expect(t.p50 == 500, "tail p50 of 1..1000");
  Expect(t.top_pct == 99 && t.top == 990, "1000 samples report p99 = 990");
  // 999 samples: p99 would leave 9, so the helper falls back to p95.
  t = TailOf(Range(999));
  Expect(t.top_pct == 95, "999 samples fall back to p95");
  // 10000 samples reach p99.9.
  t = TailOf(Range(10000));
  Expect(t.top_pct == 99.9 && t.top == 9990, "10000 samples report p99.9");
  // 100 samples: p90 leaves 10.
  Expect(TailOf(Range(100)).top_pct == 90, "100 samples report p90");
  // Fewer than 20 samples have no tail at all.
  t = TailOf(Range(19));
  Expect(t.top_pct == 0 && t.n == 19, "19 samples report no tail");
  Expect(TailOf({}).n == 0, "empty input");
}

mopnet::CaptureRecord Cap(moputil::SimTime t, mopnet::CaptureEvent ev, mopnet::CaptureDir dir,
                          const moppkt::SocketAddr& remote) {
  mopnet::CaptureRecord r;
  r.time = t;
  r.event = ev;
  r.dir = dir;
  r.local = {moppkt::IpAddr(10, 1, 1, 1), 40000};
  r.remote = remote;
  return r;
}

void TestPairing() {
  using mopnet::CaptureDir;
  using mopnet::CaptureEvent;
  const moppkt::SocketAddr a{moppkt::IpAddr(61, 0, 0, 1), 443};
  const moppkt::SocketAddr b{moppkt::IpAddr(61, 0, 0, 2), 443};
  const moppkt::SocketAddr c{moppkt::IpAddr(61, 0, 0, 3), 443};
  std::vector<mopnet::CaptureRecord> cap = {
      Cap(moputil::Millis(1), CaptureEvent::kTcpSyn, CaptureDir::kOut, a),
      Cap(moputil::Millis(2), CaptureEvent::kTcpSyn, CaptureDir::kOut, b),
      Cap(moputil::Millis(11), CaptureEvent::kTcpSynAck, CaptureDir::kIn, a),
      Cap(moputil::Millis(12), CaptureEvent::kTcpData, CaptureDir::kOut, a),
      Cap(moputil::Millis(42), CaptureEvent::kTcpSynAck, CaptureDir::kIn, b),
      // c: a retransmitted SYN makes the pair inexact.
      Cap(moputil::Millis(3), CaptureEvent::kTcpSyn, CaptureDir::kOut, c),
      Cap(moputil::Millis(1003), CaptureEvent::kTcpSyn, CaptureDir::kOut, c),
      Cap(moputil::Millis(1010), CaptureEvent::kTcpSynAck, CaptureDir::kIn, c),
  };
  std::vector<mopeye::Measurement> recs(4);
  recs[0].server = b;
  recs[0].rtt = moputil::Millis(40.5);
  recs[0].uid = 10201;
  recs[1].server = a;
  recs[1].rtt = moputil::Millis(10.2);
  recs[1].uid = -1;
  recs[2].server = a;  // a DNS record naming the same address is ignored
  recs[2].kind = mopeye::MeasureKind::kDns;
  recs[3].server = c;
  auto pairs = PairByServer(cap, recs);
  const Paired& pa = pairs[a];
  Expect(pa.syns == 1 && pa.syn_acks == 1 && pa.records == 1, "a pairs exactly");
  Expect(pa.wire_rtt_ms == 10 && pa.mopeye_rtt_ms == 10.2 && pa.uid == -1, "a values");
  const Paired& pb = pairs[b];
  Expect(pb.syns == 1 && pb.syn_acks == 1 && pb.records == 1, "b pairs exactly");
  Expect(pb.wire_rtt_ms == 40 && pb.uid == 10201, "b values (interleaved with a)");
  const Paired& pc = pairs[c];
  Expect(pc.syns == 2 && pc.records == 1, "c shows the retransmitted SYN");
  Expect(pc.wire_rtt_ms == 1007, "c is timed from the first SYN, as tcpdump would");
  Expect(pairs.size() == 3, "one entry per server address");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestTail();
  perfbench::TestPairing();
  std::printf("selftest: %s\n", perfbench::g_failures == 0 ? "ok" : "FAILED");
  return perfbench::g_failures == 0 ? 0 : 1;
}
