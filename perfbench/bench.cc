#include "perfbench/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>

#include "util/rng.h"

namespace perfbench {

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

volatile uint64_t g_calibration_sink = 0;

double CalibrationOnce() {
  struct Event {
    int64_t when;
    uint64_t id;
    std::function<uint64_t()> fn;
  };
  auto later = [](const Event& a, const Event& b) {
    return a.when != b.when ? a.when > b.when : a.id > b.id;
  };
  double t0 = CpuSeconds();
  std::priority_queue<Event, std::vector<Event>, decltype(later)> heap(later);
  std::unordered_map<uint64_t, std::shared_ptr<std::vector<uint8_t>>> table;
  uint64_t x = 88172645463325252ULL, sink = 0, id = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 1024; ++i) {
    heap.push({static_cast<int64_t>(next() % 1000), id++, [] { return uint64_t{1}; }});
  }
  for (int step = 0; step < 25000; ++step) {
    Event ev = heap.top();
    heap.pop();
    sink += ev.fn();
    uint64_t key = next() % 4096;
    auto it = table.find(key);
    std::shared_ptr<std::vector<uint8_t>> buf;
    if (it != table.end()) {
      buf = std::move(it->second);
      table.erase(it);
    } else {
      buf = std::make_shared<std::vector<uint8_t>>(64 + key % 1400, static_cast<uint8_t>(key));
      table.emplace(key, buf);
    }
    heap.push({ev.when + static_cast<int64_t>(next() % 1000), id++,
               [buf] { return static_cast<uint64_t>(buf->size() + buf->front()); }});
  }
  // Byte streaming: serialize records into a growing buffer, checksum it and
  // sort string keys, the shape of the wire and snapshot codecs.
  std::vector<uint8_t> bytes;
  std::vector<std::string> keys;
  for (int i = 0; i < 12000; ++i) {
    uint64_t v = next();
    for (int b = 0; b < 8; ++b) {
      bytes.push_back(static_cast<uint8_t>(v >> (8 * b)));
    }
    std::string key = Cat("app", std::to_string(v % 100000));
    bytes.insert(bytes.end(), key.begin(), key.end());
    keys.push_back(std::move(key));
  }
  uint32_t crc = 0xffffffffu;
  for (uint8_t c : bytes) {
    crc ^= c;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
  }
  std::sort(keys.begin(), keys.end());
  sink += crc + keys.front().size();
  g_calibration_sink = g_calibration_sink + sink;
  return CpuSeconds() - t0;
}

}  // namespace

double CalibrationCpuSeconds() {
  CalibrationOnce();  // warm-up: fault in the allocator's pages
  double best = CalibrationOnce();
  for (int i = 0; i < 2; ++i) {
    best = std::min(best, CalibrationOnce());
  }
  return best;
}

uint64_t DeriveSeed(uint64_t run_seed, const std::string& workload, uint64_t index) {
  uint64_t state = run_seed;
  for (char c : workload) {
    state = state * 131 + static_cast<uint8_t>(c);
  }
  state ^= index * 0x9e3779b97f4a7c15ULL;
  return moputil::SplitMix64(state);
}

// ---- Spans ----

int SpanRecorder::Open(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.world = world_;
  s.start_ns = WallNs();
  spans_.push_back(std::move(s));
  int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::Close(int index) {
  spans_[static_cast<size_t>(index)].end_ns = WallNs();
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

std::map<std::string, SpanRecorder::NameTotals> SpanRecorder::Totals() const {
  // Children are nested and disjoint (one thread), so the part of a span
  // its children cover is the sum of their durations.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    }
  }
  std::map<std::string, NameTotals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    double ms = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-6;
    NameTotals& t = out[spans_[i].name];
    ++t.count;
    t.total_ms += ms;
    t.self_ms += ms - child_ms[i];
  }
  return out;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                 "\"world\":%llu}\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.world));
  }
  return std::fclose(f) == 0;
}

// ---- Percentiles ----

namespace {

// 1-based nearest rank of percentile `p` among `n` sorted samples. The
// epsilon keeps 99.9% of 10000 at rank 9990 despite binary rounding.
size_t NearestRank(double p, size_t n) {
  double exact = p / 100.0 * static_cast<double>(n);
  return std::clamp<size_t>(static_cast<size_t>(std::ceil(exact - 1e-9)), 1, n);
}

}  // namespace

double PercentileOf(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  return values[NearestRank(p, values.size()) - 1];
}

double MedianOf(std::vector<double> values) { return PercentileOf(std::move(values), 50.0); }

Tail TailOf(std::vector<double> values) {
  Tail t;
  t.n = values.size();
  if (values.empty()) {
    return t;
  }
  std::sort(values.begin(), values.end());
  t.p50 = PercentileOf(values, 50.0);
  for (double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (t.n - NearestRank(p, t.n) >= 10) {
      t.top_pct = p;
      t.top = PercentileOf(values, p);
      break;
    }
  }
  return t;
}

// ---- Pairing ----

std::map<moppkt::SocketAddr, Paired> PairByServer(
    const std::vector<mopnet::CaptureRecord>& capture,
    const std::vector<mopeye::Measurement>& records) {
  std::map<moppkt::SocketAddr, Paired> out;
  std::map<moppkt::SocketAddr, moputil::SimTime> first_syn;
  for (const mopnet::CaptureRecord& r : capture) {
    if (r.event == mopnet::CaptureEvent::kTcpSyn && r.dir == mopnet::CaptureDir::kOut) {
      Paired& p = out[r.remote];
      if (p.syns++ == 0) {
        first_syn[r.remote] = r.time;
      }
    } else if (r.event == mopnet::CaptureEvent::kTcpSynAck && r.dir == mopnet::CaptureDir::kIn) {
      Paired& p = out[r.remote];
      auto it = first_syn.find(r.remote);
      if (p.syn_acks++ == 0 && it != first_syn.end()) {
        p.wire_rtt_ms = moputil::ToMillis(r.time - it->second);
      }
    }
  }
  for (const mopeye::Measurement& m : records) {
    if (m.kind != mopeye::MeasureKind::kTcpConnect) {
      continue;
    }
    Paired& p = out[m.server];
    if (p.records++ == 0) {
      p.mopeye_rtt_ms = moputil::ToMillis(m.rtt);
      p.uid = m.uid;
    }
  }
  return out;
}

}  // namespace perfbench
