// Shared pieces of the two-clock benchmark: host clocks, the span recorder
// used by the traced run, the tail-percentile helper, seed derivation, and
// the capture/record pairing that scores MopEye against tcpdump.
#ifndef MOPEYE_PERFBENCH_BENCH_H_
#define MOPEYE_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/measurement.h"
#include "net/capture.h"
#include "netpkt/ip.h"

namespace perfbench {

// Concatenates strings and string literals. Preferred over chains of
// `"literal" + std::to_string(...)`, on which GCC 12 -O2 reports a false
// -Wrestrict (PR105651) that -Werror turns into a build break.
template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::string out;
  (out.append(parts), ...);
  return out;
}

// ---- Host clocks ----

// Process CPU time in seconds (the benchmark is single-threaded).
double CpuSeconds();
// Monotonic wall time in nanoseconds.
int64_t WallNs();
// Peak resident set size of this process, MiB.
double PeakRssMb();

// Host-speed reference: CPU seconds of a fixed workload that uses only the
// standard library and is shaped like the benchmark's workloads: the
// simulator's hot loop (heap-ordered events, std::function closures,
// hash-map lookups, small allocations) and the codecs' byte streaming
// (serialize, checksum, sort keys).
// Fastest of three runs after a warm-up, since interference only ever adds
// time to a run. A shared machine's speed drifts by tens of percent
// over minutes; dividing a measured CPU time by this figure, taken minutes
// apart, cancels the drift.
double CalibrationCpuSeconds();
// The calibration's CPU seconds at the reference speed: host times are
// reported as `measured * kCalibrationRefS / CalibrationCpuSeconds()`, the
// seconds the work would take on a host where the calibration takes this
// long.
constexpr double kCalibrationRefS = 0.012;

// ---- Seeds ----

// Seed of world `index` of `workload`: a pure function of the run's --seed,
// so every world of a run is reproducible from that one number.
uint64_t DeriveSeed(uint64_t run_seed, const std::string& workload, uint64_t index);

// ---- Spans (traced run only) ----

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the recorder's spans, -1 for a root
  uint64_t world = 0;
};

// In-memory span store. Spans nest by construction (one thread, RAII
// scopes), so a span's children are exactly the spans opened inside it.
class SpanRecorder {
 public:
  void SetWorld(uint64_t world) { world_ = world; }
  int Open(const std::string& name);
  void Close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  struct NameTotals {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  // Per span name: how often it ran, its total duration, and its self time
  // (duration minus the part its children cover).
  std::map<std::string, NameTotals> Totals() const;
  // One JSON object per line: name, start_ns, end_ns, parent, world.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  uint64_t world_ = 0;
};

// Opens a span on construction and closes it on destruction; a null
// recorder (the untraced run) makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name)
      : rec_(rec), index_(rec != nullptr ? rec->Open(name) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) {
      rec_->Close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

// ---- Percentiles ----

// A pooled timing reported as its median and the highest percentile that
// still has at least ten samples beyond it (99.9, 99, 95, 90 or 50), each
// with the sample count behind it.
struct Tail {
  size_t n = 0;
  double p50 = 0;
  double top_pct = 0;  // 0 when n is too small for any tail (n < 20)
  double top = 0;
};
Tail TailOf(std::vector<double> values);
// Value at percentile `p` (nearest-rank on the sorted samples).
double PercentileOf(std::vector<double> values, double p);
double MedianOf(std::vector<double> values);

// ---- Capture <-> record pairing ----

// One connection as the external-interface capture (tcpdump) and MopEye's
// measurement store saw it. Workloads give every scored connection its own
// server address, so the address is the join key.
struct Paired {
  int syns = 0;       // outgoing SYNs to the address
  int syn_acks = 0;   // incoming SYN/ACKs from it
  double wire_rtt_ms = -1;  // first SYN -> first SYN/ACK
  int records = 0;    // TCP-connect measurements naming the address
  double mopeye_rtt_ms = -1;
  int uid = -1;       // uid of the (first) record
};
// Joins the capture log and the TCP records on server address. A pair is
// exact when syns == syn_acks == records == 1.
std::map<moppkt::SocketAddr, Paired> PairByServer(
    const std::vector<mopnet::CaptureRecord>& capture,
    const std::vector<mopeye::Measurement>& records);

}  // namespace perfbench

#endif  // MOPEYE_PERFBENCH_BENCH_H_
