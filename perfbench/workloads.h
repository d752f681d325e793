// The benchmark's three workloads. Each runs one "world" per call: a set-up
// phase (build, start, generate inputs) and a measured phase, both timed in
// process CPU seconds. A world is a pure function of its seed on the virtual
// clock.
#ifndef MOPEYE_PERFBENCH_WORKLOADS_H_
#define MOPEYE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "util/stats.h"

namespace perfbench {

// Attempted / failed operations, by kind: the base of fail_ratio.
struct Ops {
  uint64_t connects = 0, connects_failed = 0;
  uint64_t transfers = 0, transfers_failed = 0;
  uint64_t dns = 0, dns_failed = 0;
  uint64_t frames = 0, frames_failed = 0;

  uint64_t attempted() const { return connects + transfers + dns + frames; }
  uint64_t failed() const {
    return connects_failed + transfers_failed + dns_failed + frames_failed;
  }
  Ops& operator+=(const Ops& o);
  bool operator==(const Ops&) const = default;
};

// Virtual-clock outputs of one world. Compared with ==: a repeated or traced
// run of the same seed must reproduce them bit for bit.
struct Virtual {
  // Relay workloads.
  double relay_mbps = 0;                // bulk: elephant bytes / data window
  std::vector<double> connect_added_ms;  // per scored connection
  std::vector<double> syn_err_ms;        // |MopEye SYN-RTT - capture RTT|
  uint64_t scored = 0;        // scored connections (bulk probes, churn)
  uint64_t attributed = 0;    // record names the connection's uid
  uint64_t unattributed = 0;  // record carries no uid
  double generator_late_ms = 0;  // worst open-loop start lateness
  // Crowd workload.
  uint64_t records_generated = 0;
  uint64_t records_folded = 0;
  std::vector<double> sketch_err_pct;  // per heavy app

  bool operator==(const Virtual&) const = default;
};

// Per-layer raw figures of one world; main.cc pools them over a pass.
struct Layers {
  std::map<std::string, double> sum;  // totals, added across worlds
  std::map<std::string, double> max;  // peaks, max across worlds
  std::map<std::string, moputil::LogQuantile> stage;  // relay stage sketches (ms)
  std::vector<double> mapper_overhead_ms;
  std::vector<double> pkt_bytes;
  double proc_render_parse_us = 0;  // timed at this world's row peak

  void Merge(const Layers& o);
};

struct WorldRun {
  double setup_s = 0;  // CPU seconds of the set-up phase
  double cpu_s = 0;    // CPU seconds of the measured phase
  Virtual virt;
  Ops ops;
  Layers layers;
  std::vector<std::string> errors;  // failed correctness checks
};

// `rec` is null in the untraced run; non-null turns on Config::telemetry
// and records spans around every call into a layer.
WorldRun RunBulkWorld(uint64_t seed, SpanRecorder* rec);
WorldRun RunChurnWorld(uint64_t seed, SpanRecorder* rec);
WorldRun RunCrowdWorld(uint64_t seed, SpanRecorder* rec);

// Times the netpkt kernels at fixed sizes (ns per call, median of repeats).
std::map<std::string, double> TimeKernels(SpanRecorder* rec);

}  // namespace perfbench

#endif  // MOPEYE_PERFBENCH_WORKLOADS_H_
