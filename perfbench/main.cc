// Two-clock end-to-end benchmark of the MopEye reproduction.
//
//   perfbench --workload <bulk|churn|crowd> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// A run builds K worlds from seeds derived from --seed and runs them as one
// pass. Untraced (--trace 0), passes repeat until --seconds have elapsed;
// the virtual-clock metrics come from the first pass (every later pass must
// reproduce them exactly) and the host-clock metrics are medians over the
// passes. Traced (--trace 1), one untraced pass is followed by one pass with
// Config::telemetry on and spans around every call into a layer; the
// per-layer metrics come from the traced pass, and its virtual-clock results
// must equal the untraced pass's.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (end-to-end metrics untraced, per-layer metrics traced). The exit
// code is nonzero if any correctness check failed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

struct WorkloadDef {
  const char* name;
  WorldRun (*run)(uint64_t seed, SpanRecorder* rec);
  int worlds;  // K: worlds per pass, fixed so a pass is a fixed amount of work
};

constexpr WorkloadDef kWorkloads[] = {
    {"bulk", RunBulkWorld, 3},
    {"churn", RunChurnWorld, 4},
    {"crowd", RunCrowdWorld, 4},
};

struct Options {
  const WorkloadDef* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool ParseOptions(int argc, char** argv, Options* o) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const WorkloadDef& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) {
          o->workload = &w;
        }
      }
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      o->trace = std::strcmp(value, "1") == 0 ? 1 : std::strcmp(value, "0") == 0 ? 0 : -1;
    } else if (flag == "--trace-out") {
      o->trace_out = value;
    } else {
      return false;
    }
  }
  return o->workload != nullptr && have_seed && o->seconds > 0 && o->trace >= 0;
}

// One world's run with the host-speed calibration taken just before it.
struct Timed {
  double calibration_s = 0;
  WorldRun run;

  // A CPU time of this world in reference seconds (see kCalibrationRefS).
  double Ref(double cpu_s) const { return cpu_s * kCalibrationRefS / calibration_s; }
};

using Pass = std::vector<Timed>;

Pass RunPass(const Options& o, SpanRecorder* rec) {
  Pass pass;
  for (int i = 0; i < o.workload->worlds; ++i) {
    Timed t;
    t.calibration_s = CalibrationCpuSeconds();
    t.run = o.workload->run(DeriveSeed(o.seed, o.workload->name, static_cast<uint64_t>(i)), rec);
    pass.push_back(std::move(t));
  }
  return pass;
}

// Sum over worlds of each world's median across passes, in reference
// seconds: the host cost of one pass's fixed work, with per-world noise
// damped by the repeats and machine-speed drift by the calibration.
double SumOfMedians(const std::vector<Pass>& passes, double WorldRun::*field, bool ref) {
  double total = 0;
  for (size_t i = 0; i < passes.front().size(); ++i) {
    std::vector<double> v;
    for (const Pass& p : passes) {
      const Timed& t = p[i];
      v.push_back(ref ? t.Ref(t.run.*field) : t.run.*field);
    }
    total += MedianOf(std::move(v));
  }
  return total;
}

double PassTotal(const Pass& p) {
  double total = 0;
  for (const Timed& t : p) {
    total += t.Ref(t.run.cpu_s);
  }
  return total;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintLine(const std::string& name, double value, const std::string& unit,
               const std::string& n) {
  std::printf("  %-34s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(), n.c_str());
}

// A pooled timing: its median and its highest supported percentile, with n.
void PrintTail(const std::string& name, const std::vector<double>& samples) {
  Tail t = TailOf(samples);
  std::string n = Cat("n=", std::to_string(t.n));
  PrintLine(name + "_p50", t.p50, "ms", n);
  if (t.top_pct > 0) {
    char label[32];
    std::snprintf(label, sizeof label, "_p%g", t.top_pct);
    PrintLine(name + label, t.top, "ms", n + " (highest percentile with >=10 beyond)");
  } else {
    PrintLine(name + "_tail", 0, "ms", n + " (too few samples for a tail)");
  }
}

std::string Json(bool correct, const Ops& ops, const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(ops.attempted());
  s += ", \"failed\": " + std::to_string(ops.failed());
  s += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         metrics[i].unit + "\"}";
  }
  return s + "}}";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Prints the end-to-end figures of a pass (virtual metrics from `first`,
// host metrics from all `passes`) and returns the gated ones.
std::vector<Metric> EndToEnd(const Options& o, const std::vector<Pass>& passes) {
  const Pass& first = passes.front();
  std::string reps = Cat("n=", std::to_string(first.size()), " worlds x ",
                         std::to_string(passes.size()), " passes");
  std::printf("end-to-end (%s, seed %llu):\n", o.workload->name,
              static_cast<unsigned long long>(o.seed));
  double host_cpu_s = SumOfMedians(passes, &WorldRun::cpu_s, true);
  double setup_s = SumOfMedians(passes, &WorldRun::setup_s, true);
  double rss = PeakRssMb();
  std::vector<double> cal;
  for (const Pass& p : passes) {
    for (const Timed& t : p) {
      cal.push_back(t.calibration_s);
    }
  }
  PrintLine("host_cpu_s", host_cpu_s, "s", reps + ", sum of per-world medians, reference seconds");
  PrintLine("setup_s", setup_s, "s", reps + ", sum of per-world medians, reference seconds");
  PrintLine("peak_rss_mb", rss, "MB", "n=1 process, high water");
  PrintLine("host_cpu_raw_s", SumOfMedians(passes, &WorldRun::cpu_s, false), "s",
            "as measured, before calibration");
  PrintLine("calibration_s", MedianOf(cal), "s",
            Cat("n=", std::to_string(cal.size()), " worlds, median; reference ",
                std::to_string(kCalibrationRefS)));

  Virtual pooled;
  Ops ops;
  std::vector<double> mbps;
  for (const Timed& t : first) {
    const Virtual& v = t.run.virt;
    ops += t.run.ops;
    mbps.push_back(v.relay_mbps);
    pooled.connect_added_ms.insert(pooled.connect_added_ms.end(), v.connect_added_ms.begin(),
                                   v.connect_added_ms.end());
    pooled.syn_err_ms.insert(pooled.syn_err_ms.end(), v.syn_err_ms.begin(), v.syn_err_ms.end());
    pooled.sketch_err_pct.insert(pooled.sketch_err_pct.end(), v.sketch_err_pct.begin(),
                                 v.sketch_err_pct.end());
    pooled.scored += v.scored;
    pooled.attributed += v.attributed;
    pooled.unattributed += v.unattributed;
    pooled.generator_late_ms = std::max(pooled.generator_late_ms, v.generator_late_ms);
    pooled.records_generated += v.records_generated;
  }
  if (std::string(o.workload->name) == "bulk") {
    PrintLine("relay_mbps", MedianOf(mbps), "Mbps",
              Cat("n=", std::to_string(first.size()), " worlds, median"));
  }
  if (pooled.scored > 0) {
    PrintTail("connect_added_ms", pooled.connect_added_ms);
    PrintTail("syn_err_ms", pooled.syn_err_ms);
    PrintLine("attributed_ratio", Ratio(pooled.attributed, pooled.scored), "ratio",
              Cat("n=", std::to_string(pooled.scored), " connections, ",
                  std::to_string(pooled.unattributed), " unattributed"));
    PrintLine("generator_late_ms", pooled.generator_late_ms, "ms",
              "worst open-loop start lateness (virtual time)");
  }
  if (!pooled.sketch_err_pct.empty()) {
    PrintLine("sketch_err_pct", MedianOf(pooled.sketch_err_pct), "%",
              Cat("n=", std::to_string(pooled.sketch_err_pct.size()),
                  " heavy-app p95s, median; max ",
                  std::to_string(PercentileOf(pooled.sketch_err_pct, 100))));
    PrintLine("crowd_rec_per_host_s",
              Ratio(static_cast<double>(pooled.records_generated), host_cpu_s), "rec/s",
              Cat(std::to_string(pooled.records_generated), " records per pass"));
  }
  PrintLine("fail_ratio", Ratio(ops.failed(), ops.attempted()), "ratio",
            Cat(std::to_string(ops.failed()), "/", std::to_string(ops.attempted())));
  std::printf("  operations (attempted/failed): connects %llu/%llu, transfers %llu/%llu, "
              "dns %llu/%llu, frames %llu/%llu\n",
              static_cast<unsigned long long>(ops.connects),
              static_cast<unsigned long long>(ops.connects_failed),
              static_cast<unsigned long long>(ops.transfers),
              static_cast<unsigned long long>(ops.transfers_failed),
              static_cast<unsigned long long>(ops.dns),
              static_cast<unsigned long long>(ops.dns_failed),
              static_cast<unsigned long long>(ops.frames),
              static_cast<unsigned long long>(ops.frames_failed));
  return {{"host_cpu_s", host_cpu_s, "s"}, {"setup_s", setup_s, "s"}, {"peak_rss_mb", rss, "MB"}};
}

std::vector<Metric> PerLayer(const Pass& untraced, const Pass& traced, const SpanRecorder& rec,
                             const std::map<std::string, double>& kernels) {
  Layers L;
  for (const Timed& t : traced) {
    L.Merge(t.run.layers);
  }
  auto spans = rec.Totals();
  auto span_ms = [&](const std::string& name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_ms;
  };
  auto sum = [&](const std::string& k) { return L.sum.count(k) ? L.sum.at(k) : 0.0; };
  auto max = [&](const std::string& k) { return L.max.count(k) ? L.max.at(k) : 0.0; };
  const double worlds = static_cast<double>(traced.size());
  const double run_until_ns = span_ms("sim.run_until") * 1e6;
  const double records = sum("crowd.records");

  std::vector<Metric> m;
  m.push_back({"sim.events", sum("sim.events"), "count"});
  m.push_back({"sim.host_ns_per_event", Ratio(run_until_ns, sum("sim.events")), "ns"});
  for (const auto& [name, ns] : kernels) {
    m.push_back({"netpkt." + name, ns, "ns"});
  }
  m.push_back({"netpkt.pkt_bytes_p50", MedianOf(L.pkt_bytes), "bytes"});
  m.push_back({"core.tun_packets", sum("core.tun_packets"), "count"});
  m.push_back({"core.host_ns_per_pkt", Ratio(run_until_ns, sum("core.tun_packets")), "ns"});
  for (const char* stage : {"tun_read", "dispatch", "parse", "tcp", "socket_read",
                            "socket_write", "dns", "tun_write"}) {
    std::string p = std::string("core.stage.") + stage;
    auto it = L.stage.find(stage);
    bool any = it != L.stage.end() && it->second.count() > 0;
    m.push_back({p + ".p50_us", any ? it->second.Quantile(50) * 1000 : 0, "us"});
    m.push_back({p + ".p99_us", any ? it->second.Quantile(99) * 1000 : 0, "us"});
    m.push_back({p + ".n", any ? static_cast<double>(it->second.count()) : 0, "count"});
  }
  m.push_back({"core.flush_pkts_per_burst",
               Ratio(sum("core.lane_write_packets"), sum("core.lane_write_bursts")), "count"});
  for (const char* k : {"core.steal_handoffs", "core.acks_coalesced"}) {
    m.push_back({k, sum(k), "count"});
  }
  for (const char* k :
       {"core.busy_reader_ms", "core.busy_main_ms", "core.busy_writer_ms", "core.busy_workers_ms"}) {
    m.push_back({k, sum(k), "ms"});
  }
  m.push_back({"core.reader_queue_high_water", max("core.reader_queue_high_water"), "count"});
  m.push_back({"core.clients_high_water", max("core.clients_high_water"), "count"});
  m.push_back({"core.connects_failed", sum("core.connects_failed"), "count"});
  m.push_back({"core.parse_errors", sum("core.parse_errors"), "count"});
  m.push_back({"core.mapper.requests", sum("core.mapper.requests"), "count"});
  m.push_back({"core.mapper.parses_per_request",
               Ratio(sum("core.mapper.parses"), sum("core.mapper.requests")), "ratio"});
  m.push_back({"core.mapper.overhead_ms_p99", PercentileOf(L.mapper_overhead_ms, 99), "ms"});
  m.push_back({"core.mapper.misattributions", sum("core.mapper.misattributions"), "count"});
  m.push_back({"android.proc_rows_peak", max("android.proc_rows_peak"), "count"});
  m.push_back({"android.proc_render_parse_us", L.proc_render_parse_us, "us"});
  m.push_back({"telemetry.overhead_pct", (Ratio(PassTotal(traced), PassTotal(untraced)) - 1) * 100,
               "%"});
  m.push_back({"collector.encode_ns_per_rec",
               Ratio(span_ms("collector.encode_batch_frame") * 1e6, records), "ns"});
  m.push_back({"collector.ingest_ns_per_rec",
               Ratio(span_ms("collector.ingest_payload") * 1e6, records), "ns"});
  m.push_back({"collector.wire_bytes_per_rec", Ratio(sum("collector.wire_bytes"), records),
               "bytes"});
  m.push_back({"collector.agg_bytes_per_rec", Ratio(sum("collector.agg_bytes"), records),
               "bytes"});
  m.push_back({"collector.keys", sum("collector.keys"), "count"});
  m.push_back({"fleet.snapshot_encode_ms", span_ms("fleet.encode_snapshot") / worlds, "ms"});
  m.push_back({"fleet.snapshot_decode_ms", span_ms("fleet.decode_snapshot") / worlds, "ms"});
  m.push_back({"fleet.snapshot_bytes_per_rec", Ratio(sum("fleet.snapshot_bytes"), records),
               "bytes"});
  m.push_back({"fleet.refresh_ms", span_ms("fleet.refresh") / worlds, "ms"});
  m.push_back({"fleet.query_ms", span_ms("fleet.query") / worlds, "ms"});
  m.push_back({"crowd.gen_krec_per_s", Ratio(records, sum("crowd.gen_s")) / 1000, "krec/s"});

  std::printf("per-layer (traced pass, totals over %zu worlds unless a ratio):\n",
              traced.size());
  for (const Metric& x : m) {
    std::printf("  %-38s %14.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  std::printf("spans (name, count, total ms, self ms):\n");
  for (const auto& [name, t] : spans) {
    std::printf("  %-38s %8llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_ms, t.self_ms);
  }
  return m;
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseOptions(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <bulk|churn|crowd> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  std::printf("workload %s: %d worlds per pass, world seeds derived from --seed %llu\n",
              o.workload->name, o.workload->worlds, static_cast<unsigned long long>(o.seed));

  std::vector<std::string> errors;
  auto check_errors = [&](const Pass& pass, const char* label) {
    for (const Timed& t : pass) {
      for (const std::string& e : t.run.errors) {
        errors.push_back(std::string(label) + ": " + e);
      }
    }
  };
  // Every pass of the same seeds must reproduce the first pass's virtual
  // results exactly; a change that only speeds up the host cannot move them.
  auto check_same = [&](const Pass& a, const Pass& b, const char* what) {
    for (size_t i = 0; i < a.size(); ++i) {
      const WorldRun& x = a[i].run;
      const WorldRun& y = b[i].run;
      if (!(x.virt == y.virt) || !(x.ops == y.ops)) {
        errors.push_back(std::string(what) + ": world " + std::to_string(i) +
                         " virtual results differ");
      }
    }
  };

  std::vector<Metric> metrics;
  std::vector<Pass> passes;
  int64_t t0 = WallNs();
  if (o.trace == 0) {
    do {
      passes.push_back(RunPass(o, nullptr));
      check_errors(passes.back(), "pass");
      check_same(passes.front(), passes.back(), "repeat pass");
    } while (static_cast<double>(WallNs() - t0) * 1e-9 < o.seconds);
    metrics = EndToEnd(o, passes);
  } else {
    passes.push_back(RunPass(o, nullptr));
    check_errors(passes.back(), "untraced pass");
    EndToEnd(o, passes);
    SpanRecorder rec;
    std::map<std::string, double> kernels = TimeKernels(&rec);
    Pass traced = RunPass(o, &rec);
    check_errors(traced, "traced pass");
    check_same(passes.front(), traced, "traced pass");
    metrics = PerLayer(passes.front(), traced, rec, kernels);
    if (!o.trace_out.empty()) {
      if (rec.WriteJsonLines(o.trace_out)) {
        std::printf("spans written to %s\n", o.trace_out.c_str());
      } else {
        errors.push_back("cannot write spans to " + o.trace_out);
      }
    }
  }

  Ops ops;
  for (const Timed& t : passes.front()) {
    ops += t.run.ops;
  }
  if (ops.failed() > 0) {
    errors.push_back(std::to_string(ops.failed()) + " operations failed");
  }
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("correctness: %s\n", errors.empty() ? "all checks passed" : "FAILED");
  std::printf("%s\n", Json(errors.empty(), ops, metrics).c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace

Ops& Ops::operator+=(const Ops& o) {
  connects += o.connects;
  connects_failed += o.connects_failed;
  transfers += o.transfers;
  transfers_failed += o.transfers_failed;
  dns += o.dns;
  dns_failed += o.dns_failed;
  frames += o.frames;
  frames_failed += o.frames_failed;
  return *this;
}

void Layers::Merge(const Layers& o) {
  auto peak = [](const Layers& l) {
    auto it = l.max.find("android.proc_rows_peak");
    return it == l.max.end() ? 0.0 : it->second;
  };
  if (peak(o) > peak(*this)) {
    proc_render_parse_us = o.proc_render_parse_us;
  }
  for (const auto& [k, v] : o.sum) {
    sum[k] += v;
  }
  for (const auto& [k, v] : o.max) {
    max[k] = std::max(max[k], v);
  }
  for (const auto& [k, q] : o.stage) {
    stage[k].MergeFrom(q);
  }
  mapper_overhead_ms.insert(mapper_overhead_ms.end(), o.mapper_overhead_ms.begin(),
                            o.mapper_overhead_ms.end());
  pkt_bytes.insert(pkt_bytes.end(), o.pkt_bytes.begin(), o.pkt_bytes.end());
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
