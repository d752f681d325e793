// The crowd workload: the collector and fleet tiers, no relay. Set-up
// generates crowd-World measurement records grouped by device; the measured
// phase encodes them into upload frames, routes each device to one of three
// collectors, ingests and folds them, round-trips every collector through a
// snapshot, refreshes the merged FleetView and queries per-app p50/p95. It
// is a batch replay, so its figures are work per host second at a stated
// record count.
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "collector/server.h"
#include "collector/wire.h"
#include "core/measurement.h"
#include "crowd/world.h"
#include "fleet/router.h"
#include "fleet/snapshot.h"
#include "fleet/view.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

constexpr size_t kRecords = 150000;
constexpr size_t kBatch = 500;  // records per upload frame
constexpr size_t kBatchesPerDevice = 2;
constexpr size_t kCollectors = 3;
constexpr size_t kHeadApps = 24;   // apps that carry the traffic
constexpr size_t kScoredApps = 4;  // heaviest apps scored for sketch error

struct DeviceUpload {
  uint32_t device = 0;
  uint32_t seq = 0;
  std::vector<mopeye::Measurement> records;
};

std::vector<DeviceUpload> Generate(const mopcrowd::World& world, moputil::Rng& rng) {
  std::vector<double> weights;
  for (size_t a = 0; a < std::min(kHeadApps, world.apps().size()); ++a) {
    weights.push_back(world.apps()[a].install_rate * world.apps()[a].usage_weight);
  }
  std::vector<DeviceUpload> uploads;
  uploads.reserve(kRecords / kBatch + 1);
  size_t generated = 0;
  for (uint32_t device = 1; generated < kRecords; ++device) {
    const auto& country = world.countries()[device % world.countries().size()];
    const mopcrowd::IspProfile* isp =
        country.cellular_isps.empty()
            ? nullptr
            : &world.isps()[static_cast<size_t>(
                  country.cellular_isps[device % country.cellular_isps.size()])];
    for (uint32_t seq = 1; seq <= kBatchesPerDevice && generated < kRecords; ++seq) {
      DeviceUpload up;
      up.device = device;
      up.seq = seq;
      up.records.reserve(kBatch);
      for (size_t i = 0; i < kBatch && generated < kRecords; ++i, ++generated) {
        const auto& app = world.apps()[rng.WeightedIndex(weights)];
        bool wifi = isp == nullptr || rng.Bernoulli(0.5);
        mopnet::NetType net = wifi ? mopnet::NetType::kWifi : isp->type;
        mopeye::Measurement m;
        m.app = app.label;
        m.domain = app.domains.front().pattern;
        m.net_type = net;
        m.isp = wifi ? "HomeFiber" : isp->name;
        m.country = country.code;
        m.rtt = moputil::Millis(
            world.SampleAppRttMs(net, wifi ? nullptr : isp, app.domains.front().placement, rng));
        up.records.push_back(std::move(m));
      }
      uploads.push_back(std::move(up));
    }
  }
  return uploads;
}

}  // namespace

WorldRun RunCrowdWorld(uint64_t seed, SpanRecorder* rec) {
  WorldRun run;
  if (rec != nullptr) {
    rec->SetWorld(seed);
  }
  ScopedSpan world_span(rec, "world.crowd");

  // ---- Set-up: generate the records ----
  double setup_cpu0 = CpuSeconds();
  std::vector<DeviceUpload> uploads;
  {
    ScopedSpan span(rec, "crowd.generate");
    mopcrowd::World world = mopcrowd::World::Default();
    moputil::Rng rng(seed);
    uploads = Generate(world, rng);
  }
  run.setup_s = CpuSeconds() - setup_cpu0;

  // ---- Measured phase ----
  double cpu0 = CpuSeconds();
  std::vector<moppkt::SocketAddr> addrs;
  for (size_t c = 0; c < kCollectors; ++c) {
    addrs.push_back({moppkt::IpAddr(10, 99, 0, static_cast<uint8_t>(c + 1)), 9000});
  }
  mopfleet::FleetRouter router(addrs);
  std::vector<mopcollect::CollectorServer> collectors(kCollectors);
  double wire_bytes = 0;
  for (const DeviceUpload& up : uploads) {
    std::vector<uint8_t> frame;
    {
      ScopedSpan span(rec, "collector.encode_batch_frame");
      mopcollect::BatchBuilder builder(up.device, up.seq);
      for (const mopeye::Measurement& m : up.records) {
        builder.Add(m);
      }
      frame = mopcollect::EncodeBatchFrame(builder.TakeBatch());
    }
    wire_bytes += static_cast<double>(frame.size());
    ++run.ops.frames;
    ScopedSpan span(rec, "collector.ingest_payload");
    // The first 4 bytes are the stream length prefix.
    auto accepted = collectors[router.ShardOf(up.device)].IngestPayload(
        {frame.data() + 4, frame.size() - 4});
    if (!accepted.ok()) {
      ++run.ops.frames_failed;
    }
  }

  mopfleet::FleetView view;
  double snapshot_bytes = 0, agg_bytes = 0, keys = 0;
  uint64_t folded = 0;
  bool round_trip_ok = true;
  for (const mopcollect::CollectorServer& col : collectors) {
    folded += col.counters().records_ingested;
    agg_bytes += static_cast<double>(col.store().ApproxMemoryBytes());
    keys += static_cast<double>(col.store().key_count());
    mopcollect::CollectorState state = col.ExportState();
    std::vector<uint8_t> bytes;
    {
      ScopedSpan span(rec, "fleet.encode_snapshot");
      bytes = mopfleet::EncodeSnapshot(state);
    }
    snapshot_bytes += static_cast<double>(bytes.size());
    moputil::Result<mopcollect::CollectorState> decoded = [&] {
      ScopedSpan span(rec, "fleet.decode_snapshot");
      return mopfleet::DecodeSnapshot(bytes);
    }();
    if (!decoded.ok()) {
      round_trip_ok = false;
      continue;
    }
    {
      ScopedSpan span(rec, "fleet.encode_snapshot");
      round_trip_ok = round_trip_ok && mopfleet::EncodeSnapshot(decoded.value()) == bytes;
    }
    view.AttachState(std::move(decoded).value());
  }
  {
    ScopedSpan span(rec, "fleet.refresh");
    view.Refresh();
  }
  std::vector<mopcollect::AppStat> stats;
  {
    ScopedSpan span(rec, "fleet.query");
    stats = view.TcpAppStats();
  }
  run.cpu_s = CpuSeconds() - cpu0;

  // ---- Score: merged p95 against the exact p95 of the generated records ----
  std::map<std::string, std::vector<double>> exact;
  for (const DeviceUpload& up : uploads) {
    for (const mopeye::Measurement& m : up.records) {
      exact[m.app].push_back(moputil::ToMillis(m.rtt));
    }
  }
  Virtual& v = run.virt;
  v.records_generated = kRecords;
  v.records_folded = folded;
  for (size_t i = 0; i < stats.size() && i < kScoredApps; ++i) {
    double truth = PercentileOf(exact[stats[i].app], 95.0);
    v.sketch_err_pct.push_back(100.0 * std::fabs(stats[i].p95_ms - truth) / truth);
  }
  if (folded != kRecords || view.records_ingested() != kRecords) {
    run.errors.push_back(Cat("crowd folded ", std::to_string(folded), " records (view ",
                             std::to_string(view.records_ingested()), "), generated ",
                             std::to_string(kRecords)));
  }
  if (!round_trip_ok) {
    run.errors.push_back("snapshot encode -> decode -> encode is not byte-identical");
  }
  if (v.sketch_err_pct.size() != kScoredApps) {
    run.errors.push_back(Cat("fleet query returned ", std::to_string(stats.size()), " apps"));
  }

  Layers& L = run.layers;
  L.sum["crowd.records"] = static_cast<double>(kRecords);
  L.sum["crowd.gen_s"] = run.setup_s;
  L.sum["collector.wire_bytes"] = wire_bytes;
  L.sum["collector.agg_bytes"] = agg_bytes;
  L.sum["collector.keys"] = keys;
  L.sum["fleet.snapshot_bytes"] = snapshot_bytes;
  return run;
}

}  // namespace perfbench
