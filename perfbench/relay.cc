// The two relay workloads.
//
// bulk: the scaled relay (8 lanes, burst reads, stealing, lane egress; one
//   tun queue, no ACK coalescing) under 48 concurrent 1.5 MB elephant
//   downloads on a 10 Gbps link (the table3 48-client point), plus a light
//   open-loop Poisson stream of probe connections — what a chat app feels
//   while a download saturates the relay.
// churn: the paper config as shipped (MopEyeConfig(), one lane) under an
//   open-loop Poisson stream of short connections from several apps, a share
//   of them behind a DNS lookup — the SYN path the paper's claims rest on.
//
// Every scored connection (probe, churn) goes to its own server address, so
// the external capture log (tcpdump) and MopEye's record pair exactly. Each
// world is a fixed amount of work: a fixed number of downloads and stream
// connections (Poisson gaps, fixed count), so host cost compares across
// seeds.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "android/device.h"
#include "apps/app.h"
#include "apps/tcp_client.h"
#include "apps/tun_stack.h"
#include "baselines/presets.h"
#include "core/engine.h"
#include "net/dns_server.h"
#include "net/server.h"
#include "perfbench/workloads.h"
#include "sim/event_loop.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"

namespace perfbench {
namespace {

using moputil::SimDuration;
using moputil::SimTime;

struct RelayPlan {
  const char* name;
  mopeye::Config config;
  double link_bps;
  SimDuration first_hop_one_way;
  // Elephant downloads, one per client, started 1 ms apart.
  int elephants = 0;
  size_t elephant_bytes = 0;
  // Open-loop Poisson stream of short connections.
  double rate_per_s = 0;
  int stream_count = 0;
  double dns_share = 0;
  int stream_apps = 4;
  size_t request_min = 64, request_max = 200;
  size_t response_min = 800, response_max = 1200;
  double path_one_way_min_ms = 1, path_one_way_max_ms = 50;
  SimTime horizon = 0;   // hard stop; anything unfinished by then failed
  SimDuration slice = 0;  // RunUntil granularity (proc-row sampling points)
};

RelayPlan BulkPlan() {
  RelayPlan p;
  p.name = "bulk";
  p.config = mopbase::MopEyeConfig();
  // The table3 v3 sweep settings; tun_queues and ack_coalescing stay at
  // their defaults (the paired 12-seed sweep showed no gain from them).
  p.config.worker_lanes = 8;
  p.config.tun_read_batch = 32;
  p.config.steal_enabled = true;
  p.config.lane_tun_write = true;
  p.link_bps = 10e9;
  p.first_hop_one_way = moputil::Micros(200);
  p.elephants = 48;
  p.elephant_bytes = static_cast<size_t>(1.5 * 1024 * 1024);
  // ~400 probes over the ~0.2 s the downloads take.
  p.rate_per_s = 2000;
  p.stream_count = 400;
  p.horizon = moputil::Seconds(20);
  p.slice = moputil::Millis(25);
  return p;
}

RelayPlan ChurnPlan() {
  RelayPlan p;
  p.name = "churn";
  p.config = mopbase::MopEyeConfig();
  p.link_bps = 100e6;
  p.first_hop_one_way = moputil::Millis(2);
  // Below saturation: p99 holds steady as the horizon grows.
  p.rate_per_s = 1000;
  p.stream_count = 3000;
  p.dns_share = 0.3;
  p.stream_apps = 8;
  p.horizon = moputil::Seconds(30);
  p.slice = moputil::Millis(50);
  return p;
}

// One simulated phone + internet. Member order is destruction order in
// reverse: apps and the stack go before the engine, the engine before the
// device, and the loop last.
struct World {
  mopsim::EventLoop loop;
  mopnet::PathTable paths;
  mopnet::ServerFarm farm;
  std::unique_ptr<mopdroid::AndroidDevice> device;
  std::unique_ptr<mopnet::DnsServer> dns;
  std::unique_ptr<mopeye::MopEyeEngine> engine;
  std::unique_ptr<mopapps::TunNetStack> stack;
  std::vector<std::unique_ptr<mopapps::App>> apps;

  World(const RelayPlan& plan, uint64_t seed) {
    paths.SetDefault(std::make_shared<moputil::FixedDelay>(moputil::Millis(2)));
    mopnet::NetworkProfile profile;
    profile.first_hop_one_way = std::make_shared<moputil::FixedDelay>(plan.first_hop_one_way);
    profile.uplink_bps = plan.link_bps;
    profile.downlink_bps = plan.link_bps;
    device = std::make_unique<mopdroid::AndroidDevice>(&loop, profile, &paths, &farm, seed);
    dns = std::make_unique<mopnet::DnsServer>(
        &farm, moppkt::SocketAddr{profile.dns_server, 53},
        std::make_shared<moputil::FixedDelay>(moputil::Micros(300)), moputil::Rng(seed ^ 7));
  }

  moputil::Status Start(mopeye::Config config) {
    engine = std::make_unique<mopeye::MopEyeEngine>(device.get(), std::move(config));
    moputil::Status st = engine->Start();
    if (st.ok()) {
      stack = std::make_unique<mopapps::TunNetStack>(device.get());
      stack->AttachTun();
    }
    return st;
  }

  void AddServer(const moppkt::SocketAddr& addr, SimDuration one_way,
                 mopnet::BehaviorFactory factory) {
    paths.SetPath(addr.ip, std::make_shared<moputil::FixedDelay>(one_way));
    farm.AddTcpServer(addr, std::move(factory));
  }
};

// A connection of the open-loop stream.
struct StreamConn {
  SimTime due = 0;
  moppkt::SocketAddr server;
  mopapps::App* app = nullptr;
  size_t request = 0, response = 0;
  std::string domain;  // non-empty: resolve through the relay first
  SimTime fired = -1;
  std::shared_ptr<mopapps::AppTcpConnection> conn;
  bool connected = false, connect_failed = false, dns_failed = false, done = false;
};

struct Download {
  std::shared_ptr<mopapps::AppTcpConnection> conn;
  bool connected = false, connect_failed = false, done = false;
};

// The traffic of one world. Declared after its World so it is destroyed
// first, while the stack its connections unregister from still exists.
class Traffic {
 public:
  Traffic(World* w, const RelayPlan& plan) : w_(w), plan_(plan) {}

  void Generate(moputil::Rng& rng) {
    for (int i = 0; i < plan_.elephants; ++i) {
      moppkt::SocketAddr addr{moppkt::IpAddr(93, 50, static_cast<uint8_t>(i / 250),
                                             static_cast<uint8_t>(1 + i % 250)),
                              80};
      size_t bytes = plan_.elephant_bytes;
      w_->AddServer(addr, moputil::Millis(2),
                    [bytes] { return std::make_unique<mopnet::BulkSourceBehavior>(bytes); });
      elephant_servers_.push_back(addr);
      elephant_apps_.push_back(bulk_apps_[static_cast<size_t>(i) % bulk_apps_.size()]);
      w_->loop.ScheduleAt(moputil::Millis(1) * i, [this, i] { StartDownload(i); });
    }
    SimTime t = 0;
    for (uint32_t i = 0; i < static_cast<uint32_t>(plan_.stream_count); ++i) {
      t += moputil::Millis(rng.Exponential(1000.0 / plan_.rate_per_s));
      StreamConn s;
      s.due = t;
      s.server = {moppkt::IpAddr(61, static_cast<uint8_t>(i >> 16),
                                 static_cast<uint8_t>(i >> 8), static_cast<uint8_t>(i)),
                  443};
      s.app = stream_apps_[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(stream_apps_.size()) - 1))];
      s.request = static_cast<size_t>(rng.UniformInt(static_cast<int64_t>(plan_.request_min),
                                                     static_cast<int64_t>(plan_.request_max)));
      s.response = static_cast<size_t>(rng.UniformInt(static_cast<int64_t>(plan_.response_min),
                                                      static_cast<int64_t>(plan_.response_max)));
      // Path RTTs spread log-uniformly from a few ms to ~100 ms.
      double one_way_ms = plan_.path_one_way_min_ms *
                          std::pow(plan_.path_one_way_max_ms / plan_.path_one_way_min_ms,
                                   rng.NextDouble());
      size_t req = s.request, resp = s.response;
      w_->AddServer(s.server, moputil::Millis(one_way_ms), [req, resp] {
        return std::make_unique<mopnet::HttpLikeBehavior>(req, resp, 0);
      });
      if (rng.Bernoulli(plan_.dns_share)) {
        s.domain = Cat("c", std::to_string(i), ".perfbench.example");
        w_->farm.resolution().Add(s.domain, s.server.ip);
      }
      stream_.push_back(std::move(s));
      size_t index = stream_.size() - 1;
      w_->loop.ScheduleAt(t, [this, index] { Fire(index); });
    }
  }

  void MakeApps() {
    for (int i = 0; i < 4 && plan_.elephants > 0; ++i) {
      bulk_apps_.push_back(AddApp(10150 + i, Cat("com.perfbench.bulk", std::to_string(i))));
    }
    for (int i = 0; i < plan_.stream_apps; ++i) {
      stream_apps_.push_back(AddApp(10200 + i, Cat("com.perfbench.chat", std::to_string(i))));
    }
  }

  // True once every download and stream connection has ended.
  bool Finished() const {
    if (downloads_.size() < static_cast<size_t>(plan_.elephants) ||
        fired_ < stream_.size()) {
      return false;
    }
    for (const Download& d : downloads_) {
      if (!d.done && !d.connect_failed) {
        return false;
      }
    }
    for (const StreamConn& s : stream_) {
      if (!s.done && !s.connect_failed && !s.dns_failed) {
        return false;
      }
    }
    return true;
  }

  const std::vector<StreamConn>& stream() const { return stream_; }
  const std::vector<Download>& downloads() const { return downloads_; }
  const std::vector<moppkt::SocketAddr>& elephant_servers() const { return elephant_servers_; }
  int ElephantUid(int client) const { return elephant_apps_[static_cast<size_t>(client)]->uid(); }
  double max_late_ms() const { return max_late_ms_; }

 private:
  mopapps::App* AddApp(int uid, const std::string& package) {
    w_->apps.push_back(std::make_unique<mopapps::App>(w_->device.get(), w_->stack.get(), uid,
                                                      package, package));
    return w_->apps.back().get();
  }

  void StartDownload(int client) {
    downloads_.push_back({mopapps::AppTcpConnection::Create(
        w_->stack.get(), elephant_apps_[static_cast<size_t>(client)]->uid())});
    size_t index = downloads_.size() - 1;
    Download& d = downloads_[index];
    d.conn->Connect(elephant_servers_[static_cast<size_t>(client)],
                    [this, index](moputil::Status st) {
                      downloads_[index].connected = st.ok();
                      downloads_[index].connect_failed = !st.ok();
                    });
    d.conn->on_data = [this, index](std::span<const uint8_t>) {
      Download& dl = downloads_[index];
      if (!dl.done && dl.conn->bytes_received() >= plan_.elephant_bytes) {
        dl.done = true;
        dl.conn->Close();
      }
    };
  }

  void Fire(size_t index) {
    StreamConn& s = stream_[index];
    s.fired = w_->loop.Now();
    ++fired_;
    max_late_ms_ = std::max(max_late_ms_, moputil::ToMillis(s.fired - s.due));
    if (s.domain.empty()) {
      Connect(index);
      return;
    }
    s.app->Resolve(s.domain, [this, index](moputil::Result<mopapps::DnsResult> r) {
      StreamConn& sc = stream_[index];
      if (!r.ok() || r.value().address != sc.server.ip) {
        sc.dns_failed = true;
        return;
      }
      Connect(index);
    });
  }

  void Connect(size_t index) {
    StreamConn& s = stream_[index];
    s.conn = mopapps::AppTcpConnection::Create(w_->stack.get(), s.app->uid());
    s.conn->on_data = [this, index](std::span<const uint8_t>) {
      StreamConn& sc = stream_[index];
      if (!sc.done && sc.conn->bytes_received() >= sc.response) {
        sc.done = true;
        sc.conn->Close();
      }
    };
    s.conn->Connect(s.server, [this, index](moputil::Status st) {
      StreamConn& sc = stream_[index];
      if (!st.ok()) {
        sc.connect_failed = true;
        return;
      }
      sc.connected = true;
      sc.conn->SendBytes(sc.request);
    });
  }

  World* w_;
  const RelayPlan& plan_;
  std::vector<mopapps::App*> bulk_apps_, stream_apps_;
  std::vector<moppkt::SocketAddr> elephant_servers_;
  std::vector<mopapps::App*> elephant_apps_;
  std::vector<Download> downloads_;
  std::vector<StreamConn> stream_;
  size_t fired_ = 0;
  double max_late_ms_ = 0;
};

constexpr struct {
  const char* metric;
  const char* stage;
} kStages[] = {
    {"mopeye_relay_stage_tun_read_ms", "tun_read"},
    {"mopeye_relay_stage_dispatch_ms", "dispatch"},
    {"mopeye_relay_stage_parse_ms", "parse"},
    {"mopeye_relay_stage_tcp_ms", "tcp"},
    {"mopeye_relay_stage_socket_read_ms", "socket_read"},
    {"mopeye_relay_stage_socket_write_ms", "socket_write"},
    {"mopeye_relay_stage_dns_ms", "dns"},
    {"mopeye_relay_stage_tun_write_ms", "tun_write"},
};

// Times ProcNet::Render + ParseProcNet on the live table (median of a few
// repeats, microseconds). Host-only: the virtual clock does not move.
double TimeProcRenderParse(mopdroid::AndroidDevice& device, SpanRecorder* rec) {
  ScopedSpan span(rec, "android.proc_render_parse");
  std::vector<double> us;
  for (int r = 0; r < 5; ++r) {
    int64_t t0 = WallNs();
    auto parsed = mopdroid::ParseProcNet(device.proc_net().Render(moppkt::IpProto::kTcp));
    us.push_back(static_cast<double>(WallNs() - t0) * 1e-3);
    if (!parsed.ok()) {
      return -1;
    }
  }
  return MedianOf(std::move(us));
}

WorldRun RunRelayWorld(const RelayPlan& plan, uint64_t seed, SpanRecorder* rec) {
  WorldRun run;
  if (rec != nullptr) {
    rec->SetWorld(seed);
  }
  ScopedSpan world_span(rec, std::string("world.") + plan.name);

  // ---- Set-up: build the world, start the engine, generate the inputs ----
  double setup_cpu0 = CpuSeconds();
  World w(plan, seed);
  Traffic traffic(&w, plan);
  {
    ScopedSpan span(rec, "engine.start");
    mopeye::Config cfg = plan.config;
    cfg.telemetry = rec != nullptr;
    moputil::Status st = w.Start(cfg);
    if (!st.ok()) {
      run.errors.push_back(Cat("engine start failed: ", st.ToString()));
      return run;
    }
  }
  {
    ScopedSpan span(rec, "traffic.generate");
    moputil::Rng rng(seed ^ 0x5eed);
    traffic.MakeApps();
    traffic.Generate(rng);
  }
  run.setup_s = CpuSeconds() - setup_cpu0;

  // ---- Measured phase ----
  double cpu0 = CpuSeconds();
  Layers& L = run.layers;
  double events = 0, proc_rows_peak = 0, read_queue_hw = 0, probe_cpu_s = 0;
  moptel::FlightRecorder* recorder = w.engine->flight_recorder();  // non-null iff traced
  // Once every transfer has ended, keep running for kDrain so late work
  // (lazy mappings, closes) lands before the store is read.
  constexpr SimDuration kDrain = moputil::Seconds(1);
  SimTime drain_until = -1;
  while (w.loop.Now() < plan.horizon) {
    if (drain_until < 0 && traffic.Finished()) {
      drain_until = w.loop.Now() + kDrain;
    }
    if (drain_until >= 0 && w.loop.Now() >= drain_until) {
      break;
    }
    {
      ScopedSpan span(rec, "sim.run_until");
      events += static_cast<double>(w.loop.RunUntil(w.loop.Now() + plan.slice));
    }
    double rows = static_cast<double>(w.device->proc_net().RowCount(moppkt::IpProto::kTcp));
    bool new_peak = rows > proc_rows_peak;
    proc_rows_peak = std::max(proc_rows_peak, rows);
    if (rec == nullptr) {
      continue;
    }
    // Traced-run probes; their CPU is the benchmark's, not the workload's.
    double probe0 = CpuSeconds();
    if (new_peak) {
      L.proc_render_parse_us = TimeProcRenderParse(*w.device, rec);
    }
    for (const moptel::TraceEvent& e : recorder->MergedEvents()) {
      if (e.kind == moptel::TraceKind::kQueueHighWater &&
          std::string_view(e.what) == "read-queue-high-water") {
        read_queue_hw = std::max(read_queue_hw, static_cast<double>(e.a));
      }
    }
    probe_cpu_s += CpuSeconds() - probe0;
  }
  std::vector<mopeye::Measurement> records;
  {
    ScopedSpan span(rec, "core.store_read");
    records = w.engine->store().records();
  }
  mopeye::MopEyeEngine::Counters c;
  mopeye::MopEyeEngine::ResourceUsage res;
  {
    ScopedSpan span(rec, "core.registry_read");
    c = w.engine->counters();
    res = w.engine->resources();
    if (const moptel::Registry* reg = w.engine->telemetry_registry()) {
      for (const auto& s : kStages) {
        if (const moptel::Histogram* h = reg->FindHistogram(s.metric)) {
          L.stage[s.stage].MergeFrom(h->Merged());
        }
      }
    }
  }
  run.cpu_s = CpuSeconds() - cpu0 - probe_cpu_s;

  // ---- Score against the capture log ----
  const auto& capture = w.device->net().capture().records();
  auto pairs = PairByServer(capture, records);
  Virtual& v = run.virt;
  Ops& ops = run.ops;
  for (const StreamConn& s : traffic.stream()) {
    if (!s.domain.empty()) {
      ++ops.dns;
      if (s.dns_failed) {
        ++ops.dns_failed;
        continue;
      }
    }
    ++ops.connects;
    ++ops.transfers;
    if (!s.connected) {
      ++ops.connects_failed;
      ++ops.transfers_failed;
      continue;
    }
    if (!s.done) {
      ++ops.transfers_failed;
    }
    const Paired& p = pairs[s.server];
    if (p.syns != 1 || p.syn_acks != 1 || p.records != 1) {
      run.errors.push_back(Cat("pairing not exact for ", s.server.ToString(), ": syns=",
                               std::to_string(p.syns), " syn_acks=", std::to_string(p.syn_acks),
                               " records=", std::to_string(p.records)));
      continue;
    }
    ++v.scored;
    v.connect_added_ms.push_back(moputil::ToMillis(s.conn->connect_latency()) - p.wire_rtt_ms);
    v.syn_err_ms.push_back(std::fabs(p.mopeye_rtt_ms - p.wire_rtt_ms));
    if (p.uid == s.app->uid()) {
      ++v.attributed;
    } else if (p.uid < 0) {
      ++v.unattributed;
    } else {
      run.errors.push_back(Cat("record for ", s.server.ToString(), " names uid ", std::to_string(p.uid),
                               ", connection ran as ", std::to_string(s.app->uid())));
    }
  }
  v.generator_late_ms = traffic.max_late_ms();

  uint64_t bulk_bytes = 0;
  SimTime first = 0, last = 0;
  for (const Download& d : traffic.downloads()) {
    ++ops.connects;
    ++ops.transfers;
    ops.connects_failed += d.connected ? 0 : 1;
    ops.transfers_failed += d.done ? 0 : 1;
    bulk_bytes += d.conn->bytes_received();
    if (d.conn->first_data_time() != 0 && (first == 0 || d.conn->first_data_time() < first)) {
      first = d.conn->first_data_time();
    }
    last = std::max(last, d.conn->last_data_time());
  }
  if (last > first) {
    v.relay_mbps = static_cast<double>(bulk_bytes) * 8.0 / moputil::ToSeconds(last - first) / 1e6;
  }
  // Elephant servers are shared by one client's successive downloads, so
  // they are not paired; their records must still never name a wrong uid.
  for (size_t i = 0; i < traffic.elephant_servers().size(); ++i) {
    for (const mopeye::Measurement& m : records) {
      if (m.kind == mopeye::MeasureKind::kTcpConnect && m.server == traffic.elephant_servers()[i] &&
          m.uid >= 0 && m.uid != traffic.ElephantUid(static_cast<int>(i))) {
        run.errors.push_back(Cat("elephant record names uid ", std::to_string(m.uid)));
      }
    }
  }

  // ---- Per-layer raw figures ----
  L.sum["sim.events"] = events;
  L.sum["core.tun_packets"] = static_cast<double>(c.tun_packets);
  L.sum["core.lane_write_packets"] = static_cast<double>(c.lane_write_packets);
  L.sum["core.lane_write_bursts"] = static_cast<double>(c.lane_write_bursts);
  L.sum["core.steal_handoffs"] = static_cast<double>(c.steal_handoffs);
  L.sum["core.acks_coalesced"] = static_cast<double>(c.acks_coalesced);
  L.sum["core.connects_failed"] = static_cast<double>(c.connects_failed);
  L.sum["core.parse_errors"] = static_cast<double>(c.parse_errors);
  L.sum["core.busy_reader_ms"] = moputil::ToMillis(res.busy_reader);
  L.sum["core.busy_main_ms"] = moputil::ToMillis(res.busy_main);
  L.sum["core.busy_writer_ms"] = moputil::ToMillis(res.busy_writer);
  L.sum["core.busy_workers_ms"] = moputil::ToMillis(res.busy_workers);
  L.max["core.clients_high_water"] = static_cast<double>(w.engine->global_clients_high_water());
  L.max["core.reader_queue_high_water"] = read_queue_hw;
  L.max["android.proc_rows_peak"] = proc_rows_peak;
  const mopeye::PacketToAppMapper& mapper = w.engine->mapper();
  L.sum["core.mapper.requests"] = mapper.requests();
  L.sum["core.mapper.parses"] = mapper.parses();
  L.sum["core.mapper.misattributions"] = mapper.misattributions();
  L.mapper_overhead_ms = mapper.overhead_ms().values();
  for (const mopnet::CaptureRecord& r : capture) {
    if (r.event == mopnet::CaptureEvent::kTcpData && r.bytes > 0) {
      L.pkt_bytes.push_back(static_cast<double>(r.bytes));
    }
  }
  return run;
}

}  // namespace

WorldRun RunBulkWorld(uint64_t seed, SpanRecorder* rec) {
  return RunRelayWorld(BulkPlan(), seed, rec);
}

WorldRun RunChurnWorld(uint64_t seed, SpanRecorder* rec) {
  return RunRelayWorld(ChurnPlan(), seed, rec);
}

}  // namespace perfbench
