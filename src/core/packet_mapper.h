// Packet-to-app mapping (paper §2.2, §3.3).
//
// Android exposes no API for socket-to-app attribution; the only source is
// /proc/net/tcp6|tcp|udp|udp6, whose rows carry (addresses, uid). Parsing
// them costs 5-30 ms per pass (Fig. 5a), so *when* and *how often* to parse
// is a first-order design decision:
//
//  * kNaivePerSyn  — parse synchronously for every SYN on the main thread
//                    (the Fig. 5a baseline; blocks all relaying meanwhile).
//  * kCacheBased   — Haystack's scheme: cache by remote endpoint. Cheap but
//                    wrong when two apps reach the same server:port (the
//                    Facebook-app vs Chrome example, and shared ad SDKs).
//  * kLazy         — MopEye's scheme: defer to the temporary socket-connect
//                    thread (off the main thread, after the handshake), and
//                    let ONE thread parse while concurrent threads sleep in
//                    50 ms slices and reuse its snapshot (67.8% of threads
//                    avoided parsing in the paper's browsing run, Fig. 5b).
#ifndef MOPEYE_CORE_PACKET_MAPPER_H_
#define MOPEYE_CORE_PACKET_MAPPER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "android/device.h"
#include "core/config.h"
#include "netpkt/packet.h"
#include "sim/actor.h"
#include "util/stats.h"

namespace mopeye {

class PacketToAppMapper {
 public:
  struct Outcome {
    int uid = -1;
    std::string label = "(unknown)";
    // This request ran a full proc parse itself.
    bool performed_parse = false;
    // Busy time spent parsing (0 for waiters / cache hits).
    moputil::SimDuration parse_cost = 0;
    // 50 ms slices this request slept waiting for another thread's parse.
    int wait_slices = 0;
    // Wall time from request to completion.
    moputil::SimDuration total_latency = 0;
  };

  PacketToAppMapper(mopdroid::AndroidDevice* device, const Config* config);

  // Resolves the app owning `flow`. `lane` is the calling thread (MainWorker
  // for kNaivePerSyn, the socket-connect thread for kLazy); parse cost
  // occupies it. `done` runs on completion.
  void Map(const moppkt::FlowKey& flow, mopsim::ActorLane* lane,
           std::function<void(Outcome)> done);

  // ---- Stats (Fig. 5 and the mitigation rate) ----
  int requests() const { return requests_; }
  int parses() const { return parses_; }
  int avoided() const { return requests_ - parses_; }
  // Per-request mapping overhead in ms (busy parse time; waiters contribute
  // ~0), i.e. exactly what Fig. 5 plots.
  const moputil::Samples& overhead_ms() const { return overhead_ms_; }
  // Wrong attributions the cache strategy produced (ground truth from the
  // kernel table); always 0 for naive/lazy.
  int misattributions() const { return misattributions_; }

 private:
  struct FlowUid {
    uint16_t local_port = 0;
    moppkt::SocketAddr remote;
    int uid = -1;
  };
  struct Snapshot {
    // (local port, remote) -> uid from the last full parse, sorted by key
    // with one row per key, for binary search.
    std::vector<FlowUid> by_flow;
    moputil::SimTime taken_at = -1;
  };

  void RunParse(const moppkt::FlowKey& flow, mopsim::ActorLane* lane,
                std::function<void(Outcome)> done, moputil::SimTime requested_at,
                int wait_slices);
  void WaitForParse(const moppkt::FlowKey& flow, mopsim::ActorLane* lane,
                    std::function<void(Outcome)> done, moputil::SimTime requested_at,
                    int wait_slices);
  Outcome Lookup(const moppkt::FlowKey& flow) const;
  void Finish(Outcome outcome, moputil::SimTime requested_at,
              const std::function<void(Outcome)>& done);

  mopdroid::AndroidDevice* device_;
  const Config* config_;

  Snapshot snapshot_;
  bool parse_in_progress_ = false;

  // Cache strategy state: remote endpoint -> uid.
  std::map<moppkt::SocketAddr, int> remote_cache_;

  int requests_ = 0;
  int parses_ = 0;
  int misattributions_ = 0;
  moputil::Samples overhead_ms_;
};

}  // namespace mopeye

#endif  // MOPEYE_CORE_PACKET_MAPPER_H_
