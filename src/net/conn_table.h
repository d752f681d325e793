// The simulated kernel's TCP/UDP connection table.
//
// Every socket the "kernel" knows about — app sockets routed through the TUN
// and MopEye's own protected sockets — registers here with its owning app's
// uid. ProcNet (src/android) renders this table in the exact
// /proc/net/tcp|udp text format, which is what the packet-to-app mapper
// parses (paper §2.2, §3.3).
#ifndef MOPEYE_NET_CONN_TABLE_H_
#define MOPEYE_NET_CONN_TABLE_H_

#include <cstdint>
#include <map>

#include "netpkt/ip.h"
#include "netpkt/packet.h"

namespace mopnet {

// Subset of Linux TCP states used in /proc/net/tcp.
enum class ConnState : uint8_t {
  kEstablished = 0x01,
  kSynSent = 0x02,
  kSynRecv = 0x03,
  kFinWait1 = 0x04,
  kFinWait2 = 0x05,
  kTimeWait = 0x06,
  kClose = 0x07,
  kCloseWait = 0x08,
  kLastAck = 0x09,
  kListen = 0x0a,
  kClosing = 0x0b,
};

struct ConnEntry {
  moppkt::IpProto proto = moppkt::IpProto::kTcp;
  moppkt::SocketAddr local;
  moppkt::SocketAddr remote;
  ConnState state = ConnState::kSynSent;
  int uid = 0;
  uint64_t inode = 0;
};

using ConnHandle = uint64_t;

class KernelConnTable {
 public:
  // Inodes are handed out sequentially from `first_inode`.
  explicit KernelConnTable(uint64_t first_inode = 10000) : next_inode_(first_inode) {}

  // Registers a socket; the entry is visible to snapshots immediately (the
  // kernel writes the row at connect() time, before the SYN leaves).
  ConnHandle Register(ConnEntry entry);
  void UpdateState(ConnHandle h, ConnState state);
  void Unregister(ConnHandle h);

  // Looks up the uid owning (local_port, remote) for `proto`. Matches the
  // kernel's view; returns -1 if absent. Port-only fallback handles the
  // source-NAT ambiguity the real mapper faces.
  int LookupUid(moppkt::IpProto proto, uint16_t local_port,
                const moppkt::SocketAddr& remote) const;

  // Visits the entries of `proto` in registration order, in place.
  template <typename Fn>
  void ForEach(moppkt::IpProto proto, Fn&& fn) const {
    for (const auto& [h, e] : entries_) {
      if (e.proto == proto) {
        fn(e);
      }
    }
  }
  // Rows of `proto`, in O(1): a lazy-mapping parse prices itself by it.
  size_t Count(moppkt::IpProto proto) const;
  size_t size() const { return entries_.size(); }

 private:
  std::map<ConnHandle, ConnEntry> entries_;
  // Entries per protocol, kept in step with entries_.
  std::map<moppkt::IpProto, size_t> counts_;
  ConnHandle next_handle_ = 1;
  uint64_t next_inode_;
};

}  // namespace mopnet

#endif  // MOPEYE_NET_CONN_TABLE_H_
