#include "net/conn_table.h"

namespace mopnet {

ConnHandle KernelConnTable::Register(ConnEntry entry) {
  entry.inode = next_inode_++;
  ConnHandle h = next_handle_++;
  entries_[h] = entry;
  ++counts_[entry.proto];
  return h;
}

void KernelConnTable::UpdateState(ConnHandle h, ConnState state) {
  auto it = entries_.find(h);
  if (it != entries_.end()) {
    it->second.state = state;
  }
}

void KernelConnTable::Unregister(ConnHandle h) {
  auto it = entries_.find(h);
  if (it != entries_.end()) {
    --counts_[it->second.proto];
    entries_.erase(it);
  }
}

int KernelConnTable::LookupUid(moppkt::IpProto proto, uint16_t local_port,
                               const moppkt::SocketAddr& remote) const {
  int port_only_match = -1;
  for (const auto& [h, e] : entries_) {
    if (e.proto != proto || e.local.port != local_port) {
      continue;
    }
    if (e.remote == remote) {
      return e.uid;
    }
    port_only_match = e.uid;
  }
  return port_only_match;
}

size_t KernelConnTable::Count(moppkt::IpProto proto) const {
  auto it = counts_.find(proto);
  return it == counts_.end() ? 0 : it->second;
}

}  // namespace mopnet
