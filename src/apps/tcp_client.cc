#include "apps/tcp_client.h"

#include <algorithm>

#include "netpkt/packet_buf.h"
#include "util/logging.h"

namespace mopapps {

namespace {
constexpr uint32_t kInitialCwndSegments = 10;
constexpr uint16_t kAppMss = 1460;
constexpr uint16_t kAppWindow = 65535;

std::vector<uint8_t> Pattern(size_t n) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>((i * 131) & 0xff);
  }
  return v;
}
}  // namespace

const char* AppTcpStateName(AppTcpState s) {
  switch (s) {
    case AppTcpState::kClosed:
      return "CLOSED";
    case AppTcpState::kSynSent:
      return "SYN_SENT";
    case AppTcpState::kEstablished:
      return "ESTABLISHED";
    case AppTcpState::kFinWait1:
      return "FIN_WAIT_1";
    case AppTcpState::kFinWait2:
      return "FIN_WAIT_2";
    case AppTcpState::kCloseWait:
      return "CLOSE_WAIT";
    case AppTcpState::kLastAck:
      return "LAST_ACK";
    case AppTcpState::kClosing:
      return "CLOSING";
    case AppTcpState::kTimeWait:
      return "TIME_WAIT";
  }
  return "?";
}

std::shared_ptr<AppTcpConnection> AppTcpConnection::Create(TunNetStack* stack, int uid) {
  return std::shared_ptr<AppTcpConnection>(new AppTcpConnection(stack, uid));
}

AppTcpConnection::AppTcpConnection(TunNetStack* stack, int uid) : stack_(stack), uid_(uid) {
  MOP_CHECK(stack != nullptr);
}

AppTcpConnection::~AppTcpConnection() {
  if (conn_handle_ != 0) {
    stack_->device()->conn_table().Unregister(conn_handle_);
  }
}

void AppTcpConnection::Connect(const moppkt::SocketAddr& remote,
                               std::function<void(moputil::Status)> cb) {
  MOP_CHECK(state_ == AppTcpState::kClosed) << "connect in " << AppTcpStateName(state_);
  remote_ = remote;
  connect_cb_ = std::move(cb);
  local_.ip = stack_->device()->tun_address();
  local_.port = stack_->AllocatePort();

  // The kernel writes the conn-table row at connect() time with the app uid —
  // this is what /proc/net/tcp exposes to the mapper.
  mopnet::ConnEntry entry;
  entry.proto = moppkt::IpProto::kTcp;
  entry.local = local_;
  entry.remote = remote_;
  entry.state = mopnet::ConnState::kSynSent;
  entry.uid = uid_;
  conn_handle_ = stack_->device()->conn_table().Register(entry);

  auto self = shared_from_this();
  stack_->RegisterTcp(local_.port, [self](const moppkt::ParsedPacket& pkt) {
    self->OnPacket(pkt);
  });

  iss_ = static_cast<uint32_t>(stack_->device()->rng().NextU32());
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;  // SYN consumes one
  cwnd_ = kInitialCwndSegments * kAppMss;
  state_ = AppTcpState::kSynSent;
  syn_time_ = stack_->loop()->Now();
  EmitSegment(moppkt::SynFlag(), {}, /*with_mss=*/true);
  ArmRetransmit(kSynRto);
}

void AppTcpConnection::EmitSegment(moppkt::TcpFlags flags, std::span<const uint8_t> payload,
                                   bool with_mss) {
  moppkt::TcpSegmentSpec spec;
  spec.src_port = local_.port;
  spec.dst_port = remote_.port;
  // Only control segments go through here (SYN/ACK/FIN/RST with no payload);
  // data segments are built in TrySendData with explicit sequence numbers.
  spec.seq = flags.syn ? iss_ : snd_nxt_;
  spec.ack = flags.ack ? rcv_nxt_ : 0;
  spec.flags = flags;
  spec.window = kAppWindow;
  if (with_mss) {
    spec.mss = kAppMss;
  }
  spec.payload = payload;
  SendSpec(spec);
}

void AppTcpConnection::SendSpec(const moppkt::TcpSegmentSpec& spec) {
  // Pooled in-place build: the app's "kernel" emits straight into a slab the
  // TUN and the relay reuse, so the zero-alloc steady state holds end to end
  // (app build -> tun -> owning engine lane).
  moppkt::PacketBuf datagram =
      moppkt::BufPool::Default().AcquireSized(20 + moppkt::TcpSegmentBytes(spec));
  datagram.set_size(moppkt::BuildTcpDatagramInto(spec, local_.ip, remote_.ip, ip_id_++,
                                                 /*ttl=*/64, datagram.writable()));
  stack_->Send(std::move(datagram));
}

void AppTcpConnection::OnPacket(const moppkt::ParsedPacket& pkt) {
  if (!pkt.is_tcp()) {
    return;
  }
  const moppkt::TcpSegment& seg = *pkt.tcp;
  if (seg.flags.rst) {
    // RST is valid in any non-closed state.
    if (state_ != AppTcpState::kClosed) {
      EnterClosed();
      if (connect_cb_) {
        FailConnect(moputil::Unavailable("connection reset"));
      } else if (on_reset) {
        on_reset();
      }
    }
    return;
  }
  switch (state_) {
    case AppTcpState::kSynSent:
      if (seg.flags.syn && seg.flags.ack && seg.ack == iss_ + 1) {
        HandleSynAck(seg);
      }
      break;
    case AppTcpState::kEstablished:
    case AppTcpState::kFinWait1:
    case AppTcpState::kFinWait2:
    case AppTcpState::kCloseWait:
    case AppTcpState::kLastAck:
    case AppTcpState::kClosing:
      HandleEstablished(pkt);
      break;
    default:
      break;
  }
}

void AppTcpConnection::HandleSynAck(const moppkt::TcpSegment& seg) {
  if (rto_timer_ != mopsim::kInvalidTimer) {
    stack_->loop()->Cancel(rto_timer_);
    rto_timer_ = mopsim::kInvalidTimer;
  }
  rcv_nxt_ = seg.seq + 1;
  irs_ = rcv_nxt_;
  snd_una_ = seg.ack;
  if (seg.mss.has_value()) {
    peer_mss_ = *seg.mss;
  }
  peer_window_ = seg.window;
  state_ = AppTcpState::kEstablished;
  connect_latency_ = stack_->loop()->Now() - syn_time_;
  stack_->device()->conn_table().UpdateState(conn_handle_, mopnet::ConnState::kEstablished);
  SendAck();
  if (connect_cb_) {
    auto cb = std::move(connect_cb_);
    connect_cb_ = nullptr;
    cb(moputil::OkStatus());
  }
  TrySendData();
}

void AppTcpConnection::HandleEstablished(const moppkt::ParsedPacket& pkt) {
  const moppkt::TcpSegment& seg = *pkt.tcp;
  bool advanced = false;

  // ACK processing.
  if (seg.flags.ack && moppkt::SeqGt(seg.ack, snd_una_)) {
    uint32_t acked = seg.ack - snd_una_;
    uint32_t data_acked = std::min<uint32_t>(acked, static_cast<uint32_t>(unacked_.size()));
    unacked_.Consume(data_acked);
    snd_una_ = seg.ack;
    cwnd_ += kAppMss;  // slow-start growth; the tunnel never drops
    advanced = true;
    if (state_ == AppTcpState::kFinWait1 && fin_sent_ && snd_una_ == snd_nxt_) {
      state_ = AppTcpState::kFinWait2;
    } else if (state_ == AppTcpState::kLastAck && snd_una_ == snd_nxt_) {
      EnterClosed();
      return;
    } else if (state_ == AppTcpState::kClosing && snd_una_ == snd_nxt_) {
      state_ = AppTcpState::kTimeWait;
      EnterClosed();  // TIME_WAIT collapses immediately in simulation
      return;
    }
  }
  peer_window_ = seg.window;

  // In-order data.
  if (!seg.payload.empty() && seg.seq == rcv_nxt_) {
    AcceptPayload(seg.payload);
    DrainReassembly();
  } else if (!seg.payload.empty() && moppkt::SeqLt(seg.seq, rcv_nxt_)) {
    SendAck();  // duplicate; re-ack
  } else if (!seg.payload.empty()) {
    // Ahead of rcv_nxt_: the relay's gathered lane writes can deliver a
    // burst early when a flow is re-homed mid-transfer. Nothing is dropped
    // upstream, so buffer and re-ack exactly as a kernel would.
    reassembly_.emplace(seg.seq - irs_,
                        std::vector<uint8_t>(seg.payload.begin(), seg.payload.end()));
    SendAck();
  }

  // FIN processing at its sequence position; an early FIN (reordered past a
  // data gap) waits buffered until the gap closes.
  if (seg.flags.fin) {
    fin_buffered_ = true;
    fin_seq_ = seg.seq + static_cast<uint32_t>(seg.payload_size());
  }
  if (fin_buffered_ && fin_seq_ == rcv_nxt_) {
    fin_buffered_ = false;
    rcv_nxt_ += 1;
    SendAck();
    if (state_ == AppTcpState::kEstablished) {
      state_ = AppTcpState::kCloseWait;
      if (on_peer_close) {
        on_peer_close();
      }
    } else if (state_ == AppTcpState::kFinWait1) {
      state_ = fin_sent_ && snd_una_ == snd_nxt_ ? AppTcpState::kTimeWait
                                                 : AppTcpState::kClosing;
      if (state_ == AppTcpState::kTimeWait) {
        EnterClosed();
        return;
      }
    } else if (state_ == AppTcpState::kFinWait2) {
      if (on_peer_close) {
        on_peer_close();
      }
      EnterClosed();
      return;
    }
  }

  if (advanced) {
    TrySendData();
  }
}

void AppTcpConnection::AcceptPayload(std::span<const uint8_t> payload) {
  rcv_nxt_ += static_cast<uint32_t>(payload.size());
  bytes_received_ += payload.size();
  SimTime now = stack_->loop()->Now();
  if (first_data_time_ == 0) {
    first_data_time_ = now;
  }
  last_data_time_ = now;
  // Delayed ACK: every second segment (or FIN below) to mirror kernels.
  if (++delayed_ack_count_ >= 2) {
    delayed_ack_count_ = 0;
    SendAck();
  }
  if (on_data) {
    on_data(payload);
  }
}

void AppTcpConnection::DrainReassembly() {
  auto it = reassembly_.begin();
  while (it != reassembly_.end()) {
    uint32_t seq_off = it->first;
    uint32_t rcv_off = rcv_nxt_ - irs_;
    const std::vector<uint8_t>& data = it->second;
    if (seq_off > rcv_off) {
      break;  // gap still open
    }
    uint32_t end_off = seq_off + static_cast<uint32_t>(data.size());
    if (end_off > rcv_off) {
      // Accept the unseen tail (full segment when seq_off == rcv_off).
      AcceptPayload(std::span<const uint8_t>(data).subspan(rcv_off - seq_off));
    }
    it = reassembly_.erase(it);
  }
}

void AppTcpConnection::ByteFifo::Append(std::span<const uint8_t> data) {
  bytes_.insert(bytes_.end(), data.begin(), data.end());
}

void AppTcpConnection::ByteFifo::Consume(size_t n) {
  head_ += n;
  if (head_ == bytes_.size()) {
    bytes_ = {};  // drained: release the buffer
    head_ = 0;
  } else if (head_ * 2 >= bytes_.size()) {
    bytes_.erase(bytes_.begin(), bytes_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void AppTcpConnection::Send(std::vector<uint8_t> data) {
  MOP_CHECK(state_ == AppTcpState::kSynSent || state_ == AppTcpState::kEstablished ||
            state_ == AppTcpState::kCloseWait)
      << "send in " << AppTcpStateName(state_);
  send_queue_.Append(data);
  if (state_ != AppTcpState::kSynSent) {
    TrySendData();
  }
}

void AppTcpConnection::SendBytes(size_t n) { Send(Pattern(n)); }

void AppTcpConnection::TrySendData() {
  if (state_ != AppTcpState::kEstablished && state_ != AppTcpState::kCloseWait &&
      state_ != AppTcpState::kFinWait1) {
    return;
  }
  uint32_t window = std::min<uint32_t>(peer_window_, cwnd_);
  while (!send_queue_.empty()) {
    uint32_t in_flight = snd_nxt_ - snd_una_;
    if (in_flight >= window) {
      break;
    }
    size_t budget = std::min<size_t>(window - in_flight, peer_mss_);
    size_t n = std::min(budget, send_queue_.size());
    if (n == 0) {
      break;
    }
    std::vector<uint8_t> payload(send_queue_.begin(),
                                 send_queue_.begin() + static_cast<long>(n));
    send_queue_.Consume(n);

    moppkt::TcpSegmentSpec spec;
    spec.src_port = local_.port;
    spec.dst_port = remote_.port;
    spec.seq = snd_nxt_;
    spec.ack = rcv_nxt_;
    spec.flags = moppkt::PshAckFlag();
    spec.window = kAppWindow;
    spec.payload = payload;
    SendSpec(spec);

    snd_nxt_ += static_cast<uint32_t>(n);
    bytes_sent_ += n;
    unacked_.Append(payload);
    if (rto_timer_ == mopsim::kInvalidTimer) {
      ArmRetransmit(kDataRto);
    }
  }
  // Flush a pending FIN once all data is out.
  if (fin_pending_ && send_queue_.empty() && !fin_sent_) {
    fin_pending_ = false;
    fin_sent_ = true;
    EmitSegment(moppkt::FinAckFlag(), {});
    snd_nxt_ += 1;
  }
}

void AppTcpConnection::SendAck() { EmitSegment(moppkt::AckFlag(), {}); }

void AppTcpConnection::Close() {
  switch (state_) {
    case AppTcpState::kEstablished:
      state_ = AppTcpState::kFinWait1;
      break;
    case AppTcpState::kCloseWait:
      state_ = AppTcpState::kLastAck;
      break;
    case AppTcpState::kSynSent:
      FailConnect(moputil::Unavailable("closed before established"));
      EnterClosed();
      return;
    default:
      return;
  }
  stack_->device()->conn_table().UpdateState(conn_handle_, state_ == AppTcpState::kFinWait1
                                                               ? mopnet::ConnState::kFinWait1
                                                               : mopnet::ConnState::kLastAck);
  if (send_queue_.empty()) {
    fin_sent_ = true;
    EmitSegment(moppkt::FinAckFlag(), {});
    snd_nxt_ += 1;
  } else {
    fin_pending_ = true;
  }
}

void AppTcpConnection::Abort() {
  if (state_ == AppTcpState::kClosed) {
    return;
  }
  EmitSegment(moppkt::RstFlag(), {});
  EnterClosed();
}

void AppTcpConnection::ArmRetransmit(SimDuration delay) {
  std::weak_ptr<AppTcpConnection> weak = weak_from_this();
  rto_timer_ = stack_->loop()->Schedule(delay, [weak] {
    if (auto self = weak.lock()) {
      self->rto_timer_ = mopsim::kInvalidTimer;
      self->OnRetransmitTimer();
    }
  });
}

void AppTcpConnection::OnRetransmitTimer() {
  if (state_ == AppTcpState::kSynSent) {
    if (++syn_retransmits_ > kMaxSynRetries) {
      FailConnect(moputil::Unavailable("connect timed out"));
      EnterClosed();
      return;
    }
    EmitSegment(moppkt::SynFlag(), {}, /*with_mss=*/true);
    ArmRetransmit(kSynRto << syn_retransmits_);
    return;
  }
  if (!unacked_.empty()) {
    ++data_retransmits_;
    size_t n = std::min<size_t>(unacked_.size(), peer_mss_);
    std::vector<uint8_t> payload(unacked_.begin(), unacked_.begin() + static_cast<long>(n));
    moppkt::TcpSegmentSpec spec;
    spec.src_port = local_.port;
    spec.dst_port = remote_.port;
    spec.seq = snd_una_;
    spec.ack = rcv_nxt_;
    spec.flags = moppkt::PshAckFlag();
    spec.window = kAppWindow;
    spec.payload = payload;
    SendSpec(spec);
    ArmRetransmit(kDataRto * 2);
  }
}

void AppTcpConnection::FailConnect(moputil::Status status) {
  if (connect_cb_) {
    auto cb = std::move(connect_cb_);
    connect_cb_ = nullptr;
    cb(status);
  }
}

void AppTcpConnection::EnterClosed() {
  state_ = AppTcpState::kClosed;
  if (rto_timer_ != mopsim::kInvalidTimer) {
    stack_->loop()->Cancel(rto_timer_);
    rto_timer_ = mopsim::kInvalidTimer;
  }
  stack_->UnregisterTcp(local_.port);
  if (conn_handle_ != 0) {
    stack_->device()->conn_table().Unregister(conn_handle_);
    conn_handle_ = 0;
  }
}

}  // namespace mopapps
