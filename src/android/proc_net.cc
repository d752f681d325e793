#include "android/proc_net.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"
#include "util/strings.h"

namespace mopdroid {

namespace {

constexpr std::string_view kHeader =
    "  sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt"
    "   uid  timeout inode\n";
// Upper bound of one rendered row: every field at its widest (sl and uid as
// 11-character ints, a 20-digit inode).
constexpr size_t kMaxRowBytes = 160;
constexpr char kHexDigits[] = "0123456789ABCDEF";

// The kernel prints the 32-bit network-order address as little-endian hex:
// 10.0.0.2 -> "0200000A", i.e. the byte-swapped value.
uint32_t ByteSwap(uint32_t v) {
  return ((v & 0xff) << 24) | ((v & 0xff00) << 8) | ((v >> 8) & 0xff00) | (v >> 24);
}

// Writes `v` as `digits` upper-case hex digits ("%0<digits>X").
char* PutHex(char* p, uint32_t v, int digits) {
  for (int i = digits - 1; i >= 0; --i) {
    p[i] = kHexDigits[v & 0xf];
    v >>= 4;
  }
  return p + digits;
}

// "%02X%02X%02X%02X:%04X" of the address bytes, low byte first, and port.
char* PutAddr(char* p, const moppkt::SocketAddr& a) {
  p = PutHex(p, ByteSwap(a.ip.value()), 8);
  *p++ = ':';
  return PutHex(p, a.port, 4);
}

// Writes `v` right-aligned in a field of `width` characters ("%<width>d").
template <typename Int>
char* PutDecimal(char* p, Int v, int width) {
  char digits[24];
  char* end = std::to_chars(digits, digits + sizeof(digits), v).ptr;
  int n = static_cast<int>(end - digits);
  for (int pad = width - n; pad > 0; --pad) {
    *p++ = ' ';
  }
  std::memcpy(p, digits, static_cast<size_t>(n));
  return p + n;
}

bool ParseAddrHex(std::string_view s, moppkt::SocketAddr* out) {
  auto colon = s.find(':');
  if (colon == std::string_view::npos || colon != 8 || s.size() < 13) {
    return false;
  }
  uint64_t ip_le = 0;
  uint64_t port = 0;
  if (!moputil::ParseHexU64(s.substr(0, 8), &ip_le) ||
      !moputil::ParseHexU64(s.substr(9, 4), &port)) {
    return false;
  }
  out->ip = moppkt::IpAddr(ByteSwap(static_cast<uint32_t>(ip_le)));
  out->port = static_cast<uint16_t>(port);
  return true;
}

// The whitespace that separates stream-extracted fields (classic locale):
// ' ' and '\t' '\n' '\v' '\f' '\r', which are contiguous (9-13).
bool IsSpace(char c) {
  return c == ' ' || static_cast<unsigned char>(c - '\t') <= '\r' - '\t';
}

// Cuts the next whitespace-separated field off the front of `*rest`; empty
// when none is left.
std::string_view NextField(std::string_view* rest) {
  size_t b = 0;
  while (b < rest->size() && IsSpace((*rest)[b])) {
    ++b;
  }
  size_t e = b;
  while (e < rest->size() && !IsSpace((*rest)[e])) {
    ++e;
  }
  std::string_view field = rest->substr(b, e - b);
  rest->remove_prefix(e);
  return field;
}

// std::atoi of one field ("+10077" and "12ab" parse, garbage is 0), without
// allocating for any field a real row can hold.
int AtoiField(std::string_view field) {
  char buf[32];
  if (field.size() >= sizeof(buf)) {
    return std::atoi(std::string(field).c_str());
  }
  std::memcpy(buf, field.data(), field.size());
  buf[field.size()] = '\0';
  return std::atoi(buf);
}

}  // namespace

ProcParseCostModel ProcParseCostModel::Default() {
  ProcParseCostModel m;
  // Calibrated to Fig. 5(a): with the ~40-80 rows of a browsing session the
  // parse lands mostly in 5-12 ms with a >15 ms tail.
  m.base = std::make_shared<moputil::LogNormalDelay>(moputil::Millis(4.2), 0.35,
                                                     moputil::Millis(1.5));
  m.per_row = std::make_shared<moputil::LogNormalDelay>(moputil::Micros(55), 0.30,
                                                        moputil::Micros(15));
  m.spike = std::make_shared<moputil::MixtureDelay>(std::vector<moputil::MixtureDelay::Component>{
      {0.86, std::make_shared<moputil::FixedDelay>(0)},
      {0.10, std::make_shared<moputil::UniformDelay>(moputil::Millis(4), moputil::Millis(10))},
      {0.04, std::make_shared<moputil::UniformDelay>(moputil::Millis(10), moputil::Millis(22))},
  });
  return m;
}

moputil::SimDuration ProcParseCostModel::Sample(size_t rows, moputil::Rng& rng) const {
  moputil::SimDuration d = 0;
  if (base) {
    d += base->Sample(rng);
  }
  if (per_row) {
    for (size_t i = 0; i < rows; ++i) {
      d += per_row->Sample(rng);
    }
  }
  if (spike) {
    d += spike->Sample(rng);
  }
  return d;
}

ProcNet::ProcNet(const mopnet::KernelConnTable* table)
    : table_(table), cost_(ProcParseCostModel::Default()) {
  MOP_CHECK(table != nullptr);
}

std::string ProcNet::Render(moppkt::IpProto proto) const {
  // Byte-identical to the kernel's
  // "%4d: %s %s %02X %08X:%08X %02X:%08lX %08X %5d %8d %lu\n" rows, with
  // queues, timers and timeout printed as the zeros they always are here.
  std::string out;
  out.reserve(kHeader.size() + RowCount(proto) * kMaxRowBytes);
  out.append(kHeader);
  int sl = 0;
  table_->ForEach(proto, [&](const mopnet::ConnEntry& e) {
    char line[kMaxRowBytes];
    char* p = PutDecimal(line, sl++, 4);
    *p++ = ':';
    *p++ = ' ';
    p = PutAddr(p, e.local);
    *p++ = ' ';
    p = PutAddr(p, e.remote);
    *p++ = ' ';
    p = PutHex(p, static_cast<uint32_t>(e.state), 2);
    constexpr std::string_view kQueuesTimers = " 00000000:00000000 00:00000000 00000000 ";
    p = std::copy(kQueuesTimers.begin(), kQueuesTimers.end(), p);
    p = PutDecimal(p, e.uid, 5);
    constexpr std::string_view kTimeout = "        0 ";
    p = std::copy(kTimeout.begin(), kTimeout.end(), p);
    p = PutDecimal(p, e.inode, 0);
    *p++ = '\n';
    out.append(line, static_cast<size_t>(p - line));
  });
  return out;
}

size_t ProcNet::RowCount(moppkt::IpProto proto) const { return table_->Count(proto); }

moputil::SimDuration ProcNet::SampleParseCost(moppkt::IpProto proto, moputil::Rng& rng) const {
  // MopEye reads tcp6 then tcp (or udp6 then udp); rows split across both but
  // the per-row work is the same, plus a second file's base overhead at
  // roughly half weight (tcp6 is usually short).
  size_t rows = RowCount(proto);
  moputil::SimDuration d = cost_.Sample(rows, rng);
  if (cost_.base) {
    d += cost_.base->Sample(rng) / 2;
  }
  return d;
}

moputil::Result<std::vector<ProcNetEntry>> ParseProcNet(std::string_view text) {
  std::vector<ProcNetEntry> entries;
  entries.reserve(static_cast<size_t>(std::count(text.begin(), text.end(), '\n')));
  bool first = true;
  while (!text.empty()) {
    size_t nl = text.find('\n');
    std::string_view line = text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    if (first) {  // header
      first = false;
      continue;
    }
    // "%4d: local rem st queues timer retrnsmt uid timeout inode"; fields past
    // the uid are not needed.
    std::string_view rest = line;
    std::string_view sl = NextField(&rest);
    if (sl.empty()) {  // blank line
      continue;
    }
    std::string_view local = NextField(&rest);
    std::string_view remote = NextField(&rest);
    std::string_view st = NextField(&rest);
    NextField(&rest);  // tx_queue:rx_queue
    NextField(&rest);  // tr:tm->when
    NextField(&rest);  // retrnsmt
    std::string_view uid = NextField(&rest);
    if (uid.empty()) {
      return moputil::InvalidArgument("bad /proc/net row: " + std::string(line));
    }
    ProcNetEntry e;
    if (!ParseAddrHex(local, &e.local) || !ParseAddrHex(remote, &e.remote)) {
      return moputil::InvalidArgument("bad /proc/net address: " + std::string(line));
    }
    uint64_t st_v = 0;
    if (!moputil::ParseHexU64(st, &st_v)) {
      return moputil::InvalidArgument("bad /proc/net state: " + std::string(line));
    }
    e.state = static_cast<mopnet::ConnState>(st_v);
    e.uid = AtoiField(uid);
    entries.push_back(e);
  }
  return entries;
}

}  // namespace mopdroid
