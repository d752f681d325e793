#include "sim/event_loop.h"

#include <utility>

#include "util/logging.h"

namespace mopsim {

namespace {
// Publishes the loop's virtual clock to the log prefix for the duration of a
// Run()/RunUntil(), restoring whatever was installed before (nested RunFor
// inside a driver's Run keeps the same clock; real-thread code that never
// drives a loop keeps none).
class ScopedLogClock {
 public:
  explicit ScopedLogClock(const SimTime* now) : prev_(moputil::GetLogClock()) {
    moputil::SetLogClock(now);
  }
  ~ScopedLogClock() { moputil::SetLogClock(prev_); }
  ScopedLogClock(const ScopedLogClock&) = delete;
  ScopedLogClock& operator=(const ScopedLogClock&) = delete;

 private:
  const int64_t* prev_;
};

// Sets the thread-local log lane token for the duration of one lane task, so
// log lines (and flight-recorder dumps triggered by MOP_CHECK) name the lane
// they ran on. Restores the previous token: a lane task that synchronously
// drives another actor's callback nests correctly.
class ScopedLaneToken {
 public:
  explicit ScopedLaneToken(const char* token) : prev_(moputil::GetLogLaneToken()) {
    moputil::SetLogLaneToken(token);
  }
  ~ScopedLaneToken() { moputil::SetLogLaneToken(prev_); }
  ScopedLaneToken(const ScopedLaneToken&) = delete;
  ScopedLaneToken& operator=(const ScopedLaneToken&) = delete;

 private:
  const char* prev_;
};
}  // namespace

TimerId EventLoop::Schedule(SimDuration delay, std::function<void()> fn) {
  MOP_CHECK_GE(delay, 0) << "negative event delay";
  return ScheduleAt(now_ + delay, std::move(fn));
}

TimerId EventLoop::ScheduleAt(SimTime when, std::function<void()> fn) {
  return Push(when, nullptr, std::move(fn));
}

TimerId EventLoop::ScheduleOnLane(SimTime when, const std::string& lane,
                                  std::function<void()> fn) {
  return Push(when, lane.c_str(), std::move(fn));
}

TimerId EventLoop::Push(SimTime when, const char* lane, std::function<void()> fn) {
  if (when < now_) {
    when = now_;
  }
  uint32_t slot;
  if (free_slots_.empty()) {
    MOP_CHECK_LT(slots_.size(), size_t{UINT32_MAX}) << "event slots exhausted";
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.lane = lane;
  s.armed = true;
  ++pending_;
  heap_.push(Entry{when, next_seq_++, slot});
  return (static_cast<TimerId>(s.gen) << 32) | slot;
}

std::function<void()> EventLoop::Free(uint32_t slot) {
  Slot& s = slots_[slot];
  if (++s.gen == 0) {  // keep ids nonzero across wraparound
    s.gen = 1;
  }
  free_slots_.push_back(slot);
  return std::exchange(s.fn, nullptr);
}

bool EventLoop::Cancel(TimerId id) {
  uint32_t slot = static_cast<uint32_t>(id);
  if (slot >= slots_.size()) {
    return false;
  }
  Slot& s = slots_[slot];
  if (!s.armed || s.gen != static_cast<uint32_t>(id >> 32)) {
    return false;
  }
  s.armed = false;
  --pending_;
  return true;
}

bool EventLoop::RunOne(SimTime limit) {
  while (!heap_.empty()) {
    Entry top = heap_.top();
    if (top.when > limit) {
      return false;
    }
    heap_.pop();
    Slot& s = slots_[top.slot];
    if (!s.armed) {  // cancelled
      Free(top.slot);
      continue;
    }
    s.armed = false;
    --pending_;
    const char* lane = s.lane;
    // Freed before running: the callback may schedule into (and grow) the
    // slot array, and a Cancel of its own id must find it already ran.
    std::function<void()> fn = Free(top.slot);
    now_ = top.when;
    if (lane != nullptr) {
      ScopedLaneToken lane_token(lane);
      fn();
    } else {
      fn();
    }
    return true;
  }
  return false;
}

size_t EventLoop::Run() {
  ScopedLogClock clock(&now_);
  stopped_ = false;
  size_t n = 0;
  while (!stopped_ && RunOne(INT64_MAX)) {
    ++n;
  }
  return n;
}

size_t EventLoop::RunUntil(SimTime deadline) {
  ScopedLogClock clock(&now_);
  stopped_ = false;
  size_t n = 0;
  while (!stopped_ && RunOne(deadline)) {
    ++n;
  }
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
  }
  return n;
}

const std::string& EventLoop::InternLaneName(std::string_view name) {
  auto it = lane_names_.find(name);
  if (it == lane_names_.end()) {
    it = lane_names_.emplace(name).first;
  }
  return *it;
}

}  // namespace mopsim
