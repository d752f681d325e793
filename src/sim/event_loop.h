// Deterministic discrete-event loop on a virtual nanosecond clock.
//
// Every experiment in this repo runs on one EventLoop. Determinism contract:
// events at equal timestamps fire in scheduling order (FIFO tie-break), so a
// fixed seed yields a bit-identical run.
//
// Callables live in a slot array recycled through a free list; the heap holds
// only trivially copyable {when, seq, slot} entries. A TimerId names a slot
// and its generation, so Cancel is an O(1) generation check and an id whose
// event already ran, or whose slot was reused since, is stale. A cancelled
// callable is destroyed only when its heap entry pops (destructors of captured
// state may have effects, and their timing is part of a run), so a slot is
// reused only once no heap entry names it.
#ifndef MOPEYE_SIM_EVENT_LOOP_H_
#define MOPEYE_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.h"

namespace mopsim {

using moputil::SimDuration;
using moputil::SimTime;

// gen << 32 | slot; generations start at 1, so a live id is never 0.
using TimerId = uint64_t;
constexpr TimerId kInvalidTimer = 0;

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run `delay` from now (>= 0). Returns a cancelable id.
  TimerId Schedule(SimDuration delay, std::function<void()> fn);
  // Schedules at an absolute time (clamped to now if in the past).
  TimerId ScheduleAt(SimTime when, std::function<void()> fn);
  // ScheduleAt, with the log lane token set to `lane` (a name returned by
  // InternLaneName) while `fn` runs.
  TimerId ScheduleOnLane(SimTime when, const std::string& lane, std::function<void()> fn);
  // Runs `fn` after all already-scheduled events at the current instant.
  TimerId Post(std::function<void()> fn) { return Schedule(0, std::move(fn)); }

  // Cancels a pending event. Returns false if it already ran (or is running),
  // was cancelled, or is unknown.
  bool Cancel(TimerId id);

  // Runs until the queue drains or Stop() is called. Returns events executed.
  size_t Run();
  // Runs events with time <= deadline; clock lands on `deadline` afterward
  // (even if the queue drained earlier), so successive RunUntil calls advance
  // monotonically.
  size_t RunUntil(SimTime deadline);
  size_t RunFor(SimDuration d) { return RunUntil(now_ + d); }
  void Stop() { stopped_ = true; }

  size_t pending_events() const { return pending_; }

  // Returns the loop's one copy of `name`, valid for the loop's lifetime:
  // lanes with equal names share it, so the names cost memory per distinct
  // name, not per lane.
  const std::string& InternLaneName(std::string_view name);
  size_t interned_lane_names() const { return lane_names_.size(); }

 private:
  struct Entry {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;  // FIFO among equal timestamps
    }
  };
  struct Slot {
    std::function<void()> fn;
    const char* lane = nullptr;  // log lane token while fn runs, if any
    uint32_t gen = 1;            // bumped each time the slot is freed
    bool armed = false;          // scheduled, not yet run or cancelled
  };

  TimerId Push(SimTime when, const char* lane, std::function<void()> fn);
  // Returns the slot to the free list, so ids naming its old generation go
  // stale, and hands back its callable (to run, or to destroy only after the
  // bookkeeping, in case its destructor schedules).
  std::function<void()> Free(uint32_t slot);
  // Pops and runs one event; false if none eligible (w.r.t. limit).
  bool RunOne(SimTime limit);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  bool stopped_ = false;
  size_t pending_ = 0;  // armed slots
  // Every entry names an allocated slot; one whose slot is no longer armed
  // was cancelled and is skipped on pop.
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::set<std::string, std::less<>> lane_names_;
};

}  // namespace mopsim

#endif  // MOPEYE_SIM_EVENT_LOOP_H_
