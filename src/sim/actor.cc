#include "sim/actor.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace mopsim {

ActorLane::ActorLane(EventLoop* loop, std::string_view name) : loop_(loop) {
  MOP_CHECK(loop != nullptr);
  name_ = &loop->InternLaneName(name);
}

std::pair<SimTime, SimTime> ActorLane::Book(SimDuration wake_latency, SimDuration service) {
  MOP_CHECK_GE(wake_latency, 0);
  MOP_CHECK_GE(service, 0);
  SimTime start = std::max(loop_->Now() + wake_latency, free_at_);
  SimTime end = start + service;
  free_at_ = end;
  busy_time_ += service;
  ++tasks_run_;
  return {start, end};
}

void ActorLane::Submit(SimDuration wake_latency, SimDuration service,
                       std::function<void(SimTime, SimTime)> fn) {
  auto [start, end] = Book(wake_latency, service);
  loop_->ScheduleOnLane(end, *name_, [fn = std::move(fn), start, end] { fn(start, end); });
}

void ActorLane::Submit(SimDuration wake_latency, SimDuration service,
                       std::function<void()> fn) {
  loop_->ScheduleOnLane(Book(wake_latency, service).second, *name_, std::move(fn));
}

}  // namespace mopsim
