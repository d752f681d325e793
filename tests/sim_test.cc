#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/actor.h"
#include "sim/event_loop.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/time.h"

namespace {

using mopsim::ActorLane;
using mopsim::EventLoop;
using moputil::Millis;

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(Millis(3), [&] { order.push_back(3); });
  loop.Schedule(Millis(1), [&] { order.push_back(1); });
  loop.Schedule(Millis(2), [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.Now(), Millis(3));
}

TEST(EventLoop, FifoAmongEqualTimestamps) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.Schedule(Millis(5), [&order, i] { order.push_back(i); });
  }
  loop.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventLoop, CancelPreventsRun) {
  EventLoop loop;
  bool ran = false;
  auto id = loop.Schedule(Millis(1), [&] { ran = true; });
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));  // double cancel
  loop.Run();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CancelAfterRunReturnsFalse) {
  EventLoop loop;
  auto id = loop.Schedule(0, [] {});
  loop.Run();
  EXPECT_FALSE(loop.Cancel(id));
}

TEST(EventLoop, RunUntilAdvancesClockToDeadline) {
  EventLoop loop;
  int count = 0;
  loop.Schedule(Millis(1), [&] { ++count; });
  loop.Schedule(Millis(10), [&] { ++count; });
  loop.RunUntil(Millis(5));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.Now(), Millis(5));
  loop.RunUntil(Millis(20));
  EXPECT_EQ(count, 2);
}

TEST(EventLoop, EventsScheduledDuringRunExecute) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      loop.Schedule(Millis(1), chain);
    }
  };
  loop.Schedule(0, chain);
  loop.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.Now(), Millis(4));
}

TEST(EventLoop, StopHaltsExecution) {
  EventLoop loop;
  int count = 0;
  loop.Schedule(Millis(1), [&] {
    ++count;
    loop.Stop();
  });
  loop.Schedule(Millis(2), [&] { ++count; });
  loop.Run();
  EXPECT_EQ(count, 1);
  loop.Run();  // resumes
  EXPECT_EQ(count, 2);
}

TEST(EventLoop, PastScheduleClampsToNow) {
  EventLoop loop;
  loop.Schedule(Millis(5), [&] {
    bool ran = false;
    loop.ScheduleAt(0, [&ran] { ran = true; });  // in the past
    (void)ran;
  });
  loop.Run();
  EXPECT_EQ(loop.Now(), Millis(5));
}

TEST(EventLoop, StaleIdAfterSlotReuseDoesNotCancelTheNewEvent) {
  EventLoop loop;
  auto first = loop.Schedule(Millis(1), [] {});
  loop.Run();
  bool ran = false;
  auto second = loop.Schedule(Millis(1), [&] { ran = true; });
  // The second event reuses the first one's slot under a new generation.
  ASSERT_EQ(first & 0xffffffffu, second & 0xffffffffu);
  EXPECT_NE(first, second);
  EXPECT_NE(second, mopsim::kInvalidTimer);
  EXPECT_FALSE(loop.Cancel(first));
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.Run();
  EXPECT_TRUE(ran);
}

TEST(EventLoop, CancelledSlotIsReusedOnlyAfterItsEntryPops) {
  EventLoop loop;
  std::vector<int> order;
  auto cancelled = loop.Schedule(Millis(5), [&] { order.push_back(0); });
  ASSERT_TRUE(loop.Cancel(cancelled));
  auto live = loop.Schedule(Millis(1), [&] { order.push_back(1); });
  EXPECT_NE(cancelled & 0xffffffffu, live & 0xffffffffu);
  EXPECT_FALSE(loop.Cancel(cancelled));
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_FALSE(loop.Cancel(cancelled));
  EXPECT_FALSE(loop.Cancel(live));
}

TEST(EventLoop, CancelFromOwnCallbackReturnsFalse) {
  EventLoop loop;
  mopsim::TimerId self = mopsim::kInvalidTimer;
  bool cancel_result = true;
  self = loop.Schedule(Millis(1), [&] { cancel_result = loop.Cancel(self); });
  loop.Run();
  EXPECT_FALSE(cancel_result);
}

TEST(EventLoop, UnknownIdsAreRejected) {
  EventLoop loop;
  EXPECT_FALSE(loop.Cancel(mopsim::kInvalidTimer));
  EXPECT_FALSE(loop.Cancel(~uint64_t{0}));
  auto id = loop.Schedule(Millis(1), [] {});
  EXPECT_FALSE(loop.Cancel(id + (uint64_t{1} << 32)));  // right slot, wrong generation
  EXPECT_TRUE(loop.Cancel(id));
}

TEST(EventLoop, PendingEventsCountsScheduledNotRunNotCancelled) {
  EventLoop loop;
  EXPECT_EQ(loop.pending_events(), 0u);
  size_t seen_inside = 99;
  auto a = loop.Schedule(Millis(1), [&] { seen_inside = loop.pending_events(); });
  auto b = loop.Schedule(Millis(2), [] {});
  loop.Schedule(Millis(3), [] {});
  EXPECT_EQ(loop.pending_events(), 3u);
  EXPECT_TRUE(loop.Cancel(b));
  EXPECT_FALSE(loop.Cancel(b));
  EXPECT_EQ(loop.pending_events(), 2u);
  loop.RunUntil(Millis(1));
  EXPECT_EQ(seen_inside, 1u);  // the running event is no longer pending
  EXPECT_EQ(loop.pending_events(), 1u);
  EXPECT_FALSE(loop.Cancel(a));
  loop.Run();
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoop, CancelledCallableIsDestroyedWhenItsEntryPops) {
  EventLoop loop;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> weak = token;
  auto id = loop.Schedule(Millis(5), [token] {});
  token.reset();
  ASSERT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(weak.expired());  // held until the loop reaches it
  loop.RunUntil(Millis(4));
  EXPECT_FALSE(weak.expired());
  loop.RunUntil(Millis(5));
  EXPECT_TRUE(weak.expired());
}

// Seeded schedule / cancel / run interleaving against a reference model: a
// std::multimap keyed by (when, scheduling sequence), the documented order.
TEST(EventLoop, StressMatchesOrderedMultimapModel) {
  EventLoop loop;
  moputil::Rng rng(1611);
  using Key = std::pair<moputil::SimTime, uint64_t>;
  std::multimap<Key, int> model;
  std::unordered_map<mopsim::TimerId, Key> key_of;
  std::vector<mopsim::TimerId> ids;
  std::vector<int> ran, expected;
  uint64_t seq = 0;
  int next_tag = 1;

  // Schedules on the loop and enters the model under the next sequence
  // number. Every fifth event schedules a child from its callback (at its own
  // instant when tag % 3 == 0), so the model also sees events that arrive
  // mid-run.
  std::function<void(moputil::SimTime, int)> schedule = [&](moputil::SimTime when, int tag) {
    auto id = loop.ScheduleAt(when, [&, tag] {
      ran.push_back(tag);
      if (tag > 0 && tag % 5 == 0) {
        schedule(loop.Now() + Millis(tag % 3), -tag);
      }
    });
    Key key{std::max(when, loop.Now()), seq++};
    model.emplace(key, tag);
    key_of[id] = key;
    ids.push_back(id);
  };
  auto drain_model_until = [&](moputil::SimTime deadline) {
    while (!model.empty() && model.begin()->first.first <= deadline) {
      expected.push_back(model.begin()->second);
      model.erase(model.begin());
    }
  };

  for (int op = 0; op < 12000; ++op) {
    int64_t kind = rng.UniformInt(0, 9);
    if (kind < 6) {
      // Coarse times force many equal-timestamp ties; some lie in the past.
      schedule(loop.Now() + Millis(rng.UniformInt(-2, 20)), next_tag++);
    } else if (kind < 8 && !ids.empty()) {
      auto id = ids[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
      bool in_model = false;
      if (auto found = key_of.find(id); found != key_of.end()) {
        if (auto it = model.find(found->second); it != model.end()) {
          model.erase(it);
          in_model = true;
        }
        key_of.erase(found);
      }
      ASSERT_EQ(loop.Cancel(id), in_model) << "op " << op;
    } else {
      moputil::SimTime deadline = loop.Now() + Millis(rng.UniformInt(0, 6));
      loop.RunUntil(deadline);
      drain_model_until(deadline);
      ASSERT_EQ(ran, expected) << "op " << op;
      ASSERT_EQ(loop.pending_events(), model.size()) << "op " << op;
    }
  }
  loop.Run();
  drain_model_until(INT64_MAX);
  EXPECT_EQ(ran, expected);
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_GT(ran.size(), 5000u);
}

TEST(ActorLane, SerializesTasks) {
  EventLoop loop;
  ActorLane lane(&loop, "t");
  std::vector<std::pair<moputil::SimTime, moputil::SimTime>> spans;
  // Two tasks submitted at t=0 with 5ms service each: second starts at 5ms.
  lane.Submit(0, Millis(5), [&](moputil::SimTime s, moputil::SimTime e) {
    spans.emplace_back(s, e);
  });
  lane.Submit(0, Millis(5), [&](moputil::SimTime s, moputil::SimTime e) {
    spans.emplace_back(s, e);
  });
  loop.Run();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0], std::make_pair(moputil::SimTime(0), Millis(5)));
  EXPECT_EQ(spans[1], std::make_pair(Millis(5), Millis(10)));
  EXPECT_EQ(lane.busy_time(), Millis(10));
  EXPECT_EQ(lane.tasks_run(), 2u);
}

TEST(ActorLane, WakeLatencyDelaysStart) {
  EventLoop loop;
  ActorLane lane(&loop, "t");
  moputil::SimTime start = -1;
  lane.Submit(Millis(2), Millis(1), [&](moputil::SimTime s, moputil::SimTime) { start = s; });
  loop.Run();
  EXPECT_EQ(start, Millis(2));
}

TEST(ActorLane, IdleLaneStartsImmediately) {
  EventLoop loop;
  ActorLane lane(&loop, "t");
  loop.Schedule(Millis(10), [&] {
    lane.Submit(0, Millis(1), [&](moputil::SimTime s, moputil::SimTime) {
      EXPECT_EQ(s, Millis(10));
    });
  });
  loop.Run();
  EXPECT_TRUE(lane.IsBusyAt(Millis(10)));
  EXPECT_FALSE(lane.IsBusyAt(Millis(11)));
}

TEST(ActorLane, QueueingBehindBusyLane) {
  EventLoop loop;
  ActorLane lane(&loop, "t");
  // First task busy 0-10ms; a task arriving at 3ms with 1ms wake runs at 10.
  lane.Submit(0, Millis(10), [] {});
  moputil::SimTime start = -1;
  loop.Schedule(Millis(3), [&] {
    lane.Submit(Millis(1), Millis(2), [&](moputil::SimTime s, moputil::SimTime) { start = s; });
  });
  loop.Run();
  EXPECT_EQ(start, Millis(10));
  EXPECT_EQ(lane.busy_time(), Millis(12));
}

TEST(ActorLane, LanesWithOneNameShareOneInternedCopy) {
  EventLoop loop;
  std::vector<std::unique_ptr<ActorLane>> lanes;
  for (int i = 0; i < 10000; ++i) {
    lanes.push_back(std::make_unique<ActorLane>(&loop, "sock-connect"));
  }
  EXPECT_EQ(loop.interned_lane_names(), 1u);
  EXPECT_EQ(&lanes.front()->name(), &lanes.back()->name());
  ActorLane main(&loop, "main-worker");
  EXPECT_EQ(loop.interned_lane_names(), 2u);
  EXPECT_EQ(main.name(), "main-worker");
}

TEST(ActorLane, TasksRunUnderTheLaneLogToken) {
  EventLoop loop;
  std::string seen_effect, seen_timed;
  {
    // The lane retires before its tasks run; the token stays valid.
    ActorLane lane(&loop, "dns-worker");
    lane.Submit(0, Millis(1), [&] { seen_effect = moputil::GetLogLaneToken(); });
    lane.Submit(0, Millis(1), [&](moputil::SimTime, moputil::SimTime) {
      seen_timed = moputil::GetLogLaneToken();
    });
  }
  const char* outside = moputil::GetLogLaneToken();
  loop.Run();
  EXPECT_EQ(seen_effect, "dns-worker");
  EXPECT_EQ(seen_timed, "dns-worker");
  EXPECT_EQ(moputil::GetLogLaneToken(), outside);  // restored after each task
}

}  // namespace
