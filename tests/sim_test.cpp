// Tests for the discrete-event simulator: ordering, cancellation, timers.

#include <gtest/gtest.h>

#include <vector>

#include "iq/sim/simulator.hpp"
#include "iq/sim/timer.hpp"
#include "iq/sim/timer_wheel.hpp"

namespace iq::sim {
namespace {

// Small fixed schedules for the wheel's ordering and cancel contract; the
// randomized checks against a reference model are in
// timer_wheel_property_test.cpp.

TEST(TimerWheelTest, PopsInTimeOrder) {
  TimerWheel w;
  std::vector<int> order;
  w.schedule(TimePoint::from_ns(30), [&] { order.push_back(3); });
  w.schedule(TimePoint::from_ns(10), [&] { order.push_back(1); });
  w.schedule(TimePoint::from_ns(20), [&] { order.push_back(2); });
  while (!w.empty()) w.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerWheelTest, EqualTimesFifo) {
  TimerWheel w;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    w.schedule(TimePoint::from_ns(5), [&order, i] { order.push_back(i); });
  }
  while (!w.empty()) w.pop().fn();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(TimerWheelTest, CancelPreventsExecution) {
  TimerWheel w;
  bool ran = false;
  const EventId id = w.schedule(TimePoint::from_ns(1), [&] { ran = true; });
  EXPECT_TRUE(w.cancel(id));
  EXPECT_TRUE(w.empty());
  EXPECT_FALSE(w.cancel(id));  // double cancel
  EXPECT_FALSE(ran);
}

TEST(TimerWheelTest, CancelMiddleKeepsOthers) {
  TimerWheel w;
  std::vector<int> order;
  w.schedule(TimePoint::from_ns(5), [&] { order.push_back(1); });
  const EventId id =
      w.schedule(TimePoint::from_ns(5), [&] { order.push_back(2); });
  w.schedule(TimePoint::from_ns(5), [&] { order.push_back(3); });
  EXPECT_TRUE(w.cancel(id));
  while (!w.empty()) w.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(TimerWheelTest, NextTimeSkipsCancelled) {
  TimerWheel w;
  const EventId id = w.schedule(TimePoint::from_ns(1), [] {});
  w.schedule(TimePoint::from_ns(9), [] {});
  w.cancel(id);
  EXPECT_EQ(w.next_time(), TimePoint::from_ns(9));
}

// Regression: cancelling an event that already fired once decremented the
// live count anyway, eventually making the scheduler report empty while
// events were still pending. Stale handles must be rejected outright.
TEST(TimerWheelTest, CancelAfterFireRejected) {
  TimerWheel w;
  const EventId fired = w.schedule(TimePoint::from_ns(1), [] {});
  w.schedule(TimePoint::from_ns(2), [] {});
  w.pop().fn();  // `fired` executes
  EXPECT_FALSE(w.cancel(fired));
  EXPECT_EQ(w.size(), 1u);
  EXPECT_FALSE(w.empty());
  w.pop();
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheelTest, DoubleCancelDoesNotCorruptCount) {
  TimerWheel w;
  const EventId id = w.schedule(TimePoint::from_ns(1), [] {});
  w.schedule(TimePoint::from_ns(2), [] {});
  w.schedule(TimePoint::from_ns(3), [] {});
  EXPECT_TRUE(w.cancel(id));
  EXPECT_FALSE(w.cancel(id));
  EXPECT_FALSE(w.cancel(id));
  EXPECT_EQ(w.size(), 2u);
  int popped = 0;
  while (!w.empty()) {
    w.pop();
    ++popped;
  }
  EXPECT_EQ(popped, 2);
}

// A stale handle whose slot has been reused by a newer event must not
// cancel the newer event.
TEST(TimerWheelTest, StaleHandleCannotCancelReusedSlot) {
  TimerWheel w;
  const EventId old_id = w.schedule(TimePoint::from_ns(1), [] {});
  w.pop();  // frees the slot
  bool ran = false;
  w.schedule(TimePoint::from_ns(2), [&] { ran = true; });
  EXPECT_FALSE(w.cancel(old_id));
  ASSERT_FALSE(w.empty());
  w.pop().fn();
  EXPECT_TRUE(ran);
}

TEST(TimerWheelTest, CancelOfGarbageIdsRejected) {
  TimerWheel w;
  w.schedule(TimePoint::from_ns(1), [] {});
  EXPECT_FALSE(w.cancel(0));
  EXPECT_FALSE(w.cancel(0xffffffffffffffffull));
  EXPECT_EQ(w.size(), 1u);
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  TimePoint seen;
  sim.after(Duration::millis(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, TimePoint::zero() + Duration::millis(5));
  EXPECT_EQ(sim.now(), seen);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.after(Duration::millis(1), recurse);
  };
  sim.after(Duration::millis(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now().ns(), Duration::millis(5).ns());
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, Duration::millis(10), [&] { ++count; });
  task.start();
  sim.run_until(TimePoint::zero() + Duration::millis(95));
  EXPECT_EQ(count, 9);
  EXPECT_EQ(sim.now(), TimePoint::zero() + Duration::millis(95));
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.run_until(TimePoint::zero() + Duration::seconds(3));
  EXPECT_EQ(sim.now().to_seconds(), 3.0);
}

TEST(SimulatorTest, EventBudgetStopsRunaway) {
  Simulator sim;
  std::function<void()> forever = [&] {
    sim.after(Duration::nanos(1), forever);
  };
  sim.after(Duration::nanos(1), forever);
  sim.set_event_budget(1000);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 1000u);
}

TEST(SimulatorTest, StepExecutesOne) {
  Simulator sim;
  int count = 0;
  sim.after(Duration::millis(1), [&] { ++count; });
  sim.after(Duration::millis(2), [&] { ++count; });
  EXPECT_TRUE(sim.step_before(TimePoint::max()));
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step_before(TimePoint::max()));
  EXPECT_FALSE(sim.step_before(TimePoint::max()));
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, StepBeforeRunsOnlyEventsStrictlyBeforeTheLimit) {
  // The sharded loop's tie rule depends on the strict bound: a parcel due at
  // the same instant as a local event must run first.
  Simulator sim;
  std::vector<int> order;
  sim.at(TimePoint::from_ns(10), [&] { order.push_back(10); });
  sim.at(TimePoint::from_ns(2000), [&] { order.push_back(2000); });
  EXPECT_FALSE(sim.step_before(TimePoint::from_ns(10)));
  EXPECT_EQ(sim.now(), TimePoint::zero());
  EXPECT_TRUE(sim.step_before(TimePoint::from_ns(11)));
  EXPECT_FALSE(sim.step_before(TimePoint::from_ns(2000)));
  EXPECT_TRUE(sim.step_before(TimePoint::max()));
  EXPECT_FALSE(sim.step_before(TimePoint::max()));
  EXPECT_EQ(order, (std::vector<int>{10, 2000}));
  EXPECT_EQ(sim.now(), TimePoint::from_ns(2000));
}

TEST(TimerTest, FiresOnceAtExpiry) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.start(Duration::millis(7));
  EXPECT_TRUE(t.pending());
  sim.run();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.pending());
}

TEST(TimerTest, RestartReplacesPending) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.start(Duration::millis(5));
  t.start(Duration::millis(20));
  sim.run_until(TimePoint::zero() + Duration::millis(10));
  EXPECT_EQ(fires, 0);
  sim.run();
  EXPECT_EQ(fires, 1);
}

TEST(TimerTest, StartIfIdleDoesNotRestart) {
  Simulator sim;
  Timer t(sim, [] {});
  t.start(Duration::millis(5));
  const TimePoint expiry = t.expiry();
  t.start_if_idle(Duration::millis(50));
  EXPECT_EQ(t.expiry(), expiry);
}

TEST(TimerTest, StopCancels) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.start(Duration::millis(5));
  t.stop();
  sim.run();
  EXPECT_EQ(fires, 0);
}

TEST(TimerTest, DestructionCancels) {
  Simulator sim;
  int fires = 0;
  {
    Timer t(sim, [&] { ++fires; });
    t.start(Duration::millis(5));
  }
  sim.run();
  EXPECT_EQ(fires, 0);
}

TEST(TimerTest, RestartableFromCallback) {
  Simulator sim;
  int fires = 0;
  Timer* ptr = nullptr;
  Timer t(sim, [&] {
    if (++fires < 3) ptr->start(Duration::millis(1));
  });
  ptr = &t;
  t.start(Duration::millis(1));
  sim.run();
  EXPECT_EQ(fires, 3);
}

TEST(PeriodicTaskTest, FiresAtInterval) {
  Simulator sim;
  std::vector<std::int64_t> at;
  PeriodicTask task(sim, Duration::millis(10),
                    [&] { at.push_back(sim.now().ns()); });
  task.start();
  sim.run_until(TimePoint::zero() + Duration::millis(35));
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], Duration::millis(10).ns());
  EXPECT_EQ(at[2], Duration::millis(30).ns());
}

TEST(PeriodicTaskTest, FireNowStartsImmediately) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, Duration::millis(10), [&] { ++count; });
  task.start(/*fire_now=*/true);
  sim.run_until(TimePoint::zero() + Duration::millis(5));
  EXPECT_EQ(count, 1);
}

TEST(PeriodicTaskTest, CallbackCanStopTask) {
  Simulator sim;
  int count = 0;
  PeriodicTask* ptr = nullptr;
  PeriodicTask task(sim, Duration::millis(1), [&] {
    if (++count == 4) ptr->stop();
  });
  ptr = &task;
  task.start();
  sim.run_until(TimePoint::zero() + Duration::seconds(1));
  EXPECT_EQ(count, 4);
  EXPECT_TRUE(sim.idle());
}

}  // namespace
}  // namespace iq::sim
