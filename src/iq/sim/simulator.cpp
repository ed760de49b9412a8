#include "iq/sim/simulator.hpp"

#include "iq/common/check.hpp"

namespace iq::sim {

EventId Simulator::at(TimePoint t, EventFn fn) {
  IQ_CHECK_MSG(t >= now_, "cannot schedule into the past");
  return queue_.schedule(t, std::move(fn));
}

EventId Simulator::after(Duration d, EventFn fn) {
  IQ_CHECK_MSG(!d.is_negative(), "negative delay");
  return queue_.schedule(now_ + d, std::move(fn));
}

void Simulator::fire(TimerWheel::Popped& ev) {
  IQ_CHECK(ev.at >= now_);
  now_ = ev.at;
  ++executed_;
  ev.fn();
}

void Simulator::run() {
  while (!queue_.empty()) {
    if (event_budget_ != 0 && executed_ >= event_budget_) return;
    auto ev = queue_.pop();
    fire(ev);
  }
}

void Simulator::run_until(TimePoint deadline) {
  for (;;) {
    if (event_budget_ != 0 && executed_ >= event_budget_) {
      // Out of budget: the clock stays put while due work is left undone.
      if (queue_.has_due(deadline)) return;
      break;
    }
    // One settle of the wheel serves both the deadline check and the pop.
    TimerWheel::Popped ev;
    if (!queue_.pop_due(deadline, ev)) break;
    fire(ev);
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::advance_to(TimePoint t) {
  IQ_CHECK_MSG(t >= now_, "cannot advance the clock backwards");
  IQ_CHECK_MSG(!queue_.has_due(t - Duration::nanos(1)),
               "advance_to would skip pending events");
  now_ = t;
}

bool Simulator::step_before(TimePoint limit) {
  TimerWheel::Popped ev;
  if (!queue_.pop_due(limit - Duration::nanos(1), ev)) return false;
  fire(ev);
  return true;
}

}  // namespace iq::sim
