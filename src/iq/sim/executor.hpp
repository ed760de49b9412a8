#pragma once
// Executor: the clock + scheduler interface protocol code is written against.
//
// The RUDP engine, congestion controllers and middleware never touch the
// Simulator directly; they see an Executor. In simulation the Executor is the
// Simulator itself (virtual time); over real sockets it is an epoll loop with
// a timerfd-armed timing wheel (iq/wire/udp_wire). This is what lets one
// protocol engine run both in the deterministic testbed and on a live
// network.

#include <cstdint>

#include "iq/common/inline_fn.hpp"
#include "iq/common/time.hpp"

namespace iq::sim {

/// Move-only small-buffer callable — see iq/common/inline_fn.hpp. Using it
/// for every scheduled event keeps the simulator hot path allocation-free.
using EventFn = InlineFn<void()>;
/// Opaque handle identifying a scheduled event; 0 is never used.
using EventId = std::uint64_t;

class Executor {
 public:
  virtual ~Executor() = default;

  virtual TimePoint now() const = 0;
  virtual EventId schedule_at(TimePoint t, EventFn fn) = 0;
  virtual bool cancel_event(EventId id) = 0;

  EventId schedule_after(Duration d, EventFn fn) {
    return schedule_at(now() + d, std::move(fn));
  }
};

}  // namespace iq::sim
