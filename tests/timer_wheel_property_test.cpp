// Differential test of the hierarchical TimerWheel against a naive
// reference model.
//
// The reference keeps every scheduled event in a flat vector and scans for
// the earliest live (time, insertion-seq) entry: obviously correct, O(n)
// per op. The wheel runs inside Simulator and RealtimeLoop, so it must
// match that model exactly: the same (time, insertion-seq) fire order
// (this is what keeps CityScale's cross-shard digests bit-identical at
// every shard count), the same cancel results for live, fired, stale and
// double-cancelled handles, the same size accounting and the same
// next_time() at every step. Random interleavings of
// schedule/rearm/cancel/fire across seeds 1–24 drive deadlines through
// every wheel level: same-nanosecond collisions (level-0 FIFO pileups),
// near rearm-style horizons, far-future deadlines that must cascade down
// multiple levels before firing, and deadlines behind the wheel's position
// (legal on the realtime path) that clamp but keep their ordering key.
//
// The wheel's level-0 buckets are ticks of 2^10 ns and its levels are 8 bits
// wide, so the tick-semantics tests below aim at the edges of that layout:
// distinct deadlines inside one tick, same-ns pileups on both sides of a
// tick edge, deadlines at level boundaries 2^(10+8k) +/- 1, late schedules,
// cancels of entries already staged in the fire heap, and next_time() and
// has_due() probed between every op. A failed pop_due() must not move the
// wheel ahead of the caller's deadline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "iq/common/rng.hpp"
#include "iq/sim/timer_wheel.hpp"

namespace iq::sim {

struct TimerWheelTestPeer {
  /// Length of the staged heap, stale references included.
  static std::size_t staged_refs(const TimerWheel& wheel) {
    return wheel.staged_.size();
  }
};

namespace {

constexpr std::int64_t kTick = std::int64_t{1} << 10;

/// Naive model: linear scan, no heap, no slot reuse. An event's reference
/// is its schedule index.
class ReferenceQueue {
 public:
  std::size_t schedule(TimePoint at) {
    entries_.push_back({at, true});
    ++live_;
    return entries_.size() - 1;
  }

  bool cancel(std::size_t ref) {
    if (ref >= entries_.size() || !entries_[ref].alive) return false;
    entries_[ref].alive = false;
    --live_;
    return true;
  }

  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// Reference of the earliest live entry; ties go to the earlier
  /// schedule. entries_.size() when empty.
  std::size_t earliest() const {
    std::size_t best = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].alive &&
          (best == entries_.size() || entries_[i].at < entries_[best].at)) {
        best = i;
      }
    }
    return best;
  }

  /// Timestamp of the earliest live entry; max() when empty.
  TimePoint next_time() const {
    const std::size_t best = earliest();
    return best == entries_.size() ? TimePoint::max() : entries_[best].at;
  }

  /// Remove the earliest live entry and return its reference.
  std::size_t pop() {
    const std::size_t best = earliest();
    cancel(best);
    return best;
  }

  TimePoint at(std::size_t ref) const { return entries_[ref].at; }

 private:
  struct Entry {
    TimePoint at;
    bool alive;
  };
  std::vector<Entry> entries_;
  std::size_t live_ = 0;
};

/// Drives a TimerWheel and the ReferenceQueue in lockstep. Each event is
/// tagged with its schedule index, which is also its reference in the
/// model; the wheel's callbacks record the tags they fire and every op
/// checks that the wheel agrees with the model.
struct Lockstep {
  TimerWheel wheel;
  ReferenceQueue ref;
  std::vector<EventId> wheel_ids;
  std::vector<std::size_t> wheel_fired;
  std::vector<std::size_t> ref_fired;
  std::int64_t last_fired_ns = 0;

  Lockstep() = default;
  Lockstep(const Lockstep&) = delete;  // the callbacks capture `this`
  Lockstep& operator=(const Lockstep&) = delete;

  std::size_t schedule(std::int64_t at_ns) {
    const std::size_t tag = wheel_ids.size();
    wheel_ids.push_back(wheel.schedule(
        TimePoint::from_ns(at_ns), [this, tag] { wheel_fired.push_back(tag); }));
    ref.schedule(TimePoint::from_ns(at_ns));
    EXPECT_EQ(wheel.size(), ref.size());
    return tag;
  }

  bool cancel(std::size_t tag) {
    const bool ok = wheel.cancel(wheel_ids[tag]);
    EXPECT_EQ(ok, ref.cancel(tag)) << "cancel of tag " << tag;
    EXPECT_EQ(wheel.size(), ref.size());
    return ok;
  }

  void peek() { EXPECT_EQ(wheel.next_time(), ref.next_time()); }

  bool has_due(std::int64_t deadline_ns) {
    const bool due = wheel.has_due(TimePoint::from_ns(deadline_ns));
    EXPECT_EQ(due, !ref.empty() && ref.next_time().ns() <= deadline_ns)
        << "has_due(" << deadline_ns << ")";
    return due;
  }

  void pop() {
    auto w = wheel.pop();
    fire_both(w, ref.pop());
  }

  /// The wheel's fused pop_due() against next_time() + pop() on the model.
  bool pop_due(std::int64_t deadline_ns) {
    TimerWheel::Popped w;
    const bool fired = wheel.pop_due(TimePoint::from_ns(deadline_ns), w);
    const bool ref_due =
        !ref.empty() && ref.next_time().ns() <= deadline_ns;
    EXPECT_EQ(fired, ref_due) << "pop_due(" << deadline_ns << ")";
    if (!fired || !ref_due) return false;
    fire_both(w, ref.pop());
    return true;
  }

  void drain(bool peek_first) {
    while (!ref.empty() && !::testing::Test::HasFailure()) {
      if (peek_first) peek();
      pop();
    }
    EXPECT_TRUE(wheel.empty());
    EXPECT_EQ(wheel.next_time(), TimePoint::max());
    EXPECT_EQ(wheel_fired, ref_fired);
  }

  void fire_both(TimerWheel::Popped& w, std::size_t ref_tag) {
    EXPECT_EQ(w.at, ref.at(ref_tag));
    last_fired_ns = w.at.ns();
    w.fn();
    ref_fired.push_back(ref_tag);
    EXPECT_EQ(wheel_fired.back(), ref_tag);
    EXPECT_EQ(wheel.size(), ref.size());
  }
};

TEST(TimerWheelPropertyTest, MatchesReferenceModelUnderRandomChurn) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    Lockstep ls;

    const auto random_deadline = [&]() -> std::int64_t {
      const std::int64_t fired_at = ls.last_fired_ns;
      const double kind = rng.uniform01();
      if (kind < 0.40) {
        // Coarse near-term offsets: plenty of same-ns collisions.
        return fired_at + rng.uniform_int(0, 199);
      }
      if (kind < 0.70) {
        // Rearm-style horizons (RTO/keepalive scale).
        return fired_at + rng.uniform_int(1'000, 400'000'000);
      }
      if (kind < 0.90) {
        // Far future: forces placement at high wheel levels and multi-step
        // cascades back down before firing.
        const int shift = static_cast<int>(rng.uniform_int(30, 55));
        return fired_at + (std::int64_t{1} << shift) + rng.uniform_int(0, 9999);
      }
      // Behind the last fired deadline — the realtime path schedules these;
      // both sides must order them by their original timestamp.
      return std::max<std::int64_t>(0, fired_at - rng.uniform_int(0, 5000));
    };

    for (int op = 0; op < 15'000 && !::testing::Test::HasFailure(); ++op) {
      const double roll = rng.uniform01();
      if (roll < 0.40 || ls.ref.empty()) {
        ls.schedule(random_deadline());
      } else if (roll < 0.55) {
        // Rearm: cancel a random handle and, if it was live, reschedule.
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(ls.wheel_ids.size()) - 1));
        if (ls.cancel(pick)) ls.schedule(random_deadline());
      } else if (roll < 0.75) {
        // Cancel a random handle — live, fired, or already cancelled; the
        // generation check must reject stale handles identically.
        ls.cancel(static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(ls.wheel_ids.size()) - 1)));
      } else {
        ls.peek();
        ls.pop();
      }
    }
    // Drain both completely; the full tag sequences must be identical.
    ls.drain(/*peek_first=*/true);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
  }
}

TEST(TimerWheelPropertyTest, EqualTimestampsFireFifoUnderChurn) {
  Rng rng(5);
  TimerWheel wheel;
  // Interleave schedules at one timestamp with noise at other times; the
  // single-timestamp group must fire in insertion order even though the
  // wheel batches the pileup through its fire heap.
  std::vector<int> fired;
  std::vector<EventId> noise;
  int next_tag = 0;
  for (int round = 0; round < 300; ++round) {
    const int tag = next_tag++;
    wheel.schedule(TimePoint::from_ns(1000),
                   [&fired, tag] { fired.push_back(tag); });
    noise.push_back(
        wheel.schedule(TimePoint::from_ns(rng.uniform_int(0, 2000)), [] {}));
    if (round % 3 == 0 && !noise.empty()) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(noise.size()) - 1));
      wheel.cancel(noise[pick]);
    }
  }
  while (!wheel.empty()) wheel.pop().fn();
  ASSERT_EQ(fired.size(), 300u);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(fired[i], i);
}

TEST(TimerWheelPropertyTest, MatchesReferenceModelUnderDenseSameTickChurn) {
  // Every deadline lies in 0..499 ns, inside the wheel's first tick, so
  // after the first pop everything is staged straight into the fire heap:
  // heavy same-ns collisions and cancels of staged entries, 20k ops a seed.
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull, 99991ull}) {
    Rng rng(seed);
    Lockstep ls;
    for (int op = 0; op < 20'000 && !::testing::Test::HasFailure(); ++op) {
      const double roll = rng.uniform01();
      if (roll < 0.5 || ls.ref.empty()) {
        ls.schedule(rng.uniform_int(0, 499));
      } else if (roll < 0.8) {
        ls.cancel(static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(ls.wheel_ids.size()) - 1)));
      } else {
        ls.pop();
      }
    }
    ls.drain(/*peek_first=*/false);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
  }
}

TEST(TimerWheelPropertyTest, EqualTimestampsStayFifoThroughCascades) {
  // As EqualTimestampsFireFifoUnderChurn, but the shared deadline sits
  // about 2^30 ns out, so the group is linked at a high level and cascades
  // down with the noise around it (which spans several levels and fires
  // first in part) before it is staged.
  constexpr std::int64_t kAt = (std::int64_t{1} << 30) + 12'345;
  Rng rng(5);
  TimerWheel wheel;
  std::vector<int> fired;
  std::vector<EventId> noise;
  for (int round = 0; round < 200; ++round) {
    wheel.schedule(TimePoint::from_ns(kAt),
                   [&fired, round] { fired.push_back(round); });
    noise.push_back(
        wheel.schedule(TimePoint::from_ns(rng.uniform_int(0, 2 * kAt)), [] {}));
    if (round % 3 == 0) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(noise.size()) - 1));
      wheel.cancel(noise[pick]);
    }
  }
  while (!wheel.empty()) wheel.pop().fn();
  ASSERT_EQ(fired.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(fired[i], i);
}

TEST(TimerWheelPropertyTest, StaleAndDoubleCancelStructurallyRejected) {
  TimerWheel wheel;
  const EventId a = wheel.schedule(TimePoint::from_ns(10), [] {});
  const EventId b = wheel.schedule(TimePoint::from_ns(20), [] {});

  EXPECT_TRUE(wheel.cancel(a));
  EXPECT_FALSE(wheel.cancel(a)) << "double cancel must be rejected";

  (void)wheel.pop();  // fires b
  EXPECT_FALSE(wheel.cancel(b)) << "cancel-after-fire must be rejected";

  // A recycled slot gets a fresh generation, so the old handle stays dead
  // even once the slot is reused.
  const EventId c = wheel.schedule(TimePoint::from_ns(30), [] {});
  EXPECT_FALSE(wheel.cancel(a));
  EXPECT_FALSE(wheel.cancel(b));
  EXPECT_TRUE(wheel.cancel(c));

  // Garbage ids.
  EXPECT_FALSE(wheel.cancel(0));
  EXPECT_FALSE(wheel.cancel(~EventId{0}));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelPropertyTest, CancelOfBatchedSameNsEntryIsHonoured) {
  // Force a same-ns pileup, fire part of it, then cancel an entry that is
  // already staged in the wheel's internal fire batch — the cancel must
  // still return true exactly once and the entry must not fire.
  TimerWheel wheel;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(wheel.schedule(TimePoint::from_ns(100),
                                 [&fired, i] { fired.push_back(i); }));
  }
  wheel.pop().fn();  // fires 0; 1..7 are now staged internally
  EXPECT_TRUE(wheel.cancel(ids[3]));
  EXPECT_FALSE(wheel.cancel(ids[3]));
  EXPECT_EQ(wheel.size(), 6u);
  while (!wheel.empty()) wheel.pop().fn();
  ASSERT_EQ(fired, (std::vector<int>{0, 1, 2, 4, 5, 6, 7}));
}

TEST(TimerWheelPropertyTest, FarFutureDeadlinesCascadeInOrder) {
  // Deadlines spread over ~16 orders of magnitude land on every wheel level
  // and must still fire in exact (time, insertion) order, including the
  // same-deadline pair planted at each magnitude.
  Lockstep ls;
  for (int shift = 0; shift < 55; ++shift) {
    const std::int64_t at = (std::int64_t{1} << shift) + shift;
    ls.schedule(at);
    ls.schedule(at);
  }
  ls.drain(/*peek_first=*/true);
  ASSERT_EQ(ls.wheel_fired.size(), 110u);
}

TEST(TimerWheelPropertyTest, DistinctDeadlinesInsideOneTickFireInExactOrder) {
  // Every level-0 bucket spans a whole tick, so the fire heap alone orders
  // its entries. Fill ticks with scattered nanosecond offsets (and some
  // exact duplicates), fire part of each tick, then add more to the tick
  // that is now current — those are staged straight into the heap.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    Lockstep ls;
    for (std::int64_t tick = 1; tick <= 40; ++tick) {
      const std::int64_t base = tick * 3 * kTick;
      for (int i = 0; i < 24; ++i) ls.schedule(base + rng.uniform_int(0, kTick - 1));
      for (int i = 0; i < 6; ++i) ls.schedule(base + 17);
      for (int i = 0; i < 12; ++i) ls.pop();
      for (int i = 0; i < 8; ++i) {
        ls.schedule(std::max(ls.last_fired_ns, base + rng.uniform_int(0, kTick - 1)));
      }
      ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
    }
    ls.drain(/*peek_first=*/seed % 2 == 0);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
  }
}

TEST(TimerWheelPropertyTest, SameNsPileupsStraddlingATickEdgeStayFifo) {
  // Three pileups at edge-1, edge and edge+1: the first lives in one tick,
  // the other two in the next. Schedule them interleaved in random order;
  // each pileup must still fire in insertion order and the pileups in time
  // order, whether the edge is reached from a level-0 or a cascaded bucket.
  Rng rng(11);
  for (const std::int64_t edge :
       {kTick, 5 * kTick, 256 * kTick, 65536 * kTick + 256 * kTick}) {
    Lockstep ls;
    for (int i = 0; i < 90; ++i) {
      ls.schedule(edge + rng.uniform_int(-1, 1));
      if (i % 7 == 0) ls.peek();
    }
    ls.drain(/*peek_first=*/true);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "edge " << edge;
  }
}

TEST(TimerWheelPropertyTest, LevelBoundaryDeadlinesFireInOrder) {
  // 2^(10+8k) is where level k+1 begins; +/-1 puts a deadline on either
  // side of the boundary. Repeat from a non-zero wheel position so the
  // boundaries fall mid-bucket relative to the current tick, and cancel a
  // share of them so emptied buckets drop out of the occupancy bitmap.
  for (const std::int64_t origin : std::vector<std::int64_t>{0, 123'456'789}) {
    Lockstep ls;
    if (origin != 0) {
      ls.schedule(origin);
      ls.pop();
    }
    std::vector<std::size_t> tags;
    for (int k = 0; k <= 6; ++k) {
      const std::int64_t boundary = std::int64_t{1} << (10 + 8 * k);
      for (const std::int64_t d : {boundary - 1, boundary, boundary + 1}) {
        tags.push_back(ls.schedule(origin + d));
        tags.push_back(ls.schedule(d));  // absolute: late when origin > d
      }
    }
    for (std::size_t i = 0; i < tags.size(); i += 5) ls.cancel(tags[i]);
    ls.drain(/*peek_first=*/origin != 0);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "origin " << origin;
  }
}

TEST(TimerWheelPropertyTest, LateSchedulesKeepTheirDeadlineAsKey) {
  Lockstep ls;
  ls.schedule(10 * kTick + 500);
  ls.pop();  // the wheel now stands in tick 10
  // Behind the position, in the current tick, and before time zero: all
  // are staged immediately but must order by their own deadlines.
  for (const std::int64_t d :
       {10 * kTick + 499, 3 * kTick, 10 * kTick + 500, 10 * kTick + 900,
        std::int64_t{-7}, 11 * kTick, 10 * kTick}) {
    ls.schedule(d);
  }
  ls.drain(/*peek_first=*/false);
}

TEST(TimerWheelPropertyTest, FailedPopDueDoesNotMoveTheWheelAhead) {
  // A failed pop_due() ends every run_until(). With only a far event
  // pending (an RTO or keepalive), it must leave the position short of that
  // event: work scheduled before it then links into the wheel in O(1)
  // instead of being staged as late, and still fires in order.
  Lockstep ls;
  ls.schedule(kTick);
  ls.pop();  // the wheel now stands in tick 1
  const std::int64_t far = std::int64_t{1} << 40;
  ls.schedule(far);
  EXPECT_FALSE(ls.pop_due(2 * kTick));
  EXPECT_FALSE(ls.has_due(3 * kTick + 5));
  ls.peek();
  for (const std::int64_t d :
       {2 * kTick, far - 1, far + 1, far, 5 * kTick, std::int64_t{1} << 20}) {
    ls.schedule(d);
    ls.peek();
  }
  EXPECT_EQ(TimerWheelTestPeer::staged_refs(ls.wheel), 0u);
  EXPECT_FALSE(ls.pop_due(2 * kTick - 1));
  EXPECT_TRUE(ls.pop_due(2 * kTick));
  ls.drain(/*peek_first=*/false);
}

TEST(TimerWheelPropertyTest, CancelsOfStagedEntriesAreHonoured) {
  // has_due() stages the earliest tick; cancel entries out of the staged
  // heap — including its current top — and fire the rest in order.
  Rng rng(3);
  Lockstep ls;
  std::vector<std::size_t> tick_tags;
  for (int i = 0; i < 60; ++i) {
    tick_tags.push_back(ls.schedule(7 * kTick + rng.uniform_int(0, kTick - 1)));
  }
  ls.schedule(9 * kTick);
  ls.has_due(7 * kTick);  // stages all 60
  for (int i = 0; i < 40; ++i) {
    const auto pick = static_cast<std::size_t>(rng.uniform_int(0, 59));
    ls.cancel(tick_tags[pick]);  // repeats exercise double cancels
    ls.peek();                   // the top may just have been cancelled
  }
  for (int i = 0; i < 5; ++i) ls.pop();
  for (const std::size_t tag : tick_tags) ls.cancel(tag);
  ls.drain(/*peek_first=*/true);
}

TEST(TimerWheelPropertyTest, StagedHeapStaysBoundedUnderCancelChurn) {
  // Live staged entries pin the heap's top while same-tick entries are
  // scheduled and cancelled behind them forever. Cancelled references are
  // invalidated lazily, so without compaction the heap would grow by one
  // reference per cancel; with it, the heap stays within twice its largest
  // live population (here the 8 standing entries plus one churned).
  TimerWheel wheel;
  int fired = 0;
  const auto count = [&fired] { ++fired; };
  std::vector<EventId> standing;
  for (int i = 0; i < 8; ++i) {
    standing.push_back(wheel.schedule(TimePoint::from_ns(5 * kTick + i), count));
  }
  ASSERT_TRUE(wheel.has_due(TimePoint::from_ns(5 * kTick)));  // stages them
  std::size_t high_water = 0;
  for (int i = 0; i < 200'000; ++i) {
    const EventId id =
        wheel.schedule(TimePoint::from_ns(5 * kTick + 100 + i % 900), count);
    ASSERT_TRUE(wheel.cancel(id));
    high_water = std::max(high_water, TimerWheelTestPeer::staged_refs(wheel));
  }
  EXPECT_LE(high_water, 2 * (standing.size() + 1));
  EXPECT_EQ(wheel.size(), standing.size());
  // Cancel the standing entries out from under the top, then fire the last.
  for (std::size_t i = 1; i < standing.size(); ++i) {
    ASSERT_TRUE(wheel.cancel(standing[i]));
  }
  while (!wheel.empty()) wheel.pop().fn();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(TimerWheelTestPeer::staged_refs(wheel), 0u);
}

TEST(TimerWheelPropertyTest, RandomChurnWithPopDueAndInterleavedNextTime) {
  // Odd seeds probe next_time() and has_due() between every op: has_due()
  // settles the wheel up to its deadline, at points a plain pop loop never
  // would; even seeds never probe. Deadlines concentrate on tick and level
  // edges; fires alternate between pop() and the fused pop_due() with
  // deadlines that are sometimes short of the next event.
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed * 7919);
    Lockstep ls;
    const bool peek_every_op = seed % 2 == 1;
    const auto deadline = [&]() -> std::int64_t {
      const std::int64_t now = ls.last_fired_ns;
      switch (rng.uniform_int(0, 5)) {
        case 0:  // within a few ticks, often the same one
          return now + rng.uniform_int(0, 3 * kTick);
        case 1: {  // just around the next tick edge
          const std::int64_t edge = (now / kTick + 1) * kTick;
          return edge + rng.uniform_int(-2, 2);
        }
        case 2: {  // just around a level boundary ahead of now
          const int k = static_cast<int>(rng.uniform_int(0, 4));
          const std::int64_t span = std::int64_t{1} << (10 + 8 * k);
          return (now / span + 1) * span + rng.uniform_int(-1, 1);
        }
        case 3:  // rearm-style horizons
          return now + rng.uniform_int(1'000, 300'000'000);
        case 4:  // far future: multi-level cascades
          return now + (std::int64_t{1} << rng.uniform_int(30, 50));
        default:  // late
          return now - rng.uniform_int(0, 4 * kTick);
      }
    };
    for (int op = 0; op < 6'000 && !::testing::Test::HasFailure(); ++op) {
      const double roll = rng.uniform01();
      if (roll < 0.40 || ls.ref.empty()) {
        ls.schedule(deadline());
      } else if (roll < 0.60) {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(ls.wheel_ids.size()) - 1));
        if (ls.cancel(pick) && rng.uniform01() < 0.5) ls.schedule(deadline());
      } else if (roll < 0.80) {
        ls.pop();
      } else {
        ls.pop_due(ls.last_fired_ns + rng.uniform_int(0, 2 * kTick));
      }
      if (peek_every_op) {
        ls.peek();
        ls.has_due(ls.last_fired_ns + rng.uniform_int(0, 2 * kTick));
      }
    }
    ls.drain(/*peek_first=*/peek_every_op);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace iq::sim
