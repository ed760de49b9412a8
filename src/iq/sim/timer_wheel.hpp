#pragma once
// Hierarchical timing wheel: the one event scheduler of the simulator and
// the realtime loop.
//
// The RUDP hot path is timer *churn*: every connection owns five timers
// (rto, connect, keepalive, ack, fec_flush) that are rearmed on nearly
// every segment and almost never allowed to fire. Through a binary heap
// each rearm would cost two O(log n) sift passes, and at CityScale's 10k
// flows that is the dominant cost of the whole simulation. A timing wheel
// makes schedule, rearm and cancel O(1): an entry is appended to the
// bucket its deadline hashes to and unlinked in place by handle.
//
// Structure (Varghese–Lauck hierarchy over coarse ticks): time is cut into
// ticks of 2^10 ns (~1 us) and the wheel has 7 levels of 256 buckets, each
// with an occupancy bitmap. Level k buckets span 2^(10+8k) ns, so the top
// level covers the whole int64 time range — no overflow list, every
// representable deadline has a bucket. An entry whose deadline tick is d
// lands at the lowest level whose bucket resolution separates d from the
// wheel's current tick (level = highest differing bit of d ^ cur, divided
// by 8 — one XOR and a count-leading-zeros, no loop). When the wheel's
// position reaches a higher-level bucket, that bucket's entries cascade
// down to their lower-level position. With ~1 us ticks and 256-way levels
// a packet serialization (~0.6 ms) or a propagation delay (~15 ms) is
// placed once and cascaded at most once before it fires.
//
// Entries whose tick the wheel has reached are *staged*: they sit in a
// small binary min-heap keyed by (deadline, seq) instead of a bucket.
// Every staged entry's deadline lies in a tick at or before the current
// one and every linked entry's in a later tick, so the heap's top is
// always the global minimum. settle() is the one walk that keeps this
// true: when nothing live is staged it moves the position to the earliest
// occupied bucket, cascading on the way down, until a cascade stages
// something. It is bounded by the caller's deadline: a bucket that starts
// after the deadline's tick is left alone, so a failed pop_due() or
// has_due() never moves the position ahead of the caller's clock, and
// work scheduled afterwards still links into the O(1) wheel instead of
// being staged late. pop_due() serves the deadline check and the pop with
// one settle. next_time() does not settle at all: it reads the heap's top,
// or scans the earliest occupied bucket in place.
//
// Determinism contract — the wheel fires in EXACTLY (deadline, schedule
// order), which is what keeps CityScale's FNV-1a digests bit-identical at
// every shard count:
//
//   1. Total order is (deadline, schedule-seq): a strictly increasing
//      sequence number breaks same-nanosecond ties in insertion order.
//   2. A level-0 bucket spans one tick, so its entries may differ in their
//      exact deadline. When the position reaches the tick the bucket is
//      staged whole and the heap orders it by (deadline, seq) — O(m log m)
//      for an m-entry pileup, not the O(m^2) a rescan-per-pop would cost
//      when thousands of flows share a tick.
//   3. Late schedules — a deadline in a tick at or before the wheel's
//      current one (legal on the realtime path, and in the tick the clock
//      stands in) — are staged directly with their original deadline as
//      the sort key, so they order against pending work exactly as if
//      they had been scheduled in time.
//
// A cancel of a linked entry unlinks it in place; a cancel of a staged
// entry bumps the slot's generation so its heap reference turns stale and
// is skipped when it surfaces. Stale references are purged whenever the
// heap is full and would otherwise grow, so its capacity never exceeds
// twice the largest live staged population however much staged entries
// are cancelled.
//
// tests/timer_wheel_property_test.cpp drives random schedule/rearm/
// cancel/fire interleavings against a linear-scan reference model and
// requires identical fire order, identical cancel results (stale and double
// cancels rejected by the generation-validated handles) and identical
// next_time(), with next_time() and has_due() probed between ops.
//
// The wheel is allocation-free at steady state: entries live in a pooled
// slot table (freelist reuse), buckets are intrusive circular doubly-linked
// lists threaded through the slots, and the heap is a reused vector that
// keeps its high-water capacity. The slot table is split hot/cold — keys
// and links in one dense array, the 48-byte InlineFn callables in a
// parallel one — so cascading and unlinking never touch callable storage.

#include <array>
#include <cstdint>
#include <vector>

#include "iq/common/time.hpp"
#include "iq/sim/executor.hpp"

namespace iq::sim {

class TimerWheel {
 public:
  TimerWheel();

  /// Schedule `fn` at absolute time `at`. O(1). Deadlines at or before
  /// the wheel's current tick fire as soon as possible but keep `at` as
  /// their ordering key (see header contract, rule 3).
  EventId schedule(TimePoint at, EventFn fn);
  /// Cancel a pending event; returns false (and does nothing) if it
  /// already fired or was cancelled before — stale handles are rejected
  /// by the generation check. O(1).
  bool cancel(EventId id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }
  /// Exact timestamp of the earliest live event; max() when empty. Never
  /// moves the wheel's position (it scans the earliest bucket in place);
  /// non-const only because it drops cancelled references from the staged
  /// heap's top.
  TimePoint next_time();
  /// True if a live event is due at or before `deadline`. Settles the
  /// wheel no further than the deadline's tick.
  bool has_due(TimePoint deadline);

  struct Popped {
    TimePoint at;
    EventFn fn;
  };
  /// Remove and return the earliest live event (order contract above).
  /// Wheel must not be empty.
  Popped pop();
  /// If the earliest live event is due at or before `deadline`, move it
  /// into `out` and return true; otherwise leave everything pending and
  /// return false. One settle, bounded as in has_due(), serves both the
  /// check and the pop.
  bool pop_due(TimePoint deadline, Popped& out);

 private:
  /// Reads the staged heap's length in tests/timer_wheel_property_test.cpp.
  friend struct TimerWheelTestPeer;

  static constexpr std::uint32_t kTickBits = 10;  // ~1 us ticks
  static constexpr std::uint32_t kLevelBits = 8;
  static constexpr std::uint32_t kSlotsPerLevel = 1u << kLevelBits;  // 256
  static constexpr std::uint32_t kLevels = 7;  // 10 + 7*8 = 66 bits > int64
  static constexpr std::uint32_t kBuckets = kLevels * kSlotsPerLevel;
  static constexpr std::uint32_t kOccWords = kBuckets / 64;  // 28
  static constexpr std::uint32_t kNil = 0xffffffff;
  /// Bucket markers for entries not linked into any bucket list.
  static constexpr std::uint16_t kBucketFree = 0xffff;
  static constexpr std::uint16_t kBucketStaged = 0xfffe;

  /// The hot half of a slot: ordering key, links and bookkeeping. The
  /// callable lives at the same index in fns_.
  struct Entry {
    std::int64_t at_ns = 0;    ///< original deadline (ordering key)
    std::uint64_t seq = 0;
    std::uint32_t generation = 1;
    std::uint32_t prev = kNil;  ///< intrusive bucket links (slot indices)
    std::uint32_t next = kNil;  ///< doubles as the freelist link
    std::uint16_t bucket = kBucketFree;  ///< owning bucket, or marker
  };

  /// A staged-heap reference: the sort keys plus a generation-validated
  /// slot reference, so a cancel after staging turns the reference stale
  /// instead of corrupting the heap.
  struct StagedRef {
    std::int64_t at_ns;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };

  std::uint32_t alloc_slot();
  void release(std::uint32_t slot);
  /// Tick of a deadline; deadlines before time zero map to tick 0.
  static std::uint64_t tick_of(std::int64_t at_ns);
  /// Link `slot` into the bucket for `tick` (> cur_tick_) relative to the
  /// wheel's current tick. O(1).
  void link(std::uint32_t slot, std::uint64_t tick);
  void unlink(std::uint32_t slot);
  /// Mark a bucket empty in its head and the occupancy bitmaps.
  void clear_bucket(std::uint32_t bucket);
  /// Link `slot` if its tick lies ahead of the wheel, else stage it.
  void place(std::uint32_t slot);
  void stage(std::uint32_t slot);
  /// Drop stale references from the heap's top; true if a live staged
  /// entry remains.
  bool staged_front();
  /// The earliest occupied bucket. Precondition: some bucket is occupied.
  std::uint32_t earliest_bucket() const;
  /// Empty a bucket and place() each of its entries again relative to the
  /// current tick: entries of the current tick are staged, later ones link
  /// at a lower level.
  void cascade(std::uint32_t bucket);
  /// Make the heap's top the global minimum, moving the position no further
  /// than tick `limit`. Returns true if a live entry is staged; false when
  /// the wheel is empty or all pending work lies in buckets after `limit`.
  bool settle(std::uint64_t limit);
  Popped pop_staged();
  Popped take(std::uint32_t slot);

  std::array<std::uint32_t, kBuckets> heads_;  ///< kNil when empty
  /// One bit per bucket (bucket b is bit b % 64 of word b / 64), and one
  /// bit per non-zero word: the lowest set bit is the earliest bucket.
  std::array<std::uint64_t, kOccWords> occupied_{};
  std::uint32_t occupied_words_ = 0;
  std::vector<Entry> slots_;
  std::vector<EventFn> fns_;
  std::uint32_t free_head_ = kNil;
  std::uint64_t cur_tick_ = 0;   ///< wheel position (only advances)
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;         ///< live entries (linked + staged)
  std::size_t staged_live_ = 0;

  /// Min-heap by (at, seq) of staged entries; empty whenever staged_live_
  /// is zero.
  std::vector<StagedRef> staged_;
};

}  // namespace iq::sim
