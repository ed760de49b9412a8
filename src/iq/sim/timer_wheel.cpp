#include "iq/sim/timer_wheel.hpp"

#include <algorithm>
#include <bit>

#include "iq/common/check.hpp"

namespace iq::sim {

namespace {
// An EventId packs (slot index + 1) in the high 32 bits and the slot's
// generation at schedule time in the low 32 — the same encoding as the
// event heap's, so handles behave identically across both schedulers.
constexpr EventId make_id(std::uint32_t slot, std::uint32_t generation) {
  return (static_cast<EventId>(slot) + 1) << 32 | generation;
}

/// Heap comparator: the std heap algorithms keep the "largest" element on
/// top, so "larger" means earlier in (at, seq) order.
template <typename Ref>
bool fires_later(const Ref& a, const Ref& b) {
  if (a.at_ns != b.at_ns) return a.at_ns > b.at_ns;
  return a.seq > b.seq;
}
}  // namespace

TimerWheel::TimerWheel() { heads_.fill(kNil); }

std::uint32_t TimerWheel::alloc_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next;
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  IQ_CHECK_MSG(slot != kNil, "timer wheel slot space exhausted");
  slots_.emplace_back();
  fns_.emplace_back();
  return slot;
}

void TimerWheel::release(std::uint32_t slot) {
  Entry& e = slots_[slot];
  ++e.generation;
  e.bucket = kBucketFree;
  e.prev = kNil;
  e.next = free_head_;
  free_head_ = slot;
}

std::uint64_t TimerWheel::tick_of(std::int64_t at_ns) {
  return at_ns > 0 ? static_cast<std::uint64_t>(at_ns) >> kTickBits : 0;
}

void TimerWheel::link(std::uint32_t slot, std::uint64_t tick) {
  const std::uint64_t diff = tick ^ cur_tick_;
  const auto level =
      static_cast<std::uint32_t>(63 - std::countl_zero(diff)) / kLevelBits;
  const auto idx = static_cast<std::uint32_t>(tick >> (level * kLevelBits)) &
                   (kSlotsPerLevel - 1);
  const std::uint32_t bucket = level * kSlotsPerLevel + idx;
  Entry& e = slots_[slot];
  std::uint32_t& head = heads_[bucket];
  if (head == kNil) {
    head = slot;
    e.prev = e.next = slot;
    occupied_[bucket / 64] |= 1ull << (bucket % 64);
    occupied_words_ |= 1u << (bucket / 64);
  } else {
    const std::uint32_t tail = slots_[head].prev;
    e.prev = tail;
    e.next = head;
    slots_[tail].next = slot;
    slots_[head].prev = slot;
  }
  e.bucket = static_cast<std::uint16_t>(bucket);
}

void TimerWheel::unlink(std::uint32_t slot) {
  Entry& e = slots_[slot];
  const std::uint32_t bucket = e.bucket;
  if (e.next == slot) {
    clear_bucket(bucket);
  } else {
    slots_[e.prev].next = e.next;
    slots_[e.next].prev = e.prev;
    if (heads_[bucket] == slot) heads_[bucket] = e.next;
  }
  e.prev = e.next = kNil;
  e.bucket = kBucketFree;
}

void TimerWheel::clear_bucket(std::uint32_t bucket) {
  heads_[bucket] = kNil;
  std::uint64_t& word = occupied_[bucket / 64];
  word &= ~(1ull << (bucket % 64));
  if (word == 0) occupied_words_ &= ~(1u << (bucket / 64));
}

void TimerWheel::place(std::uint32_t slot) {
  const std::uint64_t tick = tick_of(slots_[slot].at_ns);
  if (tick > cur_tick_) {
    link(slot, tick);
  } else {
    stage(slot);
  }
}

void TimerWheel::stage(std::uint32_t slot) {
  // Cancelled references are dropped lazily; purge them before they could
  // make the heap grow, so its capacity tracks the live staged population.
  if (staged_.size() == staged_.capacity() && staged_.size() > staged_live_) {
    std::erase_if(staged_, [this](const StagedRef& r) {
      return slots_[r.slot].generation != r.generation;
    });
    std::make_heap(staged_.begin(), staged_.end(), fires_later<StagedRef>);
  }
  Entry& e = slots_[slot];
  e.bucket = kBucketStaged;
  staged_.push_back(StagedRef{e.at_ns, e.seq, slot, e.generation});
  std::push_heap(staged_.begin(), staged_.end(), fires_later<StagedRef>);
  ++staged_live_;
}

bool TimerWheel::staged_front() {
  if (staged_live_ == 0) return false;
  // A cancel invalidated the references on top after they were staged.
  while (slots_[staged_.front().slot].generation !=
         staged_.front().generation) {
    std::pop_heap(staged_.begin(), staged_.end(), fires_later<StagedRef>);
    staged_.pop_back();
  }
  return true;
}

std::uint32_t TimerWheel::earliest_bucket() const {
  // Levels partition pending time in ascending order and, within a level,
  // every occupied bucket lies ahead of the position, so the lowest set
  // occupancy bit is the earliest bucket.
  const auto word =
      static_cast<std::uint32_t>(std::countr_zero(occupied_words_));
  return word * 64 +
         static_cast<std::uint32_t>(std::countr_zero(occupied_[word]));
}

void TimerWheel::cascade(std::uint32_t bucket) {
  const std::uint32_t head = heads_[bucket];
  clear_bucket(bucket);
  std::uint32_t slot = head;
  do {
    const std::uint32_t next = slots_[slot].next;
    place(slot);
    slot = next;
  } while (slot != head);
}

bool TimerWheel::settle(std::uint64_t limit) {
  if (staged_front()) return true;
  while (occupied_words_ != 0) {
    const std::uint32_t bucket = earliest_bucket();
    const std::uint32_t shift = bucket / kSlotsPerLevel * kLevelBits;
    // The start of the bucket's span: higher fields are kept, the lower
    // levels are empty. Every entry of the bucket lies at or after it.
    const std::uint64_t span = (std::uint64_t{kSlotsPerLevel} << shift) - 1;
    const std::uint64_t start =
        (cur_tick_ & ~span) |
        (std::uint64_t{bucket % kSlotsPerLevel} << shift);
    // Nothing is due by `limit`: keep the position where it is, so work the
    // caller schedules before this bucket is still linked, not staged late.
    if (start > limit) return false;
    cur_tick_ = start;
    // Each entry now agrees with the position on this level's field, so it
    // re-links strictly lower — or is staged when its tick is the new
    // position itself (always, for a level-0 bucket).
    cascade(bucket);
    if (staged_live_ > 0) return true;
  }
  return false;
}

TimerWheel::Popped TimerWheel::take(std::uint32_t slot) {
  Popped out{TimePoint::from_ns(slots_[slot].at_ns), std::move(fns_[slot])};
  release(slot);
  --live_;
  return out;
}

TimerWheel::Popped TimerWheel::pop_staged() {
  std::pop_heap(staged_.begin(), staged_.end(), fires_later<StagedRef>);
  const std::uint32_t slot = staged_.back().slot;
  staged_.pop_back();
  if (--staged_live_ == 0) staged_.clear();
  return take(slot);
}

EventId TimerWheel::schedule(TimePoint at, EventFn fn) {
  const std::uint32_t slot = alloc_slot();
  Entry& e = slots_[slot];
  e.at_ns = at.ns();
  e.seq = next_seq_++;
  fns_[slot] = std::move(fn);
  place(slot);
  ++live_;
  return make_id(slot, e.generation);
}

bool TimerWheel::cancel(EventId id) {
  const std::uint64_t hi = id >> 32;
  if (hi == 0 || hi > slots_.size()) return false;
  const auto slot = static_cast<std::uint32_t>(hi - 1);
  Entry& e = slots_[slot];
  // Generation mismatch = the handle's event already fired or was cancelled;
  // stale handles are rejected without touching any accounting.
  if (e.generation != static_cast<std::uint32_t>(id) ||
      e.bucket == kBucketFree) {
    return false;
  }
  const bool staged = e.bucket == kBucketStaged;
  if (!staged) unlink(slot);
  fns_[slot].reset();
  release(slot);  // the generation bump turns a staged reference stale
  --live_;
  if (staged && --staged_live_ == 0) staged_.clear();
  return true;
}

TimePoint TimerWheel::next_time() {
  if (staged_front()) return TimePoint::from_ns(staged_.front().at_ns);
  if (occupied_words_ == 0) return TimePoint::max();
  // The earliest occupied bucket holds the earliest entry. Scan it in place
  // instead of settling, so a peek never moves the position.
  const std::uint32_t head = heads_[earliest_bucket()];
  std::int64_t at = slots_[head].at_ns;
  for (std::uint32_t slot = slots_[head].next; slot != head;
       slot = slots_[slot].next) {
    at = std::min(at, slots_[slot].at_ns);
  }
  return TimePoint::from_ns(at);
}

bool TimerWheel::has_due(TimePoint deadline) {
  // Once settled, the heap's top is the global (at, seq) minimum.
  return settle(tick_of(deadline.ns())) &&
         staged_.front().at_ns <= deadline.ns();
}

bool TimerWheel::pop_due(TimePoint deadline, Popped& out) {
  if (!has_due(deadline)) return false;
  out = pop_staged();
  return true;
}

TimerWheel::Popped TimerWheel::pop() {
  const bool settled = settle(~std::uint64_t{0});
  IQ_CHECK_MSG(settled, "pop() on empty TimerWheel");
  return pop_staged();
}

}  // namespace iq::sim
