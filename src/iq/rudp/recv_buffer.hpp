#pragma once
// Receiver-side reassembly with adaptive-reliability skips.
//
// Segments arrive out of order; the cumulative point advances over
// contiguous received-or-skipped sequences. Messages occupy contiguous
// sequence ranges, so as the point advances, per-message accumulators fill
// up; a message completes as *delivered* when all fragments were received,
// or as *dropped* when any fragment was skipped (sender ADVANCE). Messages
// therefore finalize in order — the in-order delivery RUDP promises.

#include <cstdint>
#include <functional>
#include <span>

#include "iq/common/inline_vec.hpp"
#include "iq/net/pool.hpp"
#include "iq/rudp/message.hpp"
#include "iq/rudp/seq.hpp"

namespace iq::rudp {

struct RecvSegment {
  Seq seq = 0;
  std::uint32_t msg_id = 0;
  std::uint16_t frag_index = 0;
  std::uint16_t frag_count = 1;
  std::int32_t payload_bytes = 0;
  bool marked = true;
  bool fec = false;          ///< FEC-protected class (or reconstructed)
  std::uint64_t ts_us = 0;   ///< sender timestamp of this transmission
  attr::AttrList attrs;      ///< non-empty only on the first fragment
};

class RecvBuffer {
 public:
  explicit RecvBuffer(std::uint32_t max_buffered_packets = 4096,
                      Seq initial_seq = 1);

  struct Result {
    iq::InlineVec<DeliveredMessage, 2> delivered;
    std::uint32_t dropped_messages = 0;
    bool duplicate = false;
    bool advanced = false;   ///< cumulative point moved
    /// on_skip only: skips ignored for lying at or beyond cum() plus the
    /// receive window.
    std::uint32_t skips_rejected = 0;

    /// Clear for reuse. `delivered` keeps its capacity, so a caller that
    /// passes the same Result to every on_data/on_skip call stops
    /// allocating once it has seen its largest delivery batch (a gap fill
    /// can release a whole reorder backlog at once).
    void reset();
  };

  /// One abandoned sequence, with the owning message's identity and size.
  struct SkipInfo {
    Seq seq = 0;
    std::uint32_t msg_id = 0;
    std::uint16_t frag_count = 1;
  };

  Result on_data(const RecvSegment& seg, TimePoint now);
  /// Sender abandoned these sequences (ADVANCE segment contents).
  Result on_skip(std::span<const SkipInfo> skipped, TimePoint now);

  // Allocation-free variants: fill a caller-owned Result (reset first).
  // The connection reuses one scratch Result so delivery batches stop
  // allocating once it has grown to the high-water batch size.
  void on_data(const RecvSegment& seg, TimePoint now, Result& out);
  void on_skip(std::span<const SkipInfo> skipped, TimePoint now, Result& out);

  /// Next expected sequence (the cumulative ack we advertise).
  Seq cum() const { return cum_; }
  /// True if `seq` is already accounted for: finalized below the cumulative
  /// point, buffered out of order, or pending as a sender skip. The FEC
  /// decoder's "does the group still miss this member" predicate.
  bool has(Seq seq) const {
    return seq < cum_ || buffered_.contains(seq) || skip_pending_.contains(seq);
  }
  /// Out-of-order sequences currently buffered, ascending, at most `max_n`.
  /// Inline capacity matches Segment::EackList — callers that cap max_n at
  /// 16 never allocate.
  iq::InlineVec<Seq, 16> eacks(std::size_t max_n) const;
  /// Advertised receive window, packets.
  std::uint32_t rwnd() const;

  std::uint64_t duplicates() const { return duplicates_; }
  std::uint64_t delivered_messages() const { return delivered_count_; }
  std::uint64_t dropped_messages() const { return dropped_count_; }
  std::size_t buffered() const { return buffered_.size(); }

 private:
  struct MsgAccumulator {
    std::uint16_t frag_count = 1;
    std::uint16_t received = 0;
    std::uint16_t skipped = 0;
    std::int64_t bytes = 0;
    bool marked = true;
    bool fec = false;
    std::uint64_t first_ts_us = 0;
    attr::AttrList attrs;
  };

  void advance(Result& out, TimePoint now);
  void account(Result& out, Seq seq, TimePoint now);

  std::uint32_t max_buffered_;
  Seq cum_;
  // Pooled nodes: reassembly churns these maps once per segment/message;
  // after warmup every insert is served from the arena freelist.
  net::PooledMap<Seq, RecvSegment> buffered_ =
      net::make_pooled_map<Seq, RecvSegment>();  ///< received, >= cum_
  net::PooledMap<Seq, SkipInfo> skip_pending_ =
      net::make_pooled_map<Seq, SkipInfo>();
  net::PooledMap<std::uint32_t, MsgAccumulator> accumulators_ =
      net::make_pooled_map<std::uint32_t, MsgAccumulator>();
  std::uint64_t duplicates_ = 0;
  std::uint64_t delivered_count_ = 0;
  std::uint64_t dropped_count_ = 0;
};

}  // namespace iq::rudp
