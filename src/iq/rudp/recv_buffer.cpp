#include "iq/rudp/recv_buffer.hpp"

#include "iq/common/check.hpp"

namespace iq::rudp {

RecvBuffer::RecvBuffer(std::uint32_t max_buffered_packets, Seq initial_seq)
    : max_buffered_(max_buffered_packets), cum_(initial_seq) {}

void RecvBuffer::Result::reset() {
  delivered.clear();  // InlineVec keeps its high-water capacity
  dropped_messages = 0;
  duplicate = false;
  advanced = false;
  skips_rejected = 0;
}

RecvBuffer::Result RecvBuffer::on_data(const RecvSegment& seg, TimePoint now) {
  Result out;
  on_data(seg, now, out);
  return out;
}

void RecvBuffer::on_data(const RecvSegment& seg, TimePoint now, Result& out) {
  out.reset();
  if (seg.seq < cum_ || buffered_.contains(seg.seq)) {
    ++duplicates_;
    out.duplicate = true;
    return;
  }
  if (buffered_.size() >= max_buffered_) {
    // Receive window exhausted; drop silently (sender respects rwnd, so
    // this only happens under pathological reordering).
    return;
  }
  // A late arrival for a sequence the sender abandoned supersedes the skip.
  skip_pending_.erase(seg.seq);
  buffered_.emplace(seg.seq, seg);
  advance(out, now);
}

RecvBuffer::Result RecvBuffer::on_skip(std::span<const SkipInfo> skipped,
                                       TimePoint now) {
  Result out;
  on_skip(skipped, now, out);
  return out;
}

void RecvBuffer::on_skip(std::span<const SkipInfo> skipped, TimePoint now,
                         Result& out) {
  out.reset();
  for (const SkipInfo& info : skipped) {
    if (info.seq < cum_ || buffered_.contains(info.seq)) continue;  // resolved
    if (info.seq - cum_ >= max_buffered_) {
      // Beyond any window this receiver advertised: a genuine sender
      // cannot have sent it, and honouring it would let a peer grow
      // skip_pending_ without bound. A real skip there is re-advertised
      // once the cumulative point reaches it.
      ++out.skips_rejected;
      continue;
    }
    skip_pending_[info.seq] = info;
  }
  advance(out, now);
}

void RecvBuffer::advance(Result& out, TimePoint now) {
  for (;;) {
    if (buffered_.contains(cum_) || skip_pending_.contains(cum_)) {
      account(out, cum_, now);
      ++cum_;
      out.advanced = true;
    } else {
      break;
    }
  }
}

void RecvBuffer::account(Result& out, Seq seq, TimePoint now) {
  if (auto it = buffered_.find(seq); it != buffered_.end()) {
    const RecvSegment& seg = it->second;
    MsgAccumulator& acc = accumulators_[seg.msg_id];
    acc.frag_count = seg.frag_count;
    acc.marked = seg.marked;
    acc.fec = acc.fec || seg.fec;
    ++acc.received;
    acc.bytes += seg.payload_bytes;
    if (seg.frag_index == 0) {
      acc.first_ts_us = seg.ts_us;
      acc.attrs = seg.attrs;
    }
    if (acc.received + acc.skipped >= acc.frag_count) {
      if (acc.skipped == 0) {
        DeliveredMessage msg;
        msg.msg_id = seg.msg_id;
        msg.bytes = acc.bytes;
        msg.marked = acc.marked;
        msg.fec = acc.fec;
        msg.first_sent =
            TimePoint::from_ns(static_cast<std::int64_t>(acc.first_ts_us) * 1000);
        msg.delivered = now;
        msg.attrs = std::move(acc.attrs);
        out.delivered.push_back(std::move(msg));
        ++delivered_count_;
      } else {
        ++out.dropped_messages;
        ++dropped_count_;
      }
      accumulators_.erase(seg.msg_id);
    }
    buffered_.erase(it);
    return;
  }

  auto sk = skip_pending_.find(seq);
  IQ_CHECK(sk != skip_pending_.end());
  const SkipInfo info = sk->second;
  skip_pending_.erase(sk);
  MsgAccumulator& acc = accumulators_[info.msg_id];
  acc.frag_count = info.frag_count;
  ++acc.skipped;
  if (acc.received + acc.skipped >= acc.frag_count) {
    ++out.dropped_messages;
    ++dropped_count_;
    accumulators_.erase(info.msg_id);
  }
}

iq::InlineVec<Seq, 16> RecvBuffer::eacks(std::size_t max_n) const {
  iq::InlineVec<Seq, 16> out;
  for (const auto& [seq, _] : buffered_) {
    if (out.size() >= max_n) break;
    out.push_back(seq);
  }
  return out;
}

std::uint32_t RecvBuffer::rwnd() const {
  return max_buffered_ - static_cast<std::uint32_t>(buffered_.size());
}

}  // namespace iq::rudp
