// Google-benchmark microbenchmarks for the hot components: timer wheel,
// link pipeline, segment codec, attribute lists, congestion controllers.
// These guard the simulator's capacity to run multi-million-event
// experiments in seconds.

#include <benchmark/benchmark.h>

#include "iq/attr/list.hpp"
#include "iq/common/bytes.hpp"
#include "iq/common/rng.hpp"
#include "iq/net/dumbbell.hpp"
#include "iq/net/sinks.hpp"
#include "iq/rudp/codec.hpp"
#include "iq/rudp/congestion.hpp"
#include "iq/sim/simulator.hpp"
#include "iq/sim/timer_wheel.hpp"

namespace {

using namespace iq;

void BM_TimerWheelScheduleAndPop(benchmark::State& state) {
  for (auto _ : state) {
    sim::TimerWheel q;
    for (int i = 0; i < state.range(0); ++i) {
      q.schedule(TimePoint::from_ns(i * 7919 % 1000), [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TimerWheelScheduleAndPop)->Arg(1024)->Arg(16384);

/// The retransmission-timer mix: a standing population of armed timers,
/// each op a cancel + reschedule, almost no fires. Arg = live-timer count
/// (1k and 10k, the CityScale regime).
void BM_SchedCancelChurn(benchmark::State& state) {
  const auto live = static_cast<std::size_t>(state.range(0));
  sim::TimerWheel q;
  std::vector<sim::EventId> ids(live, 0);
  std::int64_t t = 0;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < live; ++i) {
      if (ids[i] != 0) q.cancel(ids[i]);
      ids[i] = q.schedule(
          TimePoint::from_ns(t + static_cast<std::int64_t>(i * 131) % 4093),
          [] {});
      ++ops;
    }
    t += 64;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_SchedCancelChurn)->Arg(1024)->Arg(10240);

void BM_SimulatorTimerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    // Schedule + cancel churn mimicking retransmission timers.
    std::vector<sim::EventId> ids;
    for (int i = 0; i < state.range(0); ++i) {
      ids.push_back(sim.after(Duration::millis(100 + i), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorTimerChurn)->Arg(4096);

void BM_LinkPacketPipeline(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network net(sim);
    net::Dumbbell db(net, {.pairs = 1});
    net::CountingSink sink;
    db.right(0).bind(7, &sink);
    for (int i = 0; i < state.range(0); ++i) {
      db.left(0).send(net.make_packet({db.left(0).id(), 7},
                                      {db.right(0).id(), 7}, 1, 1400));
    }
    sim.run();
    benchmark::DoNotOptimize(sink.packets());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LinkPacketPipeline)->Arg(10000);

void BM_SegmentEncode(benchmark::State& state) {
  rudp::Segment seg;
  seg.type = rudp::SegmentType::Data;
  seg.seq = 123456;
  seg.msg_id = 42;
  seg.payload_bytes = 1400;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rudp::encode_segment(seg));
  }
}
BENCHMARK(BM_SegmentEncode);

void BM_SegmentDecode(benchmark::State& state) {
  rudp::Segment seg;
  seg.type = rudp::SegmentType::Ack;
  for (int i = 0; i < 32; ++i) seg.eacks.push_back(1000 + i);
  const Bytes wire = rudp::encode_segment(seg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rudp::decode_segment(wire));
  }
}
BENCHMARK(BM_SegmentDecode);

/// Per-tier CRC-32 rows over an MTU-sized datagram (the codec's case) —
/// tier 0 = runtime dispatch, 1 = pclmul, 2 = slice8, 3 = bytewise.
void BM_Crc32Tier(benchmark::State& state) {
  using Kernel = std::uint32_t (*)(std::uint32_t, BytesView);
  static constexpr Kernel kTiers[] = {
      &crc32_update, &crc32_update_pclmul, &crc32_update_slice8,
      &crc32_update_bytewise};
  const Kernel kernel = kTiers[state.range(0)];
  if (state.range(0) == 1 && !crc32_pclmul_supported()) {
    state.SkipWithError("pclmul unsupported on this CPU");
    return;
  }
  Bytes buf(1400);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel(kCrc32Init, buf));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32Tier)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_AttrListSetGet(benchmark::State& state) {
  for (auto _ : state) {
    attr::AttrList list;
    list.set("NET_LOSS_RATIO", 0.1);
    list.set("NET_RTT_MS", 30.0);
    list.set("ADAPT_PKTSIZE", 0.2);
    benchmark::DoNotOptimize(list.get_double("ADAPT_PKTSIZE"));
  }
}
BENCHMARK(BM_AttrListSetGet);

void BM_LdaControllerEpochs(benchmark::State& state) {
  rudp::LdaController cc;
  Rng rng(1);
  TimePoint now;
  for (auto _ : state) {
    cc.on_ack(1, now);
    if (rng.chance(0.01)) cc.on_epoch(rng.uniform01() * 0.3, now);
    now += Duration::micros(100);
    benchmark::DoNotOptimize(cc.cwnd());
  }
}
BENCHMARK(BM_LdaControllerEpochs);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform01());
}
BENCHMARK(BM_RngUniform);

}  // namespace

BENCHMARK_MAIN();
