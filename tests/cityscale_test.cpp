// City-scale fan-out scenario: bit-identical results at every shard count
// (the ShardedSim determinism contract carried through the full protocol
// stack), plus sanity on the aggregate metrics.
//
// Scaled down from the 10k-flow bench configuration so the matrix stays
// fast; bench/bench_cityscale.cpp and ci.sh --scale run the full size.

#include <gtest/gtest.h>

#include "iq/harness/cityscale.hpp"

namespace iq::harness {
namespace {

CityScaleConfig small_cfg() {
  CityScaleConfig cfg;
  cfg.sites = 6;
  cfg.subs_per_site = 8;
  cfg.sim_time = Duration::seconds(3);
  cfg.drain_time = Duration::seconds(1);
  return cfg;
}

TEST(CityScaleTest, TrafficFlowsEndToEnd) {
  CityScaleConfig cfg = small_cfg();
  const CityScaleResult r = run_cityscale(cfg);
  EXPECT_EQ(r.flows, 48u);
  EXPECT_GT(r.frames_published, 0u);
  EXPECT_GT(r.fanout_forwarded, 0u);
  EXPECT_GT(r.fanout_delivered, 0u);
  EXPECT_GT(r.joins, 0u);
  EXPECT_GT(r.delivery_ratio, 0.5);
  EXPECT_GT(r.jain_utilization, 0.0);
  EXPECT_LE(r.jain_utilization, 1.0 + 1e-9);
  EXPECT_GT(r.parcels_delivered, 0u);  // trunk traffic crossed the mailbox
  EXPECT_NE(r.digest, 0u);
}

TEST(CityScaleTest, BitIdenticalAcrossShardCounts) {
  CityScaleConfig cfg = small_cfg();
  cfg.shards = 1;
  const CityScaleResult base = run_cityscale(cfg);
  for (const std::size_t shards : {2u, 4u, 7u}) {
    cfg.shards = shards;
    const CityScaleResult r = run_cityscale(cfg);
    EXPECT_EQ(r.digest, base.digest) << "shards=" << shards;
    EXPECT_EQ(r.events_executed, base.events_executed) << "shards=" << shards;
    EXPECT_EQ(r.parcels_delivered, base.parcels_delivered)
        << "shards=" << shards;
    EXPECT_EQ(r.fanout_delivered, base.fanout_delivered)
        << "shards=" << shards;
  }
}

TEST(CityScaleTest, ThreadedMatchesInline) {
  CityScaleConfig cfg = small_cfg();
  cfg.shards = 1;
  const CityScaleResult base = run_cityscale(cfg);
  cfg.shards = 4;
  cfg.threaded = true;
  const CityScaleResult r = run_cityscale(cfg);
  EXPECT_EQ(r.digest, base.digest);
  EXPECT_EQ(r.events_executed, base.events_executed);
}

TEST(CityScaleTest, UncoordinatedModeIsDeterministicToo) {
  CityScaleConfig cfg = small_cfg();
  cfg.mode = core::CoordinationMode::Uncoordinated;
  cfg.shards = 1;
  const CityScaleResult base = run_cityscale(cfg);
  cfg.shards = 3;
  const CityScaleResult r = run_cityscale(cfg);
  EXPECT_EQ(r.digest, base.digest);
  EXPECT_GT(r.fanout_delivered, 0u);
}

TEST(CityScaleTest, CongestionManagerVariantIsDeterministic) {
  CityScaleConfig cfg = small_cfg();
  cfg.attach_cm = true;
  cfg.shards = 1;
  const CityScaleResult base = run_cityscale(cfg);
  EXPECT_GT(base.fanout_delivered, 0u);
  cfg.shards = 4;
  cfg.threaded = true;
  const CityScaleResult r = run_cityscale(cfg);
  EXPECT_EQ(r.digest, base.digest);
}

// Golden pins for the congestion-manager path: 640 flows under 4 per-site
// managers. The shard-identity checks above compare a run with itself at
// another shard count, so only a fixed digest catches a change in what the
// managers do (share apportionment, wake-ups of window-limited flows).
CityScaleConfig cm_golden_cfg() {
  CityScaleConfig cfg;
  cfg.sites = 4;
  cfg.subs_per_site = 160;
  cfg.attach_cm = true;
  cfg.sim_time = Duration::seconds(2);
  cfg.drain_time = Duration::seconds(1);
  return cfg;
}

TEST(CityScaleTest, CongestionManagerGoldenDigest) {
  CityScaleConfig cfg = cm_golden_cfg();
  for (const std::size_t shards : {1u, 4u}) {
    cfg.shards = shards;
    cfg.threaded = shards > 1;
    const CityScaleResult r = run_cityscale(cfg);
    EXPECT_EQ(r.digest, 0x5be347f05861282bull) << "shards=" << shards;
    EXPECT_EQ(r.events_executed, 146'229u) << "shards=" << shards;
    EXPECT_EQ(r.fanout_delivered, 5'701u) << "shards=" << shards;
  }
}

TEST(CityScaleTest, CongestionManagerOverloadedGoldenDigest) {
  CityScaleConfig cfg = cm_golden_cfg();
  cfg.publisher_fps = 30.0;
  cfg.bytes_per_member = 600;
  const CityScaleResult r = run_cityscale(cfg);
  EXPECT_EQ(r.digest, 0x821cf34c20ef36c2ull);
  EXPECT_EQ(r.events_executed, 292'670u);
}

TEST(CityScaleTest, OverloadedAdaptationPathIsDeterministic) {
  // Push the slow access links past saturation so losses trigger the
  // error-ratio callbacks and resolution policies actually shrink — the
  // adaptation path must be just as shard-count-invariant as the happy one.
  CityScaleConfig cfg = small_cfg();
  cfg.sim_time = Duration::seconds(4);
  cfg.publisher_fps = 30.0;
  cfg.bytes_per_member = 600;
  cfg.shards = 1;
  const CityScaleResult base = run_cityscale(cfg);
  EXPECT_LT(base.mean_scale, 1.0);  // somebody shrank
  EXPECT_LT(base.delivery_ratio, 1.0);
  cfg.shards = 3;
  const CityScaleResult r = run_cityscale(cfg);
  EXPECT_EQ(r.digest, base.digest);
  cfg.shards = 3;
  cfg.threaded = true;
  const CityScaleResult t = run_cityscale(cfg);
  EXPECT_EQ(t.digest, base.digest);
}

TEST(CityScaleTest, RerunIsBitIdentical) {
  // Same config twice — the scenario itself must be replay-deterministic
  // before cross-shard identity means anything.
  CityScaleConfig cfg = small_cfg();
  const CityScaleResult a = run_cityscale(cfg);
  const CityScaleResult b = run_cityscale(cfg);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

}  // namespace
}  // namespace iq::harness
