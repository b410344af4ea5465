#include "src/obs/interval_sampler.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/obs/obs_io.h"
#include "src/sim/results_io.h"

namespace icr::obs {
namespace {

// A one-cell campaign holding `series`, for the campaign CSV exporters.
sim::CampaignResult one_cell(const IntervalSeries& series,
                             std::uint32_t trial) {
  sim::CampaignResult campaign;
  sim::CellResult& cell = campaign.cells.emplace_back();
  cell.result.scheme = std::string("v");
  cell.result.app = std::string("a");
  cell.cell.trial_idx = trial;
  cell.obs = std::make_unique<CellObservability>();
  cell.obs->intervals = series;
  return campaign;
}

// A registry over hand-rolled counters whose names match the derived-column
// lookups in obs_io (dl1.loads etc.), so the CSV's ipc/miss-rate/replication
// columns are exercised with exactly known arithmetic.
struct FakeDl1 {
  std::uint64_t loads = 0, load_misses = 0, stores = 0, store_misses = 0,
                opportunities = 0, successes = 0;

  void wire(StatRegistry& reg) {
    reg.register_counter("dl1.loads", &loads);
    reg.register_counter("dl1.load_misses", &load_misses);
    reg.register_counter("dl1.stores", &stores);
    reg.register_counter("dl1.store_misses", &store_misses);
    reg.register_counter("dl1.replication.opportunities", &opportunities);
    reg.register_counter("dl1.replication.successes", &successes);
  }
};

TEST(IntervalSampler, DeltasBetweenCumulativeSamples) {
  StatRegistry reg;
  FakeDl1 dl1;
  dl1.wire(reg);

  IntervalSampler sampler(reg, 1000);
  sampler.record_baseline(0, 0);

  dl1.loads = 100;
  dl1.load_misses = 10;
  sampler.sample(1000, 2000);

  dl1.loads = 250;  // +150
  dl1.load_misses = 40;  // +30
  dl1.stores = 50;  // +50
  sampler.sample(2000, 5000);

  const IntervalSeries& series = sampler.series();
  EXPECT_EQ(series.interval_count(), 2u);
  ASSERT_EQ(series.samples.size(), 3u);
  EXPECT_EQ(series.samples[0].instructions, 0u);
  EXPECT_EQ(series.samples[2].cycles, 5000u);

  const auto pts = interval_points(series);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].d_instructions, 1000.0);
  EXPECT_DOUBLE_EQ(pts[0].d_cycles, 2000.0);
  EXPECT_DOUBLE_EQ(pts[0].ipc, 0.5);
  EXPECT_DOUBLE_EQ(pts[0].miss_rate, 0.1);     // 10 / 100
  EXPECT_DOUBLE_EQ(pts[0].miss_weight, 100.0); // accesses in interval 0
  EXPECT_DOUBLE_EQ(pts[1].d_cycles, 3000.0);
  EXPECT_DOUBLE_EQ(pts[1].miss_rate, 0.15);    // 30 / (150 + 50)
  EXPECT_DOUBLE_EQ(pts[1].miss_weight, 200.0);
}

TEST(IntervalSampler, WeightedMeansReconstructAggregates) {
  StatRegistry reg;
  FakeDl1 dl1;
  dl1.wire(reg);

  IntervalSampler sampler(reg, 100);
  sampler.record_baseline(0, 0);

  // Three uneven intervals.
  dl1.loads = 80;
  dl1.load_misses = 8;
  dl1.opportunities = 10;
  dl1.successes = 2;
  sampler.sample(100, 300);
  dl1.loads = 100;
  dl1.load_misses = 20;
  dl1.stores = 60;
  dl1.store_misses = 4;
  dl1.opportunities = 40;
  dl1.successes = 29;
  sampler.sample(200, 900);
  dl1.loads = 300;
  dl1.load_misses = 21;
  dl1.opportunities = 41;
  dl1.successes = 30;
  sampler.sample(300, 1000);

  const auto pts = interval_points(sampler.series());
  const IntervalSummary s = summarize(pts);
  EXPECT_EQ(s.intervals, 3u);
  // Access-weighted miss-rate mean == total misses / total accesses.
  EXPECT_DOUBLE_EQ(s.mean_miss_rate, 25.0 / 360.0);
  // Opportunity-weighted replication-ability mean == successes / opps.
  EXPECT_DOUBLE_EQ(s.mean_replication_ability, 30.0 / 41.0);
  // Cycle-weighted IPC == total instructions / total cycles.
  EXPECT_DOUBLE_EQ(s.mean_ipc, 300.0 / 1000.0);
}

// Regression: chunked runs (Simulator::run / fast_forward, the sampling
// controller) can land a chunk boundary exactly on the final instruction of
// the previous segment and sample the same progress point twice. The
// duplicate must collapse into the previous sample — a zero-length interval
// would produce 0/0 rates and infinite weights downstream.
TEST(IntervalSampler, DuplicateProgressPointCollapsesIntoLastSample) {
  StatRegistry reg;
  FakeDl1 dl1;
  dl1.wire(reg);

  IntervalSampler sampler(reg, 100);
  sampler.record_baseline(0, 0);

  dl1.loads = 50;
  sampler.sample(100, 200);
  // Same instruction count again, fresher counters: replaces, not appends.
  dl1.loads = 60;
  sampler.sample(100, 200);
  dl1.loads = 90;
  sampler.sample(200, 400);

  const IntervalSeries& series = sampler.series();
  ASSERT_EQ(series.samples.size(), 3u);  // baseline + two distinct points
  EXPECT_EQ(series.samples[1].instructions, 100u);
  EXPECT_EQ(series.samples[1].counters[0], 60u);  // freshest snapshot kept
  EXPECT_EQ(series.samples[2].instructions, 200u);
  for (const auto& pt : interval_points(series)) {
    EXPECT_GT(pt.d_instructions, 0.0);
  }
}

TEST(IntervalSampler, DefaultIntervalWhenZero) {
  StatRegistry reg;
  IntervalSampler sampler(reg, 0);
  EXPECT_EQ(sampler.interval_instructions(), kDefaultStatsInterval);
}

TEST(IntervalSampler, OccupancyProbeRecordsPerSetRows) {
  StatRegistry reg;
  IntervalSampler sampler(reg, 10);
  sampler.set_occupancy_probe(
      [] { return std::vector<std::uint32_t>{1, 0, 2, 0}; });
  sampler.record_baseline(0, 0);
  sampler.sample(10, 20);

  const IntervalSeries& series = sampler.series();
  EXPECT_EQ(series.occupancy_sets, 4u);
  ASSERT_EQ(series.samples.size(), 2u);
  EXPECT_EQ(series.samples[1].occupancy,
            (std::vector<std::uint32_t>{1, 0, 2, 0}));

  const std::string csv = sim::occupancy_to_csv(one_cell(series, 0));
  EXPECT_EQ(csv,
            "variant,app,trial,interval,instr_end,set_0,set_1,set_2,set_3\n"
            "v,a,0,0,10,1,0,2,0\n");
}

// Golden interval-CSV header for a known registry (schema lock; the live
// simulator's full header is covered by observability_test).
TEST(IntervalSampler, IntervalCsvGolden) {
  StatRegistry reg;
  std::uint64_t work = 0;
  reg.register_counter("unit.work", &work);
  IntervalSampler sampler(reg, 50);
  sampler.record_baseline(0, 0);
  work = 25;
  sampler.sample(50, 100);

  EXPECT_EQ(sim::intervals_to_csv(one_cell(sampler.series(), 1)),
            "variant,app,trial,interval,instr_end,cycles_end,d_instructions,"
            "d_cycles,ipc,dl1_miss_rate,replication_ability,d_unit.work\n"
            "v,a,1,0,50,100,50,100,0.5,0,0,25\n");
}

TEST(IntervalSampler, PhaseSegmentationSplitsOnMissRateShift) {
  std::vector<IntervalPoint> pts(6);
  for (std::size_t i = 0; i < 6; ++i) {
    pts[i].d_instructions = 100;
    pts[i].d_cycles = 200;
    pts[i].miss_rate = i < 3 ? 0.05 : 0.40;  // abrupt phase change
    pts[i].miss_weight = 100;
  }
  const auto phases = segment_phases(pts);
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].first_interval, 0u);
  EXPECT_EQ(phases[0].last_interval, 2u);
  EXPECT_DOUBLE_EQ(phases[0].mean_miss_rate, 0.05);
  EXPECT_EQ(phases[1].first_interval, 3u);
  EXPECT_EQ(phases[1].last_interval, 5u);
  EXPECT_DOUBLE_EQ(phases[1].mean_miss_rate, 0.40);
}

}  // namespace
}  // namespace icr::obs
