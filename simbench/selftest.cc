// Self-tests of the benchmark harness: percentile rules, decorator and
// chunking transparency, seed behaviour, and the sweep oracle's per-cell
// failure count. Workloads are shrunk to a few thousand instructions per
// cell so the suite runs in seconds.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "simbench/oracle.h"
#include "simbench/stats.h"
#include "simbench/workload.h"
#include "src/sim/metrics.h"
#include "src/sim/results_io.h"

namespace simbench {
namespace {

using icr::sim::RunResult;

// fault_rel has 100 cells, so it shrinks further than the others.
Workload shrunk(const std::string& name, std::uint64_t seed,
                std::uint64_t instructions = 20'000) {
  if (name == "fault_rel") instructions /= 4;
  Workload w = make_workload(name, seed);
  w.instructions = instructions;
  w.spec.instructions = instructions;
  w.chunk = std::max<std::uint64_t>(instructions / 16, 1);
  for (CellPlan& plan : w.cells) plan.instructions = instructions;
  w.config_hash = icr::sim::campaign_config_hash(w.spec);
  return w;
}

// Every cell through the public per-cell entry point, one call each.
std::vector<std::vector<std::uint64_t>> campaign_counters(const Workload& w) {
  std::vector<std::vector<std::uint64_t>> out;
  for (const CellPlan& p : w.cells) {
    out.push_back(icr::sim::counter_vector(
        icr::sim::run_campaign_cell(w.spec, p.variant_idx, p.app_idx,
                                    p.trial_idx, w.instructions)
            .result));
  }
  return out;
}

PassOptions one_rep(bool traced, SpanLog* spans = nullptr) {
  PassOptions o;
  o.seconds = 1e-3;
  o.threads = 2;
  o.traced = traced;
  o.spans = spans;
  return o;
}

TEST(Percentile, NearestRankAndTailRule) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 90), 90);
  EXPECT_EQ(percentile({5, 1, 3}, 90), 5);
  EXPECT_EQ(percentile({}, 90), 0);
  EXPECT_EQ(median({4, 1, 3}), 3);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(samples_beyond(99, 90), 9u);
  EXPECT_EQ(samples_needed(10, 90), 100u);
  EXPECT_GE(samples_beyond(samples_needed(10, 90), 90), 10u);
  EXPECT_LT(samples_beyond(samples_needed(10, 90) - 1, 90), 10u);
}

// instr_ns has one sample per chunk position (single system) or per cell.
TEST(Workloads, EveryWorkloadHasTenSamplesBeyondP90) {
  for (const std::string& name : workload_names()) {
    const Workload w = make_workload(name, 1);
    const std::size_t samples =
        w.single_system ? w.instructions / w.chunk : w.cells.size();
    EXPECT_GE(samples, samples_needed(10, 90)) << name;
  }
}

TEST(Workloads, GeometrySweepMatchesCheckedInConfigHash) {
  const Workload w = make_workload("geometry_sweep", 42);
  EXPECT_EQ(w.config_hash, 0x87d94874f5f9f2f9ULL);
  EXPECT_EQ(w.cells.size(), 120u);
}

TEST(Decorator, TracedChunkedRunsMatchOneUntracedCall) {
  for (const char* name : {"ooo_dense", "fault_rel"}) {
    const Workload w = shrunk(name, 7);
    CheckTally checks;
    SpanLog spans;
    const PassResult traced = run_pass(w, one_rep(true, &spans), checks);
    EXPECT_EQ(checks.failed, 0u) << name;
    const auto direct = campaign_counters(w);
    ASSERT_EQ(traced.results.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(icr::sim::counter_vector(traced.results[i]), direct[i])
          << name << " cell " << i;
    }
    EXPECT_GT(traced.trace_records, 0u);
    EXPECT_NE(spans.to_json().find("\"trace.next\""), std::string::npos);
  }
}

TEST(Seeds, SameSeedRepeatsDifferentSeedDiffers) {
  for (const char* name : {"ooo_dense", "fault_rel"}) {
    const auto a = campaign_counters(shrunk(name, 3));
    const auto b = campaign_counters(shrunk(name, 3));
    const auto c = campaign_counters(shrunk(name, 4));
    EXPECT_EQ(a, b) << name;
    EXPECT_NE(a, c) << name;
  }
}

TEST(Checks, VerdictsAreCheckedOverTheWorkloadTotal) {
  std::vector<icr::sim::CellResult> cells(2);
  cells[0].result.faults.injections = 10;
  cells[0].result.faults.silent = 12;  // one standing error, read twelve times
  cells[1].result.faults.injections = 10;
  cells[1].result.faults.corrected = 8;
  EXPECT_TRUE(verdicts_within_injections(cells));
  cells[1].result.faults.silent = 1;
  EXPECT_FALSE(verdicts_within_injections(cells));
}

TEST(Oracle, CorruptedByteFailsExactlyItsCell) {
  const Workload w = shrunk("geometry_sweep", 0, 2'000);
  const std::string dir = "simbench_selftest_oracle";
  std::filesystem::create_directories(dir);

  // Reference = this shrunk sweep's own exports.
  icr::sim::CampaignResult campaign;
  campaign.meta.base_seed = w.spec.base_seed;
  campaign.meta.config_hash = w.config_hash;
  campaign.meta.instructions = w.instructions;
  campaign.meta.trials = w.spec.trials;
  campaign.meta.geometry = true;
  for (const CellPlan& p : w.cells) {
    campaign.cells.push_back(icr::sim::run_campaign_cell(
        w.spec, p.variant_idx, p.app_idx, p.trial_idx, w.instructions));
  }
  const ExportParts csv = csv_parts(campaign);
  const ExportParts json = json_parts(campaign);
  EXPECT_EQ(csv.joined(), icr::sim::to_csv(campaign));
  EXPECT_EQ(json.joined(), icr::sim::to_json(campaign, false));

  std::string bad_csv = csv.joined();
  const std::size_t cell7 = csv.head.size() + [&] {
    std::size_t off = 0;
    for (std::size_t i = 0; i < 7; ++i) off += csv.cells[i].size();
    return off;
  }();
  bad_csv[cell7 + csv.cells[7].size() / 2] ^= 0x01;
  const std::vector<bool> flagged = mismatched_cells(csv, bad_csv);
  EXPECT_EQ(std::count(flagged.begin(), flagged.end(), true), 1);
  EXPECT_TRUE(flagged[7]);

  std::string bad_head = csv.joined();
  bad_head[0] ^= 0x01;
  const std::vector<bool> all = mismatched_cells(csv, bad_head);
  EXPECT_EQ(std::count(all.begin(), all.end(), true),
            static_cast<long>(w.cells.size()));

  // End to end: the pass counts the corrupted cell as failed.
  std::ofstream(dir + "/degraded_geometry_sweep.csv", std::ios::binary)
      << bad_csv;
  std::ofstream(dir + "/degraded_geometry_sweep.json", std::ios::binary)
      << json.joined();
  CheckTally checks;
  PassOptions options = one_rep(false);
  options.reference_dir = dir;
  (void)run_pass(w, options, checks);
  EXPECT_EQ(checks.attempted, w.cells.size());
  EXPECT_EQ(checks.failed, 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace simbench
