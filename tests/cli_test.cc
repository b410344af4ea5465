// The shared command-line layer (src/sim/cli.h): strict numeric values,
// flag tables, and the shared flags' implications and spec mapping.
#include "src/sim/cli.h"

#include <gtest/gtest.h>

#include <string>

#include "src/obs/interval_sampler.h"

namespace icr::sim::cli {
namespace {

TEST(CliNumbers, WholeNumbersParseExactly) {
  EXPECT_EQ(parse_u64("t", "--n", "0"), 0u);
  EXPECT_EQ(parse_u64("t", "--n", "1000000"), 1000000u);
  EXPECT_EQ(parse_u64("t", "--n", "18446744073709551615"),
            18446744073709551615ULL);
  EXPECT_EQ(parse_u64("t", "--seed", "0xD5DB2003", 0), 0xD5DB2003ULL);
  EXPECT_EQ(parse_u32("t", "--n", "4294967295"), 4294967295u);
  EXPECT_DOUBLE_EQ(parse_double("t", "--p", "1e-3"), 1e-3);
  EXPECT_DOUBLE_EQ(parse_double("t", "--p", "0.5"), 0.5);
  EXPECT_EQ(parse_size("t", "--s", "8192"), 8192u);
  EXPECT_EQ(parse_size("t", "--s", "8K"), 8192u);
  EXPECT_EQ(parse_size("t", "--s", "16k"), 16384u);
  EXPECT_EQ(parse_size("t", "--s", "1M"), 1048576u);
}

TEST(CliNumbersDeathTest, MalformedWholeNumbersExitNamingTheFlag) {
  // strtoull stops at the first bad character: these used to read as 1, 2,
  // a wrapped negative, 0 and 12.
  for (const char* text : {"1e6", "2M", "-1", "", "12abc", " 5", "+5"}) {
    EXPECT_EXIT((void)parse_u64("icr_sim", "--instructions", text),
                testing::ExitedWithCode(2),
                "icr_sim: --instructions expects a whole number")
        << text;
  }
  EXPECT_EXIT((void)parse_u64("t", "--n", "18446744073709551616"),
              testing::ExitedWithCode(2), "--n expects a whole number");
  EXPECT_EXIT((void)parse_u64("t", "--seed", "0x", 0),
              testing::ExitedWithCode(2), "--seed expects");
  EXPECT_EXIT((void)parse_u32("t", "--trials", "4294967296"),
              testing::ExitedWithCode(2), "--trials expects");
}

TEST(CliNumbersDeathTest, MalformedRealsAndSizesExit) {
  for (const char* text : {"abc", "", "1e-3x", "inf", "nan", "1e999"}) {
    EXPECT_EXIT((void)parse_double("icr_sim", "--fault-prob", text),
                testing::ExitedWithCode(2),
                "icr_sim: --fault-prob expects a number")
        << text;
  }
  for (const char* text : {"8X", "K", "", "8KK", "-8K", "4194304M"}) {
    EXPECT_EXIT((void)parse_size("run_campaign", "--dl1-sizes", text),
                testing::ExitedWithCode(2),
                "run_campaign: --dl1-sizes expects a size")
        << text;
  }
}

TEST(CliFlags, TableMatchesSwitchesAndValues) {
  bool on = false;
  std::string name;
  std::uint32_t count = 0;
  std::uint64_t seed = 0;
  double prob = 0.0;
  bool seed_given = false;
  const FlagTable table = {
      {"--on", nullptr, &on, "switch"},
      {"--name", "S", &name, "string"},
      {"--count", "N", &count, "u32"},
      {"--seed", "S", &seed, "u64, any base", 0, &seed_given},
      {"--prob", "P", &prob, "real"},
  };
  EXPECT_FALSE(match_flag("t", "--on=1", table));
  EXPECT_FALSE(match_flag("t", "--name", table));
  EXPECT_FALSE(match_flag("t", "--names=x", table));
  EXPECT_FALSE(seed_given);
  EXPECT_TRUE(match_flag("t", "--on", table));
  EXPECT_TRUE(match_flag("t", "--name=a=b", table));
  EXPECT_TRUE(match_flag("t", "--count=7", table));
  EXPECT_TRUE(match_flag("t", "--seed=0x10", table));
  EXPECT_TRUE(match_flag("t", "--prob=2.5e-4", table));
  EXPECT_TRUE(on);
  EXPECT_EQ(name, "a=b");
  EXPECT_EQ(count, 7u);
  EXPECT_EQ(seed, 16u);
  EXPECT_TRUE(seed_given);
  EXPECT_DOUBLE_EQ(prob, 2.5e-4);
}

TEST(CliFlagsDeathTest, TableRejectsMalformedNumbers) {
  SharedFlags flags;
  const FlagTable table = flags.table();
  EXPECT_EXIT((void)match_flag("run_campaign", "--instructions=5e4", table),
              testing::ExitedWithCode(2),
              "run_campaign: --instructions expects a whole number, got "
              "'5e4'");
  EXPECT_EXIT((void)match_flag("icr_sim", "--fault-prob=abc", table),
              testing::ExitedWithCode(2), "--fault-prob expects a number");
}

TEST(SharedFlags, OutputsImplyTheirInputs) {
  SharedFlags flags;
  flags.heatmap_out = "hm.csv";
  flags.prof_out = "prof.json";
  flags.imply(/*rel_output=*/true);
  EXPECT_EQ(flags.stats_interval, obs::kDefaultStatsInterval);
  EXPECT_TRUE(flags.prof);
  EXPECT_TRUE(flags.rel);

  SharedFlags explicit_interval;
  explicit_interval.intervals_out = "iv.csv";
  explicit_interval.stats_interval = 5000;
  explicit_interval.imply(/*rel_output=*/false);
  EXPECT_EQ(explicit_interval.stats_interval, 5000u);
  EXPECT_FALSE(explicit_interval.rel);
  EXPECT_FALSE(explicit_interval.prof);
}

TEST(SharedFlags, ApplySetsTheSpec) {
  SharedFlags flags;
  const FlagTable table = flags.table();
  for (const char* arg :
       {"--instructions=50000", "--window=1000", "--fault-model=column",
        "--fault-prob=1e-3", "--warmup=2000", "--sample-windows=4",
        "--sample-mode=random", "--way-pattern=random", "--way-seed=0x7",
        "--trace-out=tr.ndjson", "--trace-filter=fault", "--rel"}) {
    ASSERT_TRUE(match_flag("t", arg, table)) << arg;
  }
  flags.imply(false);
  CampaignSpec spec;
  spec.variants.emplace_back("BaseP", core::Scheme::BaseP());
  flags.apply(spec);
  EXPECT_EQ(spec.instructions, 50000u);
  EXPECT_EQ(spec.variants.front().scheme.decay_window, 1000u);
  EXPECT_EQ(spec.config.fault_model, fault::FaultModel::kColumn);
  EXPECT_DOUBLE_EQ(spec.config.fault_probability, 1e-3);
  EXPECT_EQ(spec.sampling.warmup_instructions, 2000u);
  EXPECT_EQ(spec.sampling.windows, 4u);
  EXPECT_EQ(spec.sampling.mode, SampleMode::kRandom);
  EXPECT_EQ(spec.geometry.pattern, mem::WayDisableConfig::Pattern::kRandom);
  EXPECT_EQ(spec.geometry.way_seed, 7u);
  EXPECT_FALSE(spec.geometry.enabled());
  EXPECT_NE(spec.obs.trace_categories, 0u);
  EXPECT_EQ(spec.obs.stats_interval, 0u);
  EXPECT_TRUE(spec.rel.enabled);
  EXPECT_DOUBLE_EQ(spec.rel.probability, 1e-3);
  EXPECT_FALSE(spec.trace.enabled());
}

TEST(SharedFlagsDeathTest, ApplyRejectsUnknownNames) {
  SharedFlags flags;
  flags.way_pattern = "diagonal";
  CampaignSpec spec;
  EXPECT_EXIT(flags.apply(spec), testing::ExitedWithCode(2),
              "unknown way pattern 'diagonal'");
  SharedFlags filter;
  filter.trace_out = "tr.ndjson";
  filter.trace_filter = "nothing";
  EXPECT_EXIT(filter.apply(spec), testing::ExitedWithCode(2),
              "bad --trace-filter 'nothing'");
}

}  // namespace
}  // namespace icr::sim::cli
