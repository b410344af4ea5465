// Shared command-line layer of the simulator front-ends: name lookups,
// strict numeric flag values, flag tables, and the one table of flags that
// icr_sim and run_campaign share (SharedFlags). The *_by_name lookups and
// the numeric parsers print a diagnostic and exit(2) on bad input — they
// are CLI conveniences, not library API; library code should construct
// schemes/apps directly.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <variant>
#include <vector>

#include "src/core/scheme.h"
#include "src/core/replication_policy.h"
#include "src/fault/fault_injector.h"
#include "src/sim/campaign.h"
#include "src/sim/results_io.h"
#include "src/sim/sampling.h"
#include "src/trace/workloads.h"

namespace icr::sim::cli {

// Matches "--name=value"; on match copies the value and returns true.
[[nodiscard]] bool parse_flag(const char* arg, const char* name,
                              std::string& out);

// Shared unknown-flag rejection: prints "<program>: unknown flag '<arg>'"
// and a --help hint to stderr, then exits 2. Every front-end (tools/ and
// the bench harness) funnels unrecognized "--" arguments here so a typo
// like --instruction=1000 fails loudly and identically everywhere instead
// of silently running the wrong experiment.
[[noreturn]] void unknown_flag(const char* program, const char* arg);

// Splits a comma-separated list, dropping empty items.
[[nodiscard]] std::vector<std::string> split_csv(const std::string& list);

// Paper scheme by its display name ("BaseP", "ICR-P-PS(S)", ...), plus the
// "BaseECC-spec" alias for the §5.9 speculative variant. Exits on unknown.
[[nodiscard]] core::Scheme scheme_by_name(const std::string& name);

// Application by its lowercase name ("gzip" .. "bzip2"). Exits on unknown.
[[nodiscard]] trace::App app_by_name(const std::string& name);

// Fault model by name ("random", "adjacent", "column", "direct").
[[nodiscard]] fault::FaultModel fault_by_name(const std::string& name);

// Replica victim policy by name ("dead-only", "dead-first", ...).
[[nodiscard]] core::ReplicaVictimPolicy victim_by_name(const std::string& name);

// Sample-window placement mode by name ("systematic", "random").
[[nodiscard]] SampleMode sample_mode_by_name(const std::string& name);

// Disabled-way placement by name ("fixed", "random").
[[nodiscard]] mem::WayDisableConfig::Pattern way_pattern_by_name(
    const std::string& name);

// ---- numeric flag values ----
// Each parses the whole text or prints "<program>: <flag> expects ..., got
// '<text>'" and exits 2, like unknown_flag. (strtoull/atof alone stop at
// the first bad character, so "--instructions=1e6" would run 1 instruction.)
// Whole number: digits only for base 10; base 0 also takes 0x/0 prefixes.
// Negative and out-of-range values are rejected.
[[nodiscard]] std::uint64_t parse_u64(const char* program, const char* flag,
                                      const std::string& text, int base = 10);
[[nodiscard]] std::uint32_t parse_u32(const char* program, const char* flag,
                                      const std::string& text, int base = 10);
// Finite real number in strtod syntax ("1e-4", "0.5").
[[nodiscard]] double parse_double(const char* program, const char* flag,
                                  const std::string& text);
// Byte count with an optional K or M suffix (x1024, x1024^2): "8K", "8192".
[[nodiscard]] std::uint32_t parse_size(const char* program, const char* flag,
                                       const std::string& text);

// ---- flag tables ----
// One flag of a front end: how it is spelled, where its value goes, and
// its --help line.
struct Flag {
  const char* name;   // "--instructions"
  const char* value;  // --help placeholder ("N"); nullptr for a switch
  std::variant<bool*, std::string*, std::uint32_t*, std::uint64_t*, double*>
      target;
  const char* help;  // '\n' continues on an indented line
  int base = 10;     // integer targets: 0 also takes 0x/0 prefixes
  bool* given = nullptr;  // set when the flag appears, if not null
};
using FlagTable = std::vector<Flag>;

// When `arg` is a flag of `table` ("--name" for a switch, "--name=value"
// otherwise), stores the value and returns true. Numeric values go through
// the parsers above, so a malformed one exits 2 naming the flag.
[[nodiscard]] bool match_flag(const char* program, const char* arg,
                              const FlagTable& table);

// Prints one "  --name=VALUE  help" line (plus continuations) per flag.
void print_flags(const FlagTable& table);

// The flags icr_sim and run_campaign share, each with one meaning in both
// (docs/CAMPAIGN.md "Shared flags"). table() parses and documents them;
// apply() turns them into a CampaignSpec; write_outputs() writes the
// telemetry files they name.
struct SharedFlags {
  std::string trace;  // recorded trace replacing the synthetic app axis
  std::uint64_t instructions = 0;  // 0 = the tool's default budget
  std::uint64_t window = 0;
  std::uint64_t warmup = 0;
  std::uint32_t sample_windows = 0;
  std::uint64_t sample_width = 0;
  std::string sample_mode = "systematic";
  std::uint64_t sample_seed = 0x5A3D11ULL;
  std::string fault_model = "random";
  double fault_prob = 0.0;
  std::string way_pattern = "fixed";
  std::uint64_t way_seed = 0x0DDB17ULL;
  std::uint64_t stats_interval = 0;
  std::string intervals_out;
  std::string heatmap_out;
  std::string trace_out;
  std::string trace_filter = "all";
  bool rel = false;
  bool prof = false;
  std::string prof_out;
  std::string serve;  // HTTP status server: PORT or ADDR:PORT

  // Rows point into this object.
  [[nodiscard]] FlagTable table();

  // What the flags imply: --prof-out turns on --prof, an interval or
  // heatmap output defaults --stats-interval to obs::kDefaultStatsInterval,
  // and `rel_output` (the tool was asked for a reliability export) turns
  // on --rel. Call once, after parsing.
  void imply(bool rel_output);

  // Sets the spec's budget, trace path, fault model and probability,
  // sampling, way-draw pattern and seed, obs and rel options, and the
  // decay window of every variant already in it. Exits 2 on an unknown
  // model, mode, pattern or trace filter.
  void apply(CampaignSpec& spec) const;

  // Writes the --intervals-out / --heatmap-out / --trace-out files over
  // every cell and prints "wrote FILE" for each. Throws on I/O failure.
  void write_outputs(const CampaignResult& campaign) const;

  // Ends the --prof capture: prints the self-time table to `out` and
  // writes --prof-out as a Chrome trace named `program`. Throws on I/O
  // failure.
  void finish_profile(const char* program, std::FILE* out) const;
};

// Writes render() to `path` and prints "wrote PATH" to `out`; does nothing
// when `path` is empty. Throws on I/O failure.
template <typename Render>
void write_output(const std::string& path, Render render,
                  std::FILE* out = stdout) {
  if (path.empty()) return;
  write_text_file(path, render());
  std::fprintf(out, "wrote %s\n", path.c_str());
}

// The shared flags' --help block.
void print_shared_flags();

}  // namespace icr::sim::cli
