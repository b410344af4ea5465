// Serialization and summarisation of observability artifacts.
//
// Interval CSV schema (one unified header for single runs and campaigns —
// golden-tested in tests/observability_test.cc and documented in
// docs/OBSERVABILITY.md):
//
//   variant,app,trial,interval,instr_end,cycles_end,d_instructions,d_cycles,
//   ipc,dl1_miss_rate,replication_ability,d_<counter>...,<gauge>...
//
// where d_* columns are per-interval deltas of the cumulative registry
// counters and gauge columns are point-in-time values at interval end. The
// derived columns are exact per-interval ratios of the deltas, so their
// weighted averages (weights: d_dl1.loads + d_dl1.stores for the miss rate,
// d_dl1.replication.opportunities for replication ability, d_cycles for
// IPC) reconstruct the aggregate RunResult values.
//
// Occupancy heatmap CSV:
//   variant,app,trial,interval,instr_end,set_0,...,set_{N-1}
// one row per interval, values = resident replicas in that dL1 set.
//
// NDJSON trace: one JSON object per line; common fields variant, app,
// trial, cycle, cat, event; the remaining fields are event-specific (see
// EventKind in event_trace.h).
#pragma once

#include <string>
#include <vector>

#include "src/obs/event_trace.h"
#include "src/obs/interval_sampler.h"

namespace icr::obs {

// Identity of the run the rows/lines belong to. For single (non-campaign)
// runs use trial 0.
struct CellTag {
  std::string variant;
  std::string app;
  std::uint32_t trial = 0;
};

// ---- interval CSV ----
[[nodiscard]] std::string intervals_csv_header(const IntervalSeries& series);
void append_intervals_csv_rows(std::string& out, const IntervalSeries& series,
                               const CellTag& tag);

// ---- occupancy heatmap CSV ----
[[nodiscard]] std::string occupancy_csv_header(std::uint32_t sets);
void append_occupancy_csv_rows(std::string& out, const IntervalSeries& series,
                               const CellTag& tag);

// ---- NDJSON event trace ----
void append_ndjson(std::string& out, const std::vector<TraceEvent>& events,
                   const CellTag& tag);

// ---- summaries (shared by icr_sim / icr_report) ----
struct IntervalPoint {
  double instr_end = 0;
  double d_instructions = 0;
  double d_cycles = 0;
  double ipc = 0;
  double miss_rate = 0;
  double miss_weight = 0;  // accesses in the interval
  double replication_ability = 0;
  double replication_weight = 0;  // opportunities in the interval
};

// Extracts the derived per-interval points from a recorded series.
[[nodiscard]] std::vector<IntervalPoint> interval_points(
    const IntervalSeries& series);

struct IntervalSummary {
  std::size_t intervals = 0;
  double peak_replication_ability = 0;
  double mean_replication_ability = 0;  // opportunity-weighted
  double final_replication_ability = 0;
  double peak_miss_rate = 0;
  double mean_miss_rate = 0;  // access-weighted
  double final_miss_rate = 0;
  double mean_ipc = 0;  // cycle-weighted
};

[[nodiscard]] IntervalSummary summarize(const std::vector<IntervalPoint>& pts);

// Greedy phase segmentation over the miss-rate curve: a new phase starts
// when an interval's miss rate deviates from the running phase mean by more
// than max(abs_tolerance, rel_tolerance * mean).
struct Phase {
  std::size_t first_interval = 0;
  std::size_t last_interval = 0;
  double mean_miss_rate = 0;
  double mean_replication_ability = 0;
  double mean_ipc = 0;
};

[[nodiscard]] std::vector<Phase> segment_phases(
    const std::vector<IntervalPoint>& pts, double rel_tolerance = 0.25,
    double abs_tolerance = 0.002);

}  // namespace icr::obs
