// The benchmark's workloads and the passes that time them.
//
// Every workload is a campaign grid (sim::CampaignSpec). A single-system
// workload is a one-cell grid that runs as one Simulator in chunks of
// Simulator::run calls at absolute commit targets; the other workloads run
// each cell through sim::run_campaign_cell on a small thread pool, claiming
// cells in grid order. The traced pass rebuilds every cell through the
// Simulator's replay constructor with a TimedSource wrapped around the
// workload generator and records spans from the outside; nothing inside
// src/ is instrumented.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/sim/campaign.h"
#include "src/sim/simulator.h"
#include "src/trace/instruction.h"

namespace simbench {

// One cold-start simulated system: the configuration, scheme and workload
// profile sim::run_campaign_cell builds for grid coordinates
// (variant_idx, app_idx, trial_idx), including the derived seeds.
struct CellPlan {
  std::size_t variant_idx = 0;
  std::size_t app_idx = 0;
  std::size_t trial_idx = 0;
  std::uint64_t cell_seed = 0;  // derived seed (0 when seeds are not derived)
  std::string label;            // "<variant>/<app>/t<trial>"
  icr::sim::SimConfig config;
  icr::core::Scheme scheme;
  icr::trace::WorkloadProfile profile;
  std::uint64_t instructions = 0;
  icr::rel::RelOptions rel;
};

struct Workload {
  std::string name;
  icr::sim::CampaignSpec spec;  // expanded grid
  std::uint64_t config_hash = 0;
  std::uint64_t instructions = 0;  // per cell
  bool single_system = false;      // one Simulator on one thread, chunked
  bool sweep_oracle = false;       // exports must match results/degraded_*
  bool faults = false;             // an injector is attached to every cell
  std::uint64_t chunk = 0;         // instructions per Simulator::run chunk
  std::vector<CellPlan> cells;     // grid order
};

[[nodiscard]] const std::vector<std::string>& workload_names();

// Builds the named workload's grid, expands it and hashes it (the part of
// set-up that precedes Simulator construction). `seed` feeds the campaign
// base seed; every cell's WorkloadProfile::seed and fault seed derive from
// it. geometry_sweep ignores `seed`: its grid is the checked-in sweep.
// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

// Constructs the cell's Simulator (rel tracker enabled when the plan asks
// for it). A null `source` uses the synthetic generator directly; otherwise
// the replay constructor drives the system from `source`, which must yield
// the plan's generator stream.
[[nodiscard]] std::unique_ptr<icr::sim::Simulator> build_simulator(
    const CellPlan& plan,
    std::unique_ptr<icr::trace::TraceSource> source = nullptr);

// TraceSource decorator: forwards next() to the wrapped source and counts
// the records and the host time spent producing them.
class TimedSource final : public icr::trace::TraceSource {
 public:
  explicit TimedSource(std::unique_ptr<icr::trace::TraceSource> inner)
      : inner_(std::move(inner)) {}

  icr::trace::Instruction next() override;

  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }
  [[nodiscard]] std::int64_t ns() const noexcept { return ns_; }

 private:
  std::unique_ptr<icr::trace::TraceSource> inner_;
  std::uint64_t records_ = 0;
  std::int64_t ns_ = 0;
};

// One traced interval. `count` aggregates repeated work (trace.next carries
// the number of records one chunk pulled, not one span per record).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t cell = 0;    // shared by every span of one cell; 0 = none
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint64_t count = 1;
};

// In-memory span store; written out once when the benchmark ends.
class SpanLog {
 public:
  [[nodiscard]] std::uint64_t next_id() noexcept { return ++last_id_; }
  void add(std::vector<Span> spans);

  // {"spans": [...]} with each span's self time (duration minus the time
  // its direct children cover).
  [[nodiscard]] std::string to_json() const;
  // Per span name: count, total seconds, self seconds.
  [[nodiscard]] std::string self_time_table() const;

 private:
  std::atomic<std::uint64_t> last_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

// Output checks: one attempt per checked cell, failures listed by reason.
struct CheckTally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void note(bool ok, const std::string& what);
};

// Per-cell model checks: the commit target was reached, and fault-free
// cells saw no detected, unrecoverable or silent error.
[[nodiscard]] bool cell_output_ok(const Workload& workload,
                                  const icr::sim::RunResult& result,
                                  std::string& why);

// Workload-level fault check: the verdicts of all cells total no more than
// their injections. Not a per-cell check: a standing wrong value yields one
// silent verdict per consuming load, so one cell may legitimately record
// more verdicts than strikes. When it fails, every cell counts as failed.
[[nodiscard]] bool verdicts_within_injections(
    const std::vector<icr::sim::CellResult>& cells);

// Exact equality of two runs' counter vectors.
[[nodiscard]] bool same_counters(const icr::sim::RunResult& a,
                                 const icr::sim::RunResult& b);

struct PassOptions {
  double seconds = 10.0;
  unsigned threads = 1;
  bool traced = false;
  SpanLog* spans = nullptr;    // required by traced passes
  std::string reference_dir;   // sweep_oracle: directory of the oracle files
  // When set, called a few times before every repetition; each call
  // returns one set-up time in seconds (PassResult::setup_s).
  std::function<double()> setup_sample;
};

// Host timings are noise floors: every chunk (single system) or cell
// (campaign) keeps its fastest time over the repetitions, because host
// interference only ever adds time to deterministic, repeated work.
struct PassResult {
  std::vector<icr::sim::RunResult> results;  // per cell, first repetition
  std::size_t reps = 0;
  unsigned threads = 1;
  // Committed instructions of one repetition over its floor time: the sum
  // of chunk floors (single system) or the fastest repetition's wall time
  // across the pool (campaign).
  double mips = 0.0;
  std::vector<double> cell_s;     // floor host seconds per cell
  std::vector<double> instr_ns;   // floor ns/instr per chunk or per cell
  std::vector<double> export_ms;  // to_csv + to_json(false), per repetition
  std::vector<double> setup_s;    // from PassOptions::setup_sample
  double busy_s = 0.0;            // sum of cell seconds, all repetitions
  double wall_s = 0.0;            // sum of repetition wall times
  double run_s = 0.0;             // sum of Simulator::run time, all cells
  std::uint64_t committed = 0;    // all repetitions
  std::uint64_t cycles = 0;       // all repetitions
  std::uint64_t trace_records = 0;  // traced pass: records pulled
  double trace_s = 0.0;             // traced pass: host seconds in next()
  // Traced pass, per cell of the first repetition: main-memory accesses
  // (not part of RunResult) and the rel tracker's predicted silent count
  // at the workload's fault probability (0 without a tracker).
  std::vector<std::uint64_t> memory_accesses;
  std::vector<double> rel_silent_pred;
};

// Runs whole repetitions of the workload (at least one) while another one
// still fits in `seconds`, checking every cell into `checks`.
[[nodiscard]] PassResult run_pass(const Workload& workload,
                                  const PassOptions& options,
                                  CheckTally& checks);

// Runs fn(0..n-1) on up to `threads` threads; each thread claims the next
// index in order. Rethrows the first exception after joining.
void run_indexed(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)>& fn);

}  // namespace simbench
