#include "simbench/workload.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <limits>
#include <map>
#include <stdexcept>
#include <thread>

#include "simbench/oracle.h"
#include "simbench/stats.h"
#include "src/sim/cli.h"
#include "src/sim/metrics.h"
#include "src/sim/results_io.h"
#include "src/util/fs.h"
#include "src/util/rng.h"

namespace simbench {

using icr::core::Scheme;
using icr::sim::CampaignResult;
using icr::sim::CampaignSpec;
using icr::sim::CellResult;
using icr::sim::RunResult;
using icr::sim::Simulator;
using icr::trace::App;

namespace {

// Set-up samples taken before each repetition, so set-up time is sampled
// across the whole run rather than in one burst; runs with few repetitions
// top up to a minimum after the last one.
constexpr int kSetupSamplesPerRep = 3;
constexpr std::size_t kMinSetupSamples = 21;

// The checked-in degraded-geometry sweep (results/README.md).
constexpr std::uint64_t kSweepSeed = 0xD5DB2003ULL;

// The fig14 relaxation of the ICR schemes (decay window 1000, dead blocks
// first), as bench/fig14_error_injection.cc runs them.
Scheme relaxed(Scheme s) {
  return s.with_decay_window(1000).with_victim_policy(
      icr::core::ReplicaVictimPolicy::kDeadFirst);
}

// Mirrors sim::run_campaign_cell's per-cell configuration and seed
// derivation; the traced pass checks the two agree counter for counter.
void plan_cells(Workload& w) {
  const CampaignSpec& spec = w.spec;
  for (std::size_t v = 0; v < spec.variants.size(); ++v) {
    for (std::size_t a = 0; a < spec.apps.size(); ++a) {
      for (std::size_t t = 0; t < spec.trials; ++t) {
        const icr::sim::SchemeVariant& variant = spec.variants[v];
        CellPlan p;
        p.variant_idx = v;
        p.app_idx = a;
        p.trial_idx = t;
        p.config = variant.config ? *variant.config : spec.config;
        p.scheme = variant.scheme;
        p.profile = icr::trace::profile_for(spec.apps[a]);
        if (spec.derive_seeds) {
          p.cell_seed = icr::sim::derive_cell_seed(spec.base_seed, v, a, t);
          std::uint64_t state = p.cell_seed;
          p.profile.seed = icr::split_mix64(state);
          p.config.fault_seed = icr::split_mix64(state);
        }
        p.instructions = w.instructions;
        p.rel = spec.rel;
        p.label = variant.label + "/" + icr::trace::to_string(spec.apps[a]) +
                  "/t" + std::to_string(t);
        w.cells.push_back(std::move(p));
      }
    }
  }
}

CampaignResult assemble(const Workload& w, std::vector<CellResult> cells,
                        unsigned threads) {
  CampaignResult c;
  c.meta.base_seed = w.spec.base_seed;
  c.meta.config_hash = w.config_hash;
  c.meta.instructions = w.instructions;
  c.meta.trials = w.spec.trials;
  c.meta.threads = threads;
  c.meta.sampling = w.spec.sampling;
  c.meta.geometry = w.spec.geometry.enabled();
  c.meta.completed_cells = cells.size();
  c.cells = std::move(cells);
  return c;
}

// What one cell of one repetition produced.
struct CellRun {
  CellResult cell;
  double seconds = 0.0;  // host seconds timed for this cell
  double run_s = 0.0;    // of which inside Simulator::run
  std::vector<double> chunk_s;               // host seconds per chunk
  std::vector<std::uint64_t> chunk_instr;    // instructions per chunk
  std::int64_t trace_ns = 0;
  std::uint64_t records = 0;
  std::uint64_t memory_accesses = 0;
  double rel_silent_pred = 0.0;
};

// Runs `sim` to the plan's budget in Simulator::run chunks at absolute
// commit targets (bit-identical to one run call), timing each chunk.
void run_chunked(Simulator& sim, const CellPlan& plan, std::uint64_t chunk,
                 CellRun& run, const TimedSource* timed, SpanLog* spans,
                 std::uint64_t cell_span, std::vector<Span>& out) {
  const std::uint64_t target = plan.instructions;
  while (sim.pipeline().stats().committed < target) {
    const std::uint64_t before = sim.pipeline().stats().committed;
    const std::uint64_t next = std::min(before + chunk, target);
    const std::int64_t trace0 = timed != nullptr ? timed->ns() : 0;
    const std::uint64_t rec0 = timed != nullptr ? timed->records() : 0;
    const std::int64_t t0 = now_ns();
    (void)sim.run(next - before);
    const std::int64_t t1 = now_ns();
    run.chunk_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    run.chunk_instr.push_back(sim.pipeline().stats().committed - before);
    run.run_s += run.chunk_s.back();
    if (spans != nullptr) {
      Span s{spans->next_id(), cell_span, cell_span, "sim.run_chunk", t0,
             t1 - t0, 1};
      Span tr{spans->next_id(), s.id, cell_span, "trace.next", t0,
              timed->ns() - trace0, timed->records() - rec0};
      out.push_back(std::move(s));
      out.push_back(std::move(tr));
    }
  }
}

// One traced cell: replay constructor over a TimedSource, chunked run,
// spans workload → cell → sim.setup / sim.run_chunk (→ trace.next) /
// sim.export.
CellRun traced_cell(const Workload& w, const CellPlan& plan, SpanLog& spans,
                    std::uint64_t root) {
  CellRun run;
  std::vector<Span> out;
  const std::uint64_t cell_span = spans.next_id();
  const std::int64_t c0 = now_ns();

  auto source = std::make_unique<TimedSource>(
      std::make_unique<icr::trace::SyntheticWorkload>(plan.profile));
  const TimedSource* timed = source.get();
  std::unique_ptr<Simulator> sim = build_simulator(plan, std::move(source));
  const std::int64_t c1 = now_ns();
  out.push_back(Span{spans.next_id(), cell_span, cell_span, "sim.setup", c0,
                     c1 - c0, 1});

  run_chunked(*sim, plan, w.chunk, run, timed, &spans, cell_span, out);

  const std::int64_t e0 = now_ns();
  run.cell.cell.variant_idx = static_cast<std::uint32_t>(plan.variant_idx);
  run.cell.cell.app_idx = static_cast<std::uint32_t>(plan.app_idx);
  run.cell.cell.trial_idx = static_cast<std::uint32_t>(plan.trial_idx);
  run.cell.cell.seed = plan.cell_seed;
  // What a cell exports: its result and its metric row.
  run.cell.result = sim->result();
  (void)icr::sim::metric_values(run.cell.result);
  const std::int64_t e1 = now_ns();
  out.push_back(Span{spans.next_id(), cell_span, cell_span, "sim.export", e0,
                     e1 - e0, 1});
  // Structural invariants after every traced run (aborts on violation).
  sim->dl1().check_invariants();
  run.memory_accesses = sim->hierarchy().memory_accesses();
  if (plan.rel.any()) {
    run.rel_silent_pred =
        sim->collect_rel().evaluate(plan.config.fault_probability).silent;
  }

  run.seconds = static_cast<double>(e1 - c0) * 1e-9;
  run.trace_ns = timed->ns();
  run.records = timed->records();
  out.push_back(Span{cell_span, root, cell_span, "cell", c0, e1 - c0, 1});
  spans.add(std::move(out));
  return run;
}

// One untraced single-system cell: direct generator, chunked run.
CellRun untraced_single(const Workload& w, const CellPlan& plan) {
  CellRun run;
  std::vector<Span> none;
  std::unique_ptr<Simulator> sim = build_simulator(plan);
  run_chunked(*sim, plan, w.chunk, run, nullptr, nullptr, 0, none);
  run.seconds = run.run_s;
  run.cell.cell.seed = plan.cell_seed;
  run.cell.result = sim->result();
  return run;
}

// One untraced campaign cell, timed around the public per-cell entry point.
CellRun untraced_campaign(const Workload& w, const CellPlan& plan) {
  CellRun run;
  const std::int64_t t0 = now_ns();
  run.cell = icr::sim::run_campaign_cell(w.spec, plan.variant_idx,
                                         plan.app_idx, plan.trial_idx,
                                         w.instructions);
  run.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  run.run_s = run.seconds;
  return run;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"ooo_dense", "mem_stall",
                                                 "fault_rel", "geometry_sweep"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  CampaignSpec& spec = w.spec;
  spec.trials = 1;
  spec.base_seed = seed;
  spec.derive_seeds = true;
  if (name == "ooo_dense") {
    // ROADMAP reference (i): gcc x ICR-ECC-PS(S), no faults.
    spec.variants.emplace_back("ICR-ECC-PS(S)", Scheme::IcrEccPS_S());
    spec.apps = {App::kGcc};
    w.instructions = 2'000'000;
    w.single_system = true;
  } else if (name == "mem_stall") {
    spec.variants.emplace_back("ICR-P-PS(S)", Scheme::IcrPPS_S());
    spec.apps = {App::kMcf};
    w.instructions = 300'000;
    w.single_system = true;
  } else if (name == "fault_rel") {
    spec.variants.emplace_back("BaseP", Scheme::BaseP());
    spec.variants.emplace_back("BaseECC", Scheme::BaseECC());
    spec.variants.emplace_back("ICR-P-PS(S)", relaxed(Scheme::IcrPPS_S()));
    spec.variants.emplace_back("ICR-ECC-PS(S)", relaxed(Scheme::IcrEccPS_S()));
    spec.variants.emplace_back(
        "ICR-P-PS(S)+scrub1000",
        relaxed(Scheme::IcrPPS_S()).with_scrubbing(1000));
    spec.apps = {App::kVortex};
    spec.trials = 20;
    spec.config.fault_model = icr::fault::FaultModel::kRandom;
    spec.config.fault_probability = 1e-3;
    spec.rel.enabled = true;
    spec.rel.probability = 1e-3;
    w.instructions = 100'000;
    w.faults = true;
  } else if (name == "geometry_sweep") {
    // Exactly the results/README.md regeneration command.
    for (const char* s : {"BaseP", "BaseECC", "ICR-P-PS(S)"}) {
      spec.variants.emplace_back(
          s, icr::sim::cli::scheme_by_name(s).with_decay_window(0));
    }
    spec.apps = {App::kGzip, App::kMcf, App::kVortex, App::kVpr};
    spec.base_seed = kSweepSeed;
    spec.geometry.sizes = {8 * 1024, 16 * 1024};
    spec.geometry.assocs = {2, 4};
    spec.geometry.ways_disabled = {0, 1, 2};
    icr::sim::expand_geometry_sweep(spec);
    w.instructions = 200'000;
    w.sweep_oracle = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  spec.instructions = w.instructions;
  // Enough chunks per single-system run for a p90 with ten samples beyond.
  w.chunk = w.single_system ? w.instructions / 128 : w.instructions / 16;
  w.config_hash = icr::sim::campaign_config_hash(spec);
  plan_cells(w);
  return w;
}

std::unique_ptr<Simulator> build_simulator(
    const CellPlan& plan, std::unique_ptr<icr::trace::TraceSource> source) {
  std::unique_ptr<Simulator> sim =
      source != nullptr
          ? std::make_unique<Simulator>(plan.config, plan.scheme,
                                        std::move(source), plan.profile.name)
          : std::make_unique<Simulator>(plan.config, plan.scheme,
                                        plan.profile);
  if (plan.rel.any()) sim->enable_rel(plan.rel);
  return sim;
}

icr::trace::Instruction TimedSource::next() {
  const std::int64_t t0 = now_ns();
  icr::trace::Instruction instr = inner_->next();
  ns_ += now_ns() - t0;
  ++records_;
  return instr;
}

void SpanLog::add(std::vector<Span> spans) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Span& s : spans) spans_.push_back(std::move(s));
}

namespace {

// Time covered by each span's direct children: the union of their
// intervals, so children running in parallel (cells on a pool) are not
// counted twice.
std::map<std::uint64_t, std::int64_t> child_time(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    children[s.parent].emplace_back(s.start_ns, s.start_ns + s.dur_ns);
  }
  std::map<std::uint64_t, std::int64_t> covered;
  for (auto& [parent, intervals] : children) {
    std::sort(intervals.begin(), intervals.end());
    std::int64_t total = 0;
    std::int64_t begin = intervals.front().first;
    std::int64_t end = intervals.front().second;
    for (const auto& [b, e] : intervals) {
      if (b > end) {
        total += end - begin;
        begin = b;
      }
      end = std::max(end, e);
    }
    covered[parent] = total + (end - begin);
  }
  return covered;
}

}  // namespace

std::string SpanLog::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> spans = spans_;
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  const std::map<std::uint64_t, std::int64_t> covered = child_time(spans);
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::string out = "{\"spans\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto it = covered.find(s.id);
    const std::int64_t self = s.dur_ns - (it == covered.end() ? 0 : it->second);
    std::snprintf(buf, sizeof buf,
                  "{\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                  ", \"cell\": %" PRIu64 ", \"name\": \"%s\""
                  ", \"start_ns\": %" PRId64
                  ", \"dur_ns\": %" PRId64 ", \"self_ns\": %" PRId64
                  ", \"count\": %" PRIu64 "}%s\n",
                  s.id, s.parent, s.cell, s.name.c_str(),
                  s.start_ns - origin, s.dur_ns, self, s.count,
                  i + 1 == spans.size() ? "" : ",");
    out += buf;
  }
  return out + "]}\n";
}

std::string SpanLog::self_time_table() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::map<std::uint64_t, std::int64_t> covered = child_time(spans_);
  struct Row {
    std::uint64_t spans = 0;
    std::uint64_t count = 0;
    std::int64_t total = 0;
    std::int64_t self = 0;
  };
  std::map<std::string, Row> rows;
  for (const Span& s : spans_) {
    Row& r = rows[s.name];
    const auto it = covered.find(s.id);
    ++r.spans;
    r.count += s.count;
    r.total += s.dur_ns;
    r.self += s.dur_ns - (it == covered.end() ? 0 : it->second);
  }
  std::string out = "span            spans      count    total_s     self_s\n";
  char buf[160];
  for (const auto& [name, r] : rows) {
    std::snprintf(buf, sizeof buf, "%-14s %6" PRIu64 " %10" PRIu64
                  " %10.4f %10.4f\n",
                  name.c_str(), r.spans, r.count,
                  static_cast<double>(r.total) * 1e-9,
                  static_cast<double>(r.self) * 1e-9);
    out += buf;
  }
  return out;
}

void CheckTally::note(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  failures.push_back(what);
}

bool cell_output_ok(const Workload& workload, const RunResult& r,
                    std::string& why) {
  if (r.instructions < workload.instructions) {
    why = "commit target not reached";
    return false;
  }
  if (!workload.faults) {
    if (r.dl1.errors_detected != 0 || r.dl1.unrecoverable_loads != 0 ||
        r.pipeline.unrecoverable_loads != 0 ||
        r.pipeline.silent_corrupt_loads != 0) {
      why = "fault-free cell saw an error";
      return false;
    }
  }
  return true;
}

bool verdicts_within_injections(const std::vector<CellResult>& cells) {
  std::uint64_t verdicts = 0;
  std::uint64_t injections = 0;
  for (const CellResult& cell : cells) {
    verdicts += cell.result.faults.observed();
    injections += cell.result.faults.injections;
  }
  return verdicts <= injections;
}

bool same_counters(const RunResult& a, const RunResult& b) {
  return icr::sim::counter_vector(a) == icr::sim::counter_vector(b);
}

void run_indexed(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < std::max(1u, threads); ++t) {
    pool.emplace_back(worker);
  }
  worker();
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

PassResult run_pass(const Workload& w, const PassOptions& options,
                    CheckTally& checks) {
  PassResult out;
  const std::size_t n = w.cells.size();
  out.threads = w.single_system
                    ? 1
                    : static_cast<unsigned>(std::clamp<std::size_t>(
                          options.threads, 1, n));
  SpanLog* spans = options.traced ? options.spans : nullptr;
  if (options.traced && spans == nullptr) {
    throw std::invalid_argument("run_pass: a traced pass needs a SpanLog");
  }
  const std::uint64_t root = spans != nullptr ? spans->next_id() : 0;

  std::string ref_csv;
  std::string ref_json;
  if (w.sweep_oracle && !options.traced) {
    ref_csv = icr::util::fs::read_text_file(options.reference_dir +
                                            "/degraded_geometry_sweep.csv");
    ref_json = icr::util::fs::read_text_file(options.reference_dir +
                                             "/degraded_geometry_sweep.json");
  }

  // Host interference on a shared machine only ever adds time, so every
  // chunk (single system) or cell (campaign) keeps its fastest time over
  // the repetitions: the noise floor of deterministic, repeated work.
  constexpr double kNever = std::numeric_limits<double>::infinity();
  std::vector<double> floor_cell(n, kNever);
  std::vector<double> floor_chunk;  // single system, per chunk position
  std::vector<std::uint64_t> chunk_instr;
  double floor_wall = kNever;
  std::uint64_t rep_committed = 0;
  const std::int64_t start = now_ns();
  for (;;) {
    if (options.setup_sample) {
      for (int k = 0; k < kSetupSamplesPerRep; ++k) {
        out.setup_s.push_back(options.setup_sample());
      }
    }
    std::vector<CellRun> runs(n);
    const std::int64_t r0 = now_ns();
    run_indexed(n, out.threads, [&](std::size_t i) {
      const CellPlan& plan = w.cells[i];
      runs[i] = options.traced      ? traced_cell(w, plan, *spans, root)
                : w.single_system   ? untraced_single(w, plan)
                                    : untraced_campaign(w, plan);
    });
    const double wall = static_cast<double>(now_ns() - r0) * 1e-9;

    // Exports: timed every repetition, compared with the oracle when the
    // workload has one.
    std::vector<CellResult> cells;
    for (CellRun& run : runs) cells.push_back(std::move(run.cell));
    const CampaignResult campaign = assemble(w, std::move(cells), out.threads);
    const std::int64_t x0 = now_ns();
    const std::string csv = icr::sim::to_csv(campaign);
    const std::string json = icr::sim::to_json(campaign, false);
    out.export_ms.push_back(static_cast<double>(now_ns() - x0) * 1e-6);
    std::vector<bool> mismatched(n, false);
    if (!ref_csv.empty()) {
      const ExportParts cp = csv_parts(campaign);
      const ExportParts jp = json_parts(campaign);
      const std::vector<bool> bad_csv = mismatched_cells(cp, ref_csv);
      const std::vector<bool> bad_json = mismatched_cells(jp, ref_json);
      const bool aligned = cp.joined() == csv && jp.joined() == json;
      for (std::size_t i = 0; i < n; ++i) {
        mismatched[i] = !aligned || bad_csv[i] || bad_json[i];
      }
    }

    const bool verdicts_ok =
        !w.faults || verdicts_within_injections(campaign.cells);
    rep_committed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const RunResult& r = campaign.cells[i].result;
      std::string why;
      bool ok = cell_output_ok(w, r, why);
      if (ok && !verdicts_ok) {
        ok = false;
        why = "fault verdicts exceed injections over the workload";
      }
      if (ok && out.reps > 0 && !same_counters(r, out.results[i])) {
        ok = false;
        why = "counters differ between repetitions";
      }
      if (ok && mismatched[i]) {
        ok = false;
        why = "export differs from the checked-in sweep";
      }
      checks.note(ok, w.cells[i].label + ": " + why);
      rep_committed += r.instructions;
      out.cycles += r.cycles;
      const CellRun& run = runs[i];
      floor_cell[i] = std::min(floor_cell[i], run.seconds);
      if (w.single_system) {
        if (floor_chunk.empty()) {
          floor_chunk = run.chunk_s;
          chunk_instr = run.chunk_instr;
        }
        // Chunks align across repetitions whenever the run is deterministic;
        // when it is not, the counter check above has already failed it.
        if (run.chunk_instr == chunk_instr) {
          for (std::size_t k = 0; k < floor_chunk.size(); ++k) {
            floor_chunk[k] = std::min(floor_chunk[k], run.chunk_s[k]);
          }
        }
      }
      out.busy_s += run.seconds;
      out.run_s += run.run_s;
      out.trace_s += static_cast<double>(run.trace_ns) * 1e-9;
      out.trace_records += run.records;
    }
    if (out.reps == 0) {
      for (std::size_t i = 0; i < n; ++i) {
        out.results.push_back(campaign.cells[i].result);
        out.memory_accesses.push_back(runs[i].memory_accesses);
        out.rel_silent_pred.push_back(runs[i].rel_silent_pred);
      }
    }
    out.committed += rep_committed;
    out.wall_s += wall;
    floor_wall = std::min(floor_wall, wall);
    ++out.reps;

    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    const double per_rep = elapsed / static_cast<double>(out.reps);
    if (elapsed + per_rep > options.seconds) break;
  }

  while (options.setup_sample && out.setup_s.size() < kMinSetupSamples) {
    out.setup_s.push_back(options.setup_sample());
  }

  if (w.single_system) {
    // One cell: its floor is the sum of its chunks' floors.
    double cell = 0.0;
    for (std::size_t k = 0; k < floor_chunk.size(); ++k) {
      cell += floor_chunk[k];
      const std::uint64_t instr = std::max<std::uint64_t>(chunk_instr[k], 1);
      out.instr_ns.push_back(floor_chunk[k] * 1e9 /
                             static_cast<double>(instr));
    }
    out.cell_s = {cell};
    out.mips = static_cast<double>(rep_committed) / cell / 1e6;
  } else {
    out.cell_s = floor_cell;
    for (std::size_t i = 0; i < n; ++i) {
      out.instr_ns.push_back(floor_cell[i] * 1e9 /
                             static_cast<double>(out.results[i].instructions));
    }
    out.mips = static_cast<double>(rep_committed) / floor_wall / 1e6;
  }
  if (spans != nullptr) {
    spans->add({Span{root, 0, 0, "workload", start, now_ns() - start, 1}});
  }
  return out;
}

}  // namespace simbench
