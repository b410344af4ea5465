// icr_sim — command-line driver for the ICR simulator.
//
// Runs one (application | recorded trace) under one protection scheme with
// every §3/§5 knob exposed, printing either a human-readable report or a
// CSV row for scripting. A run is a one-cell campaign: the flags build a
// CampaignSpec and sim::run_campaign_cell runs it, so icr_sim and
// run_campaign share one run path and one table of shared flags.
//
//   icr_sim --app=mcf --scheme=ICR-P-PS(S) --instructions=1000000
//   icr_sim --app=vpr --scheme=BaseECC --fault-prob=1e-4 --fault-model=column
//   icr_sim --trace=run.icrt --window=1000 --victim=dead-first --csv
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/obs_io.h"
#include "src/obs/prof.h"
#include "src/rel/rel_io.h"
#include "src/sim/campaign.h"
#include "src/sim/cli.h"
#include "src/sim/results_io.h"
#include "src/sim/serve.h"
#include "src/sim/simulator.h"
#include "src/trace/trace_v2.h"
#include "src/util/table.h"

using namespace icr;

namespace {

constexpr const char* kProgram = "icr_sim";

struct Options {
  std::string app = "gzip";
  std::string scheme = "ICR-P-PS(S)";
  std::string victim = "dead-only";
  bool leave_replicas = false;
  bool write_through = false;
  std::uint32_t rcache = 0;
  std::string geometry;  // dL1 override: SIZE/WAYS (e.g. 16K/4)
  std::uint32_t ways_disabled = 0;
  std::uint32_t way_mask = 0;  // explicit per-set mask; overrides the count
  bool csv = false;
  std::string rel_out;
  std::string rel_intervals_out;
  sim::cli::SharedFlags shared;

  sim::cli::FlagTable table() {
    return {
        {"--app", "NAME", &app, "gzip|vpr|gcc|mcf|parser|mesa|vortex|bzip2"},
        {"--scheme", "NAME", &scheme,
         "BaseP|BaseECC|BaseECC-spec|ICR-{P,ECC}-{PS,PP}({S,LS})"},
        {"--victim", "POLICY", &victim,
         "dead-only|dead-first|replica-first|replica-only"},
        {"--leave-replicas", nullptr, &leave_replicas,
         "keep replicas on primary eviction (§5.6)"},
        {"--write-through", nullptr, &write_through,
         "write-through dL1 + 8-entry buffer (§5.8)"},
        {"--rcache", "N", &rcache, "attach an N-entry Kim&Somani R-Cache"},
        {"--geometry", "SIZE/WAYS", &geometry,
         "dL1 geometry override, e.g. 16K/4 or 8192/2"},
        {"--ways-disabled", "K", &ways_disabled,
         "disable K ways per dL1 set (docs/GEOMETRY.md)"},
        {"--way-mask", "M", &way_mask,
         "explicit disabled-way bitmask (overrides K)", 0},
        {"--csv", nullptr, &csv, "one CSV row instead of the report"},
        {"--rel-out", "FILE", &rel_out,
         "write the reliability report as JSON"},
        {"--rel-intervals-out", "F", &rel_intervals_out,
         "write the lifetime-interval taxonomy CSV"},
    };
  }
};

void usage() {
  std::puts("icr_sim — ICR (DSN'03) cache-reliability simulator");
  print_flags(Options{}.table());
  sim::cli::print_shared_flags();
}

void print_csv(const sim::RunResult& r) {
  std::printf(
      "scheme,app,instructions,cycles,ipc,dl1_miss_rate,replication_ability,"
      "loads_with_replica,errors_detected,unrecoverable_loads,"
      "silent_corrupt_loads,energy_nj\n");
  std::printf("%s,%s,%llu,%llu,%.4f,%.5f,%.4f,%.4f,%llu,%llu,%llu,%.1f\n",
              r.scheme.c_str(), r.app.c_str(),
              static_cast<unsigned long long>(r.instructions),
              static_cast<unsigned long long>(r.cycles), r.ipc(),
              r.dl1.miss_rate(), r.dl1.replication_ability(),
              r.dl1.loads_with_replica_fraction(),
              static_cast<unsigned long long>(r.dl1.errors_detected),
              static_cast<unsigned long long>(r.dl1.unrecoverable_loads),
              static_cast<unsigned long long>(r.pipeline.silent_corrupt_loads),
              r.energy.total_nj());
}

void print_report(const sim::RunResult& r) {
  TextTable t("icr_sim: " + r.scheme + " on " + r.app, {"metric", "value"});
  auto add = [&](const char* k, const std::string& v) { t.add_row({k, v}); };
  add("instructions", std::to_string(r.instructions));
  add("cycles", std::to_string(r.cycles));
  add("IPC", format_double(r.ipc(), 3));
  add("dL1 miss rate", format_double(r.dl1.miss_rate(), 4));
  add("L1I miss rate", format_double(r.l1i.miss_rate(), 4));
  add("branch mispredict rate", format_double(r.branch.mispredict_rate(), 4));
  add("replication ability", format_double(r.dl1.replication_ability(), 3));
  add("loads with replica",
      format_double(r.dl1.loads_with_replica_fraction(), 3));
  add("replicas created", std::to_string(r.dl1.replicas_created));
  add("replica fills (leave mode)", std::to_string(r.dl1.replica_fills));
  add("errors detected", std::to_string(r.dl1.errors_detected));
  add("corrected by replica",
      std::to_string(r.dl1.errors_corrected_by_replica));
  add("corrected by ECC", std::to_string(r.dl1.errors_corrected_by_ecc));
  add("corrected by R-Cache",
      std::to_string(r.dl1.errors_corrected_by_rcache));
  add("refetched from L2", std::to_string(r.dl1.errors_refetched_from_l2));
  add("unrecoverable loads", std::to_string(r.dl1.unrecoverable_loads));
  add("silent corrupt loads",
      std::to_string(r.pipeline.silent_corrupt_loads));
  add("L1+L2 dynamic energy (uJ)",
      format_double(r.energy.total_nj() / 1000.0, 2));
  t.print();
}

// Inline interval summary and phase table, for runs that sampled
// telemetry without asking for the raw interval CSV.
void print_interval_summary(const obs::IntervalSeries& series,
                            std::uint64_t stats_interval) {
  const auto pts = obs::interval_points(series);
  const obs::IntervalSummary s = obs::summarize(pts);
  TextTable t("interval telemetry (" + std::to_string(stats_interval) +
                  " instr/sample)",
              {"metric", "mean", "peak", "final"});
  t.add_row({"dL1 miss rate", format_double(s.mean_miss_rate, 4),
             format_double(s.peak_miss_rate, 4),
             format_double(s.final_miss_rate, 4)});
  t.add_row({"replication ability",
             format_double(s.mean_replication_ability, 3),
             format_double(s.peak_replication_ability, 3),
             format_double(s.final_replication_ability, 3)});
  t.add_row({"IPC", format_double(s.mean_ipc, 3), "-", "-"});
  t.print();

  const auto phases = obs::segment_phases(pts);
  TextTable p("phases (miss-rate segmentation, " +
                  std::to_string(phases.size()) + " found)",
              {"phase", "intervals", "miss rate", "repl ability", "IPC"});
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const obs::Phase& ph = phases[i];
    p.add_row({std::to_string(i),
               std::to_string(ph.first_interval) + ".." +
                   std::to_string(ph.last_interval),
               format_double(ph.mean_miss_rate, 4),
               format_double(ph.mean_replication_ability, 3),
               format_double(ph.mean_ipc, 3)});
  }
  p.print();
}

// The dL1 geometry, way disabling and R-Cache of the run's single
// variant, on top of the spec-wide fault settings. Throws
// std::invalid_argument on a bad geometry.
sim::SimConfig variant_config(const Options& opt,
                              const sim::CampaignSpec& spec) {
  sim::SimConfig config = spec.config;
  config.rcache_entries = opt.rcache;
  if (!opt.geometry.empty()) {
    const std::size_t slash = opt.geometry.find('/');
    if (slash == std::string::npos) {
      throw std::invalid_argument("--geometry expects SIZE/WAYS, e.g. 16K/4");
    }
    config.dl1.size_bytes = sim::cli::parse_size(
        kProgram, "--geometry", opt.geometry.substr(0, slash));
    config.dl1.associativity = sim::cli::parse_u32(
        kProgram, "--geometry", opt.geometry.substr(slash + 1));
    config.dl1.validate();
  }
  if (opt.ways_disabled != 0 || opt.way_mask != 0) {
    config.dl1_way_disable.count = opt.ways_disabled;
    config.dl1_way_disable.fixed_mask = opt.way_mask;
    config.dl1_way_disable.pattern = spec.geometry.pattern;
    config.dl1_way_disable.seed = spec.geometry.way_seed;
    config.dl1_way_disable.validate(config.dl1.associativity);
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const sim::cli::FlagTable flags = opt.table();
  const sim::cli::FlagTable shared_flags = opt.shared.table();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      usage();
      return 0;
    }
    if (!sim::cli::match_flag(kProgram, argv[i], flags) &&
        !sim::cli::match_flag(kProgram, argv[i], shared_flags)) {
      sim::cli::unknown_flag(kProgram, argv[i]);
    }
  }

  // One variant, labelled by its scheme; seeds stay the calibrated ones
  // (derive_seeds is off by default).
  core::Scheme scheme =
      sim::cli::scheme_by_name(opt.scheme)
          .with_victim_policy(sim::cli::victim_by_name(opt.victim))
          .with_leave_replicas(opt.leave_replicas);
  if (opt.write_through) scheme = scheme.with_write_through(8);
  sim::CampaignSpec spec;
  spec.variants.emplace_back(scheme.name, scheme);
  opt.shared.imply(!opt.rel_out.empty() || !opt.rel_intervals_out.empty());
  opt.shared.apply(spec);
  if (spec.instructions == 0) {
    spec.instructions = sim::default_instruction_count();
  }
  try {
    spec.variants.front().config = variant_config(opt, spec);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "icr_sim: %s\n", error.what());
    return 2;
  }
  if (spec.trace.enabled()) {
    // The replay covers the whole budget as one shard, so it reproduces
    // the generator run the trace was recorded from bit for bit.
    trace::TraceInfo info;
    try {
      info = trace::probe_trace(spec.trace.path);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "icr_sim: %s\n", error.what());
      return 1;
    }
    spec.trace.fingerprint = info.fingerprint;
    spec.trace.records = info.records;
    // Provenance header; stderr under --csv so stdout stays parseable.
    std::fprintf(opt.csv ? stderr : stdout,
                 "replaying %s: ICRT-v%u, %llu record(s), fingerprint "
                 "0x%016llx\n",
                 spec.trace.path.c_str(), info.version,
                 static_cast<unsigned long long>(info.records),
                 static_cast<unsigned long long>(info.fingerprint));
  } else {
    spec.apps.push_back(sim::cli::app_by_name(opt.app));
  }

  // HTTP status server for long runs: the cell runner hands each run
  // chunk's progress to the observer, and chunked runs commit the exact
  // stream one run does, so serving never changes results.
  std::unique_ptr<sim::farm::SimStatusSource> serve_source;
  std::unique_ptr<obs::http::Server> serve_server;
  sim::CellObserver observer;
  if (!opt.shared.serve.empty()) {
    try {
      sim::farm::ServeOptions serve_options;
      sim::farm::parse_serve_spec(opt.shared.serve, &serve_options);
      serve_source = std::make_unique<sim::farm::SimStatusSource>(
          opt.scheme, spec.trace.enabled() ? spec.trace.path : opt.app,
          spec.instructions);
      serve_server =
          sim::farm::start_status_server(*serve_source, serve_options);
      std::fprintf(stderr, "serving run status on %s\n",
                   serve_server->url().c_str());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "icr_sim: %s\n", error.what());
      return 2;
    }
    observer = [&](sim::Simulator& simulator, std::uint64_t done) {
      std::vector<std::pair<std::string, std::uint64_t>> counters;
      if (obs::Observability* o = simulator.observability()) {
        const auto values = o->registry.snapshot_counters();
        const auto& names = o->registry.counter_names();
        for (std::size_t c = 0; c < names.size(); ++c) {
          counters.emplace_back(names[c], values[c]);
        }
      }
      serve_source->update(done, std::move(counters),
                           opt.shared.prof
                               ? obs::prof::snapshot_zones()
                               : std::vector<obs::prof::ZoneNode>{});
    };
  }

  if (opt.shared.prof) obs::prof::begin_capture();
  sim::CampaignResult campaign;
  campaign.cells.push_back(sim::run_campaign_cell(
      spec, 0, 0, 0, spec.instructions, observer ? &observer : nullptr));
  if (serve_source != nullptr) serve_source->finish();
  sim::CellResult& cell = campaign.cells.front();
  // A replayed cell is labelled by its trace path, not its shard label.
  if (spec.trace.enabled()) cell.result.app = spec.trace.path;

  // End the capture before reporting: the simulation is what we profile,
  // not the table rendering. The table goes to stderr so --csv stdout
  // stays machine-readable.
  try {
    if (opt.shared.prof) opt.shared.finish_profile(kProgram, stderr);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "icr_sim: %s\n", error.what());
    return 1;
  }

  if (opt.csv) {
    print_csv(cell.result);
  } else {
    print_report(cell.result);
    if (cell.sampling.sampled) {
      std::printf("sampling: warmup %llu, %u window(s) (%s), measured "
                  "%llu of %llu instructions (%.1f%% detailed coverage) — "
                  "metrics are estimates\n",
                  static_cast<unsigned long long>(
                      cell.sampling.warmup_instructions),
                  cell.sampling.windows, sim::to_string(spec.sampling.mode),
                  static_cast<unsigned long long>(
                      cell.sampling.measured_instructions),
                  static_cast<unsigned long long>(cell.sampling.budget),
                  100.0 * cell.sampling.coverage());
    }
    if (spec.rel.enabled) {
      std::fputs(rel::format_report(*cell.rel).c_str(), stdout);
    }
  }

  try {
    sim::cli::write_output(opt.rel_out, [&] {
      std::string json;
      rel::append_json_object(
          json, *cell.rel, {cell.result.scheme, cell.result.app, 0}, 0);
      return json + '\n';
    });
    sim::cli::write_output(opt.rel_intervals_out,
                           [&] { return sim::rel_intervals_to_csv(campaign); });
    opt.shared.write_outputs(campaign);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "icr_sim: %s\n", error.what());
    return 1;
  }

  if (spec.obs.stats_interval != 0 && opt.shared.intervals_out.empty() &&
      !opt.csv) {
    print_interval_summary(cell.obs->intervals, spec.obs.stats_interval);
  }
  return 0;
}
