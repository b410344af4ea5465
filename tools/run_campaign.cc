// run_campaign — campaign-scale driver for the ICR simulator.
//
// Expands a (schemes x apps x trials) grid into independent cells and runs
// them with deterministic per-cell seeding, in one of three modes:
//
//   * In-process (default): a thread-pool campaign, summary table, and
//     optional CSV/JSON export. Per-cell metrics are bit-identical for any
//     --threads value.
//   * Farm coordinator (--farm=DIR): shards the grid into work units,
//     writes a spool manifest, spawns --workers=N worker processes, and
//     streams the completed units into the same CSV/JSON exporters. The
//     export is bit-identical to an in-process run with --no-timing, at
//     any worker count, including after kills and --resume (src/sim/farm.h
//     and docs/CAMPAIGN.md).
//   * Farm worker (--worker --spool=DIR): claims and runs work units from
//     an existing spool. Start any number, on any hosts sharing the spool.
//
//   run_campaign                                  # all 10 schemes x 8 apps
//   run_campaign --schemes=BaseP,BaseECC --apps=vortex,mcf --trials=5
//   run_campaign --threads=1 --json=a.json       # a.json and b.json agree
//   run_campaign --threads=8 --json=b.json       # on every per-cell metric
//   run_campaign --farm=spool --workers=8 --trials=16 --json=farm.json
//   run_campaign --farm=spool --resume --workers=8 --json=farm.json
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/farm_progress.h"
#include "src/obs/prof.h"
#include "src/obs/prof_io.h"
#include "src/sim/campaign.h"
#include "src/sim/cli.h"
#include "src/sim/farm.h"
#include "src/sim/farm_telemetry.h"
#include "src/sim/results_io.h"
#include "src/sim/serve.h"
#include "src/util/fs.h"
#include "src/util/table.h"

using namespace icr;
using sim::cli::app_by_name;
using sim::cli::scheme_by_name;
using sim::cli::split_csv;

namespace {

constexpr const char* kProgram = "run_campaign";

struct Options {
  std::string schemes;  // comma list; empty = all ten paper schemes
  std::string apps;     // comma list; empty = all eight applications
  std::uint64_t shard_instructions = 0;  // trace interval width; 0 = one cell
  std::uint32_t trials = 1;
  unsigned threads = 0;  // 0 = ICR_SIM_THREADS or hardware concurrency
  std::uint64_t seed = 0x1C9CA37ULL;
  bool seed_given = false;
  // Degraded-geometry sweep axes (docs/GEOMETRY.md).
  std::string dl1_sizes;      // comma list of dL1 sizes (K/M suffixes ok)
  std::string dl1_assocs;     // comma list of associativities
  std::string ways_disabled;  // comma list of disabled-way counts
  std::string csv_path;
  std::string json_path;
  bool no_timing = false;
  bool quiet = false;
  bool progress = false;
  std::string rel_csv;
  std::string rel_json;
  std::string rel_intervals;
  // Farm modes (docs/CAMPAIGN.md).
  std::string farm_dir;   // coordinator: spool directory
  unsigned workers = 0;   // coordinator: processes to spawn (0 = none)
  bool workers_given = false;
  std::uint64_t unit_cells = 4;  // coordinator: cells per work unit
  bool resume = false;
  bool worker = false;    // worker mode
  std::string spool;      // worker: spool directory
  std::uint32_t max_units = 0;  // worker: stop after N units (0 = all)
  // Fleet telemetry (docs/CAMPAIGN.md "Fleet telemetry").
  std::string worker_id;          // worker: heartbeat/event identity
  double heartbeat_seconds = 5.0; // between-cell heartbeat cadence; 0 = off
  std::string farm_trace_out;     // coordinator: merged fleet Chrome trace
  std::string farm_status_dir;    // status mode: spool to inspect
  double watch_seconds = 0.0;     // status mode: refresh period; 0 = once
  std::string status_json;        // status mode: NDJSON out ("-" = stdout)
  double stale_after = 15.0;      // straggler threshold (seconds)
  double dead_after = 60.0;       // dead threshold (seconds)
  sim::cli::SharedFlags shared;

  // --help sections: a heading (none for the first) and its flags.
  std::vector<std::pair<const char*, sim::cli::FlagTable>> sections() {
    return {
        {nullptr,
         {{"--schemes", "A,B,..", &schemes,
           "scheme names (default: all ten paper schemes)"},
          {"--apps", "a,b,..", &apps, "applications (default: all eight)"},
          {"--shard-instructions", "N", &shard_instructions,
           "with --trace: instructions per trace interval cell\n"
           "(default: one cell covering the whole budget)"},
          {"--trials", "N", &trials,
           "repetitions per (scheme, app) cell (default 1)"},
          {"--threads", "N", &threads,
           "worker threads (default: ICR_SIM_THREADS or hardware)"},
          {"--seed", "S", &seed,
           "campaign base seed; per-cell seeds derive from it", 0,
           &seed_given},
          {"--dl1-sizes", "A,B,..", &dl1_sizes,
           "geometry sweep: dL1 sizes (e.g. 8K,16K,32K); crosses\n"
           "every scheme with every geometry cell and adds\n"
           "provenance columns (docs/GEOMETRY.md)"},
          {"--dl1-assocs", "A,B,..", &dl1_assocs,
           "geometry sweep: dL1 associativities"},
          {"--ways-disabled", "A,B,.", &ways_disabled,
           "geometry sweep: disabled ways per set (k of N)"},
          {"--csv", "FILE", &csv_path, "write per-cell results as CSV"},
          {"--json", "FILE", &json_path,
           "write campaign metadata + cells as JSON"},
          {"--no-timing", nullptr, &no_timing,
           "omit threads/wall-time from the JSON so identical\n"
           "experiments export identical bytes"},
          {"--quiet", nullptr, &quiet, "skip the summary table"},
          {"--progress", nullptr, &progress,
           "live completed/total + cells/sec + ETA on stderr"},
          {"--rel-csv", "FILE", &rel_csv,
           "write per-cell vulnerability summary CSV (--rel\n"
           "alone writes rel.csv)"},
          {"--rel-json", "FILE", &rel_json,
           "write per-cell reliability reports as JSON"},
          {"--rel-intervals", "FILE", &rel_intervals,
           "write lifetime-interval taxonomy CSV"}}},
        {"\nCampaign farm (multi-process; see docs/CAMPAIGN.md):",
         {{"--farm", "DIR", &farm_dir,
           "coordinate a farm over spool directory DIR: shard\n"
           "the grid, spawn workers, aggregate"},
          {"--workers", "N", &workers,
           "worker processes to spawn (default: the --threads\n"
           "resolution; 0 = only init/aggregate)", 10, &workers_given},
          {"--unit-cells", "N", &unit_cells, "cells per work unit (default 4)"},
          {"--resume", nullptr, &resume,
           "reuse an existing spool: clear stale claims, run\n"
           "only what is missing (exports are byte-identical\n"
           "to an uninterrupted run)"},
          {"--worker", nullptr, &worker,
           "with --spool=DIR: claim and run work units from DIR\n"
           "(start any number, on any hosts sharing the spool)"},
          {"--spool", "DIR", &spool, "worker: spool directory"},
          {"--max-units", "N", &max_units,
           "worker: stop after N units (0 = run to dry)"}}},
        {"\nFleet telemetry (docs/CAMPAIGN.md \"Fleet telemetry\"):",
         {{"--heartbeat", "S", &heartbeat_seconds,
           "worker heartbeat cadence in seconds (default 5;\n"
           "0 disables heartbeats and event logs)"},
          {"--worker-id", "ID", &worker_id,
           "worker identity in hb/ and events/ files (default\n"
           "pid<pid>; coordinator assigns wN)"},
          {"--farm-trace-out", "FILE", &farm_trace_out,
           "coordinator: profile every worker (--prof) and\n"
           "write one merged fleet Chrome trace"},
          {"--farm-status", "DIR", &farm_status_dir,
           "render fleet state from spool files alone: census,\n"
           "per-worker heartbeats, stragglers/dead workers,\n"
           "unit latency histogram, ETA"},
          {"--watch", "S", &watch_seconds,
           "farm-status: refresh every S seconds (bare --watch:\n"
           "2) until the fleet is drained"},
          {"--status-json", "FILE", &status_json,
           "farm-status: write NDJSON ('-' = stdout)"},
          {"--stale-after", "S", &stale_after,
           "heartbeat age that flags a straggler (default 15)"},
          {"--dead-after", "S", &dead_after,
           "heartbeat age that flags a dead worker (default 60)"}}},
    };
  }
};

void usage() {
  std::puts("run_campaign — parallel (schemes x apps x trials) experiment "
            "grids");
  for (const auto& [heading, flags] : Options{}.sections()) {
    if (heading != nullptr) std::puts(heading);
    print_flags(flags);
  }
  sim::cli::print_shared_flags();
  std::puts(
      "\nIn run_campaign, --stats-interval alone writes intervals.csv, the\n"
      "telemetry/rel/prof flags run in-process only, and --serve works in\n"
      "--farm, in-process and --farm-status modes (the latter keeps serving\n"
      "until drained).\n"
      "\n"
      "Seeding: trials > 1 (or an explicit --seed) derives each cell's\n"
      "workload and injection seeds via SplitMix64 from (seed, scheme,\n"
      "app, trial), so results never depend on thread count, schedule, or\n"
      "which process ran the cell.");
}

// Comma list of sizes or counts; K/M suffixes scale by 1024 (so
// --dl1-sizes=8K,16K reads naturally). A malformed item exits 2.
std::vector<std::uint32_t> parse_u32_list(const char* flag,
                                          const std::string& csv) {
  std::vector<std::uint32_t> out;
  for (const std::string& item : split_csv(csv)) {
    out.push_back(sim::cli::parse_size(kProgram, flag, item));
  }
  return out;
}

double unix_now_microseconds() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Farm worker mode: claim and run units from an existing spool until no
// unit is claimable (or --max-units is reached). With heartbeats enabled
// (the default) the worker publishes spool-native telemetry; with --prof it
// leaves its capture under spool/prof/ on the shared fleet clock.
int run_worker_mode(const Options& opt) {
  if (opt.spool.empty()) {
    std::fprintf(stderr, "--worker requires --spool=DIR\n");
    return 2;
  }
  try {
    const sim::farm::Manifest manifest = sim::farm::load_manifest(opt.spool);
    const sim::CampaignSpec spec = sim::farm::spec_from_manifest(manifest);
    const std::string worker_id =
        opt.worker_id.empty() ? "pid" + std::to_string(::getpid())
                              : opt.worker_id;
    std::unique_ptr<sim::farm::WorkerTelemetry> telemetry;
    if (opt.heartbeat_seconds > 0.0) {
      sim::farm::WorkerTelemetryOptions topt;
      topt.worker_id = worker_id;
      topt.heartbeat_interval_seconds = opt.heartbeat_seconds;
      telemetry =
          std::make_unique<sim::farm::WorkerTelemetry>(opt.spool, topt);
    }
    double epoch_unix_us = 0.0;
    if (opt.shared.prof) {
      obs::prof::begin_capture();
      epoch_unix_us = unix_now_microseconds();
    }
    const auto on_unit_done = [&](const sim::farm::WorkUnit& unit) {
      if (!opt.quiet) {
        std::fprintf(stderr, "worker %d: unit %u done (%llu cell(s))\n",
                     ::getpid(), unit.index,
                     static_cast<unsigned long long>(unit.cells()));
      }
    };
    const sim::farm::WorkerReport report = sim::farm::run_worker_loop(
        opt.spool, spec, opt.max_units, on_unit_done, telemetry.get());
    if (opt.shared.prof) {
      const obs::prof::Profile profile = obs::prof::end_capture();
      util::fs::make_directories(sim::farm::worker_trace_dir(opt.spool));
      util::fs::atomic_write_text_file(
          sim::farm::worker_trace_path(opt.spool, worker_id),
          obs::prof::to_chrome_trace(profile, "worker " + worker_id,
                                     ::getpid(), epoch_unix_us));
    }
    if (!opt.quiet) {
      std::printf("worker %d: ran %u unit(s), %llu cell(s)\n", ::getpid(),
                  report.units_run,
                  static_cast<unsigned long long>(report.cells_run));
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "worker: %s\n", error.what());
    return 1;
  }
  return 0;
}

// Spawns one worker child pointed at the spool; returns -1 on failure.
pid_t spawn_worker(const char* self, const std::string& spool,
                   unsigned index, const Options& opt) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: re-exec this binary in worker mode. Workers stay quiet; the
  // coordinator owns progress reporting.
  const std::string spool_flag = "--spool=" + spool;
  const std::string id_flag = "--worker-id=w" + std::to_string(index);
  char hb_flag[48];
  std::snprintf(hb_flag, sizeof hb_flag, "--heartbeat=%.3f",
                opt.heartbeat_seconds);
  std::vector<const char*> argv = {self,      "--worker", spool_flag.c_str(),
                                   "--quiet", id_flag.c_str(), hb_flag};
  if (!opt.farm_trace_out.empty()) argv.push_back("--prof");
  argv.push_back(nullptr);
  ::execv(self, const_cast<char**>(argv.data()));
  std::fprintf(stderr, "execv %s: %s\n", self, std::strerror(errno));
  ::_exit(127);
}

// farm-status mode: reconstruct fleet state purely from spool files. With
// --watch, refresh until the fleet is drained (grid complete and every
// worker dead or exited).
int run_farm_status_mode(const Options& opt) {
  try {
    const sim::farm::Manifest manifest =
        sim::farm::load_manifest(opt.farm_status_dir);
    sim::farm::StalenessPolicy staleness;
    staleness.straggler_after_seconds = opt.stale_after;
    staleness.dead_after_seconds = opt.dead_after;
    // With --serve the process stays up (re-rendering only under --watch)
    // until the fleet drains, so remote readers can poll a stable URL.
    std::unique_ptr<sim::farm::SpoolStatusSource> serve_source;
    std::unique_ptr<obs::http::Server> serve_server;
    if (!opt.shared.serve.empty()) {
      sim::farm::ServeOptions serve_options;
      sim::farm::parse_serve_spec(opt.shared.serve, &serve_options);
      serve_source = std::make_unique<sim::farm::SpoolStatusSource>(
          opt.farm_status_dir, manifest, staleness);
      serve_server =
          sim::farm::start_status_server(*serve_source, serve_options);
      std::printf("serving farm status on %s (spool %s)\n",
                  serve_server->url().c_str(), opt.farm_status_dir.c_str());
      std::fflush(stdout);
    }
    bool first = true;
    for (;;) {
      sim::farm::FarmStatusOptions status_options;
      status_options.staleness = staleness;
      const sim::farm::FarmStatus status = sim::farm::collect_farm_status(
          opt.farm_status_dir, manifest, status_options);
      const bool refresh = first || opt.watch_seconds > 0.0;
      if (!opt.quiet && refresh) {
        if (!first) std::printf("\n");
        std::printf("farm status — spool %s\n", opt.farm_status_dir.c_str());
        std::fputs(sim::farm::render_farm_status(status).c_str(), stdout);
        std::fflush(stdout);
      }
      if (!opt.status_json.empty() && refresh) {
        const std::string ndjson = sim::farm::farm_status_to_ndjson(status);
        if (opt.status_json == "-") {
          std::fputs(ndjson.c_str(), stdout);
          std::fflush(stdout);
        } else {
          util::fs::atomic_write_text_file(opt.status_json, ndjson);
        }
      }
      first = false;
      if (status.drained()) break;
      if (opt.watch_seconds <= 0.0 && serve_server == nullptr) break;
      const double sleep_seconds =
          opt.watch_seconds > 0.0 ? opt.watch_seconds : 0.5;
      ::usleep(static_cast<useconds_t>(sleep_seconds * 1e6));
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "farm status: %s\n", error.what());
    return 1;
  }
  return 0;
}

// Farm coordinator: init or resume the spool, spawn workers, report
// farm-level progress, and stream-aggregate the completed units.
int run_coordinator_mode(const Options& opt, const sim::CampaignSpec& spec,
                         const char* self) {
  using sim::farm::Manifest;
  sim::farm::Manifest manifest = sim::farm::manifest_for(spec, opt.unit_cells);
  const std::string& spool = opt.farm_dir;
  try {
    if (opt.resume) {
      const Manifest existing = sim::farm::load_manifest(spool);
      if (existing.config_hash != manifest.config_hash) {
        std::fprintf(stderr,
                     "--resume: spool %s holds a different experiment "
                     "(config hash %016llx vs %016llx); aborting\n",
                     spool.c_str(),
                     static_cast<unsigned long long>(existing.config_hash),
                     static_cast<unsigned long long>(manifest.config_hash));
        return 2;
      }
      manifest = existing;  // keep the original sharding
      std::vector<std::uint32_t> cleared_units;
      const std::size_t cleared = sim::farm::clear_stale_claims(
          spool, manifest.unit_count, &cleared_units);
      if (opt.heartbeat_seconds > 0.0) {
        // The sweep is part of the fleet's history: one stale-clear event
        // per reclaimed unit, then the sweep summary, under the
        // coordinator's own event stream.
        sim::farm::EventLog coordinator_log(spool, "coordinator");
        for (const std::uint32_t unit : cleared_units) {
          coordinator_log.append(sim::farm::FarmEventType::kStaleClear,
                                 static_cast<std::int64_t>(unit));
        }
        coordinator_log.append(sim::farm::FarmEventType::kResumeSweep, -1,
                               cleared);
      }
      if (cleared != 0 && !opt.quiet) {
        std::printf("resume: cleared %zu stale claim(s)\n", cleared);
      }
    } else {
      if (util::fs::exists(sim::farm::manifest_path(spool))) {
        std::fprintf(stderr,
                     "spool %s already has a manifest; use --resume to "
                     "continue it or point --farm at a fresh directory\n",
                     spool.c_str());
        return 2;
      }
      sim::farm::init_spool(spool, manifest);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "farm: %s\n", error.what());
    return 1;
  }

  std::printf("farm: %u scheme(s) x %u app(s) x %u trial(s) = %llu cells in "
              "%u unit(s) of %llu, spool %s, %u worker(s)\n",
              manifest.variant_count, manifest.app_count, manifest.trials,
              static_cast<unsigned long long>(manifest.total_cells),
              manifest.unit_count,
              static_cast<unsigned long long>(manifest.unit_cells),
              spool.c_str(), opt.workers);

  // HTTP status server over the spool: read-only by construction, so the
  // exports stay byte-identical with --serve on (tier-1 guarded). Stops on
  // scope exit, after aggregation.
  std::unique_ptr<sim::farm::SpoolStatusSource> serve_source;
  std::unique_ptr<obs::http::Server> serve_server;
  if (!opt.shared.serve.empty()) {
    try {
      sim::farm::ServeOptions serve_options;
      sim::farm::parse_serve_spec(opt.shared.serve, &serve_options);
      sim::farm::StalenessPolicy staleness;
      staleness.straggler_after_seconds = opt.stale_after;
      staleness.dead_after_seconds = opt.dead_after;
      serve_source = std::make_unique<sim::farm::SpoolStatusSource>(
          spool, manifest, staleness);
      serve_server =
          sim::farm::start_status_server(*serve_source, serve_options);
      std::printf("serving farm status on %s\n", serve_server->url().c_str());
      std::fflush(stdout);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "farm: %s\n", error.what());
      return 2;
    }
  }

  obs::FarmProgressOptions progress_options;
  progress_options.enabled = opt.progress;
  obs::FarmProgressReporter reporter(progress_options, manifest.unit_count,
                                     manifest.total_cells);

  if (opt.workers == 0 && !opt.quiet) {
    // No workers to spawn: this invocation initializes or inspects a spool
    // for externally started workers — print the census instead of exiting
    // silently (the same scan --farm-status renders).
    try {
      const sim::farm::FarmStatus status =
          sim::farm::collect_farm_status(spool, manifest);
      std::fputs(sim::farm::render_farm_status(status).c_str(), stdout);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "farm: %s\n", error.what());
    }
  }

  std::vector<pid_t> children;
  unsigned failed_workers = 0;
  for (unsigned w = 0; w < opt.workers; ++w) {
    const pid_t pid = spawn_worker(self, spool, w, opt);
    if (pid < 0) {
      std::fprintf(stderr, "fork: %s\n", std::strerror(errno));
      ++failed_workers;
    } else {
      children.push_back(pid);
    }
  }

  std::size_t alive = children.size();
  while (alive > 0) {
    int status = 0;
    const pid_t reaped = ::waitpid(-1, &status, WNOHANG);
    if (reaped > 0) {
      --alive;
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++failed_workers;
      continue;  // reap the rest before sleeping again
    }
    const sim::farm::SpoolStatus status_now =
        sim::farm::scan_spool(spool, manifest);
    reporter.poll(status_now.units_done, status_now.cells_done,
                  static_cast<unsigned>(alive));
    ::usleep(200 * 1000);
  }

  sim::farm::SpoolStatus final_status;
  try {
    final_status = sim::farm::scan_spool(spool, manifest);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "farm: %s\n", error.what());
    return 1;
  }
  reporter.finish(final_status.units_done, final_status.cells_done);
  if (failed_workers != 0) {
    std::fprintf(stderr, "farm: %u worker(s) exited abnormally\n",
                 failed_workers);
  }

  if (!opt.farm_trace_out.empty()) {
    // Merge the per-worker --prof captures with the coordinator-synthesized
    // unit spans into one fleet timeline. Useful even for an incomplete
    // grid, so write it before the completeness gate.
    try {
      util::fs::atomic_write_text_file(
          opt.farm_trace_out, sim::farm::merge_fleet_trace(spool));
      std::printf("wrote fleet trace to %s (open in Perfetto)\n",
                  opt.farm_trace_out.c_str());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "farm trace: %s\n", error.what());
      return 1;
    }
  }

  if (!final_status.complete()) {
    std::printf("farm: %u/%u unit(s) complete (%llu/%llu cells); resume "
                "with: run_campaign --farm=%s --resume [--workers=N]\n",
                final_status.units_done, final_status.unit_count,
                static_cast<unsigned long long>(final_status.cells_done),
                static_cast<unsigned long long>(manifest.total_cells),
                spool.c_str());
    // --workers=0 initializes or inspects a spool for externally started
    // workers; an incomplete grid is its expected outcome, not a failure.
    return opt.workers == 0 ? 0 : 1;
  }

  try {
    sim::farm::aggregate_spool(spool, manifest, opt.csv_path, opt.json_path);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "farm aggregate: %s\n", error.what());
    return 1;
  }
  const double wall = reporter.elapsed_seconds();
  std::printf("farm: %llu cells in %.2fs wall (%.2f cells/sec), config hash "
              "%016llx, base seed %016llx\n",
              static_cast<unsigned long long>(manifest.total_cells), wall,
              wall > 0.0 ? static_cast<double>(manifest.total_cells) / wall
                         : 0.0,
              static_cast<unsigned long long>(manifest.config_hash),
              static_cast<unsigned long long>(manifest.base_seed));
  if (!opt.csv_path.empty()) std::printf("wrote %s\n", opt.csv_path.c_str());
  if (!opt.json_path.empty()) std::printf("wrote %s\n", opt.json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const auto sections = opt.sections();
  const sim::cli::FlagTable shared_flags = opt.shared.table();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      usage();
      return 0;
    }
    if (std::strcmp(argv[i], "--watch") == 0) {
      opt.watch_seconds = 2.0;
      continue;
    }
    bool matched = sim::cli::match_flag(kProgram, argv[i], shared_flags);
    for (const auto& section : sections) {
      matched = matched || sim::cli::match_flag(kProgram, argv[i],
                                                section.second);
    }
    if (!matched) sim::cli::unknown_flag(kProgram, argv[i]);
  }
  // run_campaign's own output defaults, then the shared implications:
  // --stats-interval alone writes intervals.csv, --rel alone rel.csv.
  if (opt.shared.stats_interval != 0 && opt.shared.intervals_out.empty()) {
    opt.shared.intervals_out = "intervals.csv";
  }
  const bool rel_output = !opt.rel_csv.empty() || !opt.rel_json.empty() ||
                          !opt.rel_intervals.empty();
  if (opt.shared.rel && !rel_output) opt.rel_csv = "rel.csv";
  opt.shared.imply(rel_output);

  if (!opt.farm_status_dir.empty()) {
    if (opt.worker || !opt.farm_dir.empty()) {
      std::fprintf(stderr,
                   "--farm-status is a standalone mode (no --farm/--worker)\n");
      return 2;
    }
    return run_farm_status_mode(opt);
  }
  if (opt.worker) {
    if (!opt.farm_dir.empty()) {
      std::fprintf(stderr, "--worker and --farm are mutually exclusive\n");
      return 2;
    }
    if (!opt.shared.serve.empty()) {
      std::fprintf(stderr,
                   "--serve belongs to the coordinator, in-process, or "
                   "--farm-status invocation, not to workers\n");
      return 2;
    }
    return run_worker_mode(opt);
  }
  if (opt.resume && opt.farm_dir.empty()) {
    std::fprintf(stderr, "--resume only applies to --farm mode\n");
    return 2;
  }

  sim::CampaignSpec spec;
  spec.trials = opt.trials == 0 ? 1 : opt.trials;
  spec.base_seed = opt.seed;
  spec.derive_seeds = spec.trials > 1 || opt.seed_given;
  if (opt.schemes.empty()) {
    for (core::Scheme s : core::Scheme::all_paper_schemes()) {
      std::string label = s.name;
      spec.variants.emplace_back(std::move(label), std::move(s));
    }
  } else {
    for (const std::string& name : split_csv(opt.schemes)) {
      spec.variants.emplace_back(name, scheme_by_name(name));
    }
  }
  opt.shared.apply(spec);
  if (spec.trace.enabled()) {
    if (!opt.apps.empty()) {
      std::fprintf(stderr,
                   "--trace replaces the app axis with trace interval "
                   "shards; drop --apps\n");
      return 2;
    }
    spec.trace.shard_instructions = opt.shard_instructions;
    try {
      sim::resolve_trace_campaign(spec);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "run_campaign: %s\n", error.what());
      return 1;
    }
  } else if (opt.shard_instructions != 0) {
    std::fprintf(stderr, "--shard-instructions requires --trace=FILE\n");
    return 2;
  } else if (opt.apps.empty()) {
    spec.apps = trace::all_apps();
  } else {
    for (const std::string& name : split_csv(opt.apps)) {
      spec.apps.push_back(app_by_name(name));
    }
  }
  if (spec.variants.empty() ||
      (spec.apps.empty() && !spec.trace.enabled())) {
    std::fprintf(stderr, "empty scheme or app list\n");
    return 2;
  }

  // Geometry sweep: cross every scheme variant with the requested dL1
  // geometry/way-disable cells before the grid is hashed or sharded.
  spec.geometry.sizes = parse_u32_list("--dl1-sizes", opt.dl1_sizes);
  spec.geometry.assocs = parse_u32_list("--dl1-assocs", opt.dl1_assocs);
  spec.geometry.ways_disabled =
      parse_u32_list("--ways-disabled", opt.ways_disabled);
  try {
    sim::expand_geometry_sweep(spec);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "run_campaign: %s\n", error.what());
    return 2;
  }

  if (!opt.farm_dir.empty()) {
    // Telemetry/rel/prof extracts are per-cell in-memory objects; the farm
    // checkpoints only the exported metric schema, so those flags have no
    // farm equivalent yet. Reject loudly rather than silently dropping.
    if (spec.obs.any() || spec.rel.enabled || opt.shared.prof) {
      std::fprintf(stderr,
                   "--farm does not support the telemetry/rel/prof flags; "
                   "run those in-process\n");
      return 2;
    }
    const unsigned workers =
        opt.workers_given ? opt.workers : sim::resolve_thread_count(0);
    Options farm_opt = opt;
    farm_opt.workers = workers;
    return run_coordinator_mode(farm_opt, spec, argv[0]);
  }

  sim::CampaignRunner runner(opt.threads);
  std::unique_ptr<sim::farm::CampaignStatusSource> serve_source;
  std::unique_ptr<obs::http::Server> serve_server;
  if (!opt.shared.serve.empty()) {
    try {
      sim::farm::ServeOptions serve_options;
      sim::farm::parse_serve_spec(opt.shared.serve, &serve_options);
      serve_source = std::make_unique<sim::farm::CampaignStatusSource>(
          spec.cell_count(), spec.instructions);
      serve_server =
          sim::farm::start_status_server(*serve_source, serve_options);
      std::printf("serving campaign status on %s\n",
                  serve_server->url().c_str());
      std::fflush(stdout);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "run_campaign: %s\n", error.what());
      return 2;
    }
  }
  if (opt.progress || serve_source != nullptr) {
    sim::ProgressOptions progress = runner.progress();
    progress.enabled = progress.enabled || opt.progress;
    if (serve_source != nullptr) {
      progress.live_cells_done = &serve_source->cells_done();
    }
    runner.with_progress(progress);
  }
  const std::size_t app_axis = spec.app_axis();
  std::printf("campaign: %zu scheme(s) x %zu %s x %u trial(s) = %zu "
              "cells on %u thread(s)\n",
              spec.variants.size(), app_axis,
              spec.trace.enabled() ? "trace shard(s)" : "app(s)", spec.trials,
              spec.cell_count(), runner.threads());

  if (opt.shared.prof) obs::prof::begin_capture();
  const sim::CampaignResult campaign = runner.run(spec);
  if (serve_source != nullptr) serve_source->finish();

  if (!opt.quiet) {
    // Summary: cycles per (scheme, app), averaged over trials.
    std::vector<std::string> columns = {"benchmark"};
    for (const auto& v : spec.variants) columns.push_back(v.label);
    TextTable table("execution cycles (mean over trials)",
                    std::move(columns));
    for (std::size_t a = 0; a < app_axis; ++a) {
      std::vector<double> row;
      for (std::size_t v = 0; v < spec.variants.size(); ++v) {
        double sum = 0.0;
        for (std::uint32_t t = 0; t < spec.trials; ++t) {
          sum += static_cast<double>(
              campaign.at(v, a, t, app_axis, spec.trials).result.cycles);
        }
        row.push_back(sum / static_cast<double>(spec.trials));
      }
      table.add_numeric_row(spec.trace.enabled()
                                ? sim::trace_shard_label(spec, a)
                                : trace::to_string(spec.apps[a]),
                            row, 0);
    }
    table.print();
  }

  if (spec.sampling.enabled() && !campaign.cells.empty()) {
    double coverage = 0.0;
    for (const sim::CellResult& cell : campaign.cells) {
      coverage += cell.sampling.coverage();
    }
    coverage /= static_cast<double>(campaign.cells.size());
    std::printf("sampling: warmup %llu, %u window(s) (%s), mean detailed "
                "coverage %.1f%% — metrics are estimates\n",
                static_cast<unsigned long long>(
                    spec.sampling.warmup_instructions),
                spec.sampling.windows, sim::to_string(spec.sampling.mode),
                100.0 * coverage);
  }
  std::printf("%zu cells in %.2fs wall (%.2f cells/sec), config hash "
              "%016llx, base seed %016llx\n",
              campaign.cells.size(), campaign.meta.wall_seconds,
              campaign.meta.cells_per_second,
              static_cast<unsigned long long>(campaign.meta.config_hash),
              static_cast<unsigned long long>(campaign.meta.base_seed));

  using sim::cli::write_output;
  try {
    write_output(opt.csv_path, [&] { return sim::to_csv(campaign); });
    write_output(opt.json_path,
                 [&] { return sim::to_json(campaign, !opt.no_timing); });
    opt.shared.write_outputs(campaign);
    write_output(opt.rel_csv, [&] { return sim::rel_to_csv(campaign); });
    write_output(opt.rel_json, [&] { return sim::rel_to_json(campaign); });
    write_output(opt.rel_intervals,
                 [&] { return sim::rel_intervals_to_csv(campaign); });
    // Capture ends after the exports so ResultsIO zones are included; each
    // campaign cell shows up as a labelled span in the trace.
    if (opt.shared.prof) opt.shared.finish_profile(kProgram, stdout);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "export failed: %s\n", error.what());
    return 1;
  }
  return 0;
}
