// simbench: the simulator benchmark (see README.md).
//
//   simbench --workload NAME --seed N --seconds S --trace 0|1
//            [--results DIR] [--spans FILE]
//
// --trace 0 times the workload untraced and prints the end-to-end metrics;
// --trace 1 adds a traced pass, the isolating-driver ledger and (fault_rel)
// a rel-off rerun, and prints the per-layer metrics. Either way the last
// stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}; "correct" is false when any output check failed. Exit
// status 0 when the run completed, 2 on bad arguments or a missing input.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "simbench/ledger.h"
#include "simbench/report.h"
#include "simbench/stats.h"
#include "simbench/workload.h"
#include "src/util/fs.h"

using namespace simbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string results = "results";
  std::string spans;
};

// Alternating tracker-on / tracker-off repetitions behind rel.overhead_frac.
constexpr int kRelPairs = 2;
// Instructions of each cell's stream the ledger drivers replay.
constexpr std::uint64_t kLedgerRecords = 500'000;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--results DIR] [--spans FILE]\n"
               "workloads:",
               why);
  for (const std::string& n : workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 0);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--results") {
      a.results = value;
    } else if (flag == "--spans") {
      a.spans = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (std::find(workload_names().begin(), workload_names().end(), a.workload) ==
      workload_names().end()) {
    usage(("unknown workload " + a.workload).c_str());
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace takes 0 or 1");
  if (!(a.seconds > 0.0) || a.seconds > 60.0) {
    usage("--seconds must be in (0, 60]");
  }
  return a;
}

// Time from nothing to a Simulator that can run its first instruction:
// grid construction, expansion and config hash, then the first cell's
// Simulator (rel tracker included).
double setup_once(const Args& args) {
  const std::int64_t t0 = now_ns();
  const Workload w = make_workload(args.workload, args.seed);
  const auto sim = build_simulator(w.cells.front());
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    const Workload workload = make_workload(args.workload, args.seed);
    // Campaign cells run on at most four threads, so the pool's memory and
    // the host's cores stay within a small machine.
    const unsigned threads =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    CheckTally checks;
    PassOptions options;
    options.seconds = args.seconds;
    options.threads = threads;
    options.reference_dir = args.results;
    options.setup_sample = [&args] { return setup_once(args); };
    const PassResult untraced = run_pass(workload, options, checks);
    std::printf("workload %s seed %" PRIu64 " config_hash %016" PRIx64
                " cells %zu threads %u reps %zu\n",
                workload.name.c_str(), args.seed, workload.config_hash,
                workload.cells.size(), untraced.threads, untraced.reps);
    std::printf("counter_digest %016" PRIx64 "\n",
                counter_digest(untraced.results));
    const std::size_t n_instr = untraced.instr_ns.size();
    const std::size_t n_cell = untraced.cell_s.size();
    std::printf("samples instr_ns %zu (%zu beyond p90) cell_s %zu (%zu "
                "beyond p90)\n",
                n_instr, samples_beyond(n_instr, 90), n_cell,
                samples_beyond(n_cell, 90));

    std::vector<Metric> metrics;
    if (args.trace == 0) {
      metrics = end_to_end_metrics(untraced, peak_rss_mib());
    } else {
      SpanLog spans;
      // The traced pass and the rel-off rerun get half the budget each
      // (still at least one whole repetition), keeping a traced run within
      // about twice an untraced one.
      PassOptions traced_options = options;
      traced_options.setup_sample = nullptr;
      traced_options.seconds = options.seconds / 2;
      traced_options.traced = true;
      traced_options.spans = &spans;
      const PassResult traced = run_pass(workload, traced_options, checks);
      for (std::size_t i = 0; i < workload.cells.size(); ++i) {
        checks.note(same_counters(traced.results[i], untraced.results[i]),
                    workload.cells[i].label +
                        ": traced counters differ from untraced");
      }

      LayerInputs in;
      in.workload = &workload;
      in.untraced = &untraced;
      in.traced = &traced;
      in.costs.resize(workload.cells.size());
      run_indexed(workload.cells.size(), threads, [&](std::size_t i) {
        in.costs[i] = drive_layers(workload.cells[i], untraced.results[i],
                                   kLedgerRecords);
      });

      if (workload.spec.rel.enabled) {
        // The same cells with the tracker off, in alternating single
        // repetitions with it on so host drift hits both alike: the
        // tracker's cost, and proof that it never changes the simulation.
        Workload rel_off = workload;
        rel_off.spec.rel.enabled = false;
        for (CellPlan& plan : rel_off.cells) plan.rel.enabled = false;
        PassOptions one_rep = options;
        one_rep.setup_sample = nullptr;
        one_rep.seconds = 1e-9;
        double on_s = 0.0;
        double off_s = 0.0;
        for (int pair = 0; pair < kRelPairs; ++pair) {
          const PassResult on = run_pass(workload, one_rep, checks);
          const PassResult off = run_pass(rel_off, one_rep, checks);
          for (std::size_t i = 0; i < workload.cells.size(); ++i) {
            checks.note(same_counters(off.results[i], untraced.results[i]),
                        workload.cells[i].label +
                            ": rel tracker changed counters");
            on_s += on.cell_s[i];
            off_s += off.cell_s[i];
          }
        }
        in.rel_overhead_frac = (on_s - off_s) / on_s;
      }
      in.failed_frac =
          static_cast<double>(checks.failed) /
          static_cast<double>(std::max<std::size_t>(checks.attempted, 1));
      metrics = per_layer_metrics(in);

      std::fputs(spans.self_time_table().c_str(), stdout);
      if (!args.spans.empty()) {
        icr::util::fs::atomic_write_text_file(args.spans, spans.to_json());
      }
    }

    for (const std::string& failure : checks.failures) {
      std::printf("check failed: %s\n", failure.c_str());
    }
    std::printf("checked cells %zu, failed %zu\n", checks.attempted,
                checks.failed);
    std::fputs(metric_lines(metrics).c_str(), stdout);
    std::printf("%s\n", result_json(checks.failed == 0, checks.attempted,
                                    checks.failed, metrics)
                            .c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "simbench: %s\n", error.what());
    return 2;
  }
}
