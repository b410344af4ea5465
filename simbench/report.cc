#include "simbench/report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "simbench/stats.h"
#include "src/sim/metrics.h"

namespace simbench {

using icr::sim::RunResult;

namespace {

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double d(std::uint64_t v) { return static_cast<double>(v); }

// Sum of one field over every cell.
template <typename Fn>
double total(const std::vector<RunResult>& results, Fn&& field) {
  double sum = 0.0;
  for (const RunResult& r : results) sum += static_cast<double>(field(r));
  return sum;
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::vector<Metric> end_to_end_metrics(const PassResult& u, double peak_rss) {
  return {
      {"sim_mips", u.mips, "Minstr/s"},
      {"instr_ns_p50", percentile(u.instr_ns, 50), "ns"},
      {"instr_ns_p90", percentile(u.instr_ns, 90), "ns"},
      {"cell_s_p50", percentile(u.cell_s, 50), "s"},
      {"cell_s_p90", percentile(u.cell_s, 90), "s"},
      {"setup_s", median(u.setup_s), "s"},
      {"peak_rss_mb", peak_rss, "MiB"},
  };
}

std::vector<Metric> per_layer_metrics(const LayerInputs& in) {
  using R = const RunResult&;
  const Workload& w = *in.workload;
  const PassResult& u = *in.untraced;
  const PassResult& t = *in.traced;
  const std::vector<RunResult>& rs = u.results;
  std::vector<Metric> m;
  auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  auto sum = [&rs](auto field) { return total(rs, field); };
  auto count = [&](const char* name, auto field) {
    add(name, sum(field), "count");
  };
  auto frac = [&](const char* name, auto num, auto den) {
    add(name, ratio(sum(num), sum(den)), "ratio");
  };

  // Model counts over the cells of one repetition.
  const double committed = sum([](R r) { return r.instructions; });
  const double cycles = sum([](R r) { return r.cycles; });
  add("cpu.cycles", cycles, "cycles");
  add("cpu.committed", committed, "instr");
  add("cpu.cpi", ratio(cycles, committed), "cycles/instr");
  add("cpu.fetch_stall_cycles",
      sum([](R r) { return r.pipeline.fetch_stall_cycles; }), "cycles");
  frac("cpu.mispredict_rate",
       [](R r) { return r.pipeline.mispredicted_branches; },
       [](R r) { return r.pipeline.branches; });
  count("cpu.forwarded_loads", [](R r) { return r.pipeline.forwarded_loads; });
  count("core.loads", [](R r) { return r.dl1.loads; });
  count("core.stores", [](R r) { return r.dl1.stores; });
  frac("core.miss_rate", [](R r) { return r.dl1.misses(); },
       [](R r) { return r.dl1.accesses(); });
  count("core.replication_opportunities",
        [](R r) { return r.dl1.replication_opportunities; });
  frac("core.replication_ability",
       [](R r) { return r.dl1.replication_successes; },
       [](R r) { return r.dl1.replication_opportunities; });
  frac("core.site_search_failure_frac",
       [](R r) { return r.dl1.site_search_failures; },
       [](R r) { return r.dl1.site_searches; });
  count("core.replicas_created", [](R r) { return r.dl1.replicas_created; });
  count("core.replica_updates", [](R r) { return r.dl1.replica_updates; });
  count("core.evictions", [](R r) { return r.dl1.evictions; });
  count("core.writebacks", [](R r) { return r.dl1.writebacks; });
  frac("core.loads_with_replica_frac",
       [](R r) { return r.dl1.loads_with_replica; },
       [](R r) { return r.dl1.load_hits; });
  count("core.errors_detected", [](R r) { return r.dl1.errors_detected; });
  count("core.recovered_replica",
        [](R r) { return r.dl1.errors_corrected_by_replica; });
  count("core.recovered_ecc",
        [](R r) { return r.dl1.errors_corrected_by_ecc; });
  count("core.unrecoverable_loads",
        [](R r) { return r.dl1.unrecoverable_loads; });
  count("core.scrub_corrections", [](R r) { return r.dl1.scrub_corrections; });
  count("coding.parity_computations",
        [](R r) { return r.dl1.parity_computations; });
  count("coding.ecc_computations", [](R r) { return r.dl1.ecc_computations; });
  frac("mem.l1i_miss_rate", [](R r) { return r.l1i.misses; },
       [](R r) { return r.l1i.accesses; });
  count("mem.l2_reads", [](R r) { return r.energy_events.l2_reads; });
  count("mem.l2_writes", [](R r) { return r.energy_events.l2_writes; });
  frac("mem.l2_miss_rate", [](R r) { return r.l2.misses; },
       [](R r) { return r.l2.accesses; });
  double memory_accesses = 0.0;
  for (const std::uint64_t a : t.memory_accesses) memory_accesses += d(a);
  add("mem.memory_accesses", memory_accesses, "count");
  count("fault.injections", [](R r) { return r.faults.injections; });
  frac("fault.observed_frac", [](R r) { return r.faults.observed(); },
       [](R r) { return r.faults.injections; });
  const double silent = sum([](R r) { return r.faults.silent; });
  add("fault.silent", silent, "count");
  count("fault.corrected", [](R r) { return r.faults.corrected; });
  count("fault.replica_recovered",
        [](R r) { return r.faults.replica_recovered; });
  count("fault.detected_uncorrectable",
        [](R r) { return r.faults.detected_uncorrectable; });
  // Predicted over observed silent verdicts; with no observed silent
  // verdict the prediction itself (the expected count) is reported.
  double silent_pred = 0.0;
  for (const double p : t.rel_silent_pred) silent_pred += p;
  add("rel.silent_pred_over_obs",
      silent == 0.0 ? silent_pred : silent_pred / silent, "ratio");
  add("energy.total_nj", sum([](R r) { return r.energy.total_nj(); }), "nJ");
  add("host.ns_per_sim_cycle", ratio(u.busy_s * 1e9, d(u.cycles)),
      "ns/cycle");
  add("failed_frac", in.failed_frac, "ratio");

  // Host cost of the traced run: trace generation through the decorator,
  // everything else under Simulator::run.
  const double trace_ns = ratio(t.trace_s * 1e9, d(t.committed));
  const double self_s = t.run_s - t.trace_s;
  const double run_self = ratio(self_s * 1e9, d(t.committed));
  add("trace.records", ratio(d(t.trace_records), d(t.reps)), "count");
  add("trace.ns_per_record", ratio(t.trace_s * 1e9, d(t.trace_records)),
      "ns");
  add("sim.run_self_ns_per_instr", run_self, "ns");
  add("sim.run_self_ns_per_cycle", ratio(self_s * 1e9, d(t.cycles)), "ns");

  // Ledger: driver costs times in-situ counts. Per-operation figures are
  // averaged over cells, weighted by how often each cell does the operation.
  LayerCosts avg;
  LayerNs layer;
  double n_load = 0, n_store = 0, n_fill = 0, n_fetch = 0, n_word = 0;
  double n_tick = 0;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const LayerCosts& c = in.costs[i];
    const RunResult& r = rs[i];
    const std::uint32_t wpl = w.cells[i].config.dl1.words_per_line();
    const LayerNs ns = attribute(c, r, wpl);
    layer.core += ns.core;
    layer.mem += ns.mem;
    layer.fault += ns.fault;
    const double loads = d(r.dl1.loads);
    const double stores = d(r.dl1.stores);
    const double fills = d(r.dl1.misses());
    const double fetches = d(r.l1i.accesses);
    const double words = fills * wpl + stores;
    const double ticks = c.tick_ns > 0.0 ? d(r.cycles) : 0.0;
    avg.load_ns += c.load_ns * loads;
    avg.store_ns += c.store_ns * stores;
    avg.victim_search_ns += c.victim_search_ns * stores;
    avg.secded_encode_ns += c.secded_encode_ns * stores;
    avg.secded_decode_ns += c.secded_decode_ns * stores;
    avg.parity_ns += c.parity_ns * stores;
    avg.fetch_block_ns += c.fetch_block_ns * fills;
    avg.ifetch_ns += c.ifetch_ns * fetches;
    avg.backing_word_ns += c.backing_word_ns * words;
    avg.tick_ns += c.tick_ns * ticks;
    n_load += loads;
    n_store += stores;
    n_fill += fills;
    n_fetch += fetches;
    n_word += words;
    n_tick += ticks;
  }
  add("core.load_ns", ratio(avg.load_ns, n_load), "ns");
  add("core.store_ns", ratio(avg.store_ns, n_store), "ns");
  add("core.victim_search_ns", ratio(avg.victim_search_ns, n_store), "ns");
  add("mem.fetch_block_ns", ratio(avg.fetch_block_ns, n_fill), "ns");
  add("mem.ifetch_ns", ratio(avg.ifetch_ns, n_fetch), "ns");
  add("mem.backing_word_ns", ratio(avg.backing_word_ns, n_word), "ns");
  add("coding.secded_encode_ns", ratio(avg.secded_encode_ns, n_store), "ns");
  add("coding.secded_decode_ns", ratio(avg.secded_decode_ns, n_store), "ns");
  add("coding.parity_ns", ratio(avg.parity_ns, n_store), "ns");
  add("fault.tick_ns", ratio(avg.tick_ns, n_tick), "ns");
  add("rel.overhead_frac", in.rel_overhead_frac, "ratio");

  // Per committed instruction of one repetition. The rel tracker's cost is
  // its overhead share of the untraced cell time.
  const double core = ratio(layer.core, committed);
  const double mem = ratio(layer.mem, committed);
  const double fault = ratio(layer.fault, committed);
  const double rel =
      in.rel_overhead_frac * ratio(u.busy_s * 1e9, d(u.committed));
  const double residual = run_self - core - mem - fault - rel;
  const double whole = trace_ns + run_self;
  add("cpu.residual_ns_per_instr", residual, "ns");
  add("ledger.trace_share", ratio(trace_ns, whole), "ratio");
  add("ledger.core_share", ratio(core + fault + rel, whole), "ratio");
  add("ledger.mem_share", ratio(mem, whole), "ratio");
  add("ledger.cpu_share", ratio(std::max(0.0, residual), whole), "ratio");
  // Drivers that together claim more than the measured run time leave a
  // negative residual; that excess is what the split cannot place.
  add("ledger.unexplained_frac", ratio(std::max(0.0, -residual), whole),
      "ratio");

  // Campaign layer (untraced): export, pool use, stragglers.
  const double threads = u.threads;
  add("sim.export_ms", median(u.export_ms), "ms");
  add("sim.pool_busy_frac", ratio(u.busy_s, u.wall_s * threads), "ratio");
  add("sim.straggler_s", ratio(u.wall_s - u.busy_s / threads, d(u.reps)),
      "s");
  add("sim.trace_overhead_frac", ratio(u.mips - t.mips, u.mips), "ratio");
  return m;
}

std::uint64_t counter_digest(const std::vector<RunResult>& results) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const RunResult& r : results) {
    for (const std::uint64_t v : icr::sim::counter_vector(r)) {
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xFF;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

double peak_rss_mib() {
  // VmHWM is the high-water mark of this program's own address space.
  // ru_maxrss would also carry the parent's peak across fork + exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

std::string metric_lines(const std::vector<Metric>& metrics) {
  std::string out;
  for (const Metric& m : metrics) {
    out += "metric " + m.name + " " + format_value(m.value) + " " + m.unit +
           "\n";
  }
  return out;
}

std::string result_json(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           format_value(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

}  // namespace simbench
