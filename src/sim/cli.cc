#include "src/sim/cli.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>

#include "src/obs/interval_sampler.h"
#include "src/obs/prof.h"
#include "src/obs/prof_io.h"

namespace icr::sim::cli {

bool parse_flag(const char* arg, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    out = arg + len + 1;
    return true;
  }
  return false;
}

void unknown_flag(const char* program, const char* arg) {
  std::fprintf(stderr, "%s: unknown flag '%s' (run with --help for the flag "
                       "list)\n",
               program, arg);
  std::exit(2);
}

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    if (comma > start) items.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return items;
}

core::Scheme scheme_by_name(const std::string& name) {
  for (core::Scheme s : core::Scheme::all_paper_schemes()) {
    if (s.name == name) return s;
  }
  if (name == "BaseECC-spec") return core::Scheme::BaseECCSpeculative();
  std::fprintf(stderr, "unknown scheme '%s'\n", name.c_str());
  std::exit(2);
}

trace::App app_by_name(const std::string& name) {
  for (const trace::App a : trace::all_apps()) {
    if (name == trace::to_string(a)) return a;
  }
  std::fprintf(stderr, "unknown app '%s'\n", name.c_str());
  std::exit(2);
}

fault::FaultModel fault_by_name(const std::string& name) {
  using M = fault::FaultModel;
  for (const M m : {M::kRandom, M::kAdjacent, M::kColumn, M::kDirect}) {
    if (name == fault::to_string(m)) return m;
  }
  std::fprintf(stderr, "unknown fault model '%s'\n", name.c_str());
  std::exit(2);
}

core::ReplicaVictimPolicy victim_by_name(const std::string& name) {
  using P = core::ReplicaVictimPolicy;
  for (const P p :
       {P::kDeadOnly, P::kDeadFirst, P::kReplicaFirst, P::kReplicaOnly}) {
    if (name == core::to_string(p)) return p;
  }
  std::fprintf(stderr, "unknown victim policy '%s'\n", name.c_str());
  std::exit(2);
}

SampleMode sample_mode_by_name(const std::string& name) {
  for (const SampleMode m : {SampleMode::kSystematic, SampleMode::kRandom}) {
    if (name == to_string(m)) return m;
  }
  std::fprintf(stderr, "unknown sample mode '%s'\n", name.c_str());
  std::exit(2);
}

mem::WayDisableConfig::Pattern way_pattern_by_name(const std::string& name) {
  using P = mem::WayDisableConfig::Pattern;
  for (const P p : {P::kFixed, P::kRandom}) {
    if (name == mem::way_pattern_name(p)) return p;
  }
  std::fprintf(stderr, "unknown way pattern '%s' (fixed|random)\n",
               name.c_str());
  std::exit(2);
}

namespace {

[[noreturn]] void bad_value(const char* program, const char* flag,
                            const char* expected, const std::string& text) {
  std::fprintf(stderr, "%s: %s expects %s, got '%s'\n", program, flag,
               expected, text.c_str());
  std::exit(2);
}

// strtoull over the whole text; false on junk, sign, or overflow.
bool whole_number(const std::string& text, int base, std::uint64_t& out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text.c_str(), &end, base);
  return errno == 0 && *end == '\0';
}

}  // namespace

std::uint64_t parse_u64(const char* program, const char* flag,
                        const std::string& text, int base) {
  std::uint64_t value = 0;
  if (!whole_number(text, base, value)) {
    bad_value(program, flag, "a whole number", text);
  }
  return value;
}

std::uint32_t parse_u32(const char* program, const char* flag,
                        const std::string& text, int base) {
  const std::uint64_t value = parse_u64(program, flag, text, base);
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    bad_value(program, flag, "a whole number below 2^32", text);
  }
  return static_cast<std::uint32_t>(value);
}

double parse_double(const char* program, const char* flag,
                    const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || errno != 0 || !std::isfinite(value)) {
    bad_value(program, flag, "a number", text);
  }
  return value;
}

std::uint32_t parse_size(const char* program, const char* flag,
                         const std::string& text) {
  std::string digits = text;
  std::uint64_t scale = 1;
  if (!digits.empty() && (digits.back() == 'K' || digits.back() == 'k')) {
    scale = 1024;
  } else if (!digits.empty() &&
             (digits.back() == 'M' || digits.back() == 'm')) {
    scale = 1024 * 1024;
  }
  if (scale != 1) digits.pop_back();
  std::uint64_t value = 0;
  if (!whole_number(digits, 10, value) ||
      value > std::numeric_limits<std::uint32_t>::max() / scale) {
    bad_value(program, flag, "a size like 8192, 8K or 1M", text);
  }
  return static_cast<std::uint32_t>(value * scale);
}

bool match_flag(const char* program, const char* arg, const FlagTable& table) {
  for (const Flag& flag : table) {
    std::string text;
    if (flag.value == nullptr ? std::strcmp(arg, flag.name) != 0
                              : !parse_flag(arg, flag.name, text)) {
      continue;
    }
    if (flag.given != nullptr) *flag.given = true;
    std::visit(
        [&](auto* target) {
          using T = std::remove_pointer_t<decltype(target)>;
          if constexpr (std::is_same_v<T, bool>) {
            *target = true;
          } else if constexpr (std::is_same_v<T, std::string>) {
            *target = text;
          } else if constexpr (std::is_same_v<T, double>) {
            *target = parse_double(program, flag.name, text);
          } else if constexpr (std::is_same_v<T, std::uint32_t>) {
            *target = parse_u32(program, flag.name, text, flag.base);
          } else {
            *target = parse_u64(program, flag.name, text, flag.base);
          }
        },
        flag.target);
    return true;
  }
  return false;
}

void print_flags(const FlagTable& table) {
  for (const Flag& flag : table) {
    std::string left = flag.name;
    if (flag.value != nullptr) left += std::string("=") + flag.value;
    std::printf("  %-21s ", left.c_str());
    for (const char* c = flag.help; *c != '\0'; ++c) {
      if (*c == '\n') {
        std::printf("\n%24s", "");
      } else {
        std::putchar(*c);
      }
    }
    std::putchar('\n');
  }
}

FlagTable SharedFlags::table() {
  return {
      {"--trace", "FILE", &trace,
       "replay a recorded ICRT trace instead of the synthetic\n"
       "app (docs/TRACES.md)"},
      {"--instructions", "N", &instructions,
       "instructions per run (default: ICR_SIM_INSTRUCTIONS,\n"
       "else 1M; run_campaign --trace: the whole trace)"},
      {"--window", "N", &window,
       "dead-block decay window in cycles (default 0)"},
      {"--warmup", "N", &warmup,
       "functional warmup for N instructions before measuring\n"
       "(docs/SAMPLING.md)"},
      {"--sample-windows", "K", &sample_windows,
       "interval sampling: measure K windows; metrics become\n"
       "weighted whole-run estimates"},
      {"--sample-width", "N", &sample_width,
       "instructions per window (default: budget/10K)"},
      {"--sample-mode", "M", &sample_mode,
       "systematic|random window placement"},
      {"--sample-seed", "S", &sample_seed,
       "placement stream for --sample-mode=random; each cell\n"
       "derives its own from it and the campaign seed", 0},
      {"--fault-model", "M", &fault_model, "random|adjacent|column|direct"},
      {"--fault-prob", "P", &fault_prob,
       "per-cycle injection probability (default 0)"},
      {"--way-pattern", "P", &way_pattern,
       "fixed|random placement of disabled ways"},
      {"--way-seed", "S", &way_seed,
       "per-set draw seed for --way-pattern=random", 0},
      {"--stats-interval", "N", &stats_interval,
       "telemetry every N instructions (default 100000 when\n"
       "--intervals-out or --heatmap-out is set)"},
      {"--intervals-out", "FILE", &intervals_out,
       "write the per-interval telemetry CSV"},
      {"--heatmap-out", "FILE", &heatmap_out,
       "write the per-set replica occupancy CSV"},
      {"--trace-out", "FILE", &trace_out, "write the NDJSON event trace"},
      {"--trace-filter", "LIST", &trace_filter,
       "traced categories: replication,eviction,fault,decay\n"
       "or 'all' (default)"},
      {"--rel", nullptr, &rel,
       "analytical reliability model (src/rel); any rel output\n"
       "turns it on"},
      {"--prof", nullptr, &prof,
       "profile the simulator itself: host-side self-time table"},
      {"--prof-out", "FILE", &prof_out,
       "write the capture as Chrome trace-event JSON (open in\n"
       "Perfetto; implies --prof)"},
      {"--serve", "[ADDR:]PORT", &serve,
       "embedded HTTP status server (docs/SERVING.md): GET /\n"
       "/healthz /status /metrics /events; binds 127.0.0.1\n"
       "unless ADDR is given; port 0 picks a free port"},
  };
}

void SharedFlags::imply(bool rel_output) {
  if (!prof_out.empty()) prof = true;
  if (stats_interval == 0 && (!intervals_out.empty() || !heatmap_out.empty())) {
    stats_interval = obs::kDefaultStatsInterval;
  }
  if (rel_output) rel = true;
}

void SharedFlags::apply(CampaignSpec& spec) const {
  spec.instructions = instructions;
  spec.trace.path = trace;
  for (SchemeVariant& variant : spec.variants) {
    variant.scheme = variant.scheme.with_decay_window(window);
  }
  spec.config.fault_model = fault_by_name(fault_model);
  spec.config.fault_probability = fault_prob;
  spec.sampling.warmup_instructions = warmup;
  spec.sampling.windows = sample_windows;
  spec.sampling.window_width = sample_width;
  spec.sampling.mode = sample_mode_by_name(sample_mode);
  spec.sampling.seed = sample_seed;
  spec.geometry.pattern = way_pattern_by_name(way_pattern);
  spec.geometry.way_seed = way_seed;
  spec.obs.stats_interval = stats_interval;
  if (!trace_out.empty()) {
    spec.obs.trace_categories = obs::parse_category_list(trace_filter);
    if (spec.obs.trace_categories == 0) {
      std::fprintf(stderr, "bad --trace-filter '%s'\n", trace_filter.c_str());
      std::exit(2);
    }
  }
  spec.rel.enabled = rel;
  spec.rel.probability = fault_prob;
}

void SharedFlags::write_outputs(const CampaignResult& campaign) const {
  write_output(intervals_out, [&] { return intervals_to_csv(campaign); });
  write_output(heatmap_out, [&] { return occupancy_to_csv(campaign); });
  if (!trace_out.empty()) {
    // The event ring keeps the most recent events; say how many it lost.
    unsigned long long emitted = 0, dropped = 0;
    for (const CellResult& cell : campaign.cells) {
      if (cell.obs == nullptr) continue;
      emitted += cell.obs->trace_emitted;
      dropped += cell.obs->trace_dropped;
    }
    write_text_file(trace_out, trace_to_ndjson(campaign));
    std::printf("wrote %s (%llu events emitted, %llu dropped)\n",
                trace_out.c_str(), emitted, dropped);
  }
}

void SharedFlags::finish_profile(const char* program, std::FILE* out) const {
  const obs::prof::Profile profile = obs::prof::end_capture();
  std::fputs(obs::prof::format_self_time_table(profile).c_str(), out);
  write_output(
      prof_out, [&] { return obs::prof::to_chrome_trace(profile, program); },
      out);
}

void print_shared_flags() {
  std::puts("\nShared with icr_sim / run_campaign (docs/CAMPAIGN.md "
            "\"Shared flags\"):");
  print_flags(SharedFlags{}.table());
}

}  // namespace icr::sim::cli
