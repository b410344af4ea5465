// icr_trace: record, import, convert, and inspect ICRT trace containers.
//
//   icr_trace record --app=gzip --instructions=50000 --out=t.icrt [--v1]
//   icr_trace import --log=accesses.txt --out=t.icrt
//   icr_trace convert --in=old.icrt --out=new.icrt [--v1]
//   icr_trace info FILE
//   icr_trace validate FILE
//
// docs/TRACES.md documents the formats, the import grammar, and how the
// resulting traces feed icr_sim --trace and run_campaign --trace.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "src/sim/cli.h"
#include "src/trace/qemu_import.h"
#include "src/trace/trace_file.h"
#include "src/trace/trace_v2.h"
#include "src/trace/workloads.h"

namespace {

using icr::sim::cli::parse_flag;
using icr::sim::cli::unknown_flag;

constexpr const char* kProgram = "icr_trace";

void print_usage() {
  std::printf(
      "usage: icr_trace <command> [flags]\n"
      "\n"
      "commands:\n"
      "  record    record a synthetic workload into a trace container\n"
      "            --app=NAME --instructions=N --out=FILE\n"
      "            [--seed=S] [--v1] [--raw] [--chunk-records=N]\n"
      "  import    translate a QEMU-TCG-plugin-style access log\n"
      "            (insn/load/store lines) into an ICRT-v2 container\n"
      "            --log=FILE --out=FILE [--raw] [--chunk-records=N]\n"
      "  convert   rewrite a trace between container versions\n"
      "            --in=FILE --out=FILE [--v1] [--raw] [--chunk-records=N]\n"
      "  info      print header-level provenance of a trace file\n"
      "            info FILE\n"
      "  validate  full integrity walk: checksums, index, fingerprint\n"
      "            validate FILE\n"
      "\n"
      "--v1 writes the legacy flat container (whole-file reader); the\n"
      "default is the chunked, seekable ICRT-v2 container. --raw disables\n"
      "v2 delta compression; --chunk-records sets the v2 chunk size\n"
      "(default %u).\n",
      icr::trace::kV2DefaultChunkRecords);
}

void print_info(const icr::trace::TraceInfo& info) {
  std::printf("trace:       %s\n", info.path.c_str());
  std::printf("format:      ICRT-v%u%s\n", info.version,
              info.version == 1 ? " (legacy flat container)" : "");
  std::printf("records:     %" PRIu64 "\n", info.records);
  std::printf("fingerprint: 0x%016" PRIx64 "\n", info.fingerprint);
  const double per_record =
      info.records == 0 ? 0.0
                        : static_cast<double>(info.file_bytes) /
                              static_cast<double>(info.records);
  std::printf("file bytes:  %" PRIu64 " (%.2f bytes/record)\n",
              info.file_bytes, per_record);
  if (info.version >= 2) {
    std::printf("chunks:      %u x %u records (%u raw, %u delta)\n",
                info.chunk_count, info.chunk_records, info.raw_chunks,
                info.delta_chunks);
  }
}

struct CommonFlags {
  bool v1 = false;
  icr::trace::TraceV2Writer::Options v2;
};

// Returns true when `arg` was one of the flags shared by the writing
// commands (--v1 / --raw / --chunk-records).
bool parse_common_flag(const char* arg, CommonFlags& flags) {
  std::string value;
  if (std::string(arg) == "--v1") {
    flags.v1 = true;
    return true;
  }
  if (std::string(arg) == "--raw") {
    flags.v2.delta = false;
    return true;
  }
  if (parse_flag(arg, "--chunk-records", value)) {
    flags.v2.chunk_records =
        icr::sim::cli::parse_u32(kProgram, "--chunk-records", value);
    return true;
  }
  return false;
}

void write_trace(icr::trace::TraceSource& source, std::uint64_t count,
                 const std::string& out, const CommonFlags& flags) {
  if (flags.v1) {
    icr::trace::record_trace(source, count, out);
  } else {
    icr::trace::record_trace_v2(source, count, out, flags.v2);
  }
}

int cmd_record(int argc, char** argv) {
  std::string app_name;
  std::string out;
  std::string value;
  std::uint64_t instructions = 0;
  std::uint64_t seed = 0;
  bool seed_given = false;
  CommonFlags flags;
  for (int i = 0; i < argc; ++i) {
    if (parse_flag(argv[i], "--app", value)) {
      app_name = value;
    } else if (parse_flag(argv[i], "--instructions", value)) {
      instructions =
          icr::sim::cli::parse_u64(kProgram, "--instructions", value);
    } else if (parse_flag(argv[i], "--out", value)) {
      out = value;
    } else if (parse_flag(argv[i], "--seed", value)) {
      seed = icr::sim::cli::parse_u64(kProgram, "--seed", value, 0);
      seed_given = true;
    } else if (!parse_common_flag(argv[i], flags)) {
      unknown_flag(kProgram, argv[i]);
    }
  }
  if (app_name.empty() || out.empty() || instructions == 0) {
    std::fprintf(stderr,
                 "icr_trace record: --app, --instructions and --out are "
                 "required\n");
    return 2;
  }
  icr::trace::WorkloadProfile profile =
      icr::trace::profile_for(icr::sim::cli::app_by_name(app_name));
  if (seed_given) profile.seed = seed;
  icr::trace::SyntheticWorkload workload(profile);
  write_trace(workload, instructions, out, flags);
  std::printf("recorded %" PRIu64 " instructions of %s into %s\n",
              instructions, app_name.c_str(), out.c_str());
  print_info(icr::trace::probe_trace(out));
  return 0;
}

int cmd_import(int argc, char** argv) {
  std::string log;
  std::string out;
  std::string value;
  CommonFlags flags;
  for (int i = 0; i < argc; ++i) {
    if (parse_flag(argv[i], "--log", value)) {
      log = value;
    } else if (parse_flag(argv[i], "--out", value)) {
      out = value;
    } else if (!parse_common_flag(argv[i], flags)) {
      unknown_flag(kProgram, argv[i]);
    }
  }
  if (log.empty() || out.empty()) {
    std::fprintf(stderr, "icr_trace import: --log and --out are required\n");
    return 2;
  }
  if (flags.v1) {
    std::fprintf(stderr,
                 "icr_trace import: imports always write ICRT-v2; use "
                 "'icr_trace convert --v1' to downgrade afterwards\n");
    return 2;
  }
  const icr::trace::ImportStats stats =
      icr::trace::import_qemu_log(log, out, flags.v2);
  std::printf("imported %s: %" PRIu64 " lines -> %" PRIu64
              " records (%" PRIu64 " loads, %" PRIu64 " stores, %" PRIu64
              " branches, %" PRIu64 " lines skipped)\n",
              log.c_str(), stats.lines, stats.records, stats.loads,
              stats.stores, stats.branches, stats.skipped);
  print_info(icr::trace::probe_trace(out));
  return 0;
}

int cmd_convert(int argc, char** argv) {
  std::string in;
  std::string out;
  std::string value;
  CommonFlags flags;
  for (int i = 0; i < argc; ++i) {
    if (parse_flag(argv[i], "--in", value)) {
      in = value;
    } else if (parse_flag(argv[i], "--out", value)) {
      out = value;
    } else if (!parse_common_flag(argv[i], flags)) {
      unknown_flag(kProgram, argv[i]);
    }
  }
  if (in.empty() || out.empty()) {
    std::fprintf(stderr, "icr_trace convert: --in and --out are required\n");
    return 2;
  }
  icr::trace::OpenedTrace opened = icr::trace::open_trace(in);
  write_trace(*opened.source, opened.info.records, out, flags);
  const icr::trace::TraceInfo converted = icr::trace::probe_trace(out);
  if (converted.fingerprint != opened.info.fingerprint) {
    // Both containers hash the same canonical record images, so any
    // difference means the conversion lost data.
    std::fprintf(stderr,
                 "icr_trace convert: fingerprint changed during conversion "
                 "(0x%016" PRIx64 " -> 0x%016" PRIx64 ") — output is wrong\n",
                 opened.info.fingerprint, converted.fingerprint);
    return 1;
  }
  std::printf("converted %s (v%u) -> %s (v%u), fingerprint preserved\n",
              in.c_str(), opened.info.version, out.c_str(),
              converted.version);
  print_info(converted);
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc != 1) {
    std::fprintf(stderr, "icr_trace info: expected exactly one FILE\n");
    return 2;
  }
  print_info(icr::trace::probe_trace(argv[0]));
  return 0;
}

int cmd_validate(int argc, char** argv) {
  if (argc != 1) {
    std::fprintf(stderr, "icr_trace validate: expected exactly one FILE\n");
    return 2;
  }
  const icr::trace::TraceInfo info = icr::trace::validate_trace(argv[0]);
  print_info(info);
  std::printf("validate:    OK (every chunk decoded, checksums and "
              "fingerprint verified)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::string(argv[1]) == "--help" ||
      std::string(argv[1]) == "help") {
    print_usage();
    return argc < 2 ? 2 : 0;
  }
  const std::string command = argv[1];
  try {
    if (command == "record") return cmd_record(argc - 2, argv + 2);
    if (command == "import") return cmd_import(argc - 2, argv + 2);
    if (command == "convert") return cmd_convert(argc - 2, argv + 2);
    if (command == "info") return cmd_info(argc - 2, argv + 2);
    if (command == "validate") return cmd_validate(argc - 2, argv + 2);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "icr_trace %s: %s\n", command.c_str(), error.what());
    return 1;
  }
  std::fprintf(stderr, "icr_trace: unknown command '%s'\n", command.c_str());
  print_usage();
  return 2;
}
