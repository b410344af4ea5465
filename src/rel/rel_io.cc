#include "src/rel/rel_io.h"

#include <cstdio>

namespace icr::rel {
namespace {

// Shortest round-trip decimal, matching sim::results_io formatting so mixed
// artifacts diff cleanly.
std::string format_value(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_tag(std::string& out, const obs::CellTag& tag) {
  out += tag.variant;
  out += ',';
  out += tag.app;
  out += ',';
  out += std::to_string(tag.trial);
}

}  // namespace

std::string summary_csv_header() {
  std::string header =
      "variant,app,trial,supported,cycles,clock_ghz,probability,word_cycles,"
      "total_exposure";
  for (std::size_t s = 0; s < kRelStates; ++s) {
    header += ",exp_";
    header += to_string(static_cast<RelState>(s));
  }
  header +=
      ",coef_corrected,coef_replica_recovered,coef_detected_uncorrectable,"
      "coef_silent,coef_scrub,coef_unobserved,coef_deposited,open_exposure,"
      "pending_residual,vf_corrected,vf_replica_recovered,"
      "vf_detected_uncorrectable,vf_uncorrected,expected_corrected,"
      "expected_replica_recovered,expected_detected_uncorrectable,"
      "expected_silent\n";
  return header;
}

void append_summary_csv_row(std::string& out, const RelReport& report,
                            const obs::CellTag& tag) {
  append_tag(out, tag);
  out += ',';
  out += report.model_supported ? '1' : '0';
  out += ',';
  out += std::to_string(report.cycles);
  out += ',';
  out += format_value(report.clock_ghz);
  out += ',';
  out += format_value(report.probability);
  out += ',';
  out += format_value(report.word_cycles);
  out += ',';
  out += format_value(report.total_exposure);
  for (std::size_t s = 0; s < kRelStates; ++s) {
    out += ',';
    out += format_value(report.state_exposure[s]);
  }
  const RelPrediction expected = report.evaluate(report.probability);
  const double values[] = {report.corrected_coef,
                           report.replica_coef,
                           report.detected_coef,
                           report.silent_coef,
                           report.scrub_coef,
                           report.unobserved_coef,
                           report.deposited_coef,
                           report.open_exposure,
                           report.pending_residual,
                           report.vf_corrected(),
                           report.vf_replica_recovered(),
                           report.vf_detected_uncorrectable(),
                           report.vf_uncorrected(),
                           expected.corrected,
                           expected.replica_recovered,
                           expected.detected_uncorrectable,
                           expected.silent};
  for (const double v : values) {
    out += ',';
    out += format_value(v);
  }
  out += '\n';
}

std::string intervals_csv_header() {
  return "variant,app,trial,start,end,state,count,cycles,exposure\n";
}

void append_intervals_csv_rows(std::string& out, const RelReport& report,
                               const obs::CellTag& tag) {
  for (const IntervalClassRow& row : report.intervals) {
    append_tag(out, tag);
    out += ',';
    out += to_string(row.start);
    out += ',';
    out += to_string(row.end);
    out += ',';
    out += to_string(row.state);
    out += ',';
    out += std::to_string(row.count);
    out += ',';
    out += format_value(row.cycles);
    out += ',';
    out += format_value(row.exposure);
    out += '\n';
  }
}

void append_json_object(std::string& out, const RelReport& report,
                        const obs::CellTag& tag, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string pad2(static_cast<std::size_t>(indent) + 2, ' ');
  const std::string pad4(static_cast<std::size_t>(indent) + 4, ' ');
  auto field = [&](const std::string& name, const std::string& value,
                   bool comma = true) {
    out += pad2;
    out += '"';
    out += name;
    out += "\": ";
    out += value;
    if (comma) out += ',';
    out += '\n';
  };
  out += pad;
  out += "{\n";
  field("variant", "\"" + json_escape(tag.variant) + "\"");
  field("app", "\"" + json_escape(tag.app) + "\"");
  field("trial", std::to_string(tag.trial));
  field("supported", report.model_supported ? "true" : "false");
  field("cycles", std::to_string(report.cycles));
  field("clock_ghz", format_value(report.clock_ghz));
  field("probability", format_value(report.probability));
  field("word_cycles", format_value(report.word_cycles));
  field("total_exposure", format_value(report.total_exposure));
  out += pad2;
  out += "\"state_exposure\": {";
  for (std::size_t s = 0; s < kRelStates; ++s) {
    if (s != 0) out += ", ";
    out += '"';
    out += to_string(static_cast<RelState>(s));
    out += "\": ";
    out += format_value(report.state_exposure[s]);
  }
  out += "},\n";
  field("coef_corrected", format_value(report.corrected_coef));
  field("coef_replica_recovered", format_value(report.replica_coef));
  field("coef_detected_uncorrectable", format_value(report.detected_coef));
  field("coef_silent", format_value(report.silent_coef));
  field("coef_scrub", format_value(report.scrub_coef));
  field("coef_unobserved", format_value(report.unobserved_coef));
  field("coef_deposited", format_value(report.deposited_coef));
  field("open_exposure", format_value(report.open_exposure));
  field("pending_residual", format_value(report.pending_residual));
  field("vf_corrected", format_value(report.vf_corrected()));
  field("vf_replica_recovered", format_value(report.vf_replica_recovered()));
  field("vf_detected_uncorrectable",
        format_value(report.vf_detected_uncorrectable()));
  field("vf_uncorrected", format_value(report.vf_uncorrected()));
  const RelPrediction expected = report.evaluate(report.probability);
  field("expected_corrected", format_value(expected.corrected));
  field("expected_replica_recovered",
        format_value(expected.replica_recovered));
  field("expected_detected_uncorrectable",
        format_value(expected.detected_uncorrectable));
  field("expected_silent", format_value(expected.silent));
  out += pad2;
  out += "\"intervals\": [";
  for (std::size_t i = 0; i < report.intervals.size(); ++i) {
    const IntervalClassRow& row = report.intervals[i];
    if (i != 0) out += ',';
    out += '\n';
    out += pad4;
    out += "{\"start\": \"";
    out += to_string(row.start);
    out += "\", \"end\": \"";
    out += to_string(row.end);
    out += "\", \"state\": \"";
    out += to_string(row.state);
    out += "\", \"count\": ";
    out += std::to_string(row.count);
    out += ", \"cycles\": ";
    out += format_value(row.cycles);
    out += ", \"exposure\": ";
    out += format_value(row.exposure);
    out += '}';
  }
  if (!report.intervals.empty()) {
    out += '\n';
    out += pad2;
  }
  out += "]\n";
  out += pad;
  out += '}';
}

std::string format_report(const RelReport& report) {
  char buffer[256];
  std::string out;
  out += "analytical reliability model";
  if (!report.model_supported) out += "  [fault model unsupported]";
  out += '\n';
  std::snprintf(buffer, sizeof buffer,
                "  cycles %llu  word-cycles %.4g  total exposure %.6g\n",
                static_cast<unsigned long long>(report.cycles),
                report.word_cycles, report.total_exposure);
  out += buffer;
  out += "  exposure by protection state:\n";
  for (std::size_t s = 0; s < kRelStates; ++s) {
    if (report.state_cycles[s] == 0.0 && report.state_exposure[s] == 0.0) {
      continue;
    }
    const double share = report.total_exposure > 0.0
                             ? report.state_exposure[s] / report.total_exposure
                             : 0.0;
    std::snprintf(buffer, sizeof buffer, "    %-17s %12.6g  (%5.1f%%)\n",
                  to_string(static_cast<RelState>(s)),
                  report.state_exposure[s], 100.0 * share);
    out += buffer;
  }
  out += "  first-order outcome coefficients (E[count] = coef * p):\n";
  const struct {
    const char* name;
    double coef;
    double vf;
    bool has_vf;
  } rows[] = {
      {"corrected", report.corrected_coef, report.vf_corrected(), true},
      {"replica_recovered", report.replica_coef,
       report.vf_replica_recovered(), true},
      {"detected_uncorrectable", report.detected_coef,
       report.vf_detected_uncorrectable(), true},
      // Silent counts verdicts (one per consuming load of a wrong value),
      // not absorbed strikes, so an exposure-normalized factor is
      // ill-defined for it.
      {"silent", report.silent_coef, 0.0, false},
  };
  for (const auto& row : rows) {
    if (row.has_vf) {
      std::snprintf(buffer, sizeof buffer, "    %-23s %12.6g  vf %.4f\n",
                    row.name, row.coef, row.vf);
    } else {
      std::snprintf(buffer, sizeof buffer, "    %-23s %12.6g\n", row.name,
                    row.coef);
    }
    out += buffer;
  }
  std::snprintf(buffer, sizeof buffer,
                "    %-23s %12.6g  (uncorrected vf %.4f)\n", "deposited_to_l2",
                report.deposited_coef, report.vf_uncorrected());
  out += buffer;
  if (report.scrub_coef != 0.0) {
    std::snprintf(buffer, sizeof buffer, "    %-23s %12.6g\n", "scrubbed",
                  report.scrub_coef);
    out += buffer;
  }
  if (report.probability > 0.0) {
    const RelPrediction e = report.evaluate(report.probability);
    const RelPrediction fit = report.fit(report.probability);
    std::snprintf(buffer, sizeof buffer,
                  "  expected outcomes at p=%.3g per cycle:\n",
                  report.probability);
    out += buffer;
    std::snprintf(buffer, sizeof buffer,
                  "    corrected %.4g  replica %.4g  detected-unc %.4g  "
                  "silent %.4g\n",
                  e.corrected, e.replica_recovered, e.detected_uncorrectable,
                  e.silent);
    out += buffer;
    std::snprintf(buffer, sizeof buffer,
                  "    FIT-style (events/1e9 hours @ %.2f GHz): silent %.4g  "
                  "detected-unc %.4g\n",
                  report.clock_ghz, fit.silent, fit.detected_uncorrectable);
    out += buffer;
  }
  return out;
}

}  // namespace icr::rel
