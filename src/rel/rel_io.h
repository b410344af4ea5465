// Serialization of analytical reliability reports.
//
// Summary CSV schema (one row per run/cell; documented in
// docs/RELIABILITY.md and golden-tested in tests/rel_tracker_test.cc):
//
//   variant,app,trial,supported,cycles,clock_ghz,probability,word_cycles,
//   total_exposure,exp_parity_clean,exp_parity_dirty,exp_replicated_clean,
//   exp_replicated_dirty,exp_ecc_clean,exp_ecc_dirty,coef_corrected,
//   coef_replica_recovered,coef_detected_uncorrectable,coef_silent,
//   coef_scrub,coef_unobserved,coef_deposited,open_exposure,
//   pending_residual,vf_corrected,vf_replica_recovered,
//   vf_detected_uncorrectable,vf_uncorrected,expected_corrected,
//   expected_replica_recovered,expected_detected_uncorrectable,
//   expected_silent
//
// where the expected_* columns evaluate the coefficients at the report's
// echoed probability (all zero when p = 0).
//
// Interval CSV schema (lifetime-interval taxonomy, one row per populated
// class):
//
//   variant,app,trial,start,end,state,count,cycles,exposure
#pragma once

#include <string>

#include "src/obs/obs_io.h"
#include "src/rel/rel_model.h"

namespace icr::rel {

// ---- summary CSV ----
[[nodiscard]] std::string summary_csv_header();
void append_summary_csv_row(std::string& out, const RelReport& report,
                            const obs::CellTag& tag);

// ---- interval-class CSV ----
[[nodiscard]] std::string intervals_csv_header();
void append_intervals_csv_rows(std::string& out, const RelReport& report,
                               const obs::CellTag& tag);

// ---- JSON ----
// Appends one JSON object for the report (same fields as the summary CSV
// plus the interval table), indented by `indent` spaces, no trailing
// newline. Used by sim::rel_to_json and icr_sim's --rel-out export.
void append_json_object(std::string& out, const RelReport& report,
                        const obs::CellTag& tag, int indent);

// Human-readable breakdown for terminal reports (icr_sim --rel and the
// rel_vulnerability_factor bench).
[[nodiscard]] std::string format_report(const RelReport& report);

}  // namespace icr::rel
