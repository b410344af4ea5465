// Exact-output oracle: a campaign's exports compared, cell by cell, with a
// checked-in reference (results/degraded_geometry_sweep.{csv,json}).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/sim/campaign.h"

namespace simbench {

// A campaign export cut at cell boundaries: head + cells[0..n) + tail is the
// whole text, and cells[i] is exactly the bytes cell i contributes.
struct ExportParts {
  std::string head;
  std::vector<std::string> cells;
  std::string tail;

  [[nodiscard]] std::string joined() const;
};

// Built through the same streaming functions sim::to_csv and
// sim::to_json(…, false) use, so joined() equals their output.
[[nodiscard]] ExportParts csv_parts(const icr::sim::CampaignResult& campaign);
[[nodiscard]] ExportParts json_parts(const icr::sim::CampaignResult& campaign);

// Per cell: true when its bytes differ from `reference` at the same offset.
// A difference in the head, the tail or the total length marks every cell:
// the reference can no longer be aligned to cells.
[[nodiscard]] std::vector<bool> mismatched_cells(const ExportParts& produced,
                                                 const std::string& reference);

}  // namespace simbench
