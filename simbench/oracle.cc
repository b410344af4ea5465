#include "simbench/oracle.h"

#include "src/sim/results_io.h"

namespace simbench {

using icr::sim::CampaignResult;
using icr::sim::CellResult;

std::string ExportParts::joined() const {
  std::string out = head;
  for (const std::string& cell : cells) out += cell;
  return out + tail;
}

ExportParts csv_parts(const CampaignResult& campaign) {
  const bool sampled = campaign.meta.sampling.enabled();
  ExportParts parts;
  parts.head = icr::sim::results_csv_header(sampled, campaign.meta.geometry);
  for (const CellResult& cell : campaign.cells) {
    std::string row;
    icr::sim::append_results_csv_row(
        row, cell.result.scheme, cell.result.app, cell.cell.trial_idx,
        cell.cell.seed, icr::sim::metric_values(cell.result),
        sampled ? &cell.sampling : nullptr,
        campaign.meta.geometry ? &cell.geometry : nullptr);
    parts.cells.push_back(std::move(row));
  }
  return parts;
}

ExportParts json_parts(const CampaignResult& campaign) {
  const bool sampled = campaign.meta.sampling.enabled();
  ExportParts parts;
  parts.head = icr::sim::results_json_prologue(
      campaign.meta, campaign.cells.size(), /*include_timing=*/false);
  for (std::size_t i = 0; i < campaign.cells.size(); ++i) {
    const CellResult& cell = campaign.cells[i];
    std::string item;
    icr::sim::append_results_json_cell(
        item, cell.result.scheme, cell.result.app, cell.cell.trial_idx,
        cell.cell.seed, icr::sim::metric_values(cell.result),
        sampled ? &cell.sampling : nullptr, i + 1 == campaign.cells.size(),
        campaign.meta.geometry ? &cell.geometry : nullptr);
    parts.cells.push_back(std::move(item));
  }
  parts.tail = icr::sim::results_json_epilogue();
  return parts;
}

std::vector<bool> mismatched_cells(const ExportParts& produced,
                                   const std::string& reference) {
  const std::size_t n = produced.cells.size();
  const std::string text = produced.joined();
  if (text.size() != reference.size() ||
      reference.compare(0, produced.head.size(), produced.head) != 0 ||
      reference.compare(text.size() - produced.tail.size(),
                        produced.tail.size(), produced.tail) != 0) {
    return std::vector<bool>(n, true);
  }
  std::vector<bool> mismatched(n, false);
  std::size_t offset = produced.head.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& cell = produced.cells[i];
    mismatched[i] = reference.compare(offset, cell.size(), cell) != 0;
    offset += cell.size();
  }
  return mismatched;
}

}  // namespace simbench
