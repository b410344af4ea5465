// Metric assembly and the benchmark's output format.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simbench/ledger.h"
#include "simbench/workload.h"

namespace simbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// End-to-end metrics from the untraced pass (host time unless stated).
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const PassResult& untraced,
                                                     double peak_rss_mib);

// Everything the traced run measures about the layers.
struct LayerInputs {
  const Workload* workload = nullptr;
  const PassResult* untraced = nullptr;
  const PassResult* traced = nullptr;
  std::vector<LayerCosts> costs;  // per cell, from drive_layers
  double rel_overhead_frac = 0.0;
  double failed_frac = 0.0;
};
[[nodiscard]] std::vector<Metric> per_layer_metrics(const LayerInputs& in);

// Order-sensitive FNV-1a digest over every cell's counter_vector.
[[nodiscard]] std::uint64_t counter_digest(
    const std::vector<icr::sim::RunResult>& results);

// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mib();

// "metric <name> <value> <unit>" lines for people; the last line of the
// benchmark's stdout is the JSON object from result_json().
[[nodiscard]] std::string metric_lines(const std::vector<Metric>& metrics);
[[nodiscard]] std::string result_json(bool correct, std::size_t attempted,
                                      std::size_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace simbench
