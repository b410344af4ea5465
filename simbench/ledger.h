// Isolating drivers for the per-layer cost ledger.
//
// Each driver replays one cell's own instruction stream — its addresses,
// store values and fetch PCs, regenerated from the cell's WorkloadProfile —
// into fresh objects through public calls only, and reports host
// nanoseconds per operation. Multiplying those by the cell's in-situ
// operation counts (its RunResult) attributes host time to layers; what the
// drivers leave unexplained of the traced Simulator::run time is the
// residual of the out-of-order core (src/cpu).
#pragma once

#include <cstdint>

#include "simbench/workload.h"
#include "src/sim/metrics.h"

namespace simbench {

// Host ns per operation for one cell. Zero where the cell never performs
// the operation (tick_ns without an injector).
struct LayerCosts {
  double load_ns = 0.0;           // IcrCache::load, nested hierarchy work incl.
  double store_ns = 0.0;          // IcrCache::store, likewise
  double victim_search_ns = 0.0;  // IcrCache::select_replica_victim
  double fetch_block_ns = 0.0;    // MemoryHierarchy::fetch_block
  double write_back_ns = 0.0;     // MemoryHierarchy::write_back_block
  double ifetch_ns = 0.0;         // MemoryHierarchy::ifetch
  double backing_word_ns = 0.0;   // BackingStore::read_word / write_word
  double secded_encode_ns = 0.0;  // secded_encode
  double secded_decode_ns = 0.0;  // secded_decode
  double parity_ns = 0.0;         // byte_parity
  double tick_ns = 0.0;           // FaultInjector::tick on the warmed dL1
};

// Replays up to `max_records` instructions of the cell's stream. `insitu`
// supplies the cell's CPI, so replayed accesses carry realistic cycle
// stamps (decay windows and scrub deadlines behave as in the run).
[[nodiscard]] LayerCosts drive_layers(const CellPlan& plan,
                                      const icr::sim::RunResult& insitu,
                                      std::uint64_t max_records);

// In-situ host ns one cell spends per layer: the driver costs times the
// run's operation counts.
//   core  = dL1 loads and stores, minus the hierarchy work nested in them
//   mem   = L2 fills and writebacks with their backing-store words, plus
//           instruction fetch
//   fault = one injector tick per simulated cycle
struct LayerNs {
  double core = 0.0;
  double mem = 0.0;
  double fault = 0.0;
};
[[nodiscard]] LayerNs attribute(const LayerCosts& costs,
                                const icr::sim::RunResult& insitu,
                                std::uint32_t words_per_line);

}  // namespace simbench
