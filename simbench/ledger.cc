#include "simbench/ledger.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "simbench/stats.h"
#include "src/coding/parity.h"
#include "src/coding/secded.h"
#include "src/core/icr_cache.h"
#include "src/fault/fault_injector.h"
#include "src/mem/memory_hierarchy.h"
#include "src/trace/workloads.h"
#include "src/util/rng.h"

namespace simbench {

namespace {

// Ops per batch-timed coding/victim driver; small enough to stay cheap,
// large enough that the timer reads vanish in the batch.
constexpr std::size_t kBatchOps = 200'000;

// Keeps the optimizer from discarding driver results. Drivers for
// different cells run on different threads, hence atomic.
std::atomic<std::uint64_t> g_sink{0};

void sink(std::uint64_t value) {
  g_sink.fetch_add(value, std::memory_order_relaxed);
}

// Host ns one now_ns() read adds to a per-operation interval, measured as
// the median of a few empty timed loops.
double timer_overhead_ns() {
  static const double overhead = [] {
    std::vector<double> samples;
    for (int rep = 0; rep < 5; ++rep) {
      constexpr int kReads = 100'000;
      std::int64_t sum = 0;
      const std::int64_t t0 = now_ns();
      std::int64_t prev = t0;
      for (int i = 0; i < kReads; ++i) {
        const std::int64_t t = now_ns();
        sum += t - prev;
        prev = t;
      }
      sink(static_cast<std::uint64_t>(sum));
      samples.push_back(static_cast<double>(now_ns() - t0) / kReads);
    }
    return median(samples);
  }();
  return overhead;
}

double per_op(std::int64_t ns, std::size_t ops, double overhead = 0.0) {
  if (ops == 0) return 0.0;
  return std::max(0.0, static_cast<double>(ns) / static_cast<double>(ops) -
                           overhead);
}

// Times `fn` over `ops` operations, repeated until at least kBatchOps ran.
template <typename Fn>
double batch_ns(std::size_t ops, Fn&& fn) {
  if (ops == 0) return 0.0;
  std::size_t done = 0;
  const std::int64_t t0 = now_ns();
  while (done < kBatchOps) {
    fn();
    done += ops;
  }
  return per_op(now_ns() - t0, done);
}

}  // namespace

LayerCosts drive_layers(const CellPlan& plan, const icr::sim::RunResult& insitu,
                        std::uint64_t max_records) {
  using icr::trace::Instruction;
  LayerCosts costs;
  const double cpi = insitu.instructions == 0
                         ? 1.0
                         : static_cast<double>(insitu.cycles) /
                               static_cast<double>(insitu.instructions);

  // The cell's own stream, regenerated from its profile.
  std::vector<Instruction> stream;
  const std::uint64_t records = std::min(plan.instructions, max_records);
  stream.reserve(records);
  icr::trace::SyntheticWorkload generator(plan.profile);
  for (std::uint64_t i = 0; i < records; ++i) {
    stream.push_back(generator.next());
  }

  // dL1: loads and stores in program order into a fresh cache + hierarchy.
  icr::mem::MemoryHierarchy hierarchy(plan.config.hierarchy);
  icr::core::IcrCache dl1(plan.config.dl1, plan.scheme, hierarchy,
                          plan.config.dl1_way_disable);
  const double overhead = timer_overhead_ns();
  std::vector<std::uint64_t> miss_blocks;
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t> store_addrs;
  std::int64_t load_ns = 0;
  std::int64_t store_ns = 0;
  std::size_t loads = 0;
  std::size_t stores = 0;
  std::uint64_t cycle = 0;
  std::int64_t prev = now_ns();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Instruction& in = stream[i];
    if (!in.is_mem()) continue;
    cycle = static_cast<std::uint64_t>(static_cast<double>(i) * cpi);
    const bool is_load = in.is_load();
    const auto outcome =
        is_load ? dl1.load(in.mem_addr, cycle)
                : dl1.store(in.mem_addr, in.store_value, cycle);
    const std::int64_t t = now_ns();
    (is_load ? load_ns : store_ns) += t - prev;
    (is_load ? loads : stores) += 1;
    if (!outcome.hit) {
      miss_blocks.push_back(dl1.geometry().block_address(in.mem_addr));
    }
    if (!is_load) {
      values.push_back(in.store_value);
      store_addrs.push_back(in.mem_addr);
    }
    prev = now_ns();
  }
  costs.load_ns = per_op(load_ns, loads, overhead);
  costs.store_ns = per_op(store_ns, stores, overhead);

  // Replica victim search on the warmed cache, at each store's vertical
  // (N/2) site — masked ways included when the geometry disables some.
  const std::uint32_t sets = dl1.num_sets();
  costs.victim_search_ns = batch_ns(store_addrs.size(), [&] {
    std::uint64_t acc = 0;
    for (const std::uint64_t addr : store_addrs) {
      const std::uint32_t set =
          (dl1.geometry().set_index(addr) + sets / 2) % sets;
      acc += reinterpret_cast<std::uintptr_t>(dl1.select_replica_victim(
          set, dl1.geometry().block_address(addr), cycle));
    }
    sink(acc);
  });

  // Hierarchy: the dL1 miss stream as fills and as writebacks, and the
  // fetch stream as the pipeline issues it (one ifetch per new fetch block).
  {
    icr::mem::MemoryHierarchy fills(plan.config.hierarchy);
    const std::int64_t t0 = now_ns();
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < miss_blocks.size(); ++i) {
      acc += fills.fetch_block(miss_blocks[i], i);
    }
    costs.fetch_block_ns = per_op(now_ns() - t0, miss_blocks.size());
    icr::mem::MemoryHierarchy writebacks(plan.config.hierarchy);
    const std::int64_t t1 = now_ns();
    for (std::size_t i = 0; i < miss_blocks.size(); ++i) {
      acc += writebacks.write_back_block(miss_blocks[i], i);
    }
    costs.write_back_ns = per_op(now_ns() - t1, miss_blocks.size());
    sink(acc);
  }
  {
    icr::mem::MemoryHierarchy fetch(plan.config.hierarchy);
    const icr::mem::CacheGeometry& l1i = fetch.l1i().geometry();
    std::uint64_t current = ~std::uint64_t{0};
    std::size_t ifetches = 0;
    std::uint64_t acc = 0;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::uint64_t block = l1i.block_address(stream[i].pc);
      if (block == current) continue;
      current = block;
      acc += fetch.ifetch(stream[i].pc, i);
      ++ifetches;
    }
    costs.ifetch_ns = per_op(now_ns() - t0, ifetches);
    sink(acc);
  }
  {
    // Backing store: the words each fill reads, then every store's word.
    icr::mem::BackingStore backing;
    const std::uint32_t words = plan.config.dl1.words_per_line();
    std::uint64_t acc = 0;
    const std::int64_t t0 = now_ns();
    for (const std::uint64_t block : miss_blocks) {
      for (std::uint32_t w = 0; w < words; ++w) {
        acc += backing.read_word(block + w * 8ULL);
      }
    }
    for (std::size_t i = 0; i < store_addrs.size(); ++i) {
      backing.write_word(store_addrs[i], values[i]);
    }
    costs.backing_word_ns = per_op(
        now_ns() - t0, miss_blocks.size() * words + store_addrs.size());
    sink(acc);
  }

  // Codes over the stream's store values.
  std::vector<std::uint8_t> checks(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    checks[i] = icr::secded_encode(values[i]);
  }
  costs.secded_encode_ns = batch_ns(values.size(), [&] {
    std::uint64_t acc = 0;
    for (const std::uint64_t v : values) acc += icr::secded_encode(v);
    sink(acc);
  });
  costs.secded_decode_ns = batch_ns(values.size(), [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      acc += icr::secded_decode(values[i], checks[i]).data;
    }
    sink(acc);
  });
  costs.parity_ns = batch_ns(values.size(), [&] {
    std::uint64_t acc = 0;
    for (const std::uint64_t v : values) acc += icr::byte_parity(v);
    sink(acc);
  });

  // Injector: one tick per cycle on the warmed dL1, at the cell's model and
  // probability and from its fault seed.
  if (plan.config.fault_probability > 0.0) {
    icr::fault::FaultInjector injector(plan.config.fault_model,
                                       plan.config.fault_probability,
                                       icr::Rng(plan.config.fault_seed));
    const std::uint64_t ticks =
        std::clamp<std::uint64_t>(insitu.cycles, 1, kBatchOps);
    const std::int64_t t0 = now_ns();
    for (std::uint64_t c = 0; c < ticks; ++c) injector.tick(dl1, cycle + c);
    costs.tick_ns = per_op(now_ns() - t0, ticks);
  }
  return costs;
}

LayerNs attribute(const LayerCosts& c, const icr::sim::RunResult& r,
                  std::uint32_t words_per_line) {
  const double wpl = words_per_line;
  const double nested =
      (c.fetch_block_ns + wpl * c.backing_word_ns) *
          static_cast<double>(r.dl1.misses()) +
      (c.write_back_ns + wpl * c.backing_word_ns) *
          static_cast<double>(r.dl1.writebacks);
  LayerNs ns;
  ns.core = c.load_ns * static_cast<double>(r.dl1.loads) +
            c.store_ns * static_cast<double>(r.dl1.stores) - nested;
  ns.mem = nested + c.ifetch_ns * static_cast<double>(r.l1i.accesses);
  ns.fault = c.tick_ns * static_cast<double>(r.cycles);
  return ns;
}

}  // namespace simbench
