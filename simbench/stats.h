// Sample statistics and the host clock used by every timed figure.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace simbench {

// Host time in nanoseconds (monotonic).
[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile: the smallest sample such that at least
// `percent`% of the samples are at or below it (sorted[ceil(p*n/100) - 1]).
// 0 for an empty sample set.
[[nodiscard]] double percentile(std::vector<double> samples, unsigned percent);

// Middle sample (mean of the two middle samples for an even count).
[[nodiscard]] double median(std::vector<double> samples);

// Samples that lie strictly beyond the nearest-rank `percent` percentile
// position of `n` samples: n - ceil(percent * n / 100).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, unsigned percent);

// Smallest sample count that leaves at least `tail` samples beyond the
// `percent` percentile — the rule that decides how many chunks or cells a
// run must time before it may report that percentile (100 for p90 with a
// tail of 10).
[[nodiscard]] std::size_t samples_needed(std::size_t tail, unsigned percent);

}  // namespace simbench
