#include "simbench/stats.h"

#include <algorithm>

namespace simbench {

double percentile(std::vector<double> samples, unsigned percent) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t rank = (static_cast<std::size_t>(percent) * n + 99) / 100;
  return samples[rank == 0 ? 0 : rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::size_t samples_beyond(std::size_t n, unsigned percent) {
  return n - (static_cast<std::size_t>(percent) * n + 99) / 100;
}

std::size_t samples_needed(std::size_t tail, unsigned percent) {
  std::size_t n = tail;
  while (samples_beyond(n, percent) < tail) ++n;
  return n;
}

}  // namespace simbench
