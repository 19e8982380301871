#include "stats.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>
#include <stdexcept>

namespace perfbench {

double nearest_rank(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("nearest_rank: no samples");
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("nearest_rank: percentile outside (0, 100]");
  }
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(p / 100.0 * n)));
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double fastest_decile(const std::vector<double>& chunk_values, bool lower_is_better) {
  if (lower_is_better) return nearest_rank(chunk_values, 10.0);
  // The same rank counted from the top: nearest-rank p90 of n values is
  // not the mirror of p10 unless 10 divides n.
  std::vector<double> negated;
  negated.reserve(chunk_values.size());
  for (const double v : chunk_values) negated.push_back(-v);
  return -nearest_rank(std::move(negated), 10.0);
}

double median_normalized(const std::vector<double>& raw, const std::vector<double>& slowdown) {
  if (raw.size() != slowdown.size()) {
    throw std::invalid_argument("median_normalized: one slowdown per pass");
  }
  std::vector<double> normalized;
  normalized.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) normalized.push_back(raw[i] / slowdown[i]);
  return nearest_rank(std::move(normalized), 50.0);
}

double maxrss_kib_to_mib(long maxrss_kib) {
  return static_cast<double>(maxrss_kib) / 1024.0;
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: ru_maxrss survives execve, so a
  // process started by a larger parent (the Python launcher) would report
  // the parent's footprint.
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return maxrss_kib_to_mib(std::stol(line.substr(6)));
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double p90_p10_ratio(const std::vector<double>& chunk_seconds) {
  return nearest_rank(chunk_seconds, 90.0) / nearest_rank(chunk_seconds, 10.0);
}

}  // namespace perfbench
