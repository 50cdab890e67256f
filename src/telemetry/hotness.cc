#include "src/telemetry/hotness.h"

#include <algorithm>

#include "src/common/histogram.h"

namespace tierscape {

void HotnessTable::Track(std::uint64_t region) { hotness_.try_emplace(region, 0.0); }

void HotnessTable::EndWindow(
    const std::unordered_map<std::uint64_t, std::uint32_t>& window_samples) {
  ++windows_seen_;
  for (auto& [region, value] : hotness_) {
    value *= 0.5;  // EWMA cooling: halve per window (§3.1 gradual cooling; DESIGN.md §2)
  }
  for (const auto& [region, count] : window_samples) {
    hotness_[region] += static_cast<double>(count);
  }
}

double HotnessTable::Hotness(std::uint64_t region) const {
  auto it = hotness_.find(region);
  return it == hotness_.end() ? 0.0 : it->second;
}

double HotnessTable::Percentile(double pct) const {
  if (hotness_.empty()) {
    return 0.0;
  }
  std::vector<double> values;
  values.reserve(hotness_.size());
  for (const auto& [region, value] : hotness_) {
    values.push_back(value);
  }
  return ExactPercentile(std::move(values), pct / 100.0);
}

std::vector<std::pair<std::uint64_t, double>> HotnessTable::Snapshot() const {
  std::vector<std::pair<std::uint64_t, double>> out(hotness_.begin(), hotness_.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace tierscape
