// Region hotness tracking with gradual cooling.
//
// Hot pages do not become cold instantaneously (§3.1): hotness is an
// exponentially-decayed accumulation of per-window sample counts
// (HeMem-style: halve on window boundary, add fresh samples), so regions age
// hot -> warm -> cold across windows. The percentile helper implements the
// percentile-based thresholding the evaluation uses instead of static
// thresholds (§8.1).
#ifndef SRC_TELEMETRY_HOTNESS_H_
#define SRC_TELEMETRY_HOTNESS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace tierscape {

class HotnessTable {
 public:
  // Registers a region so it is tracked (and reported cold) even if it never
  // produces a sample.
  void Track(std::uint64_t region);

  // Ages all tracked regions (halves hotness), then folds in the window's
  // sample counts.
  void EndWindow(const std::unordered_map<std::uint64_t, std::uint32_t>& window_samples);

  double Hotness(std::uint64_t region) const;

  // Hotness value at the given percentile (0..100) across tracked regions.
  double Percentile(double pct) const;

  // All tracked regions with their hotness, sorted by region id.
  std::vector<std::pair<std::uint64_t, double>> Snapshot() const;

  std::size_t tracked_regions() const { return hotness_.size(); }
  std::uint64_t windows_seen() const { return windows_seen_; }

 private:
  std::unordered_map<std::uint64_t, double> hotness_;
  std::uint64_t windows_seen_ = 0;
};

}  // namespace tierscape

#endif  // SRC_TELEMETRY_HOTNESS_H_
