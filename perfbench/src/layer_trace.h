// Host-time tracing for the benchmark's traced run. Spans wrap the
// benchmark's own calls into each layer's public API (src/workloads,
// src/tiering, src/core, src/solver, src/compress, src/multitenant); nothing
// inside src/ is instrumented. Coarse spans (set-up steps, windows, Decide)
// are kept as records; the per-op calls, of which there are hundreds of
// thousands, are kept as duration samples. Counts come from the cell's
// MetricsRegistry, read at the same boundaries.
#ifndef PERFBENCH_SRC_LAYER_TRACE_H_
#define PERFBENCH_SRC_LAYER_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/compress/compressor.h"
#include "src/core/analytical.h"
#include "src/core/baselines.h"
#include "src/core/waterfall.h"
#include "src/obs/metrics.h"
#include "src/tiering/tier_table.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;
  int parent = -1;  // index of the span that caused it; -1 = none
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string detail;  // the cell label for cell spans, else empty
};

// A named measurement with its unit, as the result line reports it.
struct LayerMetric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

class LayerTracer {
 public:
  // Opens a span as a child of the innermost open span; returns its index.
  int Begin(std::string_view name, std::string detail = {});
  void End(int span);

  // Per-op samples from the measured loop.
  void OnOp(bool faulted, std::int64_t ns);
  void OnObserve(std::int64_t ns);
  // An Observe call that closed a window, with the registry delta over it.
  void OnWindow(std::int64_t start_ns, std::int64_t end_ns,
                const tierscape::RegistrySnapshot& delta);
  // Called by the timed policies from inside Decide.
  void OnDecide(bool analytical, std::int64_t start_ns, std::int64_t end_ns);

  // Measured-phase registry delta of one cell (set-up end to cell end).
  void OnCellCounts(const tierscape::RegistrySnapshot& delta, const tierscape::TierTable& tiers);
  // One cell's wall time, set-up time and measured-phase op count.
  void OnCell(std::int64_t wall_ns, std::int64_t setup_ns, std::uint64_t ops);

  // Codec probe samples.
  void OnPageFill(std::int64_t ns) { page_fill_ns_.push_back(ns); }
  void OnChecksum(std::int64_t ns) { checksum_ns_.push_back(ns); }
  void OnCodec(tierscape::Algorithm algorithm, std::int64_t compress_ns,
               std::int64_t decompress_ns, std::size_t compressed_bytes);

  // Colocation cell.
  void OnColocation(std::int64_t setup_ns, std::int64_t run_ns, double run_cpu_s, int threads,
                    std::uint64_t arbiter_decisions, double rebalanced_mib);

  // Closes a traced pass (count sums are reported per pass).
  void EndPass() { ++passes_; }

  // Every per-layer metric, averaged per traced pass. The caller measures
  // two on its untraced passes: `overhead_pct`, traced vs untraced wall, and
  // `sim_ops_per_s`, simulated ops per host second of the measured phase.
  std::vector<LayerMetric> Report(double overhead_pct, double sim_ops_per_s) const;

  // The span records as JSON lines (one object per span).
  std::string SpansJsonl() const;

 private:
  struct Codec {
    std::vector<std::int64_t> compress_ns;
    std::vector<std::int64_t> decompress_ns;
    std::uint64_t original_bytes = 0;
    std::uint64_t compressed_bytes = 0;
  };

  // Records a span that already happened (the caller timed it).
  int Add(std::string_view name, std::int64_t start_ns, std::int64_t end_ns);
  double SpanSumMs(std::string_view name) const;

  std::vector<SpanRecord> spans_;
  std::vector<int> open_;             // stack of open span indices
  std::vector<int> pending_decides_;  // Decide spans awaiting their window span

  std::vector<std::int64_t> op_ns_;
  std::vector<std::int64_t> fault_op_ns_;
  std::vector<std::int64_t> observe_ns_;
  std::vector<std::int64_t> window_ns_;
  std::vector<std::int64_t> decide_ns_;  // analytical (solver) decides
  std::int64_t other_decide_ns_ = 0;     // threshold policies' decides
  std::int64_t window_decide_ns_ = 0;    // Decide time inside the open window
  std::int64_t window_self_ns_ = 0;
  std::int64_t migrating_window_ns_ = 0;  // windows that migrated pages
  std::uint64_t window_migrated_pages_ = 0;

  std::map<std::string, double> counts_;  // summed registry deltas

  std::int64_t cell_ns_ = 0;
  std::int64_t setup_ns_ = 0;
  std::int64_t cell_sample_ns_ = 0;   // per-op samples inside the open cell
  double max_cell_unattributed_pct_ = 0.0;
  std::uint64_t ops_ = 0;

  std::vector<std::int64_t> page_fill_ns_;
  std::vector<std::int64_t> checksum_ns_;
  std::map<tierscape::Algorithm, Codec> codecs_;

  std::int64_t colo_setup_ns_ = 0;
  std::int64_t colo_run_ns_ = 0;
  double colo_cpu_s_ = 0.0;
  int colo_threads_ = 0;
  std::uint64_t colo_decisions_ = 0;
  double colo_rebalanced_mib_ = 0.0;

  int passes_ = 0;
};

// Decide timing by subclassing, never wrapping: TsDaemon dynamic_casts its
// policy to AnalyticalPolicy to wire warm start, sharding and the fault
// injector, so a wrapper would silently change the results.
template <typename Policy>
class Timed : public Policy {
 public:
  template <typename... Args>
  explicit Timed(LayerTracer& tracer, Args&&... args)
      : Policy(std::forward<Args>(args)...), tracer_(tracer) {}

  tierscape::StatusOr<tierscape::PlacementDecision> Decide(
      const tierscape::PlacementInput& input, const tierscape::CostModel& model,
      const tierscape::DecisionContext& ctx) override {
    const std::int64_t start = NowNs();
    auto decision = Policy::Decide(input, model, ctx);
    tracer_.OnDecide(std::is_base_of_v<tierscape::AnalyticalPolicy, Policy>, start, NowNs());
    return decision;
  }

 private:
  LayerTracer& tracer_;
};

using TimedAnalytical = Timed<tierscape::AnalyticalPolicy>;
using TimedWaterfall = Timed<tierscape::WaterfallPolicy>;
using TimedTwoTier = Timed<tierscape::TwoTierPolicy>;

// RAII span; a no-op when `tracer` is null (the untraced run).
class Span {
 public:
  Span(LayerTracer* tracer, std::string_view name)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->Begin(name) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End(index_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerTracer* tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYER_TRACE_H_
