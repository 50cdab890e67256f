#include "perfbench/src/layer_trace.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "src/common/logging.h"

namespace perfbench {
namespace {

using tierscape::Algorithm;
using tierscape::MetricSnapshot;
using tierscape::RegistrySnapshot;

double Percentile(std::vector<std::int64_t> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return static_cast<double>(samples[rank]);
}

double Sum(const std::vector<std::int64_t>& samples) {
  return static_cast<double>(std::accumulate(samples.begin(), samples.end(), std::int64_t{0}));
}

double Ratio(double part, double base) { return base == 0.0 ? 0.0 : part / base; }

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::uint64_t Count(const RegistrySnapshot& snapshot, std::string_view name) {
  const MetricSnapshot* metric = snapshot.Find(name);
  return metric == nullptr ? 0 : metric->count;
}

}  // namespace

int LayerTracer::Begin(std::string_view name, std::string detail) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::string(name), parent, NowNs(), 0, std::move(detail)});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void LayerTracer::End(int span) {
  TS_CHECK(!open_.empty() && open_.back() == span) << "span ended out of order";
  spans_[span].end_ns = NowNs();
  open_.pop_back();
  if (spans_[span].name == "cell") {
    // The cell's coverage: its direct child spans plus its per-op samples.
    double covered = static_cast<double>(cell_sample_ns_);
    for (std::size_t i = span + 1; i < spans_.size(); ++i) {
      if (spans_[i].parent == span) {
        covered += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
      }
    }
    const double wall = static_cast<double>(spans_[span].end_ns - spans_[span].start_ns);
    max_cell_unattributed_pct_ =
        std::max(max_cell_unattributed_pct_, 100.0 * (wall - covered) / wall);
    cell_sample_ns_ = 0;
  }
}

int LayerTracer::Add(std::string_view name, std::int64_t start_ns, std::int64_t end_ns) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::string(name), parent, start_ns, end_ns, {}});
  return static_cast<int>(spans_.size()) - 1;
}

void LayerTracer::OnOp(bool faulted, std::int64_t ns) {
  (faulted ? fault_op_ns_ : op_ns_).push_back(ns);
  cell_sample_ns_ += ns;
}

void LayerTracer::OnObserve(std::int64_t ns) {
  observe_ns_.push_back(ns);
  cell_sample_ns_ += ns;
}

void LayerTracer::OnDecide(bool analytical, std::int64_t start_ns, std::int64_t end_ns) {
  // The window span that caused this Decide is recorded once Observe
  // returns; OnWindow re-parents the pending Decide spans under it.
  pending_decides_.push_back(Add(analytical ? "solver.decide" : "core.decide", start_ns, end_ns));
  const std::int64_t ns = end_ns - start_ns;
  if (analytical) {
    decide_ns_.push_back(ns);
  } else {
    other_decide_ns_ += ns;
  }
  window_decide_ns_ += ns;
}

void LayerTracer::OnWindow(std::int64_t start_ns, std::int64_t end_ns,
                           const RegistrySnapshot& delta) {
  const int window = Add("core.window", start_ns, end_ns);
  for (const int decide : pending_decides_) {
    spans_[decide].parent = window;
  }
  pending_decides_.clear();
  const std::int64_t ns = end_ns - start_ns;
  window_ns_.push_back(ns);
  window_self_ns_ += ns - window_decide_ns_;
  window_decide_ns_ = 0;
  const std::uint64_t migrated = Count(delta, "engine/migrate/pages");
  if (migrated > 0) {
    migrating_window_ns_ += ns;
    window_migrated_pages_ += migrated;
  }
}

void LayerTracer::OnCellCounts(const RegistrySnapshot& delta, const tierscape::TierTable& tiers) {
  // Zpool metrics are scoped by tier label; map each to its pool manager.
  std::map<std::string, std::string, std::less<>> pool_of_tier;
  for (int t = 0; t < tiers.count(); ++t) {
    if (tiers.tier(t).compressed != nullptr) {
      pool_of_tier[tiers.tier(t).label] = std::string(tierscape::PoolManagerName(
          tiers.tier(t).compressed->config().pool_manager));
    }
  }
  for (const MetricSnapshot& metric : delta.metrics) {
    const std::string_view name = metric.name;
    if (metric.kind != tierscape::MetricKind::kCounter) {
      continue;
    }
    const double value = static_cast<double>(metric.count);
    if (StartsWith(name, "zswap/")) {
      for (const char* field : {"/stores", "/loads", "/rejects"}) {
        if (EndsWith(name, field)) {
          counts_[std::string("zswap") + field] += value;
        }
      }
    } else if (StartsWith(name, "zpool/")) {
      const std::string_view rest = name.substr(6);
      const std::string_view label = rest.substr(0, rest.find('/'));
      const auto pool = pool_of_tier.find(label);
      if (pool != pool_of_tier.end()) {
        counts_["zpool/" + pool->second + std::string(rest.substr(label.size()))] += value;
      }
    } else {
      counts_[std::string(name)] += value;
    }
  }
}

void LayerTracer::OnCell(std::int64_t wall_ns, std::int64_t setup_ns, std::uint64_t ops) {
  cell_ns_ += wall_ns;
  setup_ns_ += setup_ns;
  ops_ += ops;
}

void LayerTracer::OnCodec(Algorithm algorithm, std::int64_t compress_ns,
                          std::int64_t decompress_ns, std::size_t compressed_bytes) {
  Codec& codec = codecs_[algorithm];
  codec.compress_ns.push_back(compress_ns);
  codec.decompress_ns.push_back(decompress_ns);
  codec.original_bytes += tierscape::kPageSize;
  codec.compressed_bytes += compressed_bytes;
}

void LayerTracer::OnColocation(std::int64_t setup_ns, std::int64_t run_ns, double run_cpu_s,
                               int threads, std::uint64_t arbiter_decisions,
                               double rebalanced_mib) {
  colo_setup_ns_ += setup_ns;
  colo_run_ns_ += run_ns;
  colo_cpu_s_ += run_cpu_s;
  colo_threads_ = threads;
  colo_decisions_ += arbiter_decisions;
  colo_rebalanced_mib_ += rebalanced_mib;
}

double LayerTracer::SpanSumMs(std::string_view name) const {
  double ns = 0.0;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) {
      ns += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  return ns / 1e6;
}

std::vector<LayerMetric> LayerTracer::Report(double overhead_pct, double sim_ops_per_s) const {
  const double passes = std::max(passes_, 1);
  const auto per_pass = [&](double value) { return value / passes; };
  const auto count = [&](const std::string& name) {
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second / passes;
  };

  // Cell coverage: spans directly under a cell span plus the per-op samples.
  double cell_children_ns = 0.0;
  double probe_ns = 0.0;
  for (const SpanRecord& span : spans_) {
    const double ns = static_cast<double>(span.end_ns - span.start_ns);
    if (span.parent >= 0 && spans_[span.parent].name == "cell") {
      cell_children_ns += ns;
    }
    if (span.parent < 0 && span.name == "workloads.footprint_probe") {
      probe_ns += ns;
    }
  }
  const double op_sum = Sum(op_ns_);
  const double fault_op_sum = Sum(fault_op_ns_);
  const double observe_sum = Sum(observe_ns_);
  const double window_sum = Sum(window_ns_);
  const double decide_sum = Sum(decide_ns_);
  const double attributed = cell_children_ns + op_sum + fault_op_sum + observe_sum;
  const double total_ns = static_cast<double>(cell_ns_) + probe_ns;

  const double moved = count("engine/migrate/pages");
  const double attempted =
      moved + count("engine/migrate/rejected") + count("fault/engine/shortfall_pages");
  const double kept = count("filter/kept");
  double dropped = 0.0;
  for (const auto& [name, value] : counts_) {
    if (StartsWith(name, "filter/dropped_")) {
      dropped += value / passes;
    }
  }
  const double hits = count("wall/compress_cache/hits");
  const double lookups = hits + count("wall/compress_cache/misses");
  const double compressor_calls = count("wall/engine/migrate/fanout_compressed");
  const double stores = count("zswap/stores");
  const double rejects = count("zswap/rejects");
  const double solves = count("solver/solves");
  const double ops = per_pass(static_cast<double>(ops_));

  std::vector<LayerMetric> out = {
      {"workloads.construct_ms",
       per_pass(SpanSumMs("workloads.footprint_probe") + SpanSumMs("workloads.construct")), "ms"},
      {"workloads.reserve_ms", per_pass(SpanSumMs("workloads.reserve")), "ms"},
      {"workloads.populate_ms", per_pass(SpanSumMs("workloads.populate")), "ms"},
      {"workloads.ops", ops, "count"},
      {"workloads.op_ns.p50", Percentile(op_ns_, 0.50), "ns"},
      {"workloads.op_ns.p99", Percentile(op_ns_, 0.99), "ns"},
      {"workloads.sim_ops_per_s", sim_ops_per_s, "1/s"},
      {"core.assembly_ms", per_pass(SpanSumMs("core.assembly")), "ms"},
      {"core.daemon_construct_ms", per_pass(SpanSumMs("core.daemon_construct")), "ms"},
      {"tiering.engine_construct_ms", per_pass(SpanSumMs("tiering.engine_construct")), "ms"},
      {"tiering.place_initial_ms", per_pass(SpanSumMs("tiering.place_initial")), "ms"},
      {"tiering.fault_ops", per_pass(static_cast<double>(fault_op_ns_.size())), "count"},
      {"tiering.faults", count("engine/faults"), "count"},
      {"tiering.fault_op_us.p50", Percentile(fault_op_ns_, 0.50) / 1e3, "us"},
      {"tiering.fault_op_us.p99", Percentile(fault_op_ns_, 0.99) / 1e3, "us"},
      {"tiering.migrated_pages", moved, "count"},
      {"tiering.migrate_attempted_pages", attempted, "count"},
      {"tiering.migrate_rejected_ratio", Ratio(count("engine/migrate/rejected"), attempted),
       "ratio"},
      {"tiering.host_ns_per_migrated_page",
       Ratio(static_cast<double>(migrating_window_ns_),
             static_cast<double>(window_migrated_pages_)),
       "ns"},
      {"core.windows", per_pass(static_cast<double>(window_ns_.size())), "count"},
      {"core.window_ms.p50", Percentile(window_ns_, 0.50) / 1e6, "ms"},
      {"core.window_ms.p99", Percentile(window_ns_, 0.99) / 1e6, "ms"},
      {"core.window_ms.sum", per_pass(window_sum) / 1e6, "ms"},
      {"core.window_self_ms.sum", per_pass(static_cast<double>(window_self_ns_)) / 1e6, "ms"},
      {"core.policy_decide_ms.sum", per_pass(static_cast<double>(other_decide_ns_)) / 1e6, "ms"},
      {"core.filter_decisions", kept + dropped, "count"},
      {"core.filter_kept_ratio", Ratio(kept, kept + dropped), "ratio"},
      {"telemetry.observe_ns.p50", Percentile(observe_ns_, 0.50), "ns"},
      {"telemetry.observe_ns.p99", Percentile(observe_ns_, 0.99), "ns"},
      {"telemetry.samples", count("daemon/samples"), "count"},
      {"solver.decide_ms.sum", per_pass(decide_sum) / 1e6, "ms"},
      {"solver.decide_ms.p99", Percentile(decide_ns_, 0.99) / 1e6, "ms"},
      {"solver.solves", solves, "count"},
      {"solver.cells", count("solver/cells"), "count"},
      {"solver.warm_ratio", Ratio(count("solver/warm_solves"), solves), "ratio"},
      {"compress.cache_lookups", lookups, "count"},
      {"compress.cache_hit_ratio", Ratio(hits, lookups), "ratio"},
      {"compress.cache_evictions", count("wall/compress_cache/evictions"), "count"},
      {"compress.compressor_calls", compressor_calls, "count"},
  };
  for (const Algorithm algorithm :
       {Algorithm::kLz4, Algorithm::kLzo, Algorithm::kZstd, Algorithm::kDeflate}) {
    const std::string prefix = "compress." + std::string(tierscape::AlgorithmName(algorithm));
    const auto it = codecs_.find(algorithm);
    const Codec empty;
    const Codec& codec = it == codecs_.end() ? empty : it->second;
    out.push_back({prefix + ".compress_ns_per_page", Percentile(codec.compress_ns, 0.5), "ns"});
    out.push_back(
        {prefix + ".decompress_ns_per_page", Percentile(codec.decompress_ns, 0.5), "ns"});
    out.push_back({prefix + ".ratio",
                   Ratio(static_cast<double>(codec.original_bytes),
                         static_cast<double>(codec.compressed_bytes)),
                   "ratio"});
  }
  const std::vector<LayerMetric> rest = {
      {"compress.probe_pages", per_pass(static_cast<double>(page_fill_ns_.size())), "count"},
      {"compress.page_fill_ns", Percentile(page_fill_ns_, 0.5), "ns"},
      {"compress.checksum_ns", Percentile(checksum_ns_, 0.5), "ns"},
      {"zswap.stores", stores, "count"},
      {"zswap.loads", count("zswap/loads"), "count"},
      {"zswap.rejects", rejects, "count"},
      {"zswap.reject_ratio", Ratio(rejects, stores + rejects), "ratio"},
      {"zpool.zbud.allocs", count("zpool/zbud/allocs"), "count"},
      {"zpool.zbud.frees", count("zpool/zbud/frees"), "count"},
      {"zpool.zbud.failed_allocs", count("zpool/zbud/failed_allocs"), "count"},
      {"zpool.zsmalloc.allocs", count("zpool/zsmalloc/allocs"), "count"},
      {"zpool.zsmalloc.frees", count("zpool/zsmalloc/frees"), "count"},
      {"zpool.zsmalloc.failed_allocs", count("zpool/zsmalloc/failed_allocs"), "count"},
      {"multitenant.setup_ms", per_pass(static_cast<double>(colo_setup_ns_)) / 1e6, "ms"},
      {"multitenant.run_s", per_pass(static_cast<double>(colo_run_ns_)) / 1e9, "s"},
      {"multitenant.arbiter_decisions", per_pass(static_cast<double>(colo_decisions_)), "count"},
      {"multitenant.rebalanced_mib", per_pass(colo_rebalanced_mib_), "MiB"},
      {"multitenant.pool_threads", static_cast<double>(colo_threads_), "count"},
      {"multitenant.parallel_efficiency",
       Ratio(colo_cpu_s_, static_cast<double>(colo_run_ns_) / 1e9 * colo_threads_), "ratio"},
      {"host.ns_per_op", Ratio(per_pass(op_sum + fault_op_sum + observe_sum + window_sum), ops),
       "ns"},
      {"host.ns_per_fault", Ratio(per_pass(fault_op_sum), count("engine/faults")), "ns"},
      {"host.ns_per_compressor_call",
       Ratio(per_pass(static_cast<double>(window_self_ns_)), compressor_calls), "ns"},
      {"share.setup_pct", 100.0 * Ratio(static_cast<double>(setup_ns_) + probe_ns, total_ns),
       "%"},
      {"share.windows_pct", 100.0 * Ratio(window_sum, total_ns), "%"},
      {"share.decide_pct",
       100.0 * Ratio(decide_sum + static_cast<double>(other_decide_ns_), total_ns), "%"},
      {"share.fault_ops_pct", 100.0 * Ratio(fault_op_sum, total_ns), "%"},
      {"trace.overhead_pct", overhead_pct, "%"},
      {"trace.unattributed_pct",
       100.0 * Ratio(static_cast<double>(cell_ns_) - attributed, static_cast<double>(cell_ns_)),
       "%"},
      {"trace.unattributed_pct.max", max_cell_unattributed_pct_, "%"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

std::string LayerTracer::SpansJsonl() const {
  std::string out;
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"detail\":\"%s\",\"start_ns\":%lld,"
                  "\"dur_ns\":%lld}\n",
                  i, span.parent, span.name.c_str(), span.detail.c_str(),
                  static_cast<long long>(span.start_ns),
                  static_cast<long long>(span.end_ns - span.start_ns));
    out += line;
  }
  return out;
}

}  // namespace perfbench
