#include "bench/experiment_grid.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/obs/export.h"

namespace tierscape {
namespace bench {
namespace {

// All environment reads live in this TU (determinism-quarantine allowlisted):
// the knobs choose thread counts, artifact paths, and smoke scale — never
// anything that feeds virtual-time results.
const char* EnvOrNull(const char* name) { return std::getenv(name); }

// Runs one standard (or custom) cell against its private Observability.
// Called from grid workers: everything it touches is cell-local.
ExperimentResult RunOneCell(const CellSpec& spec, Observability& obs, const CellContext& ctx) {
  if (spec.run) {
    return spec.run(obs, ctx);
  }
  TS_CHECK(spec.make_system != nullptr) << "cell '" << spec.label << "': no system factory";
  auto system = spec.make_system(obs);
  auto workload = MakeWorkload(spec.workload, spec.scale);
  TS_CHECK(workload != nullptr) << "cell '" << spec.label << "': unknown workload '"
                                << spec.workload << "'";
  std::unique_ptr<PlacementPolicy> policy;
  ExperimentConfig config = spec.config;
  if (!spec.policy.dram_only) {
    policy = MakePolicy(spec.policy, *system);
  } else {
    // The all-DRAM reference column is a stated daemon mode (DESIGN.md §4h),
    // not a nullable-policy convention: profile and record, never place.
    config.daemon.mode = DaemonMode::kProfileOnly;
    config.daemon.fast_path.enabled = false;
  }
  if (spec.policy.alpha < 0.0) {
    // The §6.7 migration filter belongs to TierScape's analytical model; the
    // two-tier baselines and Waterfall migrate exactly what their threshold
    // rule says (capacity limits still apply).
    config.daemon.filter.enable_hysteresis = false;
    config.daemon.filter.demotion_benefit_factor = 1e18;
    config.daemon.filter.pressure_fault_limit = ~std::uint64_t{0};
  }
  if (ctx.smoke) {
    config.ops = SmokeOps(config.ops);
  }
  ExperimentResult result = RunExperiment(*system, *workload, policy.get(), config);
  result.policy = spec.policy.label;
  if (spec.inspect) {
    spec.inspect(*system, result);
  }
  return result;
}

}  // namespace

bool BenchSmoke() {
  const char* env = EnvOrNull("TIERSCAPE_BENCH_SMOKE");
  return env != nullptr && env[0] == '1';
}

std::uint64_t SmokeOps(std::uint64_t ops) {
  // Small enough that every bench binary finishes in seconds, large enough
  // that each cell still exercises several daemon windows.
  constexpr std::uint64_t kSmokeOps = 8'000;
  return std::min(ops, kSmokeOps);
}

std::function<std::unique_ptr<TieredSystem>(Observability&)> SystemFactory(SystemConfig config) {
  return [config](Observability& obs) mutable {
    config.obs = &obs;
    return std::make_unique<TieredSystem>(config);
  };
}

ExperimentGrid::ExperimentGrid(std::string name) : name_(std::move(name)) {
  const char* dir = EnvOrNull("TIERSCAPE_OBS_DIR");
  obs_dir_ = dir != nullptr ? dir : "obs_artifacts";
  const char* trace = EnvOrNull("TIERSCAPE_TRACE");
  trace_ = trace != nullptr && trace[0] == '1';
  const char* json = EnvOrNull("TIERSCAPE_BENCH_JSON");
  json_path_ = json != nullptr ? json : "";
  const char* threads = EnvOrNull("TIERSCAPE_BENCH_THREADS");
  if (threads != nullptr) {
    const Status resized = ThreadPool::SetSharedThreadsForTesting(std::max(1, std::atoi(threads)));
    TS_CHECK(resized.ok()) << resized.ToString();
  }
}

std::size_t ExperimentGrid::Add(CellSpec spec) {
  TS_CHECK(!spec.label.empty()) << "grid cell needs a label";
  TS_CHECK(std::find(labels_.begin(), labels_.end(), spec.label) == labels_.end())
      << "duplicate grid cell label '" << spec.label << "'";
  labels_.push_back(spec.label);
  pending_.push_back(std::move(spec));
  return pending_.size() - 1;
}

std::vector<ExperimentResult> ExperimentGrid::Run() {
  const std::vector<CellSpec> specs = std::move(pending_);
  pending_.clear();
  if (specs.empty()) {
    return {};
  }

  CellContext ctx;
  ctx.smoke = BenchSmoke();
  ThreadPool& pool = ThreadPool::Shared();
  last_threads_ = pool.threads();

  // Per-index slots: workers compute purely into their own slot; every
  // shared mutation below happens after ParallelFor returns, on this thread,
  // in ascending cell order (thread_pool.h invariant).
  struct Slot {
    Observability obs;
    ExperimentResult result;
    double wall_ms = 0.0;
  };
  std::vector<std::unique_ptr<Slot>> slots;
  slots.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    slots.push_back(std::make_unique<Slot>());
    slots.back()->obs.trace.SetEnabled(trace_);
  }

  const auto batch_start = std::chrono::steady_clock::now();
  pool.ParallelFor(specs.size(), [&](std::size_t i) {
    const auto cell_start = std::chrono::steady_clock::now();
    slots[i]->result = RunOneCell(specs[i], slots[i]->obs, ctx);
    slots[i]->wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - cell_start)
            .count();
  });
  total_wall_ms_ +=
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - batch_start)
          .count();

  std::vector<ExperimentResult> results;
  results.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Slot& slot = *slots[i];
    // Track 0 stays free for any single-recorder export; cells get 1-based
    // tracks in global cell order so merged traces render side by side.
    const std::int32_t track = static_cast<std::int32_t>(snapshots_.size()) + 1;
    const std::string prefix = "cell/" + specs[i].label + "/";
    for (TraceRecorder::Event event : slot.obs.trace.events()) {
      event.track = track;
      event.name = prefix + event.name;
      trace_events_.push_back(std::move(event));
    }
    RegistrySnapshot snapshot = slot.obs.metrics.Snapshot();
    CellTiming timing{specs[i].label, slot.wall_ms, {}};
    for (const MetricSnapshot& metric : snapshot.metrics) {
      // Harvest the cell's wall/ metrics (e.g. wall/solver/solve_ms) for the
      // BENCH_grid.json records; the merged artifact excludes them.
      if (metric.name.rfind("wall/", 0) == 0) {
        const double value = metric.kind == MetricKind::kGauge
                                 ? metric.value
                                 : static_cast<double>(metric.count);
        timing.wall_metrics.emplace_back(metric.name, value);
      }
    }
    snapshots_.push_back({specs[i].label, std::move(snapshot)});
    timings_.push_back(std::move(timing));
    results.push_back(std::move(slot.result));
  }
  return results;
}

std::string ExperimentGrid::MergedMetricsJsonl() const {
  return SnapshotToJsonl(MergeSnapshots(snapshots_), WallMetrics::kExclude);
}

std::string ExperimentGrid::MergedTraceJson() const {
  return TraceEventsToChromeJson(trace_events_);
}

std::string ExperimentGrid::WallRecordsJsonl() const {
  std::string out;
  char line[512];
  for (const CellTiming& timing : timings_) {
    std::snprintf(line, sizeof(line), "{\"bench\":\"%s\",\"cell\":\"%s\",\"wall_ms\":%.3f}\n",
                  name_.c_str(), timing.label.c_str(), timing.wall_ms);
    out += line;
    for (const auto& [metric, value] : timing.wall_metrics) {
      std::snprintf(line, sizeof(line),
                    "{\"bench\":\"%s\",\"cell\":\"%s\",\"metric\":\"%s\",\"value\":%.6f}\n",
                    name_.c_str(), timing.label.c_str(), metric.c_str(), value);
      out += line;
    }
  }
  return out;
}

ExperimentGrid::~ExperimentGrid() {
  if (!pending_.empty()) {
    std::fprintf(stderr, "[grid] %s: %zu cells were added but never Run()\n", name_.c_str(),
                 pending_.size());
  }
  if (!obs_dir_.empty() && !snapshots_.empty()) {
    const std::string base = obs_dir_ + "/" + name_;
    // wall/ metrics depend on the host and thread count; excluding them keeps
    // the artifact a pure function of the virtual execution (per-cell wall
    // times go to TIERSCAPE_BENCH_JSON instead).
    Status status = WriteTextFile(base + ".metrics.jsonl", MergedMetricsJsonl());
    if (status.ok() && trace_) {
      status = WriteTextFile(base + ".trace.json", MergedTraceJson());
    }
    if (!status.ok()) {
      std::fprintf(stderr, "[obs] artifact dump failed: %s\n", status.ToString().c_str());
    } else {
      std::fprintf(stderr, "[obs] wrote %s.metrics.jsonl%s\n", base.c_str(),
                   trace_ ? " and .trace.json" : "");
    }
  }
  if (!json_path_.empty() && !timings_.empty()) {
    // Appended JSONL so one smoke run collects every binary in a single
    // BENCH_grid.json; wall times are reporting-only by construction.
    std::FILE* f = std::fopen(json_path_.c_str(), "a");
    if (f == nullptr) {
      std::fprintf(stderr, "[grid] cannot append to %s\n", json_path_.c_str());
      return;
    }
    const std::string records = WallRecordsJsonl();
    std::fwrite(records.data(), 1, records.size(), f);
    std::fprintf(f, "{\"bench\":\"%s\",\"threads\":%d,\"cells\":%zu,\"total_wall_ms\":%.3f}\n",
                 name_.c_str(), last_threads_, timings_.size(), total_wall_ms_);
    std::fclose(f);
  }
}

}  // namespace bench
}  // namespace tierscape
