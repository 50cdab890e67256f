// perfbench: host-time benchmark of the TierScape simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--digests <file>] [--spans-out <file>] [--source-id <id>]
//   perfbench --workload <name> --seed <n> --record
//
// Repeats passes over the workload's cells until --seconds have elapsed and
// prints run notes ("# " lines) and, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics (medians over passes); --trace 1 alternates untraced
// and traced passes and reports the per-layer metrics. --record prints the
// digest line of every cell for one pass, the format of --digests.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/cells.h"
#include "perfbench/src/layer_trace.h"
#include "perfbench/src/runner.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool record = false;
  std::string digests;
  std::string spans_out;
  std::string source_id = "unknown";
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      args.record = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--digests") {
      args.digests = value;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else if (flag == "--source-id") {
      args.source_id = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && have_seed;
}

// Committed digests for this workload and seed, by cell label. Each line of
// the file is "<workload> <seed> <cell label> <hex digest>".
std::map<std::string, std::uint64_t> LoadDigests(const std::string& path,
                                                 const std::string& workload,
                                                 std::uint64_t seed, bool* ok) {
  std::map<std::string, std::uint64_t> digests;
  std::ifstream in(path);
  *ok = static_cast<bool>(in);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    std::uint64_t line_seed = 0;
    std::string label;
    std::string hex;
    if (line.empty() || line[0] == '#' || !(fields >> name >> line_seed >> label >> hex)) {
      continue;
    }
    if (name == workload && line_seed == seed) {
      digests[label] = std::strtoull(hex.c_str(), nullptr, 16);
    }
  }
  return digests;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string Number(double value) {
  char buffer[64];
  const auto end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  return std::string(buffer, end);
}

std::string HexDigest(std::uint64_t digest) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(digest));
  return buffer;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void PrintNotes(const Args& args, const WorkloadPlan& plan, const PassResult& pass) {
  std::printf("# machine: nproc=%u compiler=gcc-%s build=%s source=%s\n",
              std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_BUILD_TYPE,
              args.source_id.c_str());
  std::printf("# workload %s (seed %llu): %s\n", plan.name.c_str(),
              static_cast<unsigned long long>(plan.seed), plan.why.c_str());
  std::printf("# closed loop, one driver thread; caches start empty; Populate is not timed as "
              "part of the measured phase\n");
  for (const CellOutcome& cell : pass.cells) {
    std::printf("# cell %s: %s\n", cell.label.c_str(), cell.dims.c_str());
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] "
                 "[--digests <file>] [--spans-out <file>] [--source-id <id>] [--record]\n");
    return 2;
  }
  const std::optional<WorkloadPlan> plan = MakePlan(args.workload, args.seed);
  if (!plan.has_value()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  if (args.record) {
    const PassResult pass = RunPass(*plan, nullptr);
    int failed = 0;
    for (const CellOutcome& cell : pass.cells) {
      if (!cell.error.empty()) {
        std::fprintf(stderr, "perfbench: %s: %s\n", cell.label.c_str(), cell.error.c_str());
        ++failed;
        continue;
      }
      std::printf("%s %llu %s %s\n", args.workload.c_str(),
                  static_cast<unsigned long long>(args.seed), cell.label.c_str(),
                  HexDigest(cell.digest).c_str());
    }
    return failed == 0 ? 0 : 1;
  }

  std::map<std::string, std::uint64_t> expected;
  if (!args.digests.empty()) {
    bool ok = false;
    expected = LoadDigests(args.digests, args.workload, args.seed, &ok);
    if (!ok) {
      std::fprintf(stderr, "perfbench: cannot read digests '%s'\n", args.digests.c_str());
      return 2;
    }
  }

  // Passes until the time is up; with --trace 1 they alternate untraced
  // (even) and traced (odd) so the two can be compared.
  LayerTracer tracer;
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  std::map<std::string, std::uint64_t> first_digest;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::int64_t start = NowNs();
  for (int index = 0;; ++index) {
    const bool trace_pass = args.trace && index % 2 == 1;
    PassResult pass = RunPass(*plan, trace_pass ? &tracer : nullptr);
    for (const CellOutcome& cell : pass.cells) {
      ++attempted;
      std::string error = cell.error;
      const auto recorded = expected.find(cell.label);
      const auto [first, inserted] = first_digest.emplace(cell.label, cell.digest);
      if (error.empty() && recorded != expected.end() && recorded->second != cell.digest) {
        error = "digest " + HexDigest(cell.digest) + " != committed " +
                HexDigest(recorded->second);
      }
      if (error.empty() && !inserted && first->second != cell.digest) {
        error = "digest differs from the run's first pass (" + HexDigest(first->second) + ")";
      }
      if (!error.empty()) {
        ++failed;
        std::fprintf(stderr, "perfbench: %s pass %d: %s\n", cell.label.c_str(), index,
                     error.c_str());
      }
    }
    if (index == 0) {
      PrintNotes(args, *plan, pass);
    }
    (trace_pass ? traced : untraced).push_back(std::move(pass));
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    if (elapsed >= args.seconds && (!args.trace || !traced.empty())) {
      break;
    }
  }

  const auto median_of = [](const std::vector<PassResult>& passes, auto field) {
    std::vector<double> values;
    for (const PassResult& pass : passes) {
      values.push_back(field(pass));
    }
    return Median(values);
  };
  const double sim_ops_per_s = median_of(
      untraced, [](const PassResult& p) { return static_cast<double>(p.ops) / p.measured_s; });
  std::vector<LayerMetric> metrics;
  if (!args.trace) {
    metrics = {
        {"wall_s", median_of(untraced, [](const PassResult& p) { return p.wall_s; }), "s"},
        {"setup_s", median_of(untraced, [](const PassResult& p) { return p.setup_s; }), "s"},
        {"cpu_s", median_of(untraced, [](const PassResult& p) { return p.cpu_s; }), "s"},
        {"peak_rss_mib", PeakRssMib(), "MiB"},
    };
  } else {
    const double untraced_wall =
        median_of(untraced, [](const PassResult& p) { return p.wall_s; });
    const double traced_wall =
        median_of(traced, [](const PassResult& p) { return p.wall_s - p.codec_probe_s; });
    const double overhead_pct = (traced_wall / untraced_wall - 1.0) * 100.0;
    metrics = tracer.Report(overhead_pct, sim_ops_per_s);
    for (const LayerMetric& metric : metrics) {
      if (metric.name.rfind("trace.", 0) == 0) {
        std::printf("# %s = %s\n", metric.name.c_str(), Number(metric.value).c_str());
      }
    }
    if (!args.spans_out.empty()) {
      std::ofstream(args.spans_out) << tracer.SpansJsonl();
    }
  }
  std::string walls;
  std::string rates;
  for (const PassResult& pass : untraced) {
    walls.append(" ").append(Number(pass.wall_s));
    rates.append(" ").append(Number(static_cast<double>(pass.ops) / pass.measured_s));
  }
  std::printf("# passes: %zu untraced, %zu traced; untraced pass wall_s:%s; sim_ops_per_s:%s\n",
              untraced.size(), traced.size(), walls.c_str(), rates.c_str());
  for (std::size_t c = 0; c < untraced.front().cells.size(); ++c) {
    std::printf("# cell %s: median wall %s s, set-up %s s\n",
                untraced.front().cells[c].label.c_str(),
                Number(median_of(untraced, [c](const PassResult& p) { return p.cells[c].wall_s; }))
                    .c_str(),
                Number(median_of(untraced, [c](const PassResult& p) { return p.cells[c].setup_s; }))
                    .c_str());
  }

  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
