// Runs every compressor on a ThreadPool and checks that each page's stream
// and round trip equal a serial run's. The LZ77 parsers and the zstd-like
// decoder keep per-thread scratch (src/compress/lz_match.h), so this suite
// carries the `tsan` label: the ThreadSanitizer CI leg checks that no
// scratch is shared between threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/common/units.h"
#include "src/compress/compressor.h"
#include "src/compress/corpus.h"

namespace tierscape {
namespace {

struct Job {
  Algorithm algorithm;
  std::vector<std::byte> input;
};

struct Output {
  std::vector<std::byte> compressed;
  std::vector<std::byte> restored;
};

// Every algorithm x profile x a few seeds, with sizes that make the
// per-thread scratch grow mid-run.
std::vector<Job> MakeJobs() {
  std::vector<Job> jobs;
  for (int a = 0; a < kAlgorithmCount; ++a) {
    for (int p = 0; p < kCorpusProfileCount; ++p) {
      for (int s = 0; s < 6; ++s) {
        const std::size_t size = s == 5 ? 2 * kPageSize : s == 4 ? 1000 : kPageSize;
        std::vector<std::byte> input(size);
        FillPage(static_cast<CorpusProfile>(p), SplitSeed(a * 100 + p, s), input);
        jobs.push_back(Job{static_cast<Algorithm>(a), std::move(input)});
      }
    }
  }
  return jobs;
}

Output RoundTrip(const Job& job) {
  const Compressor& codec = GetCompressor(job.algorithm);
  Output out;
  out.compressed.resize(2 * job.input.size() + 64);
  const auto size = codec.Compress(job.input, out.compressed);
  if (!size.ok()) {
    return out;
  }
  out.compressed.resize(*size);
  out.restored.resize(job.input.size());
  if (!codec.Decompress(out.compressed, out.restored).ok()) {
    out.restored.clear();
  }
  return out;
}

TEST(CodecThreadTest, ParallelOutputsEqualSerial) {
  const std::vector<Job> jobs = MakeJobs();
  std::vector<Output> serial;
  for (const Job& job : jobs) {
    serial.push_back(RoundTrip(job));
    ASSERT_EQ(serial.back().restored, job.input) << AlgorithmName(job.algorithm);
  }
  for (const int threads : {1, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<Output> slots(jobs.size());
    pool.ParallelFor(jobs.size(), [&](std::size_t i) { slots[i] = RoundTrip(jobs[i]); });
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(slots[i].compressed, serial[i].compressed)
          << threads << " threads, job " << i << " " << AlgorithmName(jobs[i].algorithm);
      EXPECT_EQ(slots[i].restored, serial[i].restored)
          << threads << " threads, job " << i << " " << AlgorithmName(jobs[i].algorithm);
    }
  }
}

}  // namespace
}  // namespace tierscape
