// The main of every test binary: each test starts with the shared ThreadPool
// at one thread, so tests that do not test threading run serially and
// `ctest -j` does not oversubscribe the host. Threading tests (label `tsan`)
// size the pool themselves with ThreadPool::SetSharedThreadsForTesting.
#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"

namespace {

class SerialPoolPerTest : public ::testing::EmptyTestEventListener {
  void OnTestStart(const ::testing::TestInfo&) override {
    const tierscape::Status resized = tierscape::ThreadPool::SetSharedThreadsForTesting(1);
    TS_CHECK(resized.ok()) << resized.ToString();
  }
};

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  // The listener list owns the listener.
  ::testing::UnitTest::GetInstance()->listeners().Append(new SerialPoolPerTest);
  return RUN_ALL_TESTS();
}
