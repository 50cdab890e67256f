// tslint-fixture: worker-capture-purity
// Workers in a ThreadPool::ParallelFor body must be pure (thread_pool.h):
// logging, metric mutation, and trace spans there depend on wall-clock
// scheduling order. Both banned constructs below sit inside the lambda.
namespace fixture {

void CompressShards(ThreadPool& pool, Shard* shards, std::size_t n, Counter* m_compressed_) {
  pool.ParallelFor(n, [&](std::size_t i) {
    TS_LOG(Info) << "compressing shard " << i;  // WRONG: logging in worker
    shards[i].result = Compress(shards[i].input);
    m_compressed_->Add(1);  // WRONG: metric mutation in worker
  });
  // Correct placement: charge statistics after the barrier, in submission
  // order, on this thread — nothing here may trip.
  for (std::size_t i = 0; i < n; ++i) {
    m_compressed_->Add(0);
  }
}

}  // namespace fixture
