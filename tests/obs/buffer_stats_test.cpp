// BufferPool statistics: the process-wide block counts see every thread's
// acquires and releases, including those of threads that have exited.
#include "common/buffer.h"

#include <gtest/gtest.h>

#include <thread>

namespace dnstime {
namespace {

TEST(BufferPoolStats, AggregateSpansLiveAndRetiredPools) {
  const BufferPool::Stats before = BufferPool::aggregate_stats();

  // A worker thread that acquires and releases, then exits.
  std::thread worker([] {
    for (int i = 0; i < 10; ++i) {
      BufferPool::release(BufferPool::acquire(512));
    }
  });
  worker.join();

  // A block still live on this thread counts too.
  BufferPool::Block* b = BufferPool::acquire(512);

  const BufferPool::Stats after = BufferPool::aggregate_stats();
  // Every acquire takes a fresh block: 10 on the worker, 1 here.
  EXPECT_EQ(after.fresh_allocs - before.fresh_allocs, 11u);
  EXPECT_EQ(after.outstanding - before.outstanding, 1u);
  EXPECT_EQ(after.pool_hits, 0u);
  BufferPool::release(b);
}

}  // namespace
}  // namespace dnstime
