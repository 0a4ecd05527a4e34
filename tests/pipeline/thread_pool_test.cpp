// Tests for the thread pool: submission, futures, parallel_for coverage,
// one-index claims, exception propagation, shutdown semantics.
#include "pipeline/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

namespace sss::pipeline {
namespace {

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, FuturesCarryResults) {
  ThreadPool pool(2);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("done"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "done");
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyAndSingleRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> one{0};
  pool.parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++one;
  });
  EXPECT_EQ(one.load(), 1);
}

TEST(ThreadPool, ParallelForClaimsIndicesInAscendingOrder) {
  ThreadPool pool(1);
  std::vector<std::size_t> seen;
  pool.parallel_for(3, 40, [&](std::size_t i) { seen.push_back(i); });
  std::vector<std::size_t> want(37);
  std::iota(want.begin(), want.end(), std::size_t{3});
  EXPECT_EQ(seen, want);
}

TEST(ThreadPool, ParallelForSlowIndexDoesNotHoldOthersBehindIt) {
  // Index 0 blocks until every other index has finished.  With one index
  // per claim the second worker drains 1..63 meanwhile; a pool that handed
  // out contiguous chunks would park 1..k behind index 0 and time out.
  ThreadPool pool(2);
  constexpr std::size_t kCount = 64;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t others_done = 0;
  bool released = false;
  pool.parallel_for(0, kCount, [&](std::size_t i) {
    std::unique_lock lock(mu);
    if (i == 0) {
      released = cv.wait_for(lock, std::chrono::seconds(30),
                             [&] { return others_done == kCount - 1; });
      return;
    }
    ++others_done;
    cv.notify_all();
  });
  EXPECT_TRUE(released);
  EXPECT_EQ(others_done, kCount - 1);
}

TEST(ThreadPool, ParallelForRethrowsOnlyAfterEveryWorkerStopped) {
  // The throwing worker stops; the others drain the rest of the range
  // before the exception reaches the caller, so no fn(i) runs after
  // parallel_for has returned.
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::size_t i) {
                                   if (i == 0) throw std::runtime_error("cell 0");
                                   std::this_thread::sleep_for(std::chrono::microseconds(50));
                                   ++calls;
                                 }),
               std::runtime_error);
  EXPECT_EQ(calls.load(), 99);
}

TEST(ThreadPool, ParallelForActuallyUsesMultipleThreads) {
  // Tasks long enough that one worker cannot race through the whole range
  // before the others wake up.
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.parallel_for(0, 64, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::lock_guard lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 2u);
}

TEST(ThreadPool, ShutdownDrainsPendingTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      (void)pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++done;
      });
    }
    pool.shutdown();
  }
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_THROW((void)pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPool, DeleriaScaleFanout) {
  // 100 workers like DELERIA's analysis processes; verify a reduction job
  // distributes and sums correctly.
  ThreadPool pool(16);
  std::vector<int> data(100'000);
  std::iota(data.begin(), data.end(), 0);
  std::atomic<long long> total{0};
  pool.parallel_for(0, data.size(), [&](std::size_t i) { total += data[i]; });
  EXPECT_EQ(total.load(), 99999LL * 100000 / 2);
}

}  // namespace
}  // namespace sss::pipeline
