// thread_pool.hpp — fixed-size worker pool.
//
// The "remote compute" stage of the pipelines: N workers draining a task
// queue, mirroring DELERIA's ~100 parallel analysis processes.  Tasks are
// type-erased callables; submit() returns a future for result plumbing and
// parallel_for covers the index-range fan-out of sweep executors, one index
// per claim.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "pipeline/bounded_queue.hpp"

namespace sss::pipeline {

class ThreadPool {
 public:
  // `threads` >= 1; `queue_capacity` bounds pending tasks (backpressure on
  // submitters).
  explicit ThreadPool(std::size_t threads, std::size_t queue_capacity = 1024);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueue a task; blocks when the queue is full.  Throws
  // std::runtime_error after shutdown.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    if (!tasks_.push([task] { (*task)(); })) {
      throw std::runtime_error("ThreadPool: submit after shutdown");
    }
    return future;
  }

  // Run fn(i) for i in [begin, end) across the pool; blocks until all
  // complete.  Each worker claims one index at a time, in ascending order,
  // so a caller that wants a dispatch order maps i through a permutation.
  // Exceptions propagate once every worker has stopped (first one wins).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  // Drain and join.  Idempotent; called by the destructor.
  void shutdown();

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  // One worker per hardware thread; at least 1 when the hardware cannot be
  // queried.  The default sizing for sweep executors and pipelines.
  [[nodiscard]] static std::size_t default_thread_count();

 private:
  BoundedQueue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;

  void worker_loop();
};

}  // namespace sss::pipeline
