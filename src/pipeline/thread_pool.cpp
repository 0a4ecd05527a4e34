#include "pipeline/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>

namespace sss::pipeline {

ThreadPool::ThreadPool(std::size_t threads, std::size_t queue_capacity)
    : tasks_(queue_capacity) {
  if (threads == 0) throw std::invalid_argument("ThreadPool: threads must be >= 1");
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

std::size_t ThreadPool::default_thread_count() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? static_cast<std::size_t>(hardware) : 1;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::optional<std::function<void()>> task = tasks_.pop();
    if (!task.has_value()) return;  // closed and drained
    (*task)();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  // Every claim takes ONE index from a shared cursor, so indices start in
  // order and a slow index never holds queued ones behind it on the same
  // worker.  The callers' indices are coarse (sweep cells of milliseconds
  // to seconds), so one atomic add per index is free.
  std::atomic<std::size_t> cursor{begin};
  const std::size_t workers = std::min(workers_.size(), end - begin);
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    futures.push_back(submit([&cursor, end, &fn] {
      for (std::size_t i = cursor.fetch_add(1); i < end; i = cursor.fetch_add(1)) fn(i);
    }));
  }
  // Wait for every worker before rethrowing: `fn` and `cursor` must outlive
  // all of them.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::shutdown() {
  tasks_.close();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

}  // namespace sss::pipeline
