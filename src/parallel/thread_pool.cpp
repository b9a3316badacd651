#include "parallel/thread_pool.hpp"

#include "util/contracts.hpp"

namespace proxcache {

ThreadPool::ThreadPool(unsigned threads) {
  PROXCACHE_REQUIRE(threads <= kMaxThreads,
                    "thread pool size must be at most 1024 workers");
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back(
        [this](const std::stop_token& stop) { worker_loop(stop); });
  }
}

ThreadPool::~ThreadPool() {
  for (auto& worker : workers_) worker.request_stop();
  ready_.notify_all();
  // std::jthread joins on destruction; worker_loop drains the queue first.
}

void ThreadPool::worker_loop(const std::stop_token& stop) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      ready_.wait(lock, stop, [this] { return !queue_.empty(); });
      if (queue_.empty()) {
        // Stop requested and no work left.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

}  // namespace proxcache
