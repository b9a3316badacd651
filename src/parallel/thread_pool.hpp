#pragma once
/// \file thread_pool.hpp
/// Fixed-size RAII worker pool.
///
/// Follows the C++ Core Guidelines concurrency rules: threads are joined by
/// RAII (`std::jthread`), shared state is confined behind one mutex, and
/// work items communicate results exclusively through futures (CP.23/CP.32:
/// no raw shared data, pass by value into tasks). Exceptions thrown inside a
/// task surface at `future::get()`.

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace proxcache {

/// Fixed-size thread pool; destruction drains already-submitted work.
class ThreadPool {
 public:
  /// Most workers one pool may spawn — the cap `config.threads` and the
  /// sharded engine share.
  static constexpr unsigned kMaxThreads = 1024;

  /// Spawn `threads` workers (0 = hardware concurrency, at least 1).
  /// Throws std::invalid_argument, before spawning any, when `threads`
  /// exceeds kMaxThreads.
  explicit ThreadPool(unsigned threads = 0);

  /// Blocks until all queued tasks complete, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue a callable; returns a future for its result.
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> result = packaged->get_future();
    {
      std::scoped_lock lock(mutex_);
      queue_.emplace_back([packaged]() { (*packaged)(); });
    }
    ready_.notify_one();
    return result;
  }

 private:
  void worker_loop(const std::stop_token& stop);

  std::mutex mutex_;
  std::condition_variable_any ready_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::jthread> workers_;
};

}  // namespace proxcache
