#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace dpr::util {

std::size_t ThreadPool::resolve(std::size_t n_threads) {
  if (n_threads != 0) return n_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(std::size_t n_threads) {
  const std::size_t n = resolve(n_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // Under the mutex: a worker between its predicate check and its wait
    // would otherwise miss this notify and never join.
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopped, and every helper has run
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;

  // Shared-ownership loop state: helper tasks may be dequeued after the
  // caller has already returned (every iteration can be claimed before a
  // queued helper ever runs), so everything a late helper touches must
  // live in this block, not on the caller's stack.
  struct Loop {
    std::size_t n = 0;
    std::function<void(std::size_t)> body;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;

    void drain() {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (!error) error = std::current_exception();
        }
        if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
          std::lock_guard<std::mutex> lock(mutex);
          cv.notify_all();
        }
      }
    }
  };
  auto loop = std::make_shared<Loop>();
  loop->n = n;
  loop->body = body;

  // One helper task per worker; each pulls iterations from the shared
  // cursor. The caller drains too, so even when every worker is busy with
  // long jobs (nested loops, a fleet's campaigns) the loop always
  // completes.
  const std::size_t helpers = std::min(workers_.size(), n - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([loop] { loop->drain(); });
  }
  loop->drain();

  {
    std::unique_lock<std::mutex> lock(loop->mutex);
    loop->cv.wait(lock, [&loop] {
      return loop->done.load(std::memory_order_acquire) == loop->n;
    });
  }
  if (loop->error) std::rethrow_exception(loop->error);
}

}  // namespace dpr::util
