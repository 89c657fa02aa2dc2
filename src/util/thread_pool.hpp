#pragma once
// Thread pool for fanning independent jobs out: the GP datasets of one
// campaign (gp::infer_batch) and the campaigns of one fleet
// (core::FleetRunner).
//
// One FIFO queue under one mutex feeds every worker. parallel_for() is
// the only producer, and every helper it queues pulls iterations from its
// loop's shared cursor into pre-sized result slots, so which worker
// dequeues which helper never decides who computes what.
//
// parallel_for() is *caller-participating*: the calling thread drains
// iterations from the shared cursor alongside the workers, so a nested
// parallel_for issued from inside a pool task can never deadlock —
// worst case the caller executes every iteration itself.
// The first exception thrown by any iteration is captured and rethrown on
// the calling thread after the loop quiesces.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dpr::util {

class ThreadPool {
 public:
  /// Spawns `n_threads` workers; 0 means std::thread::hardware_concurrency.
  explicit ThreadPool(std::size_t n_threads = 0);
  /// Workers finish the queued helpers (whose cursors are spent by then,
  /// so each returns at once) and are joined.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Resolve a user-facing thread knob: 0 -> hardware concurrency,
  /// otherwise the value itself (never less than 1).
  static std::size_t resolve(std::size_t n_threads);

  /// Run body(i) for i in [0, n). Blocks until all iterations complete;
  /// the caller participates, so this is safe to nest from pool tasks.
  /// Rethrows the first exception raised by any iteration.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

 private:
  void submit(std::function<void()> task);
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;  // guarded by mutex_
  bool stop_ = false;                        // guarded by mutex_
  std::vector<std::thread> workers_;
};

}  // namespace dpr::util
