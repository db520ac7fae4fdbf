//===- exp/ThreadPool.h - Fixed-size worker pool for experiment cells ----===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool with a FIFO task queue. The experiment runner
/// uses it to fan independent grid cells out across cores; it is small and
/// general enough for any embarrassingly-parallel work. Tasks must not
/// throw (the simulators report failure through assert, not exceptions).
///
//===----------------------------------------------------------------------===//

#ifndef BOR_EXP_THREADPOOL_H
#define BOR_EXP_THREADPOOL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bor {
namespace exp {

class ThreadPool {
public:
  /// Spawns \p NumThreads workers (at least one).
  explicit ThreadPool(unsigned NumThreads);

  /// Waits for all submitted tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Task for execution on some worker, FIFO order.
  void submit(std::function<void()> Task);

  /// Blocks until every task submitted so far has finished executing.
  void wait();

  unsigned size() const { return static_cast<unsigned>(Workers.size()); }

  /// The default worker count: the hardware concurrency, or 1 if the
  /// runtime cannot tell.
  static unsigned defaultThreads();

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable AllDone;
  size_t Unfinished = 0; ///< queued + currently executing
  uint64_t Executed = 0; ///< tasks completed, for telemetry
  bool Stopping = false;
};

} // namespace exp
} // namespace bor

#endif // BOR_EXP_THREADPOOL_H
