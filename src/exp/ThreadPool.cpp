//===- exp/ThreadPool.cpp - Fixed-size worker pool -----------------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//

#include "exp/ThreadPool.h"

#include "telemetry/Counters.h"

namespace bor {
namespace exp {

ThreadPool::ThreadPool(unsigned NumThreads) {
  if (NumThreads == 0)
    NumThreads = 1;
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I != NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
  // Published per pool lifetime; the task count depends only on the work
  // submitted, never on the worker count, so snapshots stay deterministic
  // across --threads values.
  if (telemetry::CounterRegistry::enabled()) {
    static const telemetry::Counter Pools("exp.pool.pools");
    static const telemetry::Counter Tasks("exp.pool.tasks");
    Pools.add();
    Tasks.add(Executed);
  }
}

void ThreadPool::submit(std::function<void()> Task) {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Task));
    ++Unfinished;
  }
  WorkAvailable.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  AllDone.wait(Lock, [this] { return Unfinished == 0; });
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(Lock,
                         [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task();
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      ++Executed;
      if (--Unfinished == 0)
        AllDone.notify_all();
    }
  }
}

unsigned ThreadPool::defaultThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

} // namespace exp
} // namespace bor
