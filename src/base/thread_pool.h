// ThreadPool: a fixed-size worker pool for deterministic fork-join parallelism.
//
// The pool runs *batches*: RunBatch(n, task) executes task(0..n-1) across the workers and
// the calling thread, returning only when every index has completed. There is no general
// task queue and no futures — the caller always blocks on the whole batch, which is exactly
// the structure the simulator's parallel Cluster (per-node engine ticks of one timestamp)
// needs: all side effects are merged by the caller afterwards, in a deterministic order, so
// parallel runs are byte-identical to serial ones.
//
// Work distribution is claim-based (an atomic cursor over [0, n)), so batches whose items
// have skewed costs still balance. Indices are claimed in order but may *complete* in any
// order; callers must not depend on completion order.
//
// Broadcast(fn) runs fn exactly once on every worker thread (not the caller) and returns
// when all have run it — used to reset thread_local state (e.g. the string interner's
// per-thread cache) deterministically.

#ifndef SRC_BASE_THREAD_POOL_H_
#define SRC_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace boom {

class ThreadPool {
 public:
  // Spawns `workers` background threads. Total parallelism of a batch is workers + 1 (the
  // calling thread participates). workers == 0 is valid: RunBatch degenerates to a serial
  // loop on the caller.
  explicit ThreadPool(size_t workers);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  size_t workers() const { return threads_.size(); }

  // Runs task(i) for every i in [0, n); returns when all calls have completed. Tasks run
  // concurrently and must only touch disjoint or synchronized state. Must not be called
  // reentrantly (from inside a task) or from two threads at once.
  void RunBatch(size_t n, const std::function<void(size_t)>& task);

  // Runs fn once on each worker thread; returns when every worker has run it. Must not
  // overlap with RunBatch.
  void Broadcast(const std::function<void()>& fn);

 private:
  // State of one batch, shared with the workers. Heap-allocated per batch so a worker that
  // wakes late (after the batch already drained) still sees a consistent, exhausted batch
  // instead of claiming indices from a newer one.
  struct BatchState {
    const std::function<void(size_t)>* task = nullptr;
    size_t n = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
  };

  void WorkerLoop();
  // Claims and runs tasks from `state` until the cursor is exhausted.
  void Participate(BatchState& state);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait here for a batch/broadcast/stop
  std::condition_variable done_cv_;  // the caller waits here for completion
  std::shared_ptr<BatchState> batch_;            // guarded by mu_ (pointer swap)
  const std::function<void()>* broadcast_fn_ = nullptr;  // guarded by mu_
  uint64_t broadcast_gen_ = 0;                   // guarded by mu_
  size_t broadcast_done_ = 0;                    // guarded by mu_
  bool stop_ = false;                            // guarded by mu_
  std::vector<std::thread> threads_;
};

}  // namespace boom

#endif  // SRC_BASE_THREAD_POOL_H_
