#ifndef GRAPHQL_COMMON_THREAD_POOL_H_
#define GRAPHQL_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace graphql {

/// Fixed-size worker pool with per-participant work-stealing deques, shared
/// by every parallel pipeline stage (retrieve / search).
///
/// Each ParallelFor call forms one job: the item indices are dealt in
/// contiguous blocks into one deque per participating worker; a worker pops
/// from the bottom of its own deque (LIFO, cache-friendly) and, when that
/// runs dry, steals from the top of another worker's deque (FIFO, so
/// thieves take the oldest — largest remaining — blocks of work first).
/// The calling thread always participates as worker 0, so a pool is usable
/// even with zero background threads and `max_workers == 1` degenerates to
/// an inline loop over the items.
///
/// Item functions must not throw; engine code reports failures through
/// Status values captured per item. Jobs on one pool are serialized (a
/// second concurrent ParallelFor blocks until the first finishes), which
/// keeps worker ids dense per job so callers can use them to index
/// per-worker shards (metrics, charge ledgers, search states).
class ThreadPool {
 public:
  /// What one participant did during a job: which OS thread it ran on,
  /// when it was active, and how much work it executed. Captured on every
  /// ParallelFor (two clock reads per worker per job) so trace exports can
  /// draw real worker-thread lanes.
  struct WorkerLane {
    int64_t os_tid = 0;    ///< Kernel thread id (see CurrentOsThreadId).
    int64_t start_us = 0;  ///< NowMicros when the worker joined the job.
    int64_t end_us = 0;    ///< NowMicros when its deques ran dry.
    uint64_t tasks = 0;    ///< Items this worker executed.
    uint64_t stolen = 0;   ///< Of those, items taken from another deque.
  };

  /// Per-job execution counters, reported back to the caller so trace
  /// spans can be annotated with `threads` / `tasks_stolen`.
  struct RunStats {
    int workers = 0;         ///< Participants (including the caller).
    uint64_t tasks = 0;      ///< Items executed.
    uint64_t stolen = 0;     ///< Items taken from another worker's deque.
    /// One lane per participant (dense worker ids; [0] is the caller).
    std::vector<WorkerLane> lanes;
  };

  /// `num_threads` background threads (clamped to >= 0); the pool then
  /// supports up to num_threads + 1 participants per job.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }
  /// Largest participant count a job can use.
  int max_workers() const { return num_threads() + 1; }

  /// Runs fn(item, worker) for every item in [0, n), blocking until all
  /// items finished. `max_workers` caps the participants (values < 1 or
  /// beyond the pool's capacity are clamped); worker ids are dense in
  /// [0, workers) with the calling thread as worker 0.
  RunStats ParallelFor(size_t n, int max_workers,
                       const std::function<void(size_t, int)>& fn);

  /// Process-wide pool sized for hardware_concurrency total workers
  /// (hardware_concurrency - 1 background threads), created on first use.
  static ThreadPool& Shared();

 private:
  struct Job {
    const std::function<void(size_t, int)>* fn = nullptr;
    int workers = 0;
    /// queues[w] is guarded by queue_mu[w]; the analysis cannot express a
    /// per-element guard over parallel arrays, so NextTask is the single
    /// audited accessor (every touch of queues[i] sits inside a
    /// MutexLock(&queue_mu[i]) scope there and in ParallelFor's dealing
    /// phase, which runs before any worker can see the job).
    std::vector<std::deque<size_t>> queues;        // One per participant.
    std::unique_ptr<Mutex[]> queue_mu;             // One per participant.
    std::vector<WorkerLane> lanes;                 // Slot w: worker w only.
    std::atomic<size_t> remaining{0};
    std::atomic<int> claimed{1};  // Next worker id; 0 is the caller's.
    std::atomic<uint64_t> stolen{0};
  };

  void WorkerLoop() GQL_EXCLUDES(mu_);
  /// Drains tasks for participant `w` until every deque is empty.
  void RunWorker(Job* job, int w) GQL_EXCLUDES(mu_);
  /// Pops the next task: own deque bottom first, then steal scan. False
  /// when every deque is empty.
  bool NextTask(Job* job, int w, size_t* item, bool* was_steal);

  Mutex mu_;
  CondVar cv_work_;  ///< Pool threads wait for a job.
  CondVar cv_done_;  ///< Caller waits for job completion.
  Job* job_ GQL_GUARDED_BY(mu_) = nullptr;
  uint64_t generation_ GQL_GUARDED_BY(mu_) = 0;  ///< Bumped per job.
  int active_ GQL_GUARDED_BY(mu_) = 0;  ///< Pool threads inside RunWorker.
  bool stop_ GQL_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
  Mutex submit_mu_;  ///< Serializes jobs on this pool.
};

/// The process-default intra-query worker count: $GQL_THREADS parsed once
/// (0 when unset, empty, or unparseable). This seeds
/// PipelineOptions::num_threads so `GQL_THREADS=4 ctest` exercises the
/// parallel path without touching any call site; explicit assignment still
/// overrides it either way.
int DefaultNumThreads();

/// Clamps a PipelineOptions::num_threads-style knob to what `pool` (null =
/// the shared pool) can serve: values < 1 mean serial (returns 0), values
/// beyond the pool's capacity are capped at it.
int ResolveWorkers(int num_threads, const ThreadPool* pool = nullptr);

/// The calling thread's kernel thread id (gettid on Linux), cached per
/// thread; falls back to a stable per-thread token elsewhere. These ids
/// name the lanes in Chrome-trace exports.
int64_t CurrentOsThreadId();

}  // namespace graphql

#endif  // GRAPHQL_COMMON_THREAD_POOL_H_
