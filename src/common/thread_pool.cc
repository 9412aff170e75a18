#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <functional>

#include "obs/clock.h"

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace graphql {

int64_t CurrentOsThreadId() {
  static thread_local const int64_t kTid = [] {
#if defined(__linux__)
    return static_cast<int64_t>(syscall(SYS_gettid));
#else
    return static_cast<int64_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
#endif
  }();
  return kTid;
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 0) num_threads = 0;
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_work_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::Shared() {
  // Leaked: pool threads must outlive any static destructor that could
  // still submit work. Sized so caller + background threads == hardware,
  // but never below one background thread (a 1-core box still needs real
  // concurrency for correctness/TSan testing), and grown to honor an
  // explicit $GQL_THREADS ask that exceeds the hardware (deliberate
  // oversubscription; ResolveWorkers clamps to this pool's capacity).
  static ThreadPool* const kPool = [] {
    unsigned hw = std::thread::hardware_concurrency();
    int background = hw > 1 ? static_cast<int>(hw) - 1 : 1;
    int asked = DefaultNumThreads() - 1;
    return new ThreadPool(std::max(background, asked));
  }();
  return *kPool;
}

ThreadPool::RunStats ThreadPool::ParallelFor(
    size_t n, int max_workers, const std::function<void(size_t, int)>& fn) {
  RunStats stats;
  stats.tasks = n;
  if (n == 0) return stats;
  int workers = std::clamp(max_workers, 1, this->max_workers());
  // No point waking more workers than there are items.
  workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(workers), n));
  stats.workers = workers;

  if (workers == 1) {  // Inline: no queues, no wakeups.
    WorkerLane lane;
    lane.os_tid = CurrentOsThreadId();
    lane.start_us = obs::NowMicros();
    for (size_t i = 0; i < n; ++i) fn(i, 0);
    lane.end_us = obs::NowMicros();
    lane.tasks = n;
    stats.lanes.push_back(lane);
    return stats;
  }

  // One job at a time per pool keeps worker ids dense for shard indexing.
  MutexLock submit(&submit_mu_);

  Job job;
  job.fn = &fn;
  job.workers = workers;
  job.remaining.store(n, std::memory_order_relaxed);
  job.queues.resize(static_cast<size_t>(workers));
  job.queue_mu.reset(new Mutex[workers]);
  job.lanes.resize(static_cast<size_t>(workers));
  // Deal contiguous blocks: worker w starts on its own slice, thieves
  // steal whole items from the top (oldest) end of a victim's block.
  size_t base = n / static_cast<size_t>(workers);
  size_t extra = n % static_cast<size_t>(workers);
  size_t next = 0;
  for (int w = 0; w < workers; ++w) {
    size_t take = base + (static_cast<size_t>(w) < extra ? 1 : 0);
    for (size_t i = 0; i < take; ++i) job.queues[w].push_back(next++);
  }

  {
    MutexLock lock(&mu_);
    job_ = &job;
    ++generation_;
  }
  cv_work_.NotifyAll();

  RunWorker(&job, /*w=*/0);  // The caller is always worker 0.

  {
    MutexLock lock(&mu_);
    cv_done_.Wait(mu_, [&] {
      mu_.AssertHeld();
      return job.remaining.load(std::memory_order_acquire) == 0 &&
             active_ == 0;
    });
    job_ = nullptr;
  }
  stats.stolen = job.stolen.load(std::memory_order_relaxed);
  // The cv_done_ wait above synchronizes with every participant's exit
  // from RunWorker, so the per-slot lane writes are visible here. Workers
  // that never claimed a slot (the job finished first) stay zeroed.
  for (const WorkerLane& lane : job.lanes) {
    if (lane.os_tid != 0) stats.lanes.push_back(lane);
  }
  return stats;
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;
  for (;;) {
    Job* job = nullptr;
    int id = 0;
    {
      MutexLock lock(&mu_);
      cv_work_.Wait(mu_, [&] {
        mu_.AssertHeld();
        return stop_ || (job_ != nullptr && generation_ != seen);
      });
      if (stop_) return;
      seen = generation_;
      job = job_;
      id = job->claimed.fetch_add(1, std::memory_order_relaxed);
      if (id >= job->workers) continue;  // Job already fully staffed.
      ++active_;
    }
    RunWorker(job, id);
    {
      MutexLock lock(&mu_);
      --active_;
    }
    cv_done_.NotifyAll();
  }
}

void ThreadPool::RunWorker(Job* job, int w) {
  WorkerLane& lane = job->lanes[static_cast<size_t>(w)];
  lane.os_tid = CurrentOsThreadId();
  lane.start_us = obs::NowMicros();
  for (;;) {
    size_t item = 0;
    bool was_steal = false;
    if (!NextTask(job, w, &item, &was_steal)) break;
    if (was_steal) {
      job->stolen.fetch_add(1, std::memory_order_relaxed);
      ++lane.stolen;
    }
    ++lane.tasks;
    (*job->fn)(item, w);
    if (job->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last item: wake the caller (it may be asleep in ParallelFor).
      MutexLock lock(&mu_);
      cv_done_.NotifyAll();
    }
  }
  lane.end_us = obs::NowMicros();
}

bool ThreadPool::NextTask(Job* job, int w, size_t* item, bool* was_steal) {
  {  // Own deque: pop the bottom (most recently dealt / LIFO).
    MutexLock lock(&job->queue_mu[w]);
    std::deque<size_t>& q = job->queues[w];
    if (!q.empty()) {
      *item = q.back();
      q.pop_back();
      *was_steal = false;
      return true;
    }
  }
  // Steal scan: take the top (oldest) of the first non-empty victim,
  // starting just after ourselves so thieves spread across victims.
  for (int step = 1; step < job->workers; ++step) {
    int victim = (w + step) % job->workers;
    MutexLock lock(&job->queue_mu[victim]);
    std::deque<size_t>& q = job->queues[victim];
    if (!q.empty()) {
      *item = q.front();
      q.pop_front();
      *was_steal = true;
      return true;
    }
  }
  return false;
}

int DefaultNumThreads() {
  static const int kDefault = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe) read-only env lookup; no setenv anywhere
    const char* v = std::getenv("GQL_THREADS");
    if (v == nullptr || *v == '\0') return 0;
    char* end = nullptr;
    long n = std::strtol(v, &end, 10);
    if (end == v || *end != '\0' || n < 0) return 0;
    return static_cast<int>(std::min<long>(n, 1024));
  }();
  return kDefault;
}

int ResolveWorkers(int num_threads, const ThreadPool* pool) {
  if (num_threads < 1) return 0;
  int cap = pool != nullptr ? pool->max_workers()
                            : ThreadPool::Shared().max_workers();
  return std::min(num_threads, cap);
}

}  // namespace graphql
