#include "common/parallel.h"

#include <sched.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace galign {

namespace {

// The CPUs this process may run on: its affinity mask, which taskset, a
// cgroup cpuset or a container narrows. hardware_concurrency() counts every
// CPU of the machine, so it is only the fallback when the mask cannot be
// read.
int CpusAvailable() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return CPU_COUNT(&set);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<int>(hw);
}

// Set while a thread is executing pool work; nested ParallelFor calls from
// inside a worker run serially instead of deadlocking on the job mutex.
thread_local bool t_inside_pool = false;

// A lazily constructed pool of N-1 workers; the calling thread acts as the
// Nth worker so small loops never pay a wake-up latency for the entire
// range. Run() does not return until every worker has left Work(), so job
// state can be reused safely by the next call. The pool has one job slot:
// Run() holds run_mu_ for the whole job, and a caller that finds it taken
// (another thread's job is in flight) runs its range inline instead of
// overwriting the slot. Callers own their outputs by index range, so the
// result does not depend on which thread ran which range.
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool pool;
    return pool;
  }

  int size() const { return static_cast<int>(workers_.size()) + 1; }

  void Run(int64_t begin, int64_t end,
           const std::function<void(int64_t, int64_t)>& fn,
           int64_t min_chunk) {
    const int64_t range = end - begin;
    const int nthreads = size();
    int64_t chunks = (range + min_chunk - 1) / min_chunk;
    if (chunks > nthreads) chunks = nthreads;
    if (chunks <= 1 || t_inside_pool) {
      fn(begin, end);
      return;
    }
    std::unique_lock<std::mutex> run_lock(run_mu_, std::try_to_lock);
    if (!run_lock.owns_lock()) {
      fn(begin, end);
      return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    job_fn_ = &fn;
    job_end_ = end;
    job_chunk_ = (range + chunks - 1) / chunks;
    next_.store(begin);
    // Ceil-rounding of job_chunk_ can reduce the number of real chunks
    // below `chunks` (e.g. range 9 over 4 threads -> 3 chunks of 3); count
    // the windows that will actually be claimed.
    pending_.store(static_cast<int>((range + job_chunk_ - 1) / job_chunk_));
    generation_++;
    lock.unlock();
    cv_.notify_all();
    // Participate from the calling thread.
    Work();
    // Wait until all chunks ran AND no worker is still inside Work().
    std::unique_lock<std::mutex> done_lock(mu_);
    done_cv_.wait(done_lock,
                  [this] { return pending_.load() == 0 && active_.load() == 0; });
    job_fn_ = nullptr;
  }

 private:
  ThreadPool() {
    const int n = CpusAvailable();
    for (int i = 0; i < n - 1; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  void WorkerLoop() {
    uint64_t seen = 0;
    while (true) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      // Enter Work() while still holding the lock so Run()'s completion
      // wait cannot miss this worker (active_ is raised before the job can
      // be observed complete).
      const auto* fn = job_fn_;
      if (fn == nullptr) continue;
      active_.fetch_add(1);
      lock.unlock();
      Work();
      if (active_.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> done_lock(mu_);
        done_cv_.notify_all();
      }
    }
  }

  // Claims chunks until the range is exhausted. Caller (worker loop or
  // Run()) is responsible for active_ accounting of non-main threads.
  void Work() {
    const auto* fn = job_fn_;
    if (fn == nullptr) return;
    t_inside_pool = true;
    while (true) {
      int64_t start = next_.fetch_add(job_chunk_);
      if (start >= job_end_) break;
      int64_t stop = std::min(start + job_chunk_, job_end_);
      (*fn)(start, stop);
      if (pending_.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(mu_);
        done_cv_.notify_all();
      }
    }
    t_inside_pool = false;
  }

  std::vector<std::thread> workers_;
  std::mutex run_mu_;  // held by the one external caller that owns the job slot
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  bool shutdown_ = false;
  uint64_t generation_ = 0;

  const std::function<void(int64_t, int64_t)>* job_fn_ = nullptr;
  int64_t job_end_ = 0;
  int64_t job_chunk_ = 0;
  std::atomic<int64_t> next_{0};
  std::atomic<int> pending_{0};
  std::atomic<int> active_{0};
};

}  // namespace

int ParallelismLevel() { return ThreadPool::Instance().size(); }

void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t, int64_t)>& fn,
                 int64_t min_chunk) {
  if (end <= begin) return;
  ThreadPool::Instance().Run(begin, end, fn, min_chunk);
}

}  // namespace galign
