#include "common/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"

namespace start::common {
namespace {

/// True while this thread runs a chunk; a nested call then runs inline.
thread_local bool t_in_chunk = false;

std::atomic<int64_t> g_min_chunk_work{kMinChunkWork};

/// One parallel ParallelFor call. Workers hold it through shared_ptr
/// tickets, so a ticket popped after the call returned still finds a live
/// (exhausted) job and drops it without touching the caller's `ctx`.
struct Job {
  internal::ChunkFn fn = nullptr;
  const void* ctx = nullptr;
  int64_t begin = 0, end = 0, grain = 1, chunks = 0;
  std::atomic<int64_t> next{0};  ///< Next unclaimed chunk.
  std::atomic<int64_t> done{0};  ///< Finished chunks.
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;  ///< All chunks done; guarded by mu.
};

/// The budget's worker threads. A worker only ever helps: every chunk it
/// could run is also claimable by the calling thread, so a ticket that waits
/// in the queue, or that a worker gives up, delays nothing.
///
/// The budget counts threads running chunks, callers included: a caller
/// holds a slot for its whole call, and a worker takes a free slot for each
/// chunk it runs or gives its ticket up. Several busy callers therefore
/// never get the workers piled on top of them.
///
/// Parked workers are woken last-parked first. A run of small calls that
/// each offer one ticket then keeps reusing the one worker that just went
/// idle, whose core and caches are still warm, instead of waking whichever
/// worker has slept longest (on a VM, a halted vCPU can take longer to wake
/// than a sub-millisecond chunk takes to run).
class Pool {
 public:
  explicit Pool(int workers) : parked_(static_cast<size_t>(workers)) {
    threads_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      threads_.emplace_back([this, i] { Loop(i); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      for (auto& p : parked_) p.cv.notify_one();
    }
    for (auto& t : threads_) t.join();
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Runs `job` with the calling thread participating; returns when every
  /// chunk has finished.
  void Run(const std::shared_ptr<Job>& job) {
    const int64_t busy = busy_.fetch_add(1) + 1;
    Offer(job, std::clamp<int64_t>(budget() - busy, 0, job->chunks - 1));
    Work(*job, /*helper=*/false);
    {
      // Only chunks a worker already claimed can be outstanding here.
      std::unique_lock<std::mutex> lock(job->mu);
      job->cv.wait(lock, [&job] { return job->finished; });
    }
    busy_.fetch_sub(1);
  }

 private:
  int64_t budget() const { return static_cast<int64_t>(threads_.size()) + 1; }

  /// Queues `tickets` invitations for workers to help with `job`.
  void Offer(const std::shared_ptr<Job>& job, int64_t tickets) {
    if (tickets == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    for (int64_t i = 0; i < tickets; ++i) {
      queue_.push_back(job);
      // A ticket no parked worker takes now waits for a busy one.
      if (idle_.empty()) continue;
      Parked& p = parked_[static_cast<size_t>(idle_.back())];
      idle_.pop_back();
      p.woken = true;
      p.cv.notify_one();
    }
  }

  /// Takes a budget slot for one chunk, or returns false if none is free.
  bool TakeSlot() {
    int64_t busy = busy_.load();
    do {
      if (busy >= budget()) return false;
    } while (!busy_.compare_exchange_weak(busy, busy + 1));
    return true;
  }

  /// Claims and runs chunks of `job` until none are left unclaimed (or, for
  /// a helper, until the budget has no free slot).
  void Work(Job& job, bool helper) {
    const bool outer = t_in_chunk;
    t_in_chunk = true;
    while (!helper || TakeSlot()) {
      const int64_t c = job.next.fetch_add(1);
      if (c < job.chunks) {
        const int64_t b = job.begin + c * job.grain;
        job.fn(job.ctx, b, std::min(job.end, b + job.grain));
      }
      if (helper) busy_.fetch_sub(1);
      if (c >= job.chunks) break;
      if (job.done.fetch_add(1) + 1 == job.chunks) {
        std::lock_guard<std::mutex> lock(job.mu);
        job.finished = true;
        job.cv.notify_all();
      }
    }
    t_in_chunk = outer;
  }

  void Loop(int self) {
    Parked& parked = parked_[static_cast<size_t>(self)];
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        while (!stop_ && queue_.empty()) {
          idle_.push_back(self);
          parked.cv.wait(lock, [&] { return stop_ || parked.woken; });
          parked.woken = false;
        }
        if (stop_) return;
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      Work(*job, /*helper=*/true);
    }
  }

  /// One worker's wake-up channel.
  struct Parked {
    std::condition_variable cv;
    bool woken = false;  ///< Guarded by mu_.
  };

  std::atomic<int64_t> busy_{0};  ///< Threads running chunks, callers incl.
  std::mutex mu_;
  std::vector<Parked> parked_;  ///< One per worker.
  std::vector<int> idle_;  ///< Parked workers, last parked at the back; mu_.
  std::deque<std::shared_ptr<Job>> queue_;  ///< Guarded by mu_.
  bool stop_ = false;                       ///< Guarded by mu_.
  std::vector<std::thread> threads_;        ///< Last: workers use the above.
};

/// The process-wide budget and its pool (started on first parallel use).
class Executor {
 public:
  /// Never destroyed: its workers may still be parked at process exit.
  static Executor& Get() {
    static Executor* executor = new Executor;
    return *executor;
  }

  /// The pool to run a parallel call on, or null when the budget is 1.
  /// Callers keep their reference for the whole call, so a concurrent
  /// SetBudget never joins a worker that is running one of their chunks.
  std::shared_ptr<Pool> Acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (budget_ <= 1) return nullptr;
    if (pool_ == nullptr) pool_ = std::make_shared<Pool>(budget_ - 1);
    return pool_;
  }

  int budget() {
    std::lock_guard<std::mutex> lock(mu_);
    return budget_;
  }

  /// Returns the previous budget. The old pool's workers are joined once
  /// the last call using them returns (here, if none is running).
  int SetBudget(int budget) {
    std::shared_ptr<Pool> old;
    int prev = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      old = std::move(pool_);
      prev = budget_;
      budget_ = budget;
    }
    return prev;
  }

 private:
  Executor() = default;

  std::mutex mu_;
  int budget_ = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));  ///< Guarded by mu_.
  std::shared_ptr<Pool> pool_;                              ///< Guarded by mu_.
};

}  // namespace

int64_t GrainFor(int64_t work_per_index) {
  const int64_t min_work = g_min_chunk_work.load(std::memory_order_relaxed);
  const int64_t w = std::max<int64_t>(1, work_per_index);
  return std::max<int64_t>(1, (min_work + w - 1) / w);
}

namespace internal {

void RunChunks(int64_t begin, int64_t end, int64_t grain, ChunkFn fn,
               const void* ctx) {
  START_CHECK_GE(grain, 1);
  const std::shared_ptr<Pool> pool =
      t_in_chunk ? nullptr : Executor::Get().Acquire();
  if (pool == nullptr) {
    for (int64_t b = begin; b < end; b += grain) {
      fn(ctx, b, std::min(end, b + grain));
    }
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = fn;
  job->ctx = ctx;
  job->begin = begin;
  job->end = end;
  job->grain = grain;
  job->chunks = (end - begin + grain - 1) / grain;
  pool->Run(job);
}

}  // namespace internal

int ThreadBudget() { return Executor::Get().budget(); }

ScopedThreadBudget::ScopedThreadBudget(int budget, int64_t min_chunk_work) {
  START_CHECK_GE(budget, 1);
  START_CHECK_GE(min_chunk_work, 1);
  START_CHECK_MSG(!t_in_chunk, "ScopedThreadBudget inside a ParallelFor chunk");
  prev_budget_ = Executor::Get().SetBudget(budget);
  prev_min_chunk_work_ = g_min_chunk_work.exchange(min_chunk_work);
}

ScopedThreadBudget::~ScopedThreadBudget() {
  Executor::Get().SetBudget(prev_budget_);
  g_min_chunk_work.store(prev_min_chunk_work_);
}

}  // namespace start::common
