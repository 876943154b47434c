#ifndef START_COMMON_PARALLEL_FOR_H_
#define START_COMMON_PARALLEL_FOR_H_

#include <cstdint>

/// \file
/// The library's one CPU-parallel primitive: a fork/join loop on a single
/// process-wide executor.
///
/// The executor's threads are the process's compute budget: by default
/// `std::thread::hardware_concurrency()` threads *counting the calling
/// thread*, i.e. budget - 1 workers, started on the first call that goes
/// parallel. Four rules:
///  - **Caller participates.** The calling thread claims chunks too and only
///    waits for chunks a worker has already started. A busy pool never blocks
///    a call; the caller just runs more of the chunks itself. Callers count
///    against the budget: a worker helps only while fewer than `budget`
///    threads are running chunks, so concurrent callers are not
///    oversubscribed.
///  - **Nested calls run inline.** A ParallelFor from inside a chunk (on a
///    worker or on a participating caller) runs all its chunks serially on
///    that thread, so parallelism lives at exactly one level.
///  - **Small ranges run serially.** A range that is one chunk never touches
///    the executor. Sites derive the grain from their work per index with
///    GrainFor, one rule for every kernel.
///  - **Fixed chunks.** Chunk c covers
///    [begin + c*grain, min(end, begin + (c+1)*grain)). The boundaries depend
///    only on (begin, end, grain), never on the budget or on which thread
///    runs a chunk. Every call site writes disjoint outputs per index, so its
///    results are bitwise identical at every budget by construction.
///
/// Long-lived blocking loops (service workers, pipeline stages, loader
/// workers) do not belong here; they run on common::ThreadPool and draw on
/// this budget for their compute.

namespace start::common {

/// Work a chunk must carry before it is worth handing to another thread, in
/// units of about one f32 multiply-add in a vectorised loop (2M units is
/// roughly 0.3-1 ms on one core). It keeps the encoder kernels of a serving
/// micro-batch (a few trajectories: ~450 rows x 64 x 64) serial.
constexpr int64_t kMinChunkWork = int64_t{1} << 21;

/// Indices per chunk for a loop whose iterations each cost `work_per_index`
/// units: the fewest that reach the minimum chunk work (at least 1).
int64_t GrainFor(int64_t work_per_index);

namespace internal {

using ChunkFn = void (*)(const void* ctx, int64_t chunk_begin,
                         int64_t chunk_end);

/// Splits [begin, end) into fixed chunks of `grain` and runs them on the
/// executor (or inline, see the rules above).
void RunChunks(int64_t begin, int64_t end, int64_t grain, ChunkFn fn,
               const void* ctx);

}  // namespace internal

/// Calls `fn(chunk_begin, chunk_end)` exactly once per fixed chunk of
/// [begin, end), possibly concurrently, and returns when all have run.
/// `grain` (>= 1) is the chunk length. `fn` must not throw.
template <class Fn>
void ParallelFor(int64_t begin, int64_t end, int64_t grain, const Fn& fn) {
  if (end - begin <= grain) {
    if (end > begin) fn(begin, end);
    return;
  }
  internal::RunChunks(
      begin, end, grain,
      [](const void* ctx, int64_t b, int64_t e) {
        (*static_cast<const Fn*>(ctx))(b, e);
      },
      &fn);
}

/// Threads a ParallelFor may occupy, counting the caller.
int ThreadBudget();

/// \brief Sets the executor's budget (and minimum chunk work) for its scope.
///
/// For tests and benchmarks that sweep budgets in one process; not a tuning
/// knob. A smaller `min_chunk_work` makes test-sized kernels split into many
/// chunks so the sweep exercises the parallel path. Safe while other threads
/// are inside ParallelFor (their calls finish on the old workers or on the
/// caller); must not be used from inside a chunk. Scopes must nest.
class ScopedThreadBudget {
 public:
  explicit ScopedThreadBudget(int budget,
                              int64_t min_chunk_work = kMinChunkWork);
  ~ScopedThreadBudget();

  ScopedThreadBudget(const ScopedThreadBudget&) = delete;
  ScopedThreadBudget& operator=(const ScopedThreadBudget&) = delete;

 private:
  int prev_budget_;
  int64_t prev_min_chunk_work_;
};

}  // namespace start::common

#endif  // START_COMMON_PARALLEL_FOR_H_
