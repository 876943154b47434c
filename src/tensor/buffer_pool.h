#ifndef START_TENSOR_BUFFER_POOL_H_
#define START_TENSOR_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace start::tensor {

/// \brief Thread-safe free-list recycler for the float buffers backing tensor
/// data and gradients.
///
/// Training steps allocate and release the same buffer sizes over and over;
/// round-tripping each through malloc dominated the allocator profile of the
/// pretraining loop. The pool keeps released buffers in power-of-two capacity
/// buckets and hands them back on the next Acquire of a fitting size, so a
/// steady-state training step performs no heap allocation for tensor storage.
///
/// Buffers are returned as shared_ptr<std::vector<float>> whose deleter
/// recycles the vector into the pool instead of freeing it. The pool is a
/// leaky singleton, which keeps recycling deleters valid during static
/// destruction.
///
/// Each thread parks a few recently released buffers per size class in its
/// own cache and serves its next acquires from there without the lock, so
/// threads allocating at once (replicas of a sharded training step, parallel
/// chunks) do not serialise on the shared free list.
class BufferPool {
 public:
  /// Process-wide pool used by all tensor allocations.
  static BufferPool& Global();

  /// Returns a buffer with size() == n. Contents are unspecified (callers
  /// overwrite); use AcquireZeroed when zero-fill is required.
  std::shared_ptr<std::vector<float>> Acquire(size_t n);

  /// Returns a zero-filled buffer with size() == n.
  std::shared_ptr<std::vector<float>> AcquireZeroed(size_t n);

  /// Wraps an already-built vector so that its buffer joins the pool when the
  /// last reference drops (adoption path for Tensor::FromVector etc.).
  std::shared_ptr<std::vector<float>> Adopt(std::vector<float> v);

  /// Drops the shared free list and the calling thread's cache (used by
  /// tests to get deterministic stats).
  void Trim();

  struct Stats {
    uint64_t hits = 0;       ///< Acquires served from the free list.
    uint64_t misses = 0;     ///< Acquires that had to allocate.
    uint64_t recycled = 0;   ///< Buffers returned to the free list.
    uint64_t free_bytes = 0; ///< Bytes currently parked in the free list.
  };
  Stats stats() const;

 private:
  struct ThreadCache;

  BufferPool() = default;
  void Release(std::vector<float>* v);

  static constexpr int kNumBuckets = 48;
  /// Per-bucket buffer-count cap; bounds worst-case retention per size class.
  static constexpr size_t kMaxFreePerBucket = 64;
  /// Global cap on bytes parked in the free list; buffers released beyond it
  /// are freed outright, so a large-batch training phase cannot pin hundreds
  /// of MB through a later small-batch phase.
  static constexpr uint64_t kMaxFreeBytes = 256ull << 20;  // 256 MB

  mutable std::mutex mu_;
  // Guarded by mu_: the shared free list, the live thread caches (read by
  // stats()), and the shared list's counters plus those of exited threads.
  std::vector<std::unique_ptr<std::vector<float>>> buckets_[kNumBuckets];
  std::vector<const ThreadCache*> caches_;
  Stats stats_;
};

/// Pool-backed buffer of `n` floats, unspecified contents; shorthand used by
/// op kernels for output and scratch allocation.
std::shared_ptr<std::vector<float>> AcquireBuffer(int64_t n);

}  // namespace start::tensor

#endif  // START_TENSOR_BUFFER_POOL_H_
