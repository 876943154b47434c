#include "tensor/buffer_pool.h"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace start::tensor {

namespace {

/// Bucket index: ceil(log2(n)) clamped to the bucket range; bucket k serves
/// requests with n in (2^(k-1), 2^k].
int BucketForRequest(size_t n) {
  int k = 0;
  size_t cap = 1;
  while (cap < n) {
    cap <<= 1;
    ++k;
  }
  return k;
}

/// Bucket a buffer is parked in: floor(log2(capacity)), so every buffer in
/// bucket k has capacity >= 2^k and can serve any request routed to k.
int BucketForCapacity(size_t cap) {
  int k = -1;
  while (cap != 0) {
    cap >>= 1;
    ++k;
  }
  return k;
}

/// Set once this thread's cache is destroyed; later releases (from
/// thread_local or static destructors) bypass it.
thread_local bool t_cache_gone = false;

}  // namespace

/// A thread's private front of the pool. It only has to cover the buffers
/// one thread releases and re-acquires within a step, so it is small;
/// everything else flows through the shared free list. Its counters are
/// written by the owner thread only (stats() reads them), so the hot path
/// writes no shared cache line.
struct BufferPool::ThreadCache {
  static constexpr int kPerBucket = 16;
  static constexpr uint64_t kMaxBufferBytes = uint64_t{64} << 10;
  static constexpr uint64_t kMaxBytes = uint64_t{1} << 20;

  std::vector<float>* slots[kNumBuckets][kPerBucket] = {};
  int count[kNumBuckets] = {};
  std::atomic<uint64_t> hits{0}, recycled{0}, bytes{0};

  ThreadCache() {
    BufferPool& pool = Global();
    std::lock_guard<std::mutex> lock(pool.mu_);
    pool.caches_.push_back(this);
  }

  ~ThreadCache() {
    t_cache_gone = true;
    Drop();
    BufferPool& pool = Global();
    std::lock_guard<std::mutex> lock(pool.mu_);
    pool.caches_.erase(
        std::find(pool.caches_.begin(), pool.caches_.end(), this));
    pool.stats_.hits += Get(hits);
    pool.stats_.recycled += Get(recycled);
  }

  ThreadCache(const ThreadCache&) = delete;
  ThreadCache& operator=(const ThreadCache&) = delete;

  /// Owner-only update: a plain store, no locked read-modify-write.
  static void Set(std::atomic<uint64_t>* c, uint64_t value) {
    c->store(value, std::memory_order_relaxed);
  }
  static uint64_t Get(const std::atomic<uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  }

  /// Frees every parked buffer.
  void Drop() {
    for (int b = 0; b < kNumBuckets; ++b) {
      for (int i = 0; i < count[b]; ++i) delete slots[b][i];
      count[b] = 0;
    }
    Set(&bytes, 0);
  }

  std::vector<float>* Take(int bucket) {
    if (count[bucket] == 0) return nullptr;
    std::vector<float>* v = slots[bucket][--count[bucket]];
    Set(&bytes, Get(bytes) - v->capacity() * sizeof(float));
    Set(&hits, Get(hits) + 1);
    return v;
  }

  bool Park(std::vector<float>* v, int bucket) {
    const uint64_t size = v->capacity() * sizeof(float);
    if (size > kMaxBufferBytes || count[bucket] == kPerBucket ||
        Get(bytes) + size > kMaxBytes) {
      return false;
    }
    slots[bucket][count[bucket]++] = v;
    Set(&bytes, Get(bytes) + size);
    Set(&recycled, Get(recycled) + 1);
    return true;
  }

  static ThreadCache* ForThisThread() {
    if (t_cache_gone) return nullptr;
    thread_local ThreadCache cache;
    return &cache;
  }
};

BufferPool& BufferPool::Global() {
  static BufferPool* pool = new BufferPool();  // leaked: outlives all tensors
  return *pool;
}

std::shared_ptr<std::vector<float>> BufferPool::Acquire(size_t n) {
  const int bucket = std::min(BucketForRequest(n), kNumBuckets - 1);
  ThreadCache* cache = ThreadCache::ForThisThread();
  std::vector<float>* raw = cache != nullptr ? cache->Take(bucket) : nullptr;
  if (raw == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!buckets_[bucket].empty()) {
      raw = buckets_[bucket].back().release();
      buckets_[bucket].pop_back();
      stats_.hits++;
      stats_.free_bytes -= raw->capacity() * sizeof(float);
    } else {
      stats_.misses++;
    }
  }
  if (raw == nullptr) {
    raw = new std::vector<float>();
    raw->reserve(static_cast<size_t>(1) << bucket);
  }
  raw->resize(n);
  return std::shared_ptr<std::vector<float>>(
      raw, [this](std::vector<float>* v) { Release(v); });
}

std::shared_ptr<std::vector<float>> BufferPool::AcquireZeroed(size_t n) {
  auto buf = Acquire(n);
  std::memset(buf->data(), 0, n * sizeof(float));
  return buf;
}

std::shared_ptr<std::vector<float>> BufferPool::Adopt(std::vector<float> v) {
  auto* raw = new std::vector<float>(std::move(v));
  return std::shared_ptr<std::vector<float>>(
      raw, [this](std::vector<float>* p) { Release(p); });
}

void BufferPool::Release(std::vector<float>* v) {
  if (v->capacity() == 0) {
    delete v;
    return;
  }
  const int bucket = std::min(BucketForCapacity(v->capacity()), kNumBuckets - 1);
  ThreadCache* cache = ThreadCache::ForThisThread();
  if (cache != nullptr && cache->Park(v, bucket)) return;
  const uint64_t bytes = v->capacity() * sizeof(float);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (buckets_[bucket].size() < kMaxFreePerBucket &&
        stats_.free_bytes + bytes <= kMaxFreeBytes) {
      stats_.recycled++;
      stats_.free_bytes += bytes;
      buckets_[bucket].emplace_back(v);
      return;
    }
  }
  // A full free list frees outside the lock: free() of a large buffer can
  // unmap pages, and the lock is on every thread's allocation path.
  delete v;
}

void BufferPool::Trim() {
  if (ThreadCache* cache = ThreadCache::ForThisThread()) cache->Drop();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& bucket : buckets_) bucket.clear();
  stats_.free_bytes = 0;
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  for (const ThreadCache* cache : caches_) {
    s.hits += ThreadCache::Get(cache->hits);
    s.recycled += ThreadCache::Get(cache->recycled);
    s.free_bytes += ThreadCache::Get(cache->bytes);
  }
  return s;
}

std::shared_ptr<std::vector<float>> AcquireBuffer(int64_t n) {
  return BufferPool::Global().Acquire(static_cast<size_t>(n));
}

}  // namespace start::tensor
