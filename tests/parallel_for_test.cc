// common::ParallelFor executor tests (under the `concurrency` ctest label, so
// the TSan CI job covers them): exact-once fixed chunking around the grain,
// inline nesting, concurrent outside callers, a caller that finishes while
// every worker is busy, budget-invariant reductions and the thread budget
// as a hard cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel_for.h"
#include "common/rng.h"

namespace start::common {
namespace {

TEST(ParallelForTest, GrainForReachesTheMinimumChunkWork) {
  EXPECT_EQ(GrainFor(kMinChunkWork), 1);
  EXPECT_EQ(GrainFor(2 * kMinChunkWork), 1);
  EXPECT_EQ(GrainFor(kMinChunkWork - 1), 2);
  EXPECT_EQ(GrainFor(1), kMinChunkWork);
  EXPECT_EQ(GrainFor(0), kMinChunkWork);  // no work per index: one chunk
  ScopedThreadBudget budget(2, 100);
  EXPECT_EQ(GrainFor(30), 4);
}

TEST(ParallelForTest, EveryIndexRunsOnceInFixedChunks) {
  for (const int threads : {1, 4}) {
    ScopedThreadBudget budget(threads);
    for (const int64_t grain : {1, 3, 7, 64}) {
      for (const int64_t n : {int64_t{0}, int64_t{1}, grain - 1, grain,
                              grain + 1, 2 * grain, 2 * grain + 1,
                              10 * grain + 3}) {
        SCOPED_TRACE("budget=" + std::to_string(threads) +
                     " grain=" + std::to_string(grain) +
                     " n=" + std::to_string(n));
        const int64_t begin = 5;  // a non-zero origin anchors the chunks
        std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
        std::mutex mu;
        std::vector<std::pair<int64_t, int64_t>> chunks;
        ParallelFor(begin, begin + n, grain, [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            hits[static_cast<size_t>(i - begin)].fetch_add(1);
          }
          std::lock_guard<std::mutex> lock(mu);
          chunks.emplace_back(lo, hi);
        });
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
        }
        std::sort(chunks.begin(), chunks.end());
        std::vector<std::pair<int64_t, int64_t>> expected;
        for (int64_t lo = begin; lo < begin + n; lo += grain) {
          expected.emplace_back(lo, std::min(begin + n, lo + grain));
        }
        EXPECT_EQ(chunks, expected);
      }
    }
  }
}

TEST(ParallelForTest, NestedCallRunsInlineOnTheChunkThread) {
  ScopedThreadBudget budget(4);
  std::atomic<int> foreign{0};
  std::atomic<int> inner_chunks{0};
  ParallelFor(0, 8, 1, [&](int64_t, int64_t) {
    const std::thread::id outer = std::this_thread::get_id();
    ParallelFor(0, 16, 1, [&](int64_t, int64_t) {
      inner_chunks.fetch_add(1);
      if (std::this_thread::get_id() != outer) foreign.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_chunks.load(), 8 * 16);
  EXPECT_EQ(foreign.load(), 0);
}

TEST(ParallelForTest, ManyOutsideCallersFinishWithoutDeadlock) {
  ScopedThreadBudget budget(4);
  constexpr int kCallers = 8;
  constexpr int64_t kN = 2000;
  std::vector<int64_t> totals(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&totals, c] {
      for (int round = 0; round < 40; ++round) {
        std::vector<int64_t> out(static_cast<size_t>(kN), 0);
        ParallelFor(0, kN, 16 + c, [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) out[static_cast<size_t>(i)] = i;
        });
        for (const int64_t v : out) totals[static_cast<size_t>(c)] += v;
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(totals[static_cast<size_t>(c)], 40 * kN * (kN - 1) / 2);
  }
}

TEST(ParallelForTest, CallerFinishesAloneWhileEveryWorkerIsBusy) {
  ScopedThreadBudget budget(4);
  std::atomic<int> parked{0};
  std::atomic<bool> release{false};
  // Four chunks park the other caller and all three workers.
  std::thread hog([&] {
    ParallelFor(0, 4, 1, [&](int64_t, int64_t) {
      parked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (parked.load() < 4) std::this_thread::yield();
  std::set<std::thread::id> ran_on;
  int64_t sum = 0;
  ParallelFor(0, 100, 1, [&](int64_t lo, int64_t) {
    ran_on.insert(std::this_thread::get_id());  // one thread: no lock needed
    sum += lo;
  });
  EXPECT_EQ(sum, 99 * 100 / 2);
  EXPECT_EQ(ran_on, std::set<std::thread::id>{std::this_thread::get_id()});
  release.store(true);
  hog.join();
}

TEST(ParallelForTest, FixedChunkReductionIsBitwiseEqualAcrossBudgets) {
  Rng rng(17);
  std::vector<float> x(100003);
  for (auto& v : x) v = static_cast<float>(rng.Uniform(-1.0, 1.0)) * 1e3f;
  constexpr int64_t kGrain = 997;
  const int64_t n = static_cast<int64_t>(x.size());
  std::vector<float> sums;
  for (const int threads : {1, 2, 4}) {
    ScopedThreadBudget budget(threads);
    std::vector<float> partial(static_cast<size_t>((n + kGrain - 1) / kGrain));
    ParallelFor(0, n, kGrain, [&](int64_t lo, int64_t hi) {
      float acc = 0.0f;
      for (int64_t i = lo; i < hi; ++i) acc += x[static_cast<size_t>(i)];
      partial[static_cast<size_t>(lo / kGrain)] = acc;
    });
    float total = 0.0f;
    for (const float p : partial) total += p;
    sums.push_back(total);
  }
  for (const float s : sums) {
    EXPECT_EQ(std::memcmp(&s, &sums[0], sizeof(float)), 0);
  }
}

TEST(ParallelForTest, PeakThreadsStayWithinTheBudget) {
  for (const int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE("budget=" + std::to_string(threads));
    ScopedThreadBudget budget(threads);
    EXPECT_EQ(ThreadBudget(), threads);
    std::atomic<int> active{0};
    std::atomic<int> peak{0};
    std::mutex mu;
    std::set<std::thread::id> ids;
    for (int round = 0; round < 10; ++round) {
      ParallelFor(0, 32, 1, [&](int64_t, int64_t) {
        const int now = active.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          ids.insert(std::this_thread::get_id());
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        active.fetch_sub(1);
      });
    }
    EXPECT_LE(peak.load(), threads);
    EXPECT_LE(static_cast<int>(ids.size()), threads);
  }
}

}  // namespace
}  // namespace start::common
