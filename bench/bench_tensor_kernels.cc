// Microbenchmark for the elementwise kernel engine: broadcast and same-shape
// ops at transformer-pretraining shapes [B=64, T=128, D=256], against a
// faithful reimplementation of the seed's scalar div/mod broadcast loop,
// per-head attention BMMs over strided slices against a scalar loop over
// copied slices, the Linear-backward GemmNT/GemmTN against their scalar
// backend, and the int8 qgemm::AffineForward's AVX2 kernel against its
// scalar backend (the AVX-VNNI kernel, where the host has it, reported beside).
// Each other kernel is also timed at thread budgets 1, 2 and 4
// (common::ScopedThreadBudget); the run fails if a row is slower at budget 4
// than at budget 1. The int8 rows run at budget 1 only: they are one chunk at
// every budget. Emits BENCH_tensor.json so CI tracks the kernel perf
// trajectory.
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j --target bench_tensor_kernels
//   ./build/bench_tensor_kernels
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "tensor/backend.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/qgemm.h"
#include "tensor/tensor.h"

namespace {

using start::common::Rng;
using start::common::ScopedThreadBudget;
using start::common::Stopwatch;
using start::tensor::NoGradGuard;
using start::tensor::Shape;
using start::tensor::Tensor;

constexpr int64_t kB = 64, kT = 128, kD = 256;

/// Thread budgets each row's kernel is timed at.
constexpr int kBudgets[] = {1, 2, 4};

/// The seed's broadcast indexing: per output element, a div/mod walk over the
/// padded dims recovers each input's flat index. Kept verbatim as the
/// baseline the fused kernels are measured against.
struct ScalarBroadcastMap {
  std::array<int64_t, 4> out_dims{};
  std::array<int64_t, 4> a_strides{};
  std::array<int64_t, 4> b_strides{};
  int64_t numel = 0;

  void Map(int64_t flat, int64_t* ia, int64_t* ib) const {
    int64_t a = 0;
    int64_t b = 0;
    for (int d = 3; d >= 0; --d) {
      const int64_t q = flat % out_dims[d];
      flat /= out_dims[d];
      a += q * a_strides[d];
      b += q * b_strides[d];
    }
    *ia = a;
    *ib = b;
  }
};

ScalarBroadcastMap MakeScalarMap(const Shape& a, const Shape& b) {
  const Shape out = start::tensor::BroadcastShapes(a, b);
  ScalarBroadcastMap map;
  map.numel = out.numel();
  map.out_dims.fill(1);
  map.a_strides.fill(0);
  map.b_strides.fill(0);
  for (int64_t i = 0; i < out.ndim(); ++i) {
    map.out_dims[static_cast<size_t>(3 - i)] = out.dim(out.ndim() - 1 - i);
  }
  auto fill = [&](const Shape& s, std::array<int64_t, 4>* st) {
    int64_t stride = 1;
    for (int64_t i = 0; i < s.ndim(); ++i) {
      const int64_t d = s.dim(s.ndim() - 1 - i);
      const size_t slot = static_cast<size_t>(3 - i);
      (*st)[slot] = (d == 1 && map.out_dims[slot] != 1) ? 0 : stride;
      stride *= d;
    }
  };
  fill(a, &map.a_strides);
  fill(b, &map.b_strides);
  return map;
}

void ScalarBroadcastAdd(const ScalarBroadcastMap& map, const float* pa,
                        const float* pb, float* out) {
  for (int64_t i = 0; i < map.numel; ++i) {
    int64_t ia, ib;
    map.Map(i, &ia, &ib);
    out[i] = pa[ia] + pb[ib];
  }
}

struct BenchResult {
  std::string name;
  double scalar_ms = 0.0;  // scalar reference loop
  double kernel_ms = 0.0;  // at the ambient thread budget
  double speedup = 0.0;
  std::vector<std::pair<int, double>> budget_ms;  // (budget, median ms)
  // Rows that time a chosen backend name it; a faster backend the host also
  // runs is reported (not floored) as extra_backend / extra_ms.
  std::string kernel_backend;
  std::string extra_backend;
  double extra_ms = 0.0;
};

/// Median-of-`iters` wall time of `fn` in milliseconds.
template <typename Fn>
double TimeMs(int iters, Fn fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    Stopwatch sw;
    fn();
    samples.push_back(sw.ElapsedMillis());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Times `kernel` at the ambient thread budget and at each of kBudgets.
template <typename Fn>
void TimeKernel(int iters, Fn kernel, BenchResult* r) {
  r->kernel_ms = TimeMs(iters, kernel);
  for (const int budget : kBudgets) {
    ScopedThreadBudget scoped(budget);
    r->budget_ms.emplace_back(budget, TimeMs(iters, kernel));
  }
}

BenchResult BenchBroadcast(const char* name, const Shape& sa, const Shape& sb,
                           int iters) {
  Rng rng(42);
  const Tensor a = Tensor::Rand(sa, &rng, -1, 1);
  const Tensor b = Tensor::Rand(sb, &rng, -1, 1);
  const ScalarBroadcastMap map = MakeScalarMap(sa, sb);
  std::vector<float> scalar_out(static_cast<size_t>(map.numel));

  BenchResult r;
  r.name = name;
  r.scalar_ms = TimeMs(iters, [&] {
    ScalarBroadcastAdd(map, a.data(), b.data(), scalar_out.data());
  });
  NoGradGuard no_grad;
  Tensor sink;  // keep the result alive so the write isn't elided
  TimeKernel(iters, [&] { sink = start::tensor::Add(a, b); }, &r);
  // Cross-check: both paths must agree elementwise.
  for (int64_t i = 0; i < map.numel; ++i) {
    const float diff = scalar_out[static_cast<size_t>(i)] - sink.data()[i];
    if (diff > 1e-6f || diff < -1e-6f) {
      std::fprintf(stderr, "MISMATCH in %s at %lld\n", name,
                   static_cast<long long>(i));
      std::exit(1);
    }
  }
  r.speedup = r.scalar_ms / r.kernel_ms;
  return r;
}

/// Scalar reference for one head's scores: copy the strided head slices
/// into dense buffers, then a naive dot per output.
void ScalarHeadScores(const Tensor& q, const Tensor& k, int64_t h, int64_t hd,
                      std::vector<float>* qs, std::vector<float>* ks,
                      float* out) {
  const int64_t b = q.dim(0), t = q.dim(1), d = q.dim(2);
  for (int64_t i = 0; i < b * t; ++i) {
    for (int64_t j = 0; j < hd; ++j) {
      (*qs)[static_cast<size_t>(i * hd + j)] = q.data()[i * d + h * hd + j];
      (*ks)[static_cast<size_t>(i * hd + j)] = k.data()[i * d + h * hd + j];
    }
  }
  for (int64_t bi = 0; bi < b; ++bi) {
    const float* qb = qs->data() + bi * t * hd;
    const float* kb = ks->data() + bi * t * hd;
    for (int64_t i = 0; i < t; ++i) {
      for (int64_t j = 0; j < t; ++j) {
        float acc = 0.0f;
        for (int64_t p = 0; p < hd; ++p) acc += qb[i * hd + p] * kb[j * hd + p];
        out[(bi * t + i) * t + j] = acc;
      }
    }
  }
}

BenchResult BenchView(const char* name, int iters) {
  // Attention-style strided consumption: per-head slice into BMM.
  Rng rng(7);
  const int64_t batch = 8, heads = 8, hd = kD / heads;
  const Tensor q = Tensor::Rand(Shape({batch, kT, kD}), &rng, -1, 1);
  const Tensor k = Tensor::Rand(Shape({batch, kT, kD}), &rng, -1, 1);
  std::vector<float> qs(static_cast<size_t>(batch * kT * hd));
  std::vector<float> ks(qs.size());
  std::vector<float> scalar_out(static_cast<size_t>(heads * batch * kT * kT));
  BenchResult r;
  r.name = name;
  r.scalar_ms = TimeMs(iters, [&] {
    for (int64_t h = 0; h < heads; ++h) {
      ScalarHeadScores(q, k, h, hd, &qs, &ks,
                       scalar_out.data() + h * batch * kT * kT);
    }
  });
  NoGradGuard no_grad;
  std::vector<Tensor> sinks(static_cast<size_t>(heads));
  TimeKernel(iters, [&] {
    for (int64_t h = 0; h < heads; ++h) {
      const Tensor qh = start::tensor::Slice(q, 2, h * hd, hd);
      const Tensor kh = start::tensor::Slice(k, 2, h * hd, hd);
      sinks[static_cast<size_t>(h)] =
          start::tensor::BatchMatMul(qh, kh, /*transpose_b=*/true);
    }
  }, &r);
  // Cross-check: both paths must agree elementwise.
  for (int64_t h = 0; h < heads; ++h) {
    const float* got = sinks[static_cast<size_t>(h)].data();
    const float* want = scalar_out.data() + h * batch * kT * kT;
    for (int64_t i = 0; i < batch * kT * kT; ++i) {
      const float diff = got[i] - want[i];
      if (diff > 1e-4f || diff < -1e-4f) {
        std::fprintf(stderr, "MISMATCH in %s at head %lld index %lld\n", name,
                     static_cast<long long>(h), static_cast<long long>(i));
        std::exit(1);
      }
    }
  }
  r.speedup = r.scalar_ms / r.kernel_ms;
  return r;
}

/// Linear-backward GEMMs at perfbench's d=64 model: `nt` is dX = dY·Wᵀ
/// ([640,64]·[64,64]ᵀ), otherwise dW = Xᵀ·dY ([640,64]ᵀ·[640,64]). The
/// scalar reference is the same primitive on the scalar backend at budget 1;
/// both backends must agree bitwise.
BenchResult BenchGemm(const char* name, bool nt, int iters) {
  using start::tensor::Backend;
  constexpr int64_t kRows = 640, kDim = 64;
  Rng rng(11);
  const Tensor a = Tensor::Rand(Shape({kRows, kDim}), &rng, -1, 1);
  const Tensor b = nt ? Tensor::Rand(Shape({kDim, kDim}), &rng, -1, 1)
                      : Tensor::Rand(Shape({kRows, kDim}), &rng, -1, 1);
  const int64_t m = nt ? kRows : kDim;
  std::vector<float> c(static_cast<size_t>(m * kDim));
  const auto gemm = [&](Backend backend) {
    if (nt) {
      start::tensor::internal::GemmNT(a.data(), kDim, b.data(), kDim,
                                      c.data(), kDim, kRows, kDim, kDim,
                                      backend);
    } else {
      start::tensor::internal::GemmTN(a.data(), kDim, b.data(), kDim,
                                      c.data(), kDim, kDim, kRows, kDim,
                                      backend);
    }
  };
  const auto run_from_zero = [&](Backend backend) {
    std::fill(c.begin(), c.end(), 0.0f);
    gemm(backend);
    return c;
  };
  const Backend active = start::tensor::ActiveBackend();
  if (run_from_zero(Backend::kScalar) != run_from_zero(active)) {
    std::fprintf(stderr, "MISMATCH in %s: %s backend differs from scalar\n",
                 name, start::tensor::BackendName(active));
    std::exit(1);
  }
  BenchResult r;
  r.name = name;
  {
    ScopedThreadBudget serial(1);
    r.scalar_ms = TimeMs(iters, [&] { gemm(Backend::kScalar); });
  }
  TimeKernel(iters, [&] { gemm(active); }, &r);
  r.speedup = r.scalar_ms / r.kernel_ms;
  return r;
}

/// The int8 serving path nn::Linear runs: AffineForward of [m, 64] against
/// packed [64, 64] weights. The reference is the scalar backend and the
/// floored ratio is the AVX2 kernel's, which every SIMD host runs, so the
/// committed floor means the same on hosts with and without AVX-VNNI; on a
/// VNNI host that kernel is timed as well and reported beside it. All run at
/// budget 1, since the grain rule keeps the whole call one chunk at these
/// sizes (a budget sweep would time identical work). Every backend must
/// agree with scalar bitwise.
BenchResult BenchQGemmAffine(const char* name, int64_t m, int iters) {
  namespace qg = start::tensor::qgemm;
  constexpr int64_t kDim = 64;
  Rng rng(13);
  const Tensor x = Tensor::Rand(Shape({m, kDim}), &rng, -1, 1);
  const Tensor w = Tensor::Rand(Shape({kDim, kDim}), &rng, -1, 1);
  const Tensor bias = Tensor::Rand(Shape({kDim}), &rng, -1, 1);
  const qg::PackedMatrix packed =
      qg::QuantizeAndPack(w.data(), kDim, kDim, kDim);
  std::vector<float> y(static_cast<size_t>(m * kDim));
  const auto affine = [&](qg::Backend backend) {
    qg::AffineForward(x.data(), kDim, m, packed, bias.data(), y.data(), kDim,
                      backend);
  };
  const qg::Backend active = qg::ActiveBackend();
  const qg::Backend floored = start::tensor::IsSimd(active)
                                  ? qg::Backend::kAvx2
                                  : qg::Backend::kScalar;
  affine(qg::Backend::kScalar);
  const std::vector<float> want = y;
  for (const qg::Backend backend : {floored, active}) {
    affine(backend);
    if (std::memcmp(want.data(), y.data(), y.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "MISMATCH in %s: %s backend differs from scalar\n",
                   name, qg::BackendName(backend));
      std::exit(1);
    }
  }
  BenchResult r;
  r.name = name;
  r.kernel_backend = qg::BackendName(floored);
  ScopedThreadBudget serial(1);
  r.scalar_ms = TimeMs(iters, [&] { affine(qg::Backend::kScalar); });
  r.kernel_ms = TimeMs(iters, [&] { affine(floored); });
  r.budget_ms.emplace_back(1, r.kernel_ms);
  r.speedup = r.scalar_ms / r.kernel_ms;
  if (active != floored) {
    r.extra_backend = qg::BackendName(active);
    r.extra_ms = TimeMs(iters, [&] { affine(active); });
  }
  return r;
}

}  // namespace

int main() {
  std::vector<BenchResult> results;
  // The acceptance shape: [B=64, T=128, D=256] broadcast elementwise.
  results.push_back(
      BenchBroadcast("add_broadcast_row_B64_T128_D256", Shape({kB, kT, kD}),
                     Shape({kD}), 9));
  results.push_back(
      BenchBroadcast("add_broadcast_col_B64_T128_D256", Shape({kB, kT, kD}),
                     Shape({kB, kT, 1}), 9));
  results.push_back(BenchBroadcast("add_same_shape_B64_T128_D256",
                                   Shape({kB, kT, kD}), Shape({kB, kT, kD}),
                                   9));
  results.push_back(BenchView("bmm_head_slices_B8_T128_D256", 9));
  results.push_back(BenchGemm("gemm_nt_linear_dx_640x64x64", true, 41));
  results.push_back(BenchGemm("gemm_tn_linear_dw_640x64x64", false, 41));
  results.push_back(BenchQGemmAffine("qgemm_affine_180x64x64", 180, 201));
  results.push_back(BenchQGemmAffine("qgemm_affine_640x64x64", 640, 101));

  std::FILE* json = std::fopen("BENCH_tensor.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_tensor.json for writing\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::printf("%-36s scalar %8.3f ms   kernel %8.3f ms   speedup %5.2fx\n",
                r.name.c_str(), r.scalar_ms, r.kernel_ms, r.speedup);
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"scalar_ms\": %.4f, "
                 "\"kernel_ms\": %.4f, \"speedup\": %.3f",
                 r.name.c_str(), r.scalar_ms, r.kernel_ms, r.speedup);
    if (!r.kernel_backend.empty()) {
      std::printf("%-36s   kernel backend %s\n", "", r.kernel_backend.c_str());
      std::fprintf(json, ", \"kernel_backend\": \"%s\"",
                   r.kernel_backend.c_str());
    }
    if (!r.extra_backend.empty()) {
      std::printf("%-36s   %s %8.3f ms   speedup %5.2fx (not floored)\n", "",
                  r.extra_backend.c_str(), r.extra_ms,
                  r.scalar_ms / r.extra_ms);
      std::fprintf(json,
                   ", \"%s_ms\": %.4f, \"%s_speedup\": %.3f",
                   r.extra_backend.c_str(), r.extra_ms,
                   r.extra_backend.c_str(), r.scalar_ms / r.extra_ms);
    }
    for (size_t j = 0; j < r.budget_ms.size(); ++j) {
      const auto& [budget, ms] = r.budget_ms[j];
      std::printf("%-36s   budget %d %8.3f ms\n", "", budget, ms);
      std::fprintf(json, "%s\"%d\": %.4f",
                   j == 0 ? ", \"budget_ms\": {" : ", ", budget, ms);
    }
    std::fprintf(json, "}}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_tensor.json\n");

  // Acceptance gates: broadcast elementwise must beat the seed scalar loop
  // 2x, and no row may get slower when the budget grows from 1 to 4 threads.
  int status = 0;
  for (const auto& r : results) {
    if (r.name.find("broadcast") != std::string::npos && r.speedup < 2.0) {
      std::fprintf(stderr, "FAIL: %s speedup %.2fx < 2x\n", r.name.c_str(),
                   r.speedup);
      status = 1;
    }
    if (r.budget_ms.back().second > r.budget_ms.front().second) {
      std::fprintf(stderr, "FAIL: %s budget %d %.3f ms > budget %d %.3f ms\n",
                   r.name.c_str(), r.budget_ms.back().first,
                   r.budget_ms.back().second, r.budget_ms.front().first,
                   r.budget_ms.front().second);
      status = 1;
    }
  }
  return status;
}
