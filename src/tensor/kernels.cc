#include "tensor/kernels.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/parallel_for.h"
#include "tensor/shape.h"

#if START_TENSOR_HAVE_AVX2
#include <immintrin.h>
#endif

namespace start::tensor::internal {

namespace {

/// Right-aligns `dims`/`strides` of one operand against the broadcast output
/// dims, zeroing strides on broadcast dimensions.
void AlignOperand(const Shape& shape, const std::vector<int64_t>& strides,
                  const std::array<int64_t, kMaxDims>& out_dims,
                  std::array<int64_t, kMaxDims>* data_strides,
                  std::array<int64_t, kMaxDims>* grad_strides) {
  data_strides->fill(0);
  if (grad_strides != nullptr) grad_strides->fill(0);
  const std::vector<int64_t> logical = RowMajorStrides(shape.dims());
  for (int64_t i = 0; i < shape.ndim(); ++i) {
    const size_t src = static_cast<size_t>(shape.ndim() - 1 - i);
    const size_t slot = static_cast<size_t>(kMaxDims - 1 - i);
    const bool broadcast = shape.dims()[src] == 1 && out_dims[slot] != 1;
    (*data_strides)[slot] = broadcast ? 0 : strides[src];
    if (grad_strides != nullptr) {
      (*grad_strides)[slot] = broadcast ? 0 : logical[src];
    }
  }
}

}  // namespace

ElementwisePlan MakeBinaryPlan(const TensorImpl& a, const TensorImpl& b) {
  START_CHECK_LE(a.shape.ndim(), kMaxDims);
  START_CHECK_LE(b.shape.ndim(), kMaxDims);
  const Shape out = BroadcastShapes(a.shape, b.shape);
  ElementwisePlan plan;
  plan.numel = out.numel();
  plan.dims.fill(1);
  for (int64_t i = 0; i < out.ndim(); ++i) {
    plan.dims[static_cast<size_t>(kMaxDims - 1 - i)] = out.dim(out.ndim() - 1 - i);
  }
  AlignOperand(a.shape, a.strides, plan.dims, &plan.a, &plan.ga);
  AlignOperand(b.shape, b.strides, plan.dims, &plan.b, &plan.gb);
  plan.fast = a.shape == b.shape && a.contiguous && b.contiguous;
  return plan;
}

ElementwisePlan MakeUnaryPlan(const TensorImpl& a) {
  START_CHECK_LE(a.shape.ndim(), kMaxDims);
  ElementwisePlan plan;
  plan.numel = a.numel();
  plan.dims.fill(1);
  for (int64_t i = 0; i < a.shape.ndim(); ++i) {
    plan.dims[static_cast<size_t>(kMaxDims - 1 - i)] =
        a.shape.dim(a.shape.ndim() - 1 - i);
  }
  AlignOperand(a.shape, a.strides, plan.dims, &plan.a, nullptr);
  plan.fast = a.contiguous;
  return plan;
}

// The GEMMs split rows of C into fixed chunks; each C element is a fixed
// serial fold, so C is bitwise identical at any thread budget. GemmNT and
// GemmTN also have AVX2 register-tiled kernels that run each element's fold
// as exactly the same float operations in the same order as the scalar
// loops (README.md, "GEMM kernels"), so they are bitwise identical to them.

namespace {

/// GrainFor work of one row of C: k·n multiply-adds plus a fixed cost per
/// inner loop, which dominates skinny shapes such as [rows, 8] x [8, 1].
int64_t GemmRowWork(int64_t k, int64_t n) { return k * n + 2 * (k + n); }

/// Scalar GemmNT over rows [lo, hi) of C: per element a fresh accumulator,
/// folded over p ascending, added to C once.
void GemmNTRowsScalar(const float* a, int64_t lda, const float* b,
                      int64_t ldb, float* c, int64_t ldc, int64_t lo,
                      int64_t hi, int64_t k, int64_t n) {
  for (int64_t i = lo; i < hi; ++i) {
    float* crow = c + i * ldc;
    const float* arow = a + i * lda;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * ldb;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

/// Scalar GemmTN over rows [lo, hi) of C: C accumulates in place over p
/// ascending, skipping zero entries of A.
void GemmTNRowsScalar(const float* a, int64_t lda, const float* b,
                      int64_t ldb, float* c, int64_t ldc, int64_t lo,
                      int64_t hi, int64_t k, int64_t n) {
  for (int64_t i = lo; i < hi; ++i) {
    float* crow = c + i * ldc;
    for (int64_t p = 0; p < k; ++p) {
      const float av = a[p * lda + i];
      if (av == 0.0f) continue;
      const float* brow = b + p * ldb;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

#if START_TENSOR_HAVE_AVX2

/// GemmNT's register tile: 4 rows of C by one 8-column panel of packed B.
constexpr int64_t kNtTileRows = 4;
constexpr int64_t kPanelCols = 8;
/// GemmTN keeps up to this many columns of one C row in 4 registers.
constexpr int64_t kTnBlockCols = 32;

/// Lanes [0, cols) set, for cols in [1, 8].
__attribute__((target("avx2"))) __m256i LaneMask(int64_t cols) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(cols)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// c[0, cols) += acc.
__attribute__((target("avx2"))) void AddToRow(float* c, __m256 acc,
                                              int64_t cols) {
  if (cols == kPanelCols) {
    _mm256_storeu_ps(c, _mm256_add_ps(_mm256_loadu_ps(c), acc));
  } else {
    const __m256i mask = LaneMask(cols);
    _mm256_maskstore_ps(c, mask,
                        _mm256_add_ps(_mm256_maskload_ps(c, mask), acc));
  }
}

/// Packs B ([n, k], ldb) into ceil(n / 8) panels of [k][8] floats, panel
/// j0 / 8 at packed + j0 * k; the last panel's missing columns are zero.
void PackNtPanels(const float* b, int64_t ldb, int64_t k, int64_t n,
                  float* packed) {
  for (int64_t j0 = 0; j0 < n; j0 += kPanelCols) {
    float* panel = packed + j0 * k;
    const int64_t cols = std::min(kPanelCols, n - j0);
    for (int64_t jj = 0; jj < cols; ++jj) {
      const float* brow = b + (j0 + jj) * ldb;
      for (int64_t p = 0; p < k; ++p) panel[p * kPanelCols + jj] = brow[p];
    }
    for (int64_t jj = cols; jj < kPanelCols; ++jj) {
      for (int64_t p = 0; p < k; ++p) panel[p * kPanelCols + jj] = 0.0f;
    }
  }
}

/// GemmNT over the 4-row tiles of rows [lo, lo + tiles·4). Each lane runs
/// the scalar fold: its accumulator starts at 0 and adds a·b for p
/// ascending (a multiply, then an add: FMA would round once instead of
/// twice), and the total is added to C once.
__attribute__((target("avx2"))) void GemmNTTilesAvx2(
    const float* a, int64_t lda, const float* packed, float* c, int64_t ldc,
    int64_t lo, int64_t tiles, int64_t k, int64_t n) {
  for (int64_t t = 0; t < tiles; ++t) {
    const int64_t i = lo + t * kNtTileRows;
    const float* a0 = a + i * lda;
    const float* a1 = a0 + lda;
    const float* a2 = a1 + lda;
    const float* a3 = a2 + lda;
    float* c0 = c + i * ldc;
    for (int64_t j0 = 0; j0 < n; j0 += kPanelCols) {
      const float* panel = packed + j0 * k;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      for (int64_t p = 0; p < k; ++p) {
        const __m256 bv = _mm256_loadu_ps(panel + p * kPanelCols);
        acc0 = _mm256_add_ps(acc0,
                             _mm256_mul_ps(_mm256_broadcast_ss(a0 + p), bv));
        acc1 = _mm256_add_ps(acc1,
                             _mm256_mul_ps(_mm256_broadcast_ss(a1 + p), bv));
        acc2 = _mm256_add_ps(acc2,
                             _mm256_mul_ps(_mm256_broadcast_ss(a2 + p), bv));
        acc3 = _mm256_add_ps(acc3,
                             _mm256_mul_ps(_mm256_broadcast_ss(a3 + p), bv));
      }
      const int64_t cols = std::min(kPanelCols, n - j0);
      AddToRow(c0 + j0, acc0, cols);
      AddToRow(c0 + ldc + j0, acc1, cols);
      AddToRow(c0 + 2 * ldc + j0, acc2, cols);
      AddToRow(c0 + 3 * ldc + j0, acc3, cols);
    }
  }
}

/// c[0, 8·(kRegs-1) + last_cols) += Σ_p a_col[p·lda] · b[p, ·], held in
/// kRegs registers across the whole p loop. Per lane this is the scalar
/// loop's c += a·b for p ascending, skipping a == 0; kMaskLast masks the
/// last register to its first `last_cols` lanes.
template <int kRegs, bool kMaskLast>
__attribute__((target("avx2"))) void TnRowBlock(const float* a_col,
                                                int64_t lda, const float* b,
                                                int64_t ldb, float* c,
                                                int64_t k, int64_t last_cols) {
  constexpr int kLast = kRegs - 1;
  const __m256i mask =
      kMaskLast ? LaneMask(last_cols) : _mm256_set1_epi32(-1);
  __m256 acc[kRegs];
#pragma GCC unroll 4
  for (int r = 0; r < kLast; ++r) acc[r] = _mm256_loadu_ps(c + 8 * r);
  acc[kLast] = kMaskLast ? _mm256_maskload_ps(c + 8 * kLast, mask)
                         : _mm256_loadu_ps(c + 8 * kLast);
  for (int64_t p = 0; p < k; ++p) {
    const float av = a_col[p * lda];
    if (av == 0.0f) continue;
    const __m256 va = _mm256_set1_ps(av);
    const float* brow = b + p * ldb;
#pragma GCC unroll 4
    for (int r = 0; r < kLast; ++r) {
      acc[r] = _mm256_add_ps(acc[r],
                             _mm256_mul_ps(va, _mm256_loadu_ps(brow + 8 * r)));
    }
    const __m256 blast = kMaskLast
                             ? _mm256_maskload_ps(brow + 8 * kLast, mask)
                             : _mm256_loadu_ps(brow + 8 * kLast);
    acc[kLast] = _mm256_add_ps(acc[kLast], _mm256_mul_ps(va, blast));
  }
#pragma GCC unroll 4
  for (int r = 0; r < kLast; ++r) _mm256_storeu_ps(c + 8 * r, acc[r]);
  if (kMaskLast) {
    _mm256_maskstore_ps(c + 8 * kLast, mask, acc[kLast]);
  } else {
    _mm256_storeu_ps(c + 8 * kLast, acc[kLast]);
  }
}

/// GemmTN over rows [lo, hi) of C: full 32-column blocks, then one masked
/// block of 1-4 registers for the rest of the row.
__attribute__((target("avx2"))) void GemmTNRowsAvx2(
    const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
    int64_t ldc, int64_t lo, int64_t hi, int64_t k, int64_t n) {
  for (int64_t i = lo; i < hi; ++i) {
    float* crow = c + i * ldc;
    int64_t j0 = 0;
    for (; j0 + kTnBlockCols <= n; j0 += kTnBlockCols) {
      TnRowBlock<4, false>(a + i, lda, b + j0, ldb, crow + j0, k, 0);
    }
    const int64_t rest = n - j0;
    if (rest == 0) continue;
    const int64_t last_cols = rest - 8 * ((rest - 1) / 8);
    switch ((rest + 7) / 8) {
      case 1:
        TnRowBlock<1, true>(a + i, lda, b + j0, ldb, crow + j0, k, last_cols);
        break;
      case 2:
        TnRowBlock<2, true>(a + i, lda, b + j0, ldb, crow + j0, k, last_cols);
        break;
      case 3:
        TnRowBlock<3, true>(a + i, lda, b + j0, ldb, crow + j0, k, last_cols);
        break;
      default:
        TnRowBlock<4, true>(a + i, lda, b + j0, ldb, crow + j0, k, last_cols);
        break;
    }
  }
}

#endif  // START_TENSOR_HAVE_AVX2

}  // namespace

void GemmNN(const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
            int64_t ldc, int64_t m, int64_t k, int64_t n) {
  // ikj ordering: innermost loop is contiguous over both B and C rows.
  const auto rows = [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      float* crow = c + i * ldc;
      const float* arow = a + i * lda;
      for (int64_t p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const float* brow = b + p * ldb;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  };
  common::ParallelFor(0, m, common::GrainFor(GemmRowWork(k, n)), rows);
}

void GemmNT(const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
            int64_t ldc, int64_t m, int64_t k, int64_t n, Backend backend) {
  const int64_t grain = common::GrainFor(GemmRowWork(k, n));
#if START_TENSOR_HAVE_AVX2
  // Fewer than 4 rows (the exact index's one-query scan) stay scalar:
  // packing B would cost about what the tile saves.
  if (IsSimd(backend) && m >= kNtTileRows) {
    // Packed once per call into the caller's scratch; chunks on other
    // threads read it while the caller waits inside ParallelFor.
    thread_local std::vector<float> scratch;
    const int64_t panels = (n + kPanelCols - 1) / kPanelCols;
    const size_t need = static_cast<size_t>(panels * kPanelCols * k);
    if (scratch.size() < need) scratch.resize(need);
    PackNtPanels(b, ldb, k, n, scratch.data());
    const float* packed = scratch.data();
    common::ParallelFor(0, m, grain, [&](int64_t lo, int64_t hi) {
      const int64_t tiles = (hi - lo) / kNtTileRows;
      GemmNTTilesAvx2(a, lda, packed, c, ldc, lo, tiles, k, n);
      GemmNTRowsScalar(a, lda, b, ldb, c, ldc, lo + tiles * kNtTileRows, hi,
                       k, n);
    });
    return;
  }
#else
  (void)backend;
#endif
  common::ParallelFor(0, m, grain, [&](int64_t lo, int64_t hi) {
    GemmNTRowsScalar(a, lda, b, ldb, c, ldc, lo, hi, k, n);
  });
}

void GemmNT(const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
            int64_t ldc, int64_t m, int64_t k, int64_t n) {
  GemmNT(a, lda, b, ldb, c, ldc, m, k, n, ActiveBackend());
}

void GemmTN(const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
            int64_t ldc, int64_t m, int64_t k, int64_t n, Backend backend) {
  const auto rows = [&](int64_t lo, int64_t hi) {
#if START_TENSOR_HAVE_AVX2
    if (IsSimd(backend)) {
      GemmTNRowsAvx2(a, lda, b, ldb, c, ldc, lo, hi, k, n);
      return;
    }
#endif
    GemmTNRowsScalar(a, lda, b, ldb, c, ldc, lo, hi, k, n);
  };
  common::ParallelFor(0, m, common::GrainFor(GemmRowWork(k, n)), rows);
}

void GemmTN(const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
            int64_t ldc, int64_t m, int64_t k, int64_t n) {
  GemmTN(a, lda, b, ldb, c, ldc, m, k, n, ActiveBackend());
}

float DotF32(const float* a, const float* b, int64_t n) {
  float acc = 0.0f;
#pragma omp simd reduction(+ : acc)
  for (int64_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace start::tensor::internal
