#include "tensor/qgemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/parallel_for.h"

#if START_TENSOR_HAVE_AVX2
#include <immintrin.h>
#endif

namespace start::tensor::qgemm {

namespace {

/// Activation rows per register tile: 4 rows x 2 channel halves = 8
/// accumulators, leaving room for the two weight loads and the broadcasts.
constexpr int64_t kTileRows = 4;

int64_t RoundUp(int64_t v, int64_t to) { return (v + to - 1) / to * to; }

/// Byte offset of logical (row, k) inside the channel-in-lane layout
/// [rows_padded / 16][cols_padded / 4][16][4].
int64_t PackedOffset(int64_t row, int64_t k, int64_t cols_padded) {
  return row / kRowsPerPanel * kRowsPerPanel * cols_padded +
         k / kColBlock * kRowsPerPanel * kColBlock +
         row % kRowsPerPanel * kColBlock + k % kColBlock;
}

/// The code of one scaled value: round-half-even, clamped to [-127, 127].
/// Adding and removing 1.5 * 2^23 rounds half-to-even exactly like
/// std::nearbyintf for |v| < 2^22 (here |v| <= 127), but vectorises instead
/// of calling libm per element. The symmetric range (not -128) keeps the
/// AVX2 maddubs pair-sums within i16 (127*127*2 < 32767).
constexpr float kRound = 12582912.0f;
inline int8_t Code(float v) {
  const int32_t q = static_cast<int32_t>((v + kRound) - kRound);
  return static_cast<int8_t>(q > 127 ? 127 : (q < -127 ? -127 : q));
}

/// Writes the scale of a row with absmax `absmax` and returns the multiplier
/// that maps it onto [-127, 127], or 0 when 127 / absmax overflows: such a
/// row (absmax below ~3.7e-37) is scaled as (x / absmax) * 127 instead, since
/// x * inf would be inf or NaN, and their cast to int32 undefined.
float RowScale(float absmax, float* scale) {
  *scale = absmax / 127.0f;
  const float inv = 127.0f / absmax;
  return std::isinf(inv) ? 0.0f : inv;
}

/// The scalar quantizer of elements [k, cols) of a row with absmax > 0.
void QuantizeTail(const float* src, int64_t k, int64_t cols, float absmax,
                  float inv, int8_t* dst) {
  for (; k < cols; ++k) {
    dst[k] = Code(inv != 0.0f ? src[k] * inv : (src[k] / absmax) * 127.0f);
  }
}

/// Quantizes one row of `cols` floats: absmax scale, round-half-even codes
/// clamped to [-127, 127]; a zero row gets scale 0 and zero codes.
void QuantizeRowScalar(const float* src, int64_t cols, int8_t* dst,
                       float* scale) {
  float absmax = 0.0f;
  for (int64_t k = 0; k < cols; ++k) {
    absmax = std::max(absmax, std::fabs(src[k]));
  }
  if (absmax == 0.0f) {
    *scale = 0.0f;
    std::memset(dst, 0, static_cast<size_t>(cols));
    return;
  }
  QuantizeTail(src, 0, cols, absmax, RowScale(absmax, scale), dst);
}

/// GrainFor work of one activation row against `b`. Single-threaded at
/// [640, 64] x [64, 64], AffineForward on the AVX-VNNI kernel (quantizer and
/// epilogue included) costs about three quarters of the f32 GemmNT tile per
/// multiply-add: 65 us vs 89 us on a 4-vCPU Xeon.
int64_t RowWork(const PackedMatrix& b) {
  return b.rows * b.cols_padded * 3 / 4;
}

/// Scalar reference: acc[r * 16 + c] = sum_k a[r, k] * B[block channel c, k]
/// for the `rows` activation rows at `a` (leading dimension cols_padded).
void TileDotScalar(const int8_t* a, int64_t rows, const int8_t* block,
                   const int32_t* /*offsets*/, int64_t cols_padded,
                   int32_t* acc) {
  for (int64_t r = 0; r < rows; ++r) {
    int32_t* out = acc + r * kRowsPerPanel;
    std::fill(out, out + kRowsPerPanel, 0);
    for (int64_t k = 0; k < cols_padded; k += kColBlock) {
      const int8_t* ak = a + r * cols_padded + k;
      const int8_t* bk = block + k * kRowsPerPanel;
      for (int64_t c = 0; c < kRowsPerPanel; ++c) {
        for (int64_t t = 0; t < kColBlock; ++t) {
          out[c] += static_cast<int32_t>(ak[t]) * bk[c * kColBlock + t];
        }
      }
    }
  }
}

/// Shared dequant epilogue: C[r, c] += float(acc[r * 16 + c]) * (sa[r] *
/// sb[c]) for c < jn. Every backend runs these exact float ops in this
/// exact order, which makes them bitwise interchangeable.
void DequantScalar(const int32_t* acc, int64_t rows, const float* sa,
                   const float* sb, int64_t jn, float* c, int64_t ldc) {
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < jn; ++j) {
      c[r * ldc + j] +=
          static_cast<float>(acc[r * kRowsPerPanel + j]) * (sa[r] * sb[j]);
    }
  }
}

#if START_TENSOR_HAVE_AVX2
inline int32_t Load4(const int8_t* p) {
  int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// QuantizeRowScalar, 8 lanes at a time: the same absmax (max is exact and
/// both ignore NaN), the same scale, and the same float ops per element.
__attribute__((target("avx2"))) void QuantizeRowAvx2(const float* src,
                                                     int64_t cols, int8_t* dst,
                                                     float* scale) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 vmax = _mm256_setzero_ps();
  int64_t k = 0;
  for (; k + 8 <= cols; k += 8) {
    // max_ps returns its second operand when either is NaN, like std::max.
    vmax = _mm256_max_ps(_mm256_and_ps(_mm256_loadu_ps(src + k), abs_mask),
                         vmax);
  }
  __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(vmax),
                         _mm256_extractf128_ps(vmax, 1));
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_movehdup_ps(m4));
  float absmax = _mm_cvtss_f32(m4);
  for (; k < cols; ++k) absmax = std::max(absmax, std::fabs(src[k]));
  if (absmax == 0.0f) {
    *scale = 0.0f;
    std::memset(dst, 0, static_cast<size_t>(cols));
    return;
  }
  const float inv = RowScale(absmax, scale);
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256 vabsmax = _mm256_set1_ps(absmax);
  const __m256 v127 = _mm256_set1_ps(127.0f);
  const __m256 vround = _mm256_set1_ps(kRound);
  const __m256i lo = _mm256_set1_epi32(-127);
  const __m256i hi = _mm256_set1_epi32(127);
  for (k = 0; k + 8 <= cols; k += 8) {
    const __m256 x = _mm256_loadu_ps(src + k);
    const __m256 v = inv != 0.0f
                         ? _mm256_mul_ps(x, vinv)
                         : _mm256_mul_ps(_mm256_div_ps(x, vabsmax), v127);
    __m256i q = _mm256_cvttps_epi32(
        _mm256_sub_ps(_mm256_add_ps(v, vround), vround));
    q = _mm256_min_epi32(_mm256_max_epi32(q, lo), hi);
    const __m128i q16 = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                        _mm256_extracti128_si256(q, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + k),
                     _mm_packs_epi16(q16, q16));
  }
  QuantizeTail(src, k, cols, absmax, inv, dst);
}

/// DequantScalar, 8 lanes at a time (lanes past jn run the scalar ops). It
/// is its own avx2-only function so no kernel's wider target lets the
/// compiler contract the multiply and add into an FMA.
__attribute__((target("avx2"))) void DequantAvx2(const int32_t* acc,
                                                 int64_t rows, const float* sa,
                                                 const float* sb, int64_t jn,
                                                 float* c, int64_t ldc) {
  for (int64_t r = 0; r < rows; ++r) {
    const __m256 vsa = _mm256_set1_ps(sa[r]);
    const int32_t* ar = acc + r * kRowsPerPanel;
    float* cr = c + r * ldc;
    int64_t j = 0;
    for (; j + 8 <= jn; j += 8) {
      const __m256 prod = _mm256_mul_ps(
          _mm256_cvtepi32_ps(
              _mm256_load_si256(reinterpret_cast<const __m256i*>(ar + j))),
          _mm256_mul_ps(vsa, _mm256_loadu_ps(sb + j)));
      _mm256_storeu_ps(cr + j, _mm256_add_ps(_mm256_loadu_ps(cr + j), prod));
    }
    for (; j < jn; ++j) {
      cr[j] += static_cast<float>(ar[j]) * (sa[r] * sb[j]);
    }
  }
}

/// AVX2 tile of R rows x 16 channels: maddubs wants u8 x s8, so each
/// activation's sign is transferred onto the weight bytes (|a| * (b *
/// sign(a)) == a * b; a == 0 zeroes the weight byte). With codes in
/// [-127, 127] the two-product i16 pair-sums cannot saturate, and madd
/// against ones widens them to exact i32: one lane per channel.
template <int R>
__attribute__((target("avx2"))) void TileAvx2(const int8_t* a,
                                              const int8_t* block,
                                              int64_t cols_padded,
                                              int32_t* acc) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i lo[R], hi[R];
  for (int r = 0; r < R; ++r) lo[r] = hi[r] = _mm256_setzero_si256();
  for (int64_t k = 0; k < cols_padded; k += kColBlock) {
    const int8_t* bk = block + k * kRowsPerPanel;
    const __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bk));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bk + 32));
    for (int r = 0; r < R; ++r) {
      const __m256i va = _mm256_set1_epi32(Load4(a + r * cols_padded + k));
      const __m256i absa = _mm256_abs_epi8(va);
      lo[r] = _mm256_add_epi32(
          lo[r], _mm256_madd_epi16(
                     _mm256_maddubs_epi16(absa, _mm256_sign_epi8(b0, va)),
                     ones));
      hi[r] = _mm256_add_epi32(
          hi[r], _mm256_madd_epi16(
                     _mm256_maddubs_epi16(absa, _mm256_sign_epi8(b1, va)),
                     ones));
    }
  }
  for (int r = 0; r < R; ++r) {
    __m256i* out = reinterpret_cast<__m256i*>(acc + r * kRowsPerPanel);
    _mm256_store_si256(out, lo[r]);
    _mm256_store_si256(out + 1, hi[r]);
  }
}

void TileDotAvx2(const int8_t* a, int64_t rows, const int8_t* block,
                 const int32_t* /*offsets*/, int64_t cols_padded,
                 int32_t* acc) {
  switch (rows) {
    case 4: return TileAvx2<4>(a, block, cols_padded, acc);
    case 3: return TileAvx2<3>(a, block, cols_padded, acc);
    case 2: return TileAvx2<2>(a, block, cols_padded, acc);
    default: return TileAvx2<1>(a, block, cols_padded, acc);
  }
}

#if START_TENSOR_HAVE_AVXVNNI
/// AVX-VNNI tile of R rows x 16 channels: one vpdpbusd per (row, 8
/// channels, 4 k). Its u8 operand is the activation code + 128 (an xor of
/// the sign bit), so each lane sums (q + 128) * b; subtracting the packed
/// 128 * sum_k b leaves exactly sum_k q * b. The i32 lanes may wrap midway,
/// but wrapping arithmetic is exact modulo 2^32 and the final sum fits.
template <int R>
__attribute__((target("avx2,avxvnni"))) void TileAvxVnni(
    const int8_t* a, const int8_t* block, const int32_t* offsets,
    int64_t cols_padded, int32_t* acc) {
  const __m256i flip = _mm256_set1_epi8(static_cast<char>(0x80));
  __m256i lo[R], hi[R];
  for (int r = 0; r < R; ++r) lo[r] = hi[r] = _mm256_setzero_si256();
  for (int64_t k = 0; k < cols_padded; k += kColBlock) {
    const int8_t* bk = block + k * kRowsPerPanel;
    const __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bk));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bk + 32));
    for (int r = 0; r < R; ++r) {
      const __m256i ua = _mm256_xor_si256(
          _mm256_set1_epi32(Load4(a + r * cols_padded + k)), flip);
      lo[r] = _mm256_dpbusd_avx_epi32(lo[r], ua, b0);
      hi[r] = _mm256_dpbusd_avx_epi32(hi[r], ua, b1);
    }
  }
  const __m256i off0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(offsets));
  const __m256i off1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(offsets + 8));
  for (int r = 0; r < R; ++r) {
    __m256i* out = reinterpret_cast<__m256i*>(acc + r * kRowsPerPanel);
    _mm256_store_si256(out, _mm256_sub_epi32(lo[r], off0));
    _mm256_store_si256(out + 1, _mm256_sub_epi32(hi[r], off1));
  }
}

void TileDotAvxVnni(const int8_t* a, int64_t rows, const int8_t* block,
                    const int32_t* offsets, int64_t cols_padded,
                    int32_t* acc) {
  switch (rows) {
    case 4: return TileAvxVnni<4>(a, block, offsets, cols_padded, acc);
    case 3: return TileAvxVnni<3>(a, block, offsets, cols_padded, acc);
    case 2: return TileAvxVnni<2>(a, block, offsets, cols_padded, acc);
    default: return TileAvxVnni<1>(a, block, offsets, cols_padded, acc);
  }
}
#endif  // START_TENSOR_HAVE_AVXVNNI
#endif  // START_TENSOR_HAVE_AVX2

/// One backend's kernels: the row quantizer, the integer tile and the
/// dequant epilogue.
struct Kernels {
  void (*quantize_row)(const float*, int64_t, int8_t*, float*);
  void (*tile_dot)(const int8_t*, int64_t, const int8_t*, const int32_t*,
                   int64_t, int32_t*);
  void (*dequant)(const int32_t*, int64_t, const float*, const float*,
                  int64_t, float*, int64_t);
};

Kernels KernelsFor(Backend backend) {
#if START_TENSOR_HAVE_AVX2
#if START_TENSOR_HAVE_AVXVNNI
  if (backend == Backend::kAvxVnni) {
    return {QuantizeRowAvx2, TileDotAvxVnni, DequantAvx2};
  }
#endif
  // kAvxVnni lands here too when the compiler lacks AVX-VNNI.
  if (IsSimd(backend)) return {QuantizeRowAvx2, TileDotAvx2, DequantAvx2};
#else
  (void)backend;
#endif
  return {QuantizeRowScalar, TileDotScalar, DequantScalar};
}

void QuantizeActivationRows(const Kernels& kernels, const float* a,
                            int64_t lda, int64_t m, const PackedMatrix& b,
                            int8_t* aq, float* a_scales) {
  for (int64_t i = 0; i < m; ++i) {
    int8_t* row = aq + i * b.cols_padded;
    kernels.quantize_row(a + i * lda, b.cols, row, &a_scales[i]);
    if (b.cols_padded > b.cols) {
      std::memset(row + b.cols, 0, static_cast<size_t>(b.cols_padded - b.cols));
    }
  }
}

/// C rows [0, m) += dequant(aq · Bq^T), one 4-row x 16-channel tile at a
/// time (the last tile of the call takes the remaining 1-3 rows).
void GemmRows(const Kernels& kernels, const int8_t* aq, const float* a_scales,
              int64_t m, const PackedMatrix& b, float* c, int64_t ldc) {
  alignas(32) int32_t acc[kTileRows * kRowsPerPanel];
  for (int64_t i = 0; i < m; i += kTileRows) {
    const int64_t rows = std::min(kTileRows, m - i);
    const int8_t* a = aq + i * b.cols_padded;
    for (int64_t j0 = 0; j0 < b.rows; j0 += kRowsPerPanel) {
      kernels.tile_dot(a, rows, b.data.data() + j0 * b.cols_padded,
                       b.offsets.data() + j0, b.cols_padded, acc);
      kernels.dequant(acc, rows, a_scales + i, b.scales.data() + j0,
                      std::min(kRowsPerPanel, b.rows - j0), c + i * ldc + j0,
                      ldc);
    }
  }
}

}  // namespace

void QuantizeRows(const float* src, int64_t ld, int64_t rows, int64_t cols,
                  int8_t* dst, float* scales, Backend backend) {
  const Kernels kernels = KernelsFor(backend);
  for (int64_t i = 0; i < rows; ++i) {
    kernels.quantize_row(src + i * ld, cols, dst + i * cols, &scales[i]);
  }
}

void QuantizeRows(const float* src, int64_t ld, int64_t rows, int64_t cols,
                  int8_t* dst, float* scales) {
  QuantizeRows(src, ld, rows, cols, dst, scales, ActiveBackend());
}

PackedMatrix Pack(const int8_t* q, const float* scales, int64_t rows,
                  int64_t cols) {
  START_CHECK(rows > 0 && cols > 0);
  // i32 accumulation stays exact while cols * 127^2 < 2^31 (and the offsets
  // below stay within i32: 128 * 127 * 2^17 < 2^31).
  START_CHECK_LT(cols, int64_t{1} << 17);
  PackedMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.rows_padded = RoundUp(rows, kRowsPerPanel);
  m.cols_padded = RoundUp(cols, kColBlock);
  m.data.assign(static_cast<size_t>(m.rows_padded * m.cols_padded), 0);
  m.scales.assign(scales, scales + rows);
  m.offsets.assign(static_cast<size_t>(m.rows_padded), 0);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t k = 0; k < cols; ++k) {
      const int8_t v = q[i * cols + k];
      m.data[static_cast<size_t>(PackedOffset(i, k, m.cols_padded))] = v;
      m.offsets[static_cast<size_t>(i)] += 128 * v;
    }
  }
  return m;
}

PackedMatrix QuantizeAndPack(const float* src, int64_t ld, int64_t rows,
                             int64_t cols) {
  std::vector<int8_t> q(static_cast<size_t>(rows * cols));
  std::vector<float> scales(static_cast<size_t>(rows));
  QuantizeRows(src, ld, rows, cols, q.data(), scales.data());
  return Pack(q.data(), scales.data(), rows, cols);
}

std::vector<int8_t> Unpack(const PackedMatrix& m) {
  std::vector<int8_t> q(static_cast<size_t>(m.rows * m.cols));
  for (int64_t i = 0; i < m.rows; ++i) {
    for (int64_t k = 0; k < m.cols; ++k) {
      q[static_cast<size_t>(i * m.cols + k)] =
          m.data[static_cast<size_t>(PackedOffset(i, k, m.cols_padded))];
    }
  }
  return q;
}

void QuantizeActivations(const float* a, int64_t lda, int64_t m,
                         const PackedMatrix& b, int8_t* aq, float* a_scales) {
  QuantizeActivationRows(KernelsFor(ActiveBackend()), a, lda, m, b, aq,
                         a_scales);
}

void Gemm(const int8_t* aq, const float* a_scales, int64_t m,
          const PackedMatrix& b, float* c, int64_t ldc, Backend backend) {
  const Kernels kernels = KernelsFor(backend);
  // Rows of C are independent, so C is bitwise identical at any budget.
  common::ParallelFor(0, m, common::GrainFor(RowWork(b)),
                      [&](int64_t lo, int64_t hi) {
                        GemmRows(kernels, aq + lo * b.cols_padded,
                                 a_scales + lo, hi - lo, b, c + lo * ldc, ldc);
                      });
}

void Gemm(const int8_t* aq, const float* a_scales, int64_t m,
          const PackedMatrix& b, float* c, int64_t ldc) {
  Gemm(aq, a_scales, m, b, c, ldc, ActiveBackend());
}

void AffineForward(const float* x, int64_t ldx, int64_t m,
                   const PackedMatrix& b, const float* bias, float* y,
                   int64_t ldy, Backend backend) {
  // Grow-only per-thread scratch: steady-state serving quantizes activations
  // without touching the allocator.
  thread_local std::vector<int8_t> aq;
  thread_local std::vector<float> a_scales;
  if (static_cast<int64_t>(aq.size()) < m * b.cols_padded) {
    aq.resize(static_cast<size_t>(m * b.cols_padded));
  }
  if (static_cast<int64_t>(a_scales.size()) < m) {
    a_scales.resize(static_cast<size_t>(m));
  }
  // Quantize, bias and multiply each chunk of rows in one pass: rows are
  // independent end to end.
  const Kernels kernels = KernelsFor(backend);
  int8_t* const aq_data = aq.data();
  float* const scales = a_scales.data();
  const auto rows = [&](int64_t lo, int64_t hi) {
    int8_t* const aq_lo = aq_data + lo * b.cols_padded;
    QuantizeActivationRows(kernels, x + lo * ldx, ldx, hi - lo, b, aq_lo,
                           scales + lo);
    for (int64_t i = lo; i < hi; ++i) {
      float* row = y + i * ldy;
      if (bias != nullptr) {
        std::memcpy(row, bias, static_cast<size_t>(b.rows) * sizeof(float));
      } else {
        std::memset(row, 0, static_cast<size_t>(b.rows) * sizeof(float));
      }
    }
    GemmRows(kernels, aq_lo, scales + lo, hi - lo, b, y + lo * ldy, ldy);
  };
  common::ParallelFor(0, m, common::GrainFor(RowWork(b)), rows);
}

void AffineForward(const float* x, int64_t ldx, int64_t m,
                   const PackedMatrix& b, const float* bias, float* y,
                   int64_t ldy) {
  AffineForward(x, ldx, m, b, bias, y, ldy, ActiveBackend());
}

}  // namespace start::tensor::qgemm
