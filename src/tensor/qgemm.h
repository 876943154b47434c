#ifndef START_TENSOR_QGEMM_H_
#define START_TENSOR_QGEMM_H_

#include <cstdint>
#include <vector>

#include "tensor/backend.h"

/// \file
/// Post-training int8 GEMM for the frozen serving plane.
///
/// Scheme (marian-style symmetric per-row quantization):
///  - Weights are stored output-channel-major ([N, K], i.e. the B^T layout of
///    GemmNT) and quantized per row with absmax scales: s_j = absmax_j / 127,
///    q = clamp(round_half_even(x / s_j), -127, 127). A zero row gets s = 0
///    and all-zero codes, so dequantization is exact there too. A row whose
///    absmax is so small that 127 / absmax overflows (below ~3.7e-37) is
///    quantized as round((x / absmax) * 127) instead, so it keeps its signs.
///  - Activations are quantized dynamically per batch row with the same
///    per-row absmax scheme.
///  - The dot products accumulate in exact i32 arithmetic and dequantize once
///    per output element: C[i,j] += float(acc) * (sa_i * sb_j), with no FMA.
///
/// Packing layout (channel-in-lane): output channels are grouped in blocks
/// of kRowsPerPanel = 16; within a block each K step holds kColBlock = 4
/// consecutive k bytes of every channel, i.e. [N/16][K/4][16][4]. One 32-byte
/// load is then 4 k bytes of 8 channels, so each i32 lane of a vpdpbusd (or
/// maddubs + madd) accumulates one output channel directly, and a 4-row x
/// 16-channel register tile needs no horizontal sums. N is zero-padded to a
/// multiple of 16 and K to a multiple of 4; padding contributes exact zeros.
///
/// Exactness: every backend computes the same integer per output element
/// (the AVX-VNNI kernel's u8 offset is removed exactly, see PackedMatrix::
/// offsets) and then the same float epilogue ops in the same order, so
/// results are bitwise identical across the scalar reference, the AVX2 and
/// AVX-VNNI kernels, and any common::ParallelFor thread budget (rows are
/// independent). i32 accumulation is exact while K * 127 * 127 < 2^31, i.e.
/// K <= ~133k — far above any model width here; Pack CHECK-enforces it.

namespace start::tensor::qgemm {

/// Output channels per packed block: two 8-lane i32 halves of a tile.
inline constexpr int64_t kRowsPerPanel = 16;
/// Consecutive k bytes each channel holds per K step — one i32 lane.
inline constexpr int64_t kColBlock = 4;

/// A quantized, channel-in-lane packed weight matrix (logical [rows, cols] =
/// [N, K]).
struct PackedMatrix {
  int64_t rows = 0;         ///< N: output channels.
  int64_t cols = 0;         ///< K: reduction depth.
  int64_t rows_padded = 0;  ///< rows rounded up to kRowsPerPanel.
  int64_t cols_padded = 0;  ///< cols rounded up to kColBlock.
  std::vector<int8_t> data;   ///< rows_padded * cols_padded packed bytes.
  std::vector<float> scales;  ///< [rows] per-row dequant scales.
  /// [rows_padded] 128 * sum_k q[j, k]: vpdpbusd multiplies u8 by s8, so the
  /// AVX-VNNI kernel feeds activation codes as q + 128 and subtracts this.
  /// Wrapping i32 arithmetic makes the correction exact.
  std::vector<int32_t> offsets;
};

/// The tensor-level dispatch (tensor/backend.h), under qgemm's names.
/// kAvxVnni runs one vpdpbusd per (row, 8 channels, 4 k); kAvx2 runs
/// maddubs + madd with sign transfer on the same layout (so does kAvxVnni in
/// a build without START_TENSOR_HAVE_AVXVNNI). Every backend produces bitwise
/// identical output.
using tensor::ActiveBackend;
using tensor::Backend;
using tensor::BackendName;

/// \brief Per-row absmax int8 quantization of `rows` x `cols` floats read
/// with leading dimension `ld` (so strided views / submatrices quantize
/// without materialisation). Writes dense row-major [rows, cols] codes and
/// one scale per row. Every backend gives bitwise identical codes and scales.
void QuantizeRows(const float* src, int64_t ld, int64_t rows, int64_t cols,
                  int8_t* dst, float* scales, Backend backend);
void QuantizeRows(const float* src, int64_t ld, int64_t rows, int64_t cols,
                  int8_t* dst, float* scales);

/// Packs dense row-major [rows, cols] int8 codes (+ per-row scales) into the
/// channel-in-lane layout above and precomputes the offsets.
PackedMatrix Pack(const int8_t* q, const float* scales, int64_t rows,
                  int64_t cols);

/// Quantize + pack in one step from f32 row-major [rows, cols] with leading
/// dimension `ld`.
PackedMatrix QuantizeAndPack(const float* src, int64_t ld, int64_t rows,
                             int64_t cols);

/// Round-trip of Pack: recovers the dense row-major [rows, cols] int8 codes
/// (padding dropped). Pack(Unpack(m)) == m bitwise.
std::vector<int8_t> Unpack(const PackedMatrix& m);

/// \brief Quantizes `m` activation rows of `a` (f32, leading dimension
/// `lda`) against packed weights `b`: writes int8 codes with leading
/// dimension b.cols_padded (the k-tail [cols, cols_padded) zero-filled) and
/// one scale per row. `aq` must hold m * b.cols_padded bytes.
void QuantizeActivations(const float* a, int64_t lda, int64_t m,
                         const PackedMatrix& b, int8_t* aq, float* a_scales);

/// \brief C[m, b.rows] (ldc) += dequant(Aq · Bq^T): i32 accumulate over the
/// quantized codes, then += float(acc) * (a_scales[i] * b.scales[j]).
///
/// `aq` is the QuantizeActivations output (leading dimension b.cols_padded).
/// Columns [b.rows, ldc) of C are never touched. Parallelises over rows;
/// bitwise invariant in thread count and backend.
void Gemm(const int8_t* aq, const float* a_scales, int64_t m,
          const PackedMatrix& b, float* c, int64_t ldc, Backend backend);
void Gemm(const int8_t* aq, const float* a_scales, int64_t m,
          const PackedMatrix& b, float* c, int64_t ldc);

/// \brief One-call affine epilogue for nn::Linear's frozen int8 path:
/// y[m, b.rows] (ldy) = dequant(quantize(x) · Bq^T) + bias, overwriting y
/// (bias may be null = zero). Uses thread-local scratch for the quantized
/// activations, so steady-state serving allocates nothing. Bitwise invariant
/// in thread count and backend.
void AffineForward(const float* x, int64_t ldx, int64_t m,
                   const PackedMatrix& b, const float* bias, float* y,
                   int64_t ldy, Backend backend);
void AffineForward(const float* x, int64_t ldx, int64_t m,
                   const PackedMatrix& b, const float* bias, float* y,
                   int64_t ldy);

}  // namespace start::tensor::qgemm

#endif  // START_TENSOR_QGEMM_H_
