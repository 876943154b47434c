#include <cstring>

#include "common/parallel_for.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace start::tensor {

namespace {

using internal::GemmNN;
using internal::GemmNT;
using internal::GemmTN;

/// How a 2-D operand maps onto the GEMM primitives without copying: either
/// row-major with an arbitrary row stride (`trans == false`, ld = row stride)
/// or a transpose view — column-major — (`trans == true`, ld = column
/// stride). Anything else must be materialised first.
struct Mat2D {
  const float* p = nullptr;
  int64_t ld = 0;
  bool trans = false;
};

bool DescribableAs2D(const Tensor& t) {
  const auto& s = t.strides();
  return s[1] == 1 || s[0] == 1;
}

Mat2D Describe2D(const TensorImpl& t) {
  Mat2D m;
  m.p = t.base_ptr();
  if (t.strides[1] == 1) {
    m.ld = t.strides[0];
    m.trans = false;
  } else {
    m.ld = t.strides[1];
    m.trans = true;
  }
  return m;
}

/// 3-D operand usable per-batch by the GEMM primitives: innermost stride must
/// be 1; batch and row strides are free (covers head slices of [B,L,D]).
struct Mat3D {
  const float* p = nullptr;
  int64_t batch_stride = 0;
  int64_t ld = 0;
};

bool DescribableAs3D(const Tensor& t) { return t.strides()[2] == 1; }

Mat3D Describe3D(const TensorImpl& t) {
  return {t.base_ptr(), t.strides[0], t.strides[1]};
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  START_CHECK_EQ(a.ndim(), 2);
  START_CHECK_EQ(b.ndim(), 2);
  // Row-strided and transpose views feed the strided GEMM kernels directly;
  // only layouts the kernels cannot address (and the double-transpose case)
  // are materialised.
  Tensor aa = DescribableAs2D(a) ? a : a.Contiguous();
  Tensor bb = DescribableAs2D(b) ? b : b.Contiguous();
  if (Describe2D(*aa.impl()).trans && Describe2D(*bb.impl()).trans) {
    aa = aa.Contiguous();
  }
  const int64_t m = aa.dim(0), k = aa.dim(1), n = bb.dim(1);
  START_CHECK_MSG(bb.dim(0) == k, "matmul inner dims: "
                                      << aa.shape().ToString() << " x "
                                      << bb.shape().ToString());
  auto out = BufferPool::Global().AcquireZeroed(static_cast<size_t>(m * n));
  const Mat2D ma = Describe2D(*aa.impl());
  const Mat2D mb = Describe2D(*bb.impl());
  if (!ma.trans && !mb.trans) {
    GemmNN(ma.p, ma.ld, mb.p, mb.ld, out->data(), n, m, k, n);
  } else if (!ma.trans && mb.trans) {
    GemmNT(ma.p, ma.ld, mb.p, mb.ld, out->data(), n, m, k, n);
  } else {
    GemmTN(ma.p, ma.ld, mb.p, mb.ld, out->data(), n, m, k, n);
  }
  auto a_impl = aa.impl();
  auto b_impl = bb.impl();
  auto backward = [a_impl, b_impl, m, k, n](TensorImpl& self) {
    const float* g = self.grad_ptr();
    const Mat2D ma = Describe2D(*a_impl);
    const Mat2D mb = Describe2D(*b_impl);
    // dA = dC * B^T ; dB = A^T * dC — grads are dense logical [m,k] / [k,n].
    if (a_impl->requires_grad) {
      float* ga = a_impl->grad_ptr();
      if (!mb.trans) {
        GemmNT(g, n, mb.p, mb.ld, ga, k, m, n, k);
      } else {
        GemmNN(g, n, mb.p, mb.ld, ga, k, m, n, k);
      }
    }
    if (b_impl->requires_grad) {
      float* gb = b_impl->grad_ptr();
      if (!ma.trans) {
        GemmTN(ma.p, ma.ld, g, n, gb, n, k, m, n);
      } else {
        GemmNN(ma.p, ma.ld, g, n, gb, n, k, m, n);
      }
    }
  };
  return MakeOpResultBuffer(Shape({m, n}), std::move(out),
                            {aa.impl(), bb.impl()}, std::move(backward),
                            "matmul");
}

Tensor BatchMatMul(const Tensor& a, const Tensor& b, bool transpose_b) {
  START_CHECK_EQ(a.ndim(), 3);
  START_CHECK_EQ(b.ndim(), 3);
  const Tensor aa = DescribableAs3D(a) ? a : a.Contiguous();
  const Tensor bb = DescribableAs3D(b) ? b : b.Contiguous();
  const int64_t bs = aa.dim(0), m = aa.dim(1), k = aa.dim(2);
  START_CHECK_EQ(bb.dim(0), bs);
  const int64_t n = transpose_b ? bb.dim(1) : bb.dim(2);
  const int64_t bk = transpose_b ? bb.dim(2) : bb.dim(1);
  START_CHECK_MSG(bk == k, "bmm inner dims: " << aa.shape().ToString() << " x "
                                              << bb.shape().ToString());
  auto out =
      BufferPool::Global().AcquireZeroed(static_cast<size_t>(bs * m * n));
  const Mat3D ma = Describe3D(*aa.impl());
  const Mat3D mb = Describe3D(*bb.impl());
  // Batch items write disjoint output blocks; a GEMM inside a parallel
  // chunk runs inline, one that is the whole range may split its rows.
  const auto items = [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* ai = ma.p + i * ma.batch_stride;
      const float* bi = mb.p + i * mb.batch_stride;
      float* ci = out->data() + i * m * n;
      if (transpose_b) {
        GemmNT(ai, ma.ld, bi, mb.ld, ci, n, m, k, n);
      } else {
        GemmNN(ai, ma.ld, bi, mb.ld, ci, n, m, k, n);
      }
    }
  };
  common::ParallelFor(0, bs, common::GrainFor(m * n * k), items);
  auto a_impl = aa.impl();
  auto b_impl = bb.impl();
  auto backward = [a_impl, b_impl, bs, m, k, n, transpose_b](TensorImpl& self) {
    const float* g = self.grad_ptr();
    const Mat3D ma = Describe3D(*a_impl);
    const Mat3D mb = Describe3D(*b_impl);
    // Gradients are dense logical: dA is [bs,m,k], dB is b's logical shape.
    for (int64_t i = 0; i < bs; ++i) {
      const float* gi = g + i * m * n;
      const float* ai = ma.p + i * ma.batch_stride;
      const float* bi = mb.p + i * mb.batch_stride;
      float* gai =
          a_impl->requires_grad ? a_impl->grad_ptr() + i * m * k : nullptr;
      if (!transpose_b) {
        float* gbi =
            b_impl->requires_grad ? b_impl->grad_ptr() + i * k * n : nullptr;
        // dA = dC * B^T; dB = A^T * dC.
        if (gai != nullptr) GemmNT(gi, n, bi, mb.ld, gai, k, m, n, k);
        if (gbi != nullptr) GemmTN(ai, ma.ld, gi, n, gbi, n, k, m, n);
      } else {
        // C = A * B^T with B [n,k]: dA = dC * B; dB = dC^T * A.
        float* gbi =
            b_impl->requires_grad ? b_impl->grad_ptr() + i * n * k : nullptr;
        if (gai != nullptr) GemmNN(gi, n, bi, mb.ld, gai, k, m, n, k);
        if (gbi != nullptr) GemmTN(gi, n, ai, ma.ld, gbi, k, n, m, k);
      }
    }
  };
  return MakeOpResultBuffer(Shape({bs, m, n}), std::move(out),
                            {aa.impl(), bb.impl()}, std::move(backward),
                            "bmm");
}

Tensor Reshape(const Tensor& a, const Shape& shape) {
  START_CHECK(a.defined());
  START_CHECK_MSG(shape.numel() == a.numel(),
                  "reshape " << a.shape().ToString() << " -> "
                             << shape.ToString());
  // A reshape enumerates elements in logical order, so when the input layout
  // can express the new dims it is a pure view; otherwise materialise once
  // and view that (torch semantics). Either way the gradient is an identity
  // over the dense logical buffers.
  std::vector<int64_t> new_strides;
  Tensor base = a;
  if (!ComputeReshapeStrides(a.shape().dims(), a.strides(), shape.dims(),
                             &new_strides)) {
    base = a.Contiguous();
    START_CHECK(ComputeReshapeStrides(base.shape().dims(), base.strides(),
                                      shape.dims(), &new_strides));
  }
  auto base_impl = base.impl();
  const int64_t n = base.numel();
  auto backward = [base_impl, n](TensorImpl& self) {
    if (!base_impl->requires_grad) return;
    const float* g = self.grad_ptr();
    float* ga = base_impl->grad_ptr();
    for (int64_t i = 0; i < n; ++i) ga[i] += g[i];
  };
  return MakeViewResult(shape, std::move(new_strides), base.offset(), base,
                        std::move(backward), "reshape");
}

Tensor Transpose(const Tensor& a) {
  START_CHECK_EQ(a.ndim(), 2);
  const int64_t m = a.dim(0), n = a.dim(1);
  auto a_impl = a.impl();
  auto backward = [a_impl, m, n](TensorImpl& self) {
    if (!a_impl->requires_grad) return;
    const float* g = self.grad_ptr();
    float* ga = a_impl->grad_ptr();
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) ga[i * n + j] += g[j * m + i];
    }
  };
  return MakeViewResult(Shape({n, m}),
                        {a.strides()[1], a.strides()[0]}, a.offset(), a,
                        std::move(backward), "transpose");
}

namespace {

/// Computes (outer, dim_size, inner) decomposition of `shape` around `dim`:
/// the tensor is viewed as [outer, dim_size, inner] row-major.
void SplitAroundDim(const Shape& shape, int64_t dim, int64_t* outer,
                    int64_t* dim_size, int64_t* inner) {
  const int64_t nd = shape.ndim();
  if (dim < 0) dim += nd;
  START_CHECK(dim >= 0 && dim < nd);
  *outer = 1;
  *inner = 1;
  for (int64_t i = 0; i < dim; ++i) *outer *= shape.dim(i);
  *dim_size = shape.dim(dim);
  for (int64_t i = dim + 1; i < nd; ++i) *inner *= shape.dim(i);
}

}  // namespace

Tensor Concat(const std::vector<Tensor>& parts, int64_t dim) {
  START_CHECK(!parts.empty());
  const int64_t nd = parts[0].ndim();
  if (dim < 0) dim += nd;
  int64_t total_dim = 0;
  // The block memcpy below needs dense rows; strided views materialise here
  // (gradients still reach the view's base through the copy's graph edge).
  std::vector<Tensor> dense;
  dense.reserve(parts.size());
  for (const auto& p : parts) {
    START_CHECK_EQ(p.ndim(), nd);
    for (int64_t i = 0; i < nd; ++i) {
      if (i != dim) START_CHECK_EQ(p.dim(i), parts[0].dim(i));
    }
    total_dim += p.dim(dim);
    dense.push_back(p.Contiguous());
  }
  std::vector<int64_t> out_dims = parts[0].shape().dims();
  out_dims[static_cast<size_t>(dim)] = total_dim;
  const Shape out_shape{std::vector<int64_t>(out_dims)};

  int64_t outer, unused, inner;
  SplitAroundDim(out_shape, dim, &outer, &unused, &inner);
  auto out = AcquireBuffer(out_shape.numel());
  std::vector<int64_t> offsets(dense.size());
  {
    int64_t off = 0;
    for (size_t p = 0; p < dense.size(); ++p) {
      offsets[p] = off;
      off += dense[p].dim(dim);
    }
  }
  for (size_t p = 0; p < dense.size(); ++p) {
    const int64_t dp = dense[p].dim(dim);
    const float* src = dense[p].data();
    for (int64_t o = 0; o < outer; ++o) {
      float* dst = out->data() + (o * total_dim + offsets[p]) * inner;
      std::memcpy(dst, src + o * dp * inner,
                  static_cast<size_t>(dp * inner) * sizeof(float));
    }
  }
  std::vector<std::shared_ptr<TensorImpl>> parent_impls;
  parent_impls.reserve(dense.size());
  for (const auto& p : dense) parent_impls.push_back(p.impl());
  std::vector<int64_t> part_dims(dense.size());
  for (size_t p = 0; p < dense.size(); ++p) part_dims[p] = dense[p].dim(dim);
  auto backward = [parent_impls, part_dims, offsets, outer, inner,
                   total_dim](TensorImpl& self) {
    const float* g = self.grad_ptr();
    for (size_t p = 0; p < parent_impls.size(); ++p) {
      auto& parent = parent_impls[p];
      if (!parent->requires_grad) continue;
      const int64_t dp = part_dims[p];
      float* gp = parent->grad_ptr();
      for (int64_t o = 0; o < outer; ++o) {
        const float* gsrc = g + (o * total_dim + offsets[p]) * inner;
        float* gdst = gp + o * dp * inner;
        for (int64_t i = 0; i < dp * inner; ++i) gdst[i] += gsrc[i];
      }
    }
  };
  return MakeOpResultBuffer(out_shape, std::move(out), std::move(parent_impls),
                            std::move(backward), "concat");
}

Tensor Slice(const Tensor& a, int64_t dim, int64_t start, int64_t len) {
  START_CHECK(a.defined());
  const int64_t nd = a.ndim();
  if (dim < 0) dim += nd;
  int64_t outer, dim_size, inner;
  SplitAroundDim(a.shape(), dim, &outer, &dim_size, &inner);
  START_CHECK_GE(start, 0);
  START_CHECK_LE(start + len, dim_size);
  START_CHECK_GT(len, 0);
  std::vector<int64_t> out_dims = a.shape().dims();
  out_dims[static_cast<size_t>(dim)] = len;
  auto a_impl = a.impl();
  auto backward = [a_impl, outer, dim_size, inner, start, len](
                      TensorImpl& self) {
    if (!a_impl->requires_grad) return;
    const float* g = self.grad_ptr();
    float* ga = a_impl->grad_ptr();
    for (int64_t o = 0; o < outer; ++o) {
      const float* gsrc = g + o * len * inner;
      float* gdst = ga + (o * dim_size + start) * inner;
      for (int64_t i = 0; i < len * inner; ++i) gdst[i] += gsrc[i];
    }
  };
  return MakeViewResult(Shape{std::vector<int64_t>(out_dims)}, a.strides(),
                        a.offset() + start * a.strides()[static_cast<size_t>(dim)],
                        a, std::move(backward), "slice");
}

Tensor Select(const Tensor& a, int64_t dim, int64_t index) {
  START_CHECK(a.defined());
  const int64_t nd = a.ndim();
  if (dim < 0) dim += nd;
  START_CHECK(dim >= 0 && dim < nd);
  START_CHECK(index >= 0 && index < a.dim(dim));
  int64_t outer, dim_size, inner;
  SplitAroundDim(a.shape(), dim, &outer, &dim_size, &inner);
  std::vector<int64_t> out_dims;
  std::vector<int64_t> out_strides;
  for (int64_t i = 0; i < nd; ++i) {
    if (i == dim) continue;
    out_dims.push_back(a.dim(i));
    out_strides.push_back(a.strides()[static_cast<size_t>(i)]);
  }
  auto a_impl = a.impl();
  auto backward = [a_impl, outer, dim_size, inner, index](TensorImpl& self) {
    if (!a_impl->requires_grad) return;
    const float* g = self.grad_ptr();
    float* ga = a_impl->grad_ptr();
    for (int64_t o = 0; o < outer; ++o) {
      const float* gsrc = g + o * inner;
      float* gdst = ga + (o * dim_size + index) * inner;
      for (int64_t i = 0; i < inner; ++i) gdst[i] += gsrc[i];
    }
  };
  return MakeViewResult(
      Shape{std::move(out_dims)}, std::move(out_strides),
      a.offset() + index * a.strides()[static_cast<size_t>(dim)], a,
      std::move(backward), "select");
}

Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& indices) {
  START_CHECK_EQ(a.ndim(), 2);
  const int64_t rows = a.dim(0), cols = a.dim(1);
  const int64_t m = static_cast<int64_t>(indices.size());
  // A consecutive ascending run is a row view — the common case for window
  // lookups — and costs no copy at all.
  if (m > 0) {
    bool consecutive = indices[0] >= 0 && indices[0] + m <= rows;
    for (int64_t i = 1; consecutive && i < m; ++i) {
      consecutive = indices[static_cast<size_t>(i)] == indices[0] + i;
    }
    if (consecutive) return Slice(a, 0, indices[0], m);
  }
  const Tensor aa = a.strides()[1] == 1 ? a : a.Contiguous();
  const int64_t row_stride = aa.strides()[0];
  auto out = AcquireBuffer(m * cols);
  const float* pa = aa.impl()->base_ptr();
  for (int64_t i = 0; i < m; ++i) {
    const int64_t r = indices[static_cast<size_t>(i)];
    START_CHECK_MSG(r >= 0 && r < rows, "gather index " << r << " out of "
                                                        << rows << " rows");
    std::memcpy(out->data() + i * cols, pa + r * row_stride,
                static_cast<size_t>(cols) * sizeof(float));
  }
  auto a_impl = aa.impl();
  auto idx = std::make_shared<std::vector<int64_t>>(indices);
  auto backward = [a_impl, idx, m, cols](TensorImpl& self) {
    if (!a_impl->requires_grad) return;
    const float* g = self.grad_ptr();
    float* ga = a_impl->grad_ptr();
    for (int64_t i = 0; i < m; ++i) {
      float* dst = ga + (*idx)[static_cast<size_t>(i)] * cols;
      const float* src = g + i * cols;
      for (int64_t j = 0; j < cols; ++j) dst[j] += src[j];
    }
  };
  return MakeOpResultBuffer(Shape({m, cols}), std::move(out), {aa.impl()},
                            std::move(backward), "gather_rows");
}

}  // namespace start::tensor
