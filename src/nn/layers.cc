#include "nn/layers.h"

#include <cmath>

#include "common/check.h"
#include "nn/init.h"
#include "tensor/buffer_pool.h"

namespace start::nn {

using tensor::Shape;
using tensor::Tensor;

Linear::Linear(int64_t in_features, int64_t out_features, common::Rng* rng,
               bool bias)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = RegisterParameter(
      "weight", XavierUniform(Shape({in_features, out_features}), rng));
  if (bias) {
    bias_ = RegisterParameter("bias", ZerosInit(Shape({out_features})));
  }
}

Tensor Linear::Forward(const Tensor& x) const {
  START_CHECK(x.defined());
  Tensor x2 = x;
  const bool is_3d = x.ndim() == 3;
  int64_t b = 0, l = 0;
  if (is_3d) {
    b = x.dim(0);
    l = x.dim(1);
    x2 = tensor::Reshape(x, Shape({b * l, x.dim(2)}));
  }
  START_CHECK_EQ(x2.dim(1), in_features_);
  Tensor y;
  if (packed_ != nullptr && !tensor::GradModeEnabled()) {
    // Frozen int8 path: quantize activations per row, integer GEMM against
    // the packed weight, dequant + bias in one epilogue.
    const Tensor xc = x2.is_contiguous() ? x2 : x2.Contiguous();
    // AffineForward writes every element (bias or zero, then the GEMM), so
    // the output needs no zero-fill.
    y = tensor::MakeOpResultBuffer(
        Shape({x2.dim(0), out_features_}),
        tensor::AcquireBuffer(x2.dim(0) * out_features_), {}, nullptr,
        "linear_int8");
    tensor::qgemm::AffineForward(xc.data(), in_features_, x2.dim(0), *packed_,
                                 bias_.defined() ? bias_.data() : nullptr,
                                 y.data(), out_features_);
  } else {
    y = tensor::MatMul(x2, weight_);
    if (bias_.defined()) y = tensor::Add(y, bias_);
  }
  if (is_3d) y = tensor::Reshape(y, Shape({b, l, out_features_}));
  return y;
}

void Linear::QuantizeInt8() {
  const Tensor w = weight_.is_contiguous() ? weight_ : weight_.Contiguous();
  // qgemm wants output-channel-major [out, in]; weight_ is [in, out].
  std::vector<float> wt(
      static_cast<size_t>(in_features_ * out_features_));
  const float* src = w.data();
  for (int64_t i = 0; i < in_features_; ++i) {
    for (int64_t j = 0; j < out_features_; ++j) {
      wt[static_cast<size_t>(j * in_features_ + i)] =
          src[i * out_features_ + j];
    }
  }
  packed_ = std::make_shared<tensor::qgemm::PackedMatrix>(
      tensor::qgemm::QuantizeAndPack(wt.data(), in_features_, out_features_,
                                     in_features_));
}

common::Status Linear::SetQuantizedWeights(tensor::qgemm::PackedMatrix packed) {
  if (packed.rows != out_features_ || packed.cols != in_features_) {
    return common::Status::InvalidArgument(
        "quantized weight shape [" + std::to_string(packed.rows) + ", " +
        std::to_string(packed.cols) + "] does not match layer [" +
        std::to_string(out_features_) + ", " + std::to_string(in_features_) +
        "]");
  }
  if (packed.scales.size() != static_cast<size_t>(packed.rows) ||
      packed.data.size() !=
          static_cast<size_t>(packed.rows_padded * packed.cols_padded) ||
      packed.offsets.size() != static_cast<size_t>(packed.rows_padded) ||
      packed.rows_padded < packed.rows || packed.cols_padded < packed.cols) {
    return common::Status::InvalidArgument(
        "inconsistent quantized weight buffers");
  }
  packed_ = std::make_shared<tensor::qgemm::PackedMatrix>(std::move(packed));
  return common::Status::OK();
}

const tensor::qgemm::PackedMatrix& Linear::quantized_weights() const {
  START_CHECK(packed_ != nullptr);
  return *packed_;
}

Embedding::Embedding(int64_t num_embeddings, int64_t dim, common::Rng* rng)
    : num_(num_embeddings), dim_(dim) {
  table_ = RegisterParameter("weight",
                             NormalInit(Shape({num_embeddings, dim}), rng));
}

Tensor Embedding::Forward(const std::vector<int64_t>& indices) const {
  return tensor::GatherRows(table_, indices);
}

LayerNormLayer::LayerNormLayer(int64_t dim, float eps) : eps_(eps) {
  gamma_ = RegisterParameter("gamma", Tensor::Ones(Shape({dim})));
  beta_ = RegisterParameter("beta", Tensor::Zeros(Shape({dim})));
}

Tensor LayerNormLayer::Forward(const Tensor& x) const {
  return tensor::LayerNorm(x, gamma_, beta_, eps_);
}

FeedForward::FeedForward(int64_t dim, int64_t hidden_dim, common::Rng* rng,
                         float dropout)
    : fc1_(dim, hidden_dim, rng), fc2_(hidden_dim, dim, rng),
      dropout_(dropout) {
  RegisterModule("fc1", &fc1_);
  RegisterModule("fc2", &fc2_);
}

Tensor FeedForward::Forward(const Tensor& x) const {
  Tensor h = tensor::Relu(fc1_.Forward(x));
  h = tensor::Dropout(h, dropout_, training(), dropout_rng());
  return fc2_.Forward(h);
}

Tensor SinusoidalPositionalEncoding(int64_t max_len, int64_t dim) {
  std::vector<float> data(static_cast<size_t>(max_len * dim));
  for (int64_t pos = 0; pos < max_len; ++pos) {
    for (int64_t i = 0; i < dim; ++i) {
      const double angle =
          pos / std::pow(10000.0, 2.0 * (i / 2) / static_cast<double>(dim));
      data[static_cast<size_t>(pos * dim + i)] =
          (i % 2 == 0) ? static_cast<float>(std::sin(angle))
                       : static_cast<float>(std::cos(angle));
    }
  }
  return Tensor::FromVector(Shape({max_len, dim}), std::move(data));
}

}  // namespace start::nn
