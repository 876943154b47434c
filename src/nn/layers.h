#ifndef START_NN_LAYERS_H_
#define START_NN_LAYERS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/ops.h"
#include "tensor/qgemm.h"

namespace start::nn {

/// \brief Affine layer y = x W + b. Accepts 2-D [N,in] or 3-D [B,L,in] input.
///
/// A Linear can additionally hold an int8 packed copy of its weight
/// (QuantizeInt8 / SetQuantizedWeights). The packed copy is used by Forward
/// only under NoGradGuard (inference); training and any grad-enabled forward
/// keep using the f32 weight bitwise unchanged.
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, common::Rng* rng,
         bool bias = true);

  tensor::Tensor Forward(const tensor::Tensor& x) const;

  /// Quantizes the current f32 weight into the packed int8 form (per-row
  /// scales over output channels) and enables the int8 inference path.
  /// Deterministic: same weight bytes -> same packed bytes.
  void QuantizeInt8();

  /// Installs externally loaded quantized weights (e.g. from a snapshot).
  /// Fails if the logical shape does not match [out, in].
  common::Status SetQuantizedWeights(tensor::qgemm::PackedMatrix packed);

  bool is_quantized() const { return packed_ != nullptr; }
  /// Requires is_quantized().
  const tensor::qgemm::PackedMatrix& quantized_weights() const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }
  tensor::Tensor weight() const { return weight_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  tensor::Tensor weight_;  // [in, out]
  tensor::Tensor bias_;    // [out] (undefined when bias == false)
  // Set once before serving (never mutated concurrently with Forward).
  std::shared_ptr<const tensor::qgemm::PackedMatrix> packed_;
};

/// \brief Embedding table lookup: indices -> rows of a [num, dim] table.
class Embedding : public Module {
 public:
  Embedding(int64_t num_embeddings, int64_t dim, common::Rng* rng);

  /// Returns [indices.size(), dim].
  tensor::Tensor Forward(const std::vector<int64_t>& indices) const;

  tensor::Tensor table() const { return table_; }
  int64_t num_embeddings() const { return num_; }
  int64_t dim() const { return dim_; }

 private:
  int64_t num_;
  int64_t dim_;
  tensor::Tensor table_;
};

/// \brief Layer normalisation over the last dimension with learned scale/shift.
class LayerNormLayer : public Module {
 public:
  explicit LayerNormLayer(int64_t dim, float eps = 1e-5f);

  tensor::Tensor Forward(const tensor::Tensor& x) const;

 private:
  tensor::Tensor gamma_;
  tensor::Tensor beta_;
  float eps_;
};

/// \brief Position-wise feed-forward network of the Transformer (Eq. 11):
/// FFN(x) = ReLU(x W1 + b1) W2 + b2, with dropout on the hidden activation.
class FeedForward : public Module {
 public:
  FeedForward(int64_t dim, int64_t hidden_dim, common::Rng* rng,
              float dropout = 0.1f);

  tensor::Tensor Forward(const tensor::Tensor& x) const;

 private:
  Linear fc1_;
  Linear fc2_;
  float dropout_;
};

/// Builds the sinusoidal positional-encoding matrix [max_len, dim] of the
/// Transformer; returned as a constant (non-trainable) tensor.
tensor::Tensor SinusoidalPositionalEncoding(int64_t max_len, int64_t dim);

}  // namespace start::nn

#endif  // START_NN_LAYERS_H_
