#include "nn/allreduce.h"

#include <utility>

#include "common/check.h"
#include "common/parallel_for.h"

namespace start::nn {

namespace {

/// slots[i] += slots[j], treating null as exact zero (adopt j's buffer).
void CombinePair(std::vector<std::shared_ptr<std::vector<float>>>* slots,
                 size_t i, size_t j) {
  auto& left = (*slots)[i];
  auto& right = (*slots)[j];
  if (right == nullptr) return;
  if (left == nullptr) {
    left = std::move(right);
    return;
  }
  START_CHECK_EQ(left->size(), right->size());
  float* a = left->data();
  const float* b = right->data();
  const size_t n = left->size();
  for (size_t e = 0; e < n; ++e) a[e] += b[e];
  right.reset();
}

}  // namespace

std::shared_ptr<std::vector<float>> TreeReduce(
    std::vector<std::shared_ptr<std::vector<float>>> slots) {
  const size_t n = slots.size();
  for (size_t stride = 1; stride < n; stride *= 2) {
    for (size_t i = 0; i + stride < n; i += 2 * stride) {
      CombinePair(&slots, i, i + stride);
    }
  }
  return n == 0 ? nullptr : std::move(slots[0]);
}

void TreeReduceInto(std::vector<GradShard> shards,
                    const std::vector<tensor::Tensor>& params) {
  const size_t num_params = params.size();
  for (const auto& shard : shards) {
    START_CHECK_EQ(shard.size(), num_params);
  }
  const auto reduce_param = [&shards, &params](size_t p) {
    std::vector<std::shared_ptr<std::vector<float>>> slots;
    slots.reserve(shards.size());
    for (auto& shard : shards) slots.push_back(std::move(shard[p]));
    const auto combined = TreeReduce(std::move(slots));
    if (combined == nullptr) return;  // no shard touched this parameter
    const tensor::Tensor& param = params[p];
    START_CHECK_EQ(static_cast<int64_t>(combined->size()), param.numel());
    START_CHECK_MSG(param.has_grad(),
                    "TreeReduceInto requires pre-allocated gradients "
                    "(call Optimizer::ZeroGrad first)");
    float* g = const_cast<float*>(param.grad());
    const float* c = combined->data();
    for (int64_t e = 0; e < param.numel(); ++e) g[e] += c[e];
  };

  // Each parameter's tree is self-contained, so the fan-out affects wall
  // clock only; the grain comes from the mean work per parameter.
  const int64_t n = static_cast<int64_t>(num_params);
  int64_t work = 0;
  for (const auto& param : params) work += param.numel();
  work *= static_cast<int64_t>(shards.size());
  const auto reduce_params = [&](int64_t lo, int64_t hi) {
    for (int64_t p = lo; p < hi; ++p) reduce_param(static_cast<size_t>(p));
  };
  common::ParallelFor(0, n, common::GrainFor(n == 0 ? 0 : work / n),
                      reduce_params);
}

}  // namespace start::nn
