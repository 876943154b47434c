// Cross-module property tests: parameterised sweeps over seeds and
// configurations checking invariants that must hold for *any* input, not
// just hand-picked cases.
#include <cmath>
#include <gtest/gtest.h>
#include <set>

#include "core/start_model.h"
#include "data/augmentation.h"
#include "data/batch.h"
#include "data/span_mask.h"
#include "eval/metrics.h"
#include "roadnet/shortest_path.h"
#include "roadnet/synthetic_city.h"
#include "tensor/backend.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/qgemm.h"
#include "testing.h"
#include "traj/trip_generator.h"

namespace start {
namespace {

using testutil::ForEachThreadBudget;

/// Every kernel backend this host can run: the scalar reference, then each
/// SIMD backend up to the one it dispatches to (each implies the previous).
std::vector<tensor::Backend> HostBackends() {
  using tensor::Backend;
  std::vector<Backend> backends = {Backend::kScalar};
  for (const Backend b : {Backend::kAvx2, Backend::kAvxVnni}) {
    if (static_cast<int>(b) <= static_cast<int>(tensor::ActiveBackend())) {
      backends.push_back(b);
    }
  }
  return backends;
}

// ---------------------------------------------------------------------------
// Augmentation invariants over random seeds (Sec. III-C2).
// ---------------------------------------------------------------------------

class AugmentationPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  AugmentationPropertyTest()
      : net_(roadnet::BuildSyntheticCity(
            {.grid_width = 6, .grid_height = 6})),
        traffic_(&net_, {}) {}

  roadnet::RoadNetwork net_;
  traj::TrafficModel traffic_;
};

TEST_P(AugmentationPropertyTest, InvariantsHold) {
  const auto [seed, kind_idx] = GetParam();
  const auto kind = static_cast<data::AugmentationKind>(kind_idx);
  common::Rng rng(static_cast<uint64_t>(seed) * 977 + 13);
  traj::TripGenerator::Config config;
  config.num_drivers = 2;
  config.seed = static_cast<uint64_t>(seed) + 500;
  traj::TripGenerator gen(&traffic_, config);
  const traj::Trajectory t = gen.GenerateTrip(
      0, rng.UniformInt(net_.num_segments()),
      rng.UniformInt(net_.num_segments()), 9 * 3600);
  if (t.size() < 4) GTEST_SKIP() << "degenerate trip";

  const data::View v = data::Augment(t, kind, {}, &traffic_, &rng);
  // Universal invariants.
  ASSERT_GT(v.size(), 0);
  ASSERT_EQ(v.roads.size(), v.times.size());
  ASSERT_EQ(v.roads.size(), v.minute_idx.size());
  for (int64_t i = 0; i < v.size(); ++i) {
    const int64_t road = v.roads[static_cast<size_t>(i)];
    EXPECT_TRUE(road == data::kMaskRoad ||
                (road >= 0 && road < net_.num_segments()));
    EXPECT_GE(v.minute_idx[static_cast<size_t>(i)], 0);
    EXPECT_LE(v.minute_idx[static_cast<size_t>(i)], 1440);
    EXPECT_GE(v.dow_idx[static_cast<size_t>(i)], 0);
    EXPECT_LE(v.dow_idx[static_cast<size_t>(i)], 7);
  }
  // Times non-decreasing for every strategy (strictly increasing except at
  // masked positions which keep raw times).
  for (int64_t i = 0; i + 1 < v.size(); ++i) {
    EXPECT_LE(v.times[static_cast<size_t>(i)],
              v.times[static_cast<size_t>(i + 1)]);
  }
  // Kind-specific invariants.
  switch (kind) {
    case data::AugmentationKind::kTrim:
      EXPECT_LT(v.size(), t.size());
      break;
    case data::AugmentationKind::kTemporalShift:
    case data::AugmentationKind::kRoadMask:
    case data::AugmentationKind::kDropout:
      EXPECT_EQ(v.size(), t.size());
      break;
  }
  if (kind == data::AugmentationKind::kDropout) {
    EXPECT_TRUE(v.embedding_dropout);
  } else {
    EXPECT_FALSE(v.embedding_dropout);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndKinds, AugmentationPropertyTest,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Range(0, 4)));

// ---------------------------------------------------------------------------
// Span masking over random seeds / ratios.
// ---------------------------------------------------------------------------

class SpanMaskPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SpanMaskPropertyTest, BudgetAndConsistency) {
  const int seed = GetParam();
  common::Rng rng(static_cast<uint64_t>(seed) * 31 + 7);
  const int64_t n = 6 + rng.UniformInt(60);
  data::View v;
  for (int64_t i = 0; i < n; ++i) {
    v.roads.push_back(i % 17);
    v.minute_idx.push_back(1 + i % 1440);
    v.dow_idx.push_back(1 + i % 7);
    v.times.push_back(static_cast<double>(100 * i));
  }
  const double ratio = rng.Uniform(0.1, 0.4);
  const auto info = data::ApplySpanMask(&v, 2, ratio, &rng);
  // Coverage at least the requested budget (ceil), no duplicates.
  EXPECT_GE(static_cast<double>(info.positions.size()),
            std::ceil(ratio * static_cast<double>(n)) - 1e-9);
  const std::set<int64_t> unique(info.positions.begin(),
                                 info.positions.end());
  EXPECT_EQ(unique.size(), info.positions.size());
  // Every reported position is masked, and every masked position reported.
  int64_t masked_count = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (v.roads[static_cast<size_t>(i)] == data::kMaskRoad) ++masked_count;
  }
  EXPECT_EQ(masked_count, static_cast<int64_t>(info.positions.size()));
  for (size_t k = 0; k < info.positions.size(); ++k) {
    EXPECT_EQ(info.targets[k], info.positions[k] % 17);  // original road ids
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpanMaskPropertyTest,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Yen's algorithm vs exhaustive enumeration on a small graph.
// ---------------------------------------------------------------------------

TEST(KspPropertyTest, MatchesExhaustiveEnumeration) {
  // 5-node graph with several simple paths 0 -> 4.
  roadnet::RoadNetwork net;
  for (int i = 0; i < 5; ++i) {
    roadnet::RoadSegment s;
    s.length_m = 100;
    s.maxspeed_mps = 10;
    net.AddSegment(s);
  }
  const std::vector<std::pair<int64_t, int64_t>> edges = {
      {0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}, {1, 4}};
  for (const auto& [a, b] : edges) net.AddEdge(a, b);
  net.Finalize();
  auto weight = [](int64_t v) { return static_cast<double>(v) + 1.0; };
  // Exhaustive DFS enumeration of simple paths.
  std::vector<std::pair<double, std::vector<int64_t>>> all_paths;
  std::vector<int64_t> stack{0};
  std::function<void()> dfs = [&] {
    const int64_t cur = stack.back();
    if (cur == 4) {
      double cost = 0;
      for (const int64_t v : stack) cost += weight(v);
      all_paths.emplace_back(cost, stack);
      return;
    }
    for (const int64_t nxt : net.OutNeighbors(cur)) {
      if (std::find(stack.begin(), stack.end(), nxt) != stack.end()) continue;
      stack.push_back(nxt);
      dfs();
      stack.pop_back();
    }
  };
  dfs();
  std::sort(all_paths.begin(), all_paths.end());
  const auto yen = roadnet::KShortestPaths(net, 0, 4, 100, weight);
  ASSERT_EQ(yen.size(), all_paths.size());
  for (size_t i = 0; i < yen.size(); ++i) {
    EXPECT_NEAR(yen[i].cost, all_paths[i].first, 1e-9) << "rank " << i;
  }
}

// ---------------------------------------------------------------------------
// Metric properties.
// ---------------------------------------------------------------------------

TEST(MetricPropertyTest, AucInvariantToMonotoneScoreTransform) {
  common::Rng rng(5);
  std::vector<int64_t> labels;
  std::vector<double> scores, transformed;
  for (int i = 0; i < 200; ++i) {
    labels.push_back(rng.Bernoulli(0.4) ? 1 : 0);
    const double s = rng.Uniform();
    scores.push_back(s);
    transformed.push_back(std::exp(3.0 * s) - 0.5);  // strictly increasing
  }
  EXPECT_NEAR(eval::BinaryAuc(labels, scores),
              eval::BinaryAuc(labels, transformed), 1e-12);
}

TEST(MetricPropertyTest, RecallAtKMonotoneInK) {
  common::Rng rng(6);
  const int64_t n = 50, c = 8;
  std::vector<int64_t> labels;
  std::vector<double> scores;
  for (int64_t i = 0; i < n; ++i) {
    labels.push_back(rng.UniformInt(c));
    for (int64_t j = 0; j < c; ++j) scores.push_back(rng.Uniform());
  }
  double prev = 0.0;
  for (int64_t k = 1; k <= c; ++k) {
    const double r = eval::RecallAtK(labels, scores, c, k);
    EXPECT_GE(r, prev);
    prev = r;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);  // Recall@C is always 1
}

// ---------------------------------------------------------------------------
// Encoder determinism in eval mode.
// ---------------------------------------------------------------------------

TEST(EncoderPropertyTest, EvalModeIsDeterministic) {
  const auto net = roadnet::BuildSyntheticCity(
      {.grid_width = 5, .grid_height = 5});
  traj::TrafficModel traffic(&net, {});
  traj::TripGenerator::Config gen_config;
  gen_config.num_drivers = 2;
  traj::TripGenerator gen(&traffic, gen_config);
  const auto trip = gen.GenerateTrip(0, 1, net.num_segments() - 2, 9 * 3600);
  ASSERT_GT(trip.size(), 3);

  core::StartConfig config;
  config.d = 16;
  config.gat_layers = 1;
  config.gat_heads = {2};
  config.encoder_layers = 1;
  config.encoder_heads = 2;
  config.max_len = 64;
  common::Rng rng(9);
  core::StartModel model(config, &net, nullptr, &rng);
  model.SetTraining(false);
  tensor::NoGradGuard no_grad;
  const auto batch = data::MakeBatch({data::MakeView(trip)});
  const auto a = model.Encode(batch);
  const auto b = model.Encode(batch);
  for (int64_t j = 0; j < 16; ++j) {
    EXPECT_EQ(a.cls.at({0, j}), b.cls.at({0, j}));
  }
}

// Dropout augmentation gives *different* encodings in training mode — the
// SimCSE mechanism the Dropout strategy relies on.
TEST(EncoderPropertyTest, TrainingDropoutDiversifiesViews) {
  const auto net = roadnet::BuildSyntheticCity(
      {.grid_width = 5, .grid_height = 5});
  traj::TrafficModel traffic(&net, {});
  traj::TripGenerator::Config gen_config;
  gen_config.num_drivers = 2;
  traj::TripGenerator gen(&traffic, gen_config);
  const auto trip = gen.GenerateTrip(0, 1, net.num_segments() - 2, 9 * 3600);
  ASSERT_GT(trip.size(), 3);
  core::StartConfig config;
  config.d = 16;
  config.gat_layers = 1;
  config.gat_heads = {2};
  config.encoder_layers = 1;
  config.encoder_heads = 2;
  config.max_len = 64;
  config.dropout = 0.2f;
  common::Rng rng(10);
  core::StartModel model(config, &net, nullptr, &rng);
  model.SetTraining(true);
  common::SeedGlobalRng(123);
  const auto batch = data::MakeBatch({data::MakeView(trip)});
  const auto a = model.Encode(batch);
  const auto b = model.Encode(batch);
  double diff = 0.0;
  for (int64_t j = 0; j < 16; ++j) {
    diff += std::fabs(a.cls.at({0, j}) - b.cls.at({0, j}));
  }
  EXPECT_GT(diff, 1e-6);
}

// ---------------------------------------------------------------------------
// Strided kernel engine: GemmNN/NT/TN and broadcast elementwise ops against
// naive scalar references, over randomized shapes / leading dimensions /
// transposes, at thread budgets 1/2/4 (see ForEachThreadBudget). The shapes
// cross the AVX2 tile edges (GemmNT's 4-row x 8-column tiles, GemmTN's
// 32-column row blocks) and A holds exact zeros (GemmNN/TN skip them). Every
// backend must reproduce, bitwise, a float reference folded in the scalar
// kernel's order — the property the golden fixtures and the sharded
// trainer's determinism contract lean on.
// ---------------------------------------------------------------------------

class StridedGemmPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(StridedGemmPropertyTest, MatchesNaiveReferenceAllVariants) {
  common::Rng rng(testutil::TestSeed(GetParam()));
  const int64_t m = 1 + rng.UniformInt(13);
  const int64_t k = 1 + rng.UniformInt(70);
  const int64_t n = 1 + rng.UniformInt(40);
  // Random leading dimensions ≥ the row width simulate row-strided views
  // (slices of a wider base matrix), the whole point of the strided API.
  const int64_t lda_nn = k + rng.UniformInt(5);
  const int64_t ldb_nn = n + rng.UniformInt(5);
  const int64_t ldb_nt = k + rng.UniformInt(5);
  const int64_t lda_tn = m + rng.UniformInt(5);
  const int64_t ldc = n + rng.UniformInt(5);

  const auto fill = [&rng](std::vector<float>* v, double zero_fraction,
                           float zero) {
    for (auto& x : *v) {
      x = rng.Bernoulli(zero_fraction)
              ? zero
              : static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
  };
  // Buffers sized for the largest addressing each variant performs.
  std::vector<float> a_nn(static_cast<size_t>(m * lda_nn));
  std::vector<float> b_nn(static_cast<size_t>(k * ldb_nn));
  std::vector<float> b_nt(static_cast<size_t>(n * ldb_nt));
  std::vector<float> a_tn(static_cast<size_t>(k * lda_tn));
  std::vector<float> c_init(static_cast<size_t>(m * ldc));
  fill(&a_nn, 0.2, 0.0f);
  fill(&b_nn, 0.0, 0.0f);
  fill(&b_nt, 0.0, 0.0f);
  fill(&a_tn, 0.2, 0.0f);
  // GEMMs accumulate: C += ..., start from random C. A -0 entry of C whose
  // row of A is all zero stays -0 only if the zero terms are skipped.
  fill(&c_init, 0.1, -0.0f);
  for (int64_t i = 0; i < m; ++i) {
    if (!rng.Bernoulli(0.2)) continue;
    for (int64_t p = 0; p < k; ++p) {
      a_nn[static_cast<size_t>(i * lda_nn + p)] = 0.0f;
      a_tn[static_cast<size_t>(p * lda_tn + i)] = 0.0f;
    }
  }

  using tensor::Backend;
  struct Variant {
    const char* name;
    std::function<void(std::vector<float>*, Backend)> run;
    std::function<float(int64_t, int64_t)> a;  // (i, p) -> A[i, p]
    std::function<float(int64_t, int64_t)> b;  // (p, j) -> B[p, j]
    // GemmNT folds into a fresh accumulator added to C once; GemmNN/TN add
    // each term with a nonzero A entry to C in place.
    bool fresh_accumulator;
  };
  const auto at = [](const std::vector<float>& v, int64_t idx) {
    return v[static_cast<size_t>(idx)];
  };
  const std::vector<Variant> variants = {
      {"GemmNN",
       [&](std::vector<float>* c, Backend) {
         tensor::internal::GemmNN(a_nn.data(), lda_nn, b_nn.data(), ldb_nn,
                                  c->data(), ldc, m, k, n);
       },
       [&](int64_t i, int64_t p) { return at(a_nn, i * lda_nn + p); },
       [&](int64_t p, int64_t j) { return at(b_nn, p * ldb_nn + j); }, false},
      {"GemmNT",
       [&](std::vector<float>* c, Backend backend) {
         tensor::internal::GemmNT(a_nn.data(), lda_nn, b_nt.data(), ldb_nt,
                                  c->data(), ldc, m, k, n, backend);
       },
       [&](int64_t i, int64_t p) { return at(a_nn, i * lda_nn + p); },
       [&](int64_t p, int64_t j) { return at(b_nt, j * ldb_nt + p); }, true},
      {"GemmTN",
       [&](std::vector<float>* c, Backend backend) {
         tensor::internal::GemmTN(a_tn.data(), lda_tn, b_nn.data(), ldb_nn,
                                  c->data(), ldc, m, k, n, backend);
       },
       [&](int64_t i, int64_t p) { return at(a_tn, p * lda_tn + i); },
       [&](int64_t p, int64_t j) { return at(b_nn, p * ldb_nn + j); }, false},
  };
  // Forced explicitly, like qgemm::Gemm's backend argument; the SIMD kernels
  // run only where the host dispatches to them.
  const std::vector<Backend> backends = HostBackends();

  for (const auto& variant : variants) {
    SCOPED_TRACE(variant.name);
    // The scalar kernel's float fold (each product its own statement, so
    // no compiler contracts it into an FMA) and the double reference.
    std::vector<float> exact = c_init;
    std::vector<double> approx(c_init.begin(), c_init.end());
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        const size_t idx = static_cast<size_t>(i * ldc + j);
        float acc = variant.fresh_accumulator ? 0.0f : c_init[idx];
        for (int64_t p = 0; p < k; ++p) {
          const float av = variant.a(i, p);
          approx[idx] += static_cast<double>(av) * variant.b(p, j);
          if (!variant.fresh_accumulator && av == 0.0f) continue;
          const float product = av * variant.b(p, j);
          acc += product;
        }
        exact[idx] = variant.fresh_accumulator ? c_init[idx] + acc : acc;
      }
    }
    for (const Backend backend : backends) {
      SCOPED_TRACE(tensor::BackendName(backend));
      ForEachThreadBudget([&](const char* budget) {
        SCOPED_TRACE(budget);
        std::vector<float> c = c_init;
        variant.run(&c, backend);
        // Padding tails (columns [n, ldc)) are untouched because the
        // reference leaves them at c_init too.
        testutil::ExpectFloatsBitwiseEqual(c, exact, "scalar-order fold");
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < n; ++j) {
            const double expected = approx[static_cast<size_t>(i * ldc + j)];
            EXPECT_NEAR(c[static_cast<size_t>(i * ldc + j)], expected,
                        1e-4 * (1.0 + std::fabs(expected)))
                << "at (" << i << ", " << j << ")";
          }
        }
      });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StridedGemmPropertyTest,
                         ::testing::Range(0, 10));

class BroadcastElementwisePropertyTest : public ::testing::TestWithParam<int> {
};

TEST_P(BroadcastElementwisePropertyTest, MatchesNaiveReference) {
  common::Rng rng(testutil::TestSeed(GetParam()));
  // Random 2-D output shape; each operand independently broadcasts either
  // dim and may arrive as a genuinely non-contiguous transpose view (values
  // stored column-major, viewed row-major) — the strided iteration plan of
  // kernels.h, not the contiguous fast path.
  const int64_t d0 = 2 + rng.UniformInt(6);
  const int64_t d1 = 2 + rng.UniformInt(7);
  const auto make_operand = [&]() {
    const int64_t r = rng.Bernoulli(0.3) ? 1 : d0;
    const int64_t c = rng.Bernoulli(0.3) ? 1 : d1;
    std::vector<float> values(static_cast<size_t>(r * c));
    for (auto& v : values) {
      v = static_cast<float>(rng.Uniform(0.5, 2.0));  // Div-safe
    }
    if (r > 1 && c > 1 && rng.Bernoulli(0.5)) {
      // Store as [c, r] and transpose: logical [r, c] with swapped strides.
      tensor::Tensor stored = tensor::Tensor::FromVector(
          tensor::Shape({c, r}), std::move(values));
      tensor::Tensor t = tensor::Transpose(stored);
      EXPECT_FALSE(t.is_contiguous());
      return t;
    }
    return tensor::Tensor::FromVector(tensor::Shape({r, c}),
                                      std::move(values));
  };

  struct Op {
    const char* name;
    std::function<tensor::Tensor(const tensor::Tensor&,
                                 const tensor::Tensor&)> apply;
    std::function<double(double, double)> reference;
  };
  const std::vector<Op> ops = {
      {"Add", [](const auto& a, const auto& b) { return tensor::Add(a, b); },
       [](double x, double y) { return x + y; }},
      {"Sub", [](const auto& a, const auto& b) { return tensor::Sub(a, b); },
       [](double x, double y) { return x - y; }},
      {"Mul", [](const auto& a, const auto& b) { return tensor::Mul(a, b); },
       [](double x, double y) { return x * y; }},
      {"Div", [](const auto& a, const auto& b) { return tensor::Div(a, b); },
       [](double x, double y) { return x / y; }},
  };
  const tensor::Tensor a = make_operand();
  const tensor::Tensor b = make_operand();

  for (const auto& op : ops) {
    SCOPED_TRACE(op.name);
    std::vector<std::vector<float>> results;
    ForEachThreadBudget([&](const char* budget) {
      SCOPED_TRACE(budget);
      const tensor::Tensor out = op.apply(a, b);
      ASSERT_EQ(out.shape(), tensor::Shape({d0, d1}));
      std::vector<float> flat(static_cast<size_t>(out.numel()));
      for (int64_t i = 0; i < d0; ++i) {
        for (int64_t j = 0; j < d1; ++j) {
          const auto pick = [&](const tensor::Tensor& t) {
            return static_cast<double>(
                t.at({t.dim(0) == 1 ? 0 : i, t.dim(1) == 1 ? 0 : j}));
          };
          const float got = out.at({i, j});
          const double expected = op.reference(pick(a), pick(b));
          EXPECT_NEAR(got, expected, 1e-5 * (1.0 + std::fabs(expected)))
              << "at (" << i << ", " << j << ")";
          flat[static_cast<size_t>(i * d1 + j)] = got;
        }
      }
      results.push_back(std::move(flat));
    });
    for (size_t r = 1; r < results.size(); ++r) {
      testutil::ExpectFloatsBitwiseEqual(results[0], results[r],
                                         "thread-budget invariance");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BroadcastElementwisePropertyTest,
                         ::testing::Range(0, 12));

// Broadcast *backward*: gradients of a broadcast Mul must accumulate into
// the reduced operand exactly like the naive dense computation — the
// stride-0 grad-slot accumulation path of kernels.h's general loop.
TEST(BroadcastElementwisePropertyTest, BroadcastBackwardMatchesDense) {
  common::Rng rng(testutil::TestSeed());
  const int64_t rows = 5, cols = 7;
  std::vector<float> wide(static_cast<size_t>(rows * cols));
  std::vector<float> narrow(static_cast<size_t>(cols));
  for (auto& v : wide) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (auto& v : narrow) v = static_cast<float>(rng.Uniform(-1.0, 1.0));

  tensor::Tensor a = tensor::Tensor::FromVector(
      tensor::Shape({rows, cols}), std::vector<float>(wide), true);
  tensor::Tensor b = tensor::Tensor::FromVector(
      tensor::Shape({1, cols}), std::vector<float>(narrow), true);
  const tensor::Tensor out = tensor::Mul(a, b);
  tensor::Tensor loss = tensor::Sum(out);
  loss.Backward();

  // d(sum)/d(b[j]) = sum_i a[i, j]; d(sum)/d(a[i, j]) = b[j].
  for (int64_t j = 0; j < cols; ++j) {
    double expected = 0;
    for (int64_t i = 0; i < rows; ++i) {
      expected += wide[static_cast<size_t>(i * cols + j)];
    }
    EXPECT_NEAR(b.grad()[j], expected, 1e-5);
  }
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      EXPECT_NEAR(a.grad()[i * cols + j], narrow[static_cast<size_t>(j)],
                  1e-6);
    }
  }
}

// ---------------------------------------------------------------------------
// Int8 qgemm properties (tensor/qgemm.h): quantize→pack→gemm vs references.
// ---------------------------------------------------------------------------

namespace qg = tensor::qgemm;

/// Exercises one (m, k, n, lda, ldc) instance end to end:
///  - pack→unpack bitwise identity (and re-pack determinism);
///  - Gemm output bitwise equal to an exact integer reference that replays
///    the kernel's arithmetic (i64 dot checked against i32, then the same
///    float dequant ops in the same order);
///  - Gemm output within the analytic per-row-scale error bound of a
///    double-precision GEMM over the original floats;
///  - C padding tail (columns [n, ldc)) untouched;
///  - bitwise invariance across thread budgets and across backends, for
///    both Gemm and AffineForward (whose bias-initialised output must equal
///    bias + the same reference).
void CheckQGemmInstance(common::Rng* rng, int64_t m, int64_t k, int64_t n,
                        int64_t lda, int64_t ldc) {
  SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
               " n=" + std::to_string(n) + " lda=" + std::to_string(lda) +
               " ldc=" + std::to_string(ldc));
  // Weights come from a wider base matrix (ldw > k): the strided-read path
  // of QuantizeRows, i.e. quantizing a submatrix without materialising it.
  const int64_t ldw = k + rng->UniformInt(5);
  std::vector<float> w(static_cast<size_t>(n * ldw));
  std::vector<float> a(static_cast<size_t>(m * lda));
  std::vector<float> c_init(static_cast<size_t>(m * ldc));
  for (auto& x : w) x = static_cast<float>(rng->Uniform(-2.0, 2.0));
  for (auto& x : a) x = static_cast<float>(rng->Uniform(-2.0, 2.0));
  for (auto& x : c_init) x = static_cast<float>(rng->Uniform(-1.0, 1.0));
  // One all-zero weight row (when it fits) pins the scale-0 convention.
  if (n >= 2) {
    std::fill(w.begin() + static_cast<size_t>(ldw),
              w.begin() + static_cast<size_t>(ldw + k), 0.0f);
  }

  // Dense quantized codes + packing round trip.
  std::vector<int8_t> wq(static_cast<size_t>(n * k));
  std::vector<float> wscales(static_cast<size_t>(n));
  qg::QuantizeRows(w.data(), ldw, n, k, wq.data(), wscales.data());
  const qg::PackedMatrix packed = qg::Pack(wq.data(), wscales.data(), n, k);
  ASSERT_EQ(packed.rows, n);
  ASSERT_EQ(packed.cols, k);
  ASSERT_EQ(packed.rows_padded % qg::kRowsPerPanel, 0);
  ASSERT_EQ(packed.cols_padded % qg::kColBlock, 0);
  EXPECT_EQ(qg::Unpack(packed), wq) << "pack -> unpack must be the identity";
  // QuantizeAndPack == QuantizeRows + Pack, bitwise (determinism of the
  // whole quantization pipeline).
  const qg::PackedMatrix packed2 = qg::QuantizeAndPack(w.data(), ldw, n, k);
  EXPECT_EQ(packed2.data, packed.data);
  testutil::ExpectFloatsBitwiseEqual(packed2.scales, packed.scales,
                                     "quantization determinism");
  if (n >= 2) {
    EXPECT_EQ(wscales[1], 0.0f) << "all-zero row must quantize to scale 0";
  }

  // Quantized activations.
  std::vector<int8_t> aq(static_cast<size_t>(m * packed.cols_padded));
  std::vector<float> ascales(static_cast<size_t>(m));
  qg::QuantizeActivations(a.data(), lda, m, packed, aq.data(),
                          ascales.data());
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = k; p < packed.cols_padded; ++p) {
      ASSERT_EQ(aq[static_cast<size_t>(i * packed.cols_padded + p)], 0)
          << "k-tail must be zero-filled";
    }
  }

  // Exact expected output: integer dot in i64 (overflow-checked), then the
  // kernel's own float epilogue ops in the kernel's order, onto `out`.
  const auto reference = [&](std::vector<float> out) {
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        int64_t acc = 0;
        for (int64_t p = 0; p < k; ++p) {
          acc += static_cast<int64_t>(
                     aq[static_cast<size_t>(i * packed.cols_padded + p)]) *
                 wq[static_cast<size_t>(j * k + p)];
        }
        EXPECT_EQ(acc, static_cast<int32_t>(acc)) << "i32 accumulator overflow";
        out[static_cast<size_t>(i * ldc + j)] +=
            static_cast<float>(static_cast<int32_t>(acc)) *
            (ascales[static_cast<size_t>(i)] *
             wscales[static_cast<size_t>(j)]);
      }
    }
    return out;
  };
  const std::vector<float> expected = reference(c_init);
  // AffineForward overwrites columns [0, n) with bias + the same reference
  // and leaves [n, ldc) alone.
  std::vector<float> bias(static_cast<size_t>(n));
  for (auto& x : bias) x = static_cast<float>(rng->Uniform(-1.0, 1.0));
  std::vector<float> bias_init = c_init;
  for (int64_t i = 0; i < m; ++i) {
    std::copy(bias.begin(), bias.end(),
              bias_init.begin() + static_cast<size_t>(i * ldc));
  }
  const std::vector<float> affine_expected = reference(bias_init);

  std::vector<std::vector<float>> results;
  for (const qg::Backend backend : HostBackends()) {
    SCOPED_TRACE(qg::BackendName(backend));
    ForEachThreadBudget([&](const char* budget) {
      SCOPED_TRACE(budget);
      std::vector<float> c = c_init;
      qg::Gemm(aq.data(), ascales.data(), m, packed, c.data(), ldc, backend);
      testutil::ExpectFloatsBitwiseEqual(c, expected,
                                         "Gemm vs exact integer reference");
      results.push_back(std::move(c));
      std::vector<float> y = c_init;
      qg::AffineForward(a.data(), lda, m, packed, bias.data(), y.data(), ldc,
                        backend);
      testutil::ExpectFloatsBitwiseEqual(
          y, affine_expected, "AffineForward vs exact integer reference");
    });
  }

  // Padding tail untouched.
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = n; j < ldc; ++j) {
      ASSERT_EQ(results[0][static_cast<size_t>(i * ldc + j)],
                c_init[static_cast<size_t>(i * ldc + j)]);
    }
  }

  // Analytic quantization-error bound vs the f32 ground truth: with per-row
  // scales sa, sb and |quantization error| <= scale/2 per element,
  // |C - C_f32|(i,j) <= sum_p (|a_ip| sb_j / 2 + |w_jp| sa_i / 2
  //                            + sa_i sb_j / 4), plus float-rounding slack.
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double truth = 0;
      double bound = 0;
      const double sa = ascales[static_cast<size_t>(i)];
      const double sb = wscales[static_cast<size_t>(j)];
      for (int64_t p = 0; p < k; ++p) {
        const double av =
            a[static_cast<size_t>(i * lda + p)];
        const double wv = w[static_cast<size_t>(j * ldw + p)];
        truth += av * wv;
        bound += std::fabs(av) * sb / 2 + std::fabs(wv) * sa / 2 +
                 sa * sb / 4;
      }
      const double got = results[0][static_cast<size_t>(i * ldc + j)] -
                         c_init[static_cast<size_t>(i * ldc + j)];
      EXPECT_LE(std::fabs(got - truth),
                bound * 1.0001 + 1e-4 * (1.0 + std::fabs(truth)))
          << "analytic error bound violated at (" << i << ", " << j << ")";
    }
  }
}

class QGemmPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(QGemmPropertyTest, RandomShapesAgainstReferences) {
  common::Rng rng(testutil::TestSeed(GetParam()));
  // Crosses the 4-row tile, the 16-channel block with its 8-lane halves, the
  // 4-byte k steps, and the quantizer's 8-lane tails.
  const int64_t m = 1 + rng.UniformInt(13);
  const int64_t k = 1 + rng.UniformInt(70);
  const int64_t n = 1 + rng.UniformInt(40);
  const int64_t lda = k + rng.UniformInt(5);
  const int64_t ldc = n + rng.UniformInt(5);
  CheckQGemmInstance(&rng, m, k, n, lda, ldc);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QGemmPropertyTest, ::testing::Range(0, 10));

TEST(QGemmEdgeShapeTest, BlockBoundariesAndDegenerateShapes) {
  common::Rng rng(testutil::TestSeed());
  // (m, k, n) on either side of the 4-row tile, the 4-byte k step and the
  // 16-channel block with its 8-lane halves.
  const int64_t shapes[][3] = {
      {1, 1, 1},  {1, 3, 8},   {2, 4, 16},  {3, 5, 17},
      {4, 64, 8}, {5, 7, 9},   {8, 33, 32}, {13, 70, 40},
  };
  for (const auto& s : shapes) {
    CheckQGemmInstance(&rng, s[0], s[1], s[2], /*lda=*/s[1], /*ldc=*/s[2]);
  }
}

TEST(QGemmQuantizeTest, RoundHalfEvenAndSaturation) {
  // absmax 127 -> scale exactly 1.0: codes are round-half-even of the input.
  const std::vector<float> row = {127.0f, 0.5f,   1.5f,  2.5f, -0.5f,
                                  -1.5f,  126.5f, -2.5f, 0.0f, -127.0f};
  std::vector<int8_t> q(row.size());
  float scale = 0;
  qg::QuantizeRows(row.data(), static_cast<int64_t>(row.size()), 1,
                   static_cast<int64_t>(row.size()), q.data(), &scale);
  EXPECT_EQ(scale, 1.0f);
  const std::vector<int8_t> want = {127, 0, 2, 2, 0, -2, 126, -2, 0, -127};
  EXPECT_EQ(q, want);
}

TEST(QGemmQuantizeTest, TinyAbsmaxKeepsSignsOnEveryBackend) {
  // Below absmax ~3.7e-37, 127 / absmax overflows to inf; such rows must
  // still map zero to 0 and keep every sign, on every backend alike.
  for (const float absmax : {1e-30f, 3e-37f, 1e-38f, 1e-40f /*subnormal*/}) {
    SCOPED_TRACE("absmax=" + std::to_string(absmax));
    const std::vector<float> row = {absmax, 0.0f,  -absmax,
                                    absmax / 2, -0.0f, -absmax / 3};
    const int64_t cols = static_cast<int64_t>(row.size());
    std::vector<int8_t> want(row.size());
    float want_scale = 0;
    qg::QuantizeRows(row.data(), cols, 1, cols, want.data(), &want_scale,
                     qg::Backend::kScalar);
    EXPECT_EQ(want[0], 127);
    EXPECT_EQ(want[1], 0);
    EXPECT_EQ(want[2], -127);
    EXPECT_GT(want[3], 0);
    EXPECT_EQ(want[4], 0);
    EXPECT_LT(want[5], 0);
    EXPECT_GE(want_scale, 0.0f);
    for (const qg::Backend backend : HostBackends()) {
      SCOPED_TRACE(qg::BackendName(backend));
      std::vector<int8_t> q(row.size());
      float scale = 0;
      qg::QuantizeRows(row.data(), cols, 1, cols, q.data(), &scale, backend);
      EXPECT_EQ(q, want);
      testutil::ExpectFloatsBitwiseEqual({scale}, {want_scale}, "scale");
    }
  }
}

TEST(QGemmQuantizeTest, SimdMatchesScalarBitwise) {
  // Every row length 1..70 crosses the 8-lane body and its scalar tail.
  // Kinds: 0 random, 1 exact .5 ties (absmax 127, so the scale is 1),
  // 2 all zeros (some -0.0), 3 subnormal values (the overflowing-inverse
  // path); kinds 0 and 1 also hold scattered -0.0.
  common::Rng rng(testutil::TestSeed());
  for (int64_t cols = 1; cols <= 70; ++cols) {
    for (int kind = 0; kind < 4; ++kind) {
      SCOPED_TRACE("cols=" + std::to_string(cols) +
                   " kind=" + std::to_string(kind));
      std::vector<float> row(static_cast<size_t>(cols));
      for (auto& x : row) {
        switch (kind) {
          case 0: x = static_cast<float>(rng.Uniform(-3.0, 3.0)); break;
          case 1: x = static_cast<float>(rng.UniformInt(-127, 126)) + 0.5f;
                  break;
          case 2: x = 0.0f; break;
          default: x = static_cast<float>(rng.Uniform(-1.0, 1.0)) * 1e-39f;
        }
        if (kind != 3 && rng.Bernoulli(0.1)) x = -0.0f;
      }
      if (kind == 1) {
        row[static_cast<size_t>(rng.UniformInt(cols))] =
            rng.Bernoulli(0.5) ? 127.0f : -127.0f;
      }
      std::vector<int8_t> want(row.size());
      float want_scale = 0;
      qg::QuantizeRows(row.data(), cols, 1, cols, want.data(), &want_scale,
                       qg::Backend::kScalar);
      if (kind == 1) EXPECT_EQ(want_scale, 1.0f);
      for (const qg::Backend backend : HostBackends()) {
        SCOPED_TRACE(qg::BackendName(backend));
        std::vector<int8_t> q(row.size(), 99);
        float scale = -1;
        qg::QuantizeRows(row.data(), cols, 1, cols, q.data(), &scale, backend);
        EXPECT_EQ(q, want);
        testutil::ExpectFloatsBitwiseEqual({scale}, {want_scale}, "scale");
      }
    }
  }
}

TEST(QGemmAffineForwardTest, MatchesGemmPlusBias) {
  common::Rng rng(testutil::TestSeed());
  const int64_t m = 5, k = 40, n = 7, ldy = n + 3;
  std::vector<float> w(static_cast<size_t>(n * k));
  std::vector<float> x(static_cast<size_t>(m * k));
  std::vector<float> bias(static_cast<size_t>(n));
  for (auto& v : w) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (auto& v : x) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (auto& v : bias) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  const qg::PackedMatrix packed = qg::QuantizeAndPack(w.data(), k, n, k);

  std::vector<float> y(static_cast<size_t>(m * ldy), -7.0f);
  qg::AffineForward(x.data(), k, m, packed, bias.data(), y.data(), ldy);

  // Reference: explicit quantize + bias-initialised C + Gemm.
  std::vector<int8_t> aq(static_cast<size_t>(m * packed.cols_padded));
  std::vector<float> ascales(static_cast<size_t>(m));
  qg::QuantizeActivations(x.data(), k, m, packed, aq.data(), ascales.data());
  std::vector<float> want(static_cast<size_t>(m * ldy), -7.0f);
  for (int64_t i = 0; i < m; ++i) {
    std::copy(bias.begin(), bias.end(),
              want.begin() + static_cast<size_t>(i * ldy));
  }
  qg::Gemm(aq.data(), ascales.data(), m, packed, want.data(), ldy);
  // Columns [n, ldy) keep their initial value in both paths.
  testutil::ExpectFloatsBitwiseEqual(y, want, "AffineForward == bias + Gemm");
}

}  // namespace
}  // namespace start
