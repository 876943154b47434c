// Layer probe of the traced run: times each layer's public calls directly
// on the run's world, for the per-layer metrics the workload itself does not
// drive (so a layer a workload does not use reads the same on every PR that
// leaves that layer alone).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/start_model.h"
#include "data/batch.h"
#include "data/view.h"
#include "roadnet/ch_engine.h"
#include "serve/embedding_service.h"
#include "serve/hnsw_index.h"
#include "tensor/ops.h"
#include "tensor/qgemm.h"
#include "tensor/tensor.h"
#include "traj/map_matching.h"

namespace perfbench {
namespace {

constexpr size_t kProbeItems = 300;
constexpr int64_t kEncodeBatch = 8;  ///< Near the service's mean coalescing.
constexpr int64_t kProbeRows = 2000;
constexpr int64_t kProbeQueries = 500;
constexpr int64_t kChQueries = 2000;
constexpr int kServiceClients = 3;
constexpr int64_t kServiceRequests = 100;
constexpr int64_t kProbeTrainSteps = 6;
/// Encoder projection shape: 32 trajectories x 20 tokens by d = 64.
constexpr int64_t kGemmM = 640, kGemmK = 64, kGemmN = 64;
constexpr int64_t kPeakDim = 512;

/// Seconds per call of `fn`, repeated until at least `min_s` has passed.
template <typename F>
double SecondsPerCall(F fn, double min_s) {
  fn();  // warm caches and scratch pools
  int64_t calls = 0;
  common::Stopwatch timer;
  do {
    fn();
    ++calls;
  } while (timer.ElapsedSeconds() < min_s);
  return timer.ElapsedSeconds() / static_cast<double>(calls);
}

void ProbeTensor(Report* report) {
  common::Rng rng(7);
  const tensor::NoGradGuard no_grad;
  const auto x = tensor::Tensor::RandN({kGemmM, kGemmK}, &rng, 0.0f, 1.0f);
  const auto wt = tensor::Tensor::RandN({kGemmK, kGemmN}, &rng, 0.0f, 0.1f);
  const double flops = 2.0 * kGemmM * kGemmN * kGemmK;
  const double bytes = 4.0 * (kGemmM * kGemmK + kGemmK * kGemmN +
                              kGemmM * kGemmN);
  const double f32_s = SecondsPerCall([&] { tensor::MatMul(x, wt); }, 0.2);
  const auto big = tensor::Tensor::RandN({kPeakDim, kPeakDim}, &rng, 0.0f, 1.0f);
  const double peak_s =
      SecondsPerCall([&] { tensor::MatMul(big, big); }, 0.3);
  const double peak_gflops = 2.0 * std::pow(kPeakDim, 3) / peak_s / 1e9;
  report->SetValue("tensor.gemm_f32_gflops", flops / f32_s / 1e9);
  report->SetValue("tensor.gemm_f32_gbps", bytes / f32_s / 1e9);
  report->SetValue("tensor.gemm_f32_peak_gflops", peak_gflops);
  report->SetValue("tensor.gemm_f32_peak_frac",
                   flops / f32_s / 1e9 / peak_gflops);

  // The int8 path nn::Linear serves with: weights [N, K] packed once.
  std::vector<float> w_rows(static_cast<size_t>(kGemmN * kGemmK));
  for (auto& v : w_rows) v = static_cast<float>(rng.Normal(0.0, 0.1));
  const auto packed = tensor::qgemm::QuantizeAndPack(w_rows.data(), kGemmK,
                                                     kGemmN, kGemmK);
  std::vector<float> y(static_cast<size_t>(kGemmM * kGemmN));
  const double q_s = SecondsPerCall(
      [&] {
        tensor::qgemm::AffineForward(x.data(), kGemmK, kGemmM, packed, nullptr,
                                     y.data(), kGemmN);
      },
      0.2);
  const double q_bytes = 4.0 * kGemmM * kGemmK + 1.0 * kGemmN * kGemmK +
                         4.0 * kGemmM * kGemmN;
  report->SetValue("tensor.qgemm_int8_gops", flops / q_s / 1e9);
  report->SetValue("tensor.qgemm_int8_gbps", q_bytes / q_s / 1e9);
  report->Note("tensor.*: FLOPs = 2*m*n*k and bytes = inputs + weights + "
               "outputs, counted from the tensor sizes (m=640, k=64, n=64; "
               "f32 4 B, int8 weights 1 B), not from hardware counters; the "
               "f32 peak is tensor::MatMul at 512^3 on this host");
}

void ProbeCore(const World& w, Report* report) {
  common::Rng rng(11);
  core::StartModel model(w.config, w.net.get(), w.transfer.get(), &rng);
  model.SetTraining(true);
  std::vector<data::View> views;
  for (size_t i = 0; i < w.corpus.size() && views.size() < 32; ++i) {
    views.push_back(data::MakeView(w.corpus[i]));
  }
  const data::Batch batch = data::MakeBatch(views);
  std::vector<double> gat_ms, enc_ms;
  for (int rep = 0; rep < 6; ++rep) {
    common::Stopwatch gat;
    const tensor::Tensor reps = model.ComputeRoadReps();
    gat_ms.push_back(gat.ElapsedMillis());
    common::Stopwatch enc;
    const core::EncoderOutput out = model.Encode(batch, reps);
    enc_ms.push_back(enc.ElapsedMillis());
  }
  report->AddSamples("core.tpe_gat.fwd_ms", gat_ms);
  report->AddSamples("core.encoder.fwd_ms", enc_ms);
}

}  // namespace

void ProbeLayers(const Args& args, const World& w, unsigned in_place,
                 Report* report) {
  Trace::Enable(true);
  const auto need = [in_place](unsigned layer) {
    return (in_place & layer) == 0;
  };
  std::vector<serve::StreamItem> items =
      MakeGpsStream(w, 1, 0, SubSeed(args.seed, 60));
  if (items.size() > kProbeItems) items.resize(kProbeItems);
  // Ids are stream positions: the pipeline callback indexes its stamps by id.
  for (size_t i = 0; i < items.size(); ++i) {
    items[i].id = static_cast<int64_t>(i);
  }

  // traj: HMM map matching.
  const serve::StreamConfig stream = IngestStreamConfig();
  std::vector<traj::Trajectory> matched;
  {
    const traj::HmmMapMatcher matcher(w.net.get(), stream.matcher);
    std::vector<double> ms;
    int64_t failed = 0;
    for (const auto& item : items) {
      common::Stopwatch timer;
      traj::Trajectory t = matcher.MatchTrajectory(item.gps);
      ms.push_back(timer.ElapsedMillis());
      if (t.size() < stream.min_roads) {
        ++failed;
      } else if (t.size() <= w.config.max_len) {
        matched.push_back(std::move(t));
      }
    }
    report->AddSamples("traj.match_ms", ms);
    report->SetValue("traj.match_fail_frac",
                     static_cast<double>(failed) /
                         static_cast<double>(std::max<size_t>(1, items.size())));
  }

  // serve encoder: load and EncodeBatch on both engines.
  common::Stopwatch load;
  const auto f32 = LoadEncoder(w, serve::Precision::kFloat32);
  if (need(kLayerEncoderLoad)) {
    report->AddSamples("serve.encoder.load_s", {load.ElapsedSeconds()});
  }
  const auto int8 = LoadEncoder(w, serve::Precision::kInt8);
  std::vector<traj::Trajectory> by_len = matched;
  std::stable_sort(by_len.begin(), by_len.end(),
                   [](const auto& a, const auto& b) { return a.size() < b.size(); });
  for (const auto* enc : {f32.get(), int8.get()}) {
    std::vector<double> ms;
    for (size_t b = 0; b + kEncodeBatch <= by_len.size(); b += kEncodeBatch) {
      std::vector<const traj::Trajectory*> batch;
      for (int64_t i = 0; i < kEncodeBatch; ++i) batch.push_back(&by_len[b + i]);
      common::Stopwatch timer;
      enc->EncodeBatch(batch, eval::EncodeMode::kFull);
      ms.push_back(timer.ElapsedMillis());
    }
    report->AddSamples(enc == f32.get() ? "serve.embed.batch_ms.f32"
                                        : "serve.embed.batch_ms.int8",
                       ms);
  }

  // serve: the micro-batching service under a few closed-loop clients.
  if (need(kLayerService)) {
    serve::EmbeddingService service(int8.get());
    std::vector<std::thread> clients;
    for (int c = 0; c < kServiceClients; ++c) {
      clients.emplace_back([&, c] {
        for (int64_t i = 0; i < kServiceRequests; ++i) {
          ScopedSpan span("serve.embed.roundtrip");
          const auto& t = matched[static_cast<size_t>(
              (c * kServiceRequests + i) % static_cast<int64_t>(matched.size()))];
          if (!service.EncodeSync(t).ok()) std::abort();
        }
      });
    }
    for (auto& t : clients) t.join();
    report->SetValue("serve.embed.coalescing", service.stats().coalescing());
    report->SetValue("serve.embed.padding_eff",
                     service.stats().padding_efficiency());
  }

  // serve HNSW: rows are the probe trajectories' embeddings plus noise.
  const int64_t d = f32->dim();
  common::Stopwatch embed_timer;
  const std::vector<float> base = f32->EmbedAll(matched, eval::EncodeMode::kFull);
  if (need(kLayerIndexBuild)) {
    report->AddSamples("serve.embed_all_s", {embed_timer.ElapsedSeconds()});
  }
  common::Rng rng(SubSeed(args.seed, 62));
  const auto nbase = static_cast<int64_t>(matched.size());
  std::vector<int64_t> ids(static_cast<size_t>(kProbeRows));
  std::vector<float> rows(static_cast<size_t>(kProbeRows * d));
  for (int64_t i = 0; i < kProbeRows; ++i) {
    ids[static_cast<size_t>(i)] = i;
    for (int64_t j = 0; j < d; ++j) {
      rows[static_cast<size_t>(i * d + j)] =
          base[static_cast<size_t>((i % nbase) * d + j)] +
          static_cast<float>(rng.Normal(0.0, 0.05));
    }
  }
  if (need(kLayerIndexBuild)) {
    serve::HnswIndex built(d);
    common::Stopwatch timer;
    if (!built.AddBatch(ids, rows).ok()) std::abort();
    report->AddSamples("serve.hnsw.build_s", {timer.ElapsedSeconds()});
  }
  serve::HnswIndex hnsw(d);
  TimedIndex timed(&hnsw);
  if (need(kLayerHnswInsert) || need(kLayerHnswSearch)) {
    Trace::Enable(need(kLayerHnswInsert));
    for (int64_t i = 0; i < kProbeRows; ++i) {
      if (!timed.Add(i, rows.data() + i * d, d).ok()) std::abort();
    }
    Trace::Enable(true);
  }
  if (need(kLayerHnswSearch)) {
    for (int64_t q = 0; q < kProbeQueries; ++q) {
      if (!timed.Query(rows.data() + rng.UniformInt(kProbeRows) * d, d, 10).ok()) {
        std::abort();
      }
    }
  }

  // serve pipeline: the probe items pushed as fast as backpressure admits.
  if (need(kLayerPipeline)) {
    serve::HnswIndex index(d);
    StageStamps stamps(items.size());
    common::FaultHooks hooks;
    hooks.before_stage = [&stamps](const char* stage, int64_t seq) {
      return stamps.Stamp(stage, seq);
    };
    serve::StreamPipeline pipeline(f32.get(), w.net.get(), &index, stream,
                                   nullptr, &hooks);
    std::vector<int64_t> sent(items.size(), 0), done(items.size(), -1);
    pipeline.SetOnIngested([&](int64_t id, const traj::Trajectory&,
                               const serve::EmbeddingRow&) {
      done[static_cast<size_t>(id)] = NowUs();
    });
    Sampler sampler(&pipeline);
    for (size_t i = 0; i < items.size(); ++i) {
      sent[i] = NowUs();
      if (!pipeline.Push(items[i]).ok()) std::abort();
    }
    pipeline.Flush();
    sampler.Finish(report);
    RecordStageSpans(stamps, sent, done, items.size());
    const serve::PipelineStats st = pipeline.stats();
    report->SetValue("serve.retried",
                     static_cast<double>(st.match.retried + st.embed.retried +
                                         st.upsert.retried));
  }

  // roadnet: CH point-to-point queries.
  {
    const auto city = w.registry->Get(World::kCity);
    auto ctx = city->ch->MakeContext();
    const int32_t nodes = city->graph->num_nodes();
    std::vector<double> us;
    for (int64_t i = 0; i < kChQueries; ++i) {
      const auto a = static_cast<int32_t>(rng.UniformInt(nodes));
      const auto b = static_cast<int32_t>(rng.UniformInt(nodes));
      common::Stopwatch timer;
      city->ch->Distance(a, b, &ctx);
      us.push_back(timer.ElapsedSeconds() * 1e6);
    }
    report->AddSamples("roadnet.ch.query_us", us);
  }

  // core: stage 1 and stage 2 forward at training shapes, and (when the
  // workload does not train) a few sharded steps.
  ProbeCore(w, report);
  if (need(kLayerTrain)) {
    TrainSteps(w, args.seed,
               std::max(1, static_cast<int>(std::thread::hardware_concurrency())),
               60.0, 0, kProbeTrainSteps, "probe_train_step", false, report,
               nullptr);
  }

  ProbeTensor(report);
}

}  // namespace perfbench
