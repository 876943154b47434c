// Workload `train`: sharded pretraining of the paper's own model.
//
// data::BatchLoader feeds core::ParallelTrainer::Step with both
// self-supervised tasks on (span-masked recovery and contrastive NT-Xent):
// K = nproc replicas, batch 32, a fixed shard grain. TPE-GAT forward and
// backward, f32 GEMMs at training shapes, NT-Xent, the tree all-reduce and
// the loader do the work; the serial phases of a step show up here only.
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/parallel_trainer.h"
#include "core/start_model.h"
#include "data/dataset.h"
#include "data/loader.h"
#include "nn/optimizer.h"

namespace perfbench {
namespace {

constexpr int64_t kBatchSize = 32;
constexpr int64_t kGrain = 4;
constexpr double kLr = 1e-3;
constexpr int64_t kEpochs = 200;  ///< Plan length; the run stops on time.
constexpr size_t kLossWindow = 8;

/// Everything one training run owns, in construction order.
struct Trainer {
  std::unique_ptr<core::StartModel> model;
  std::unique_ptr<nn::AdamW> opt;
  std::unique_ptr<core::ParallelTrainer> trainer;
  std::unique_ptr<data::BatchLoader> loader;
};

Trainer MakeTrainer(const World& w, uint64_t seed, int shards) {
  Trainer t;
  common::Rng rng(SubSeed(seed, 3));
  t.model = std::make_unique<core::StartModel>(w.config, w.net.get(),
                                               w.transfer.get(), &rng);
  t.opt = std::make_unique<nn::AdamW>(t.model->Parameters(), kLr);
  core::ShardConfig shard;
  shard.num_shards = shards;
  shard.shard_grain = kGrain;
  shard.seed = SubSeed(seed, 50);
  t.trainer = std::make_unique<core::ParallelTrainer>(t.model.get(), shard);
  data::PlanConfig plan;
  plan.batch_size = kBatchSize;
  plan.epochs = kEpochs;
  plan.seed = SubSeed(seed, 51);
  data::LoaderConfig loader;
  loader.seed = SubSeed(seed, 52);
  t.loader = std::make_unique<data::BatchLoader>(
      data::MakeShuffledPlan(data::Lengths(w.corpus), plan).steps,
      data::MakePretrainBuilder(&w.corpus, w.traffic.get(), {}), loader);
  return t;
}

}  // namespace

void TrainSteps(const World& w, uint64_t seed, int shards, double seconds,
                int64_t min_steps, int64_t max_steps, const std::string& kind,
                bool toggle_trace, Report* report, std::vector<double>* losses) {
  Trainer t = MakeTrainer(w, seed, shards);
  auto& ops = report->ops(kind);
  std::vector<double> rows;
  WindowToggler toggler(report, kind, toggle_trace);
  const int64_t deadline = NowUs() + std::llround(seconds * 1e6);
  data::TrainingBatch batch;
  for (int64_t step = 0;
       step < max_steps && (step < min_steps || NowUs() < deadline); ++step) {
    toggler.Tick();
    const int64_t t0 = NowUs();
    bool got = false;
    {
      ScopedSpan wait("core.train.loader_wait");
      got = t.loader->Next(&batch);
    }
    if (!got) break;
    core::ShardStepStats st;
    {
      ScopedSpan span("core.train.step");
      st = t.trainer->Step({&batch}, step, t.opt.get(), kLr);
    }
    ops.start_us.push_back(t0);
    ops.end_us.push_back(std::isfinite(st.loss) ? NowUs() : -1);
    rows.push_back(static_cast<double>(batch.has_masked
                                           ? batch.masked.batch_size
                                           : batch.contrastive.batch_size / 2));
    if (losses != nullptr) losses->push_back(st.loss);
    t.loader->Recycle(std::move(batch));
    batch = data::TrainingBatch();
  }
  toggler.Finish();
  t.loader->Stop();
  report->AddSamples(kind + ".rows", rows);
}

int RunTrain(const Args& args, Report* report) {
  const int shards =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::unique_ptr<World> w;
  for (int r = 0; r < args.setups; ++r) {
    w.reset();
    common::Stopwatch setup;
    const double setup_cpu0 = CpuSeconds();
    w = BuildWorld(args.seed, args.workdir);
    Trainer t = MakeTrainer(*w, args.seed, shards);
    t.loader->Stop();
    report->AddSetup(setup.ElapsedSeconds(), CpuSeconds() - setup_cpu0);
    report->AddSamples("roadnet.ch.build_s", {w->ch_build_s});
  }
  std::unique_ptr<Sampler> sampler;
  if (args.trace) sampler = std::make_unique<Sampler>(nullptr);
  std::vector<double> losses;
  const double cpu0 = CpuSeconds();
  TrainSteps(*w, args.seed, shards, args.seconds, 3 * kLossWindow, INT64_MAX,
             "train_step", args.trace, report, &losses);
  const double cpu_s = CpuSeconds() - cpu0;
  if (sampler) sampler->Finish(report);
  report->SetValue("cpu_s", cpu_s);
  report->SetValue("phase_cpu_s", cpu_s);
  report->SetValue("ops_completed", static_cast<double>(losses.size()));
  report->AddSamples("train.loss", losses);

  bool finite = true;
  for (double l : losses) finite = finite && std::isfinite(l);
  char buf[256];
  if (losses.size() < 3 * kLossWindow) {
    std::snprintf(buf, sizeof(buf), "only %zu steps (need >= %zu)",
                  losses.size(), 3 * kLossWindow);
    report->Check("train_loss_decreases", false, buf);
  } else {
    double first = 0.0, last = 0.0;
    for (size_t i = 0; i < kLossWindow; ++i) {
      first += losses[i];
      last += losses[losses.size() - 1 - i];
    }
    first /= kLossWindow;
    last /= kLossWindow;
    std::snprintf(buf, sizeof(buf),
                  "first %zu-step mean %.4f, last %.4f over %zu steps", kLossWindow,
                  first, last, losses.size());
    report->Check("train_loss_decreases", finite && last < first, buf);
  }
  report->Check("train_loss_finite", finite,
                finite ? "all step losses finite" : "non-finite loss");

  if (args.trace) ProbeLayers(args, *w, kLayerTrain, report);
  return 0;
}

}  // namespace perfbench
