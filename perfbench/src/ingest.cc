// Workload `ingest`: the open-loop write path.
//
// One generator thread replays noisy GPS into serve::StreamPipeline (f32
// engine, HnswIndex, DriftMonitor) at a fixed rate; each item is timed from
// when it was due to its ingested callback. A saturation phase follows:
// pushes go as fast as kBlock backpressure admits until the index holds
// kIndexRows rows. Map matching, the f32 encoder, the single finalizer's
// HNSW inserts and the stage queues do the work; int8, CH and training do
// none.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "serve/drift_monitor.h"
#include "serve/embedding_index.h"
#include "serve/hnsw_index.h"

namespace perfbench {
namespace {

constexpr double kRate = 300.0;      ///< Offered trajs/s in the fixed phase.
constexpr double kFixedShare = 0.4;  ///< Share of --seconds at the fixed rate.
/// Rows the index holds at the end: saturation pushes exactly the items that
/// take it there, so every run does the same work whatever the host's speed.
/// A fill bound by time would grow the index, the CPU per insert and the
/// recall check's difficulty with the host's speed.
constexpr size_t kIndexRows = 15000;
constexpr int64_t kRecallQueries = 200;

}  // namespace

void RecordStageSpans(const StageStamps& stamps,
                      const std::vector<int64_t>& sent,
                      const std::vector<int64_t>& done, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const int64_t m = stamps.match(i), e = stamps.embed(i),
                  u = stamps.upsert(i);
    if (m == 0 || e == 0 || u == 0 || done[i] < 0) continue;
    const int64_t item = RecordInterval("serve.item", sent[i], done[i]);
    RecordInterval("serve.stage_wait.match", sent[i], m, item);
    RecordInterval("serve.stage_wait.embed", m, e, item);
    RecordInterval("serve.stage_wait.upsert", e, u, item);
  }
}

int RunIngest(const Args& args, Report* report) {
  std::unique_ptr<World> w;
  std::unique_ptr<serve::FrozenEncoder> encoder;
  for (int r = 0; r < args.setups; ++r) {
    encoder.reset();
    w.reset();
    // Set-up is the world; the encoder load is timed on its own (see
    // AddSetup).
    common::Stopwatch setup;
    const double setup_cpu0 = CpuSeconds();
    w = BuildWorld(args.seed, args.workdir);
    report->AddSetup(setup.ElapsedSeconds(), CpuSeconds() - setup_cpu0);
    report->AddSamples("roadnet.ch.build_s", {w->ch_build_s});
    common::Stopwatch load;
    encoder = LoadEncoder(*w, serve::Precision::kFloat32);
    report->AddSamples("serve.encoder.load_s", {load.ElapsedSeconds()});
  }

  const auto fixed_n = std::min(
      static_cast<size_t>(std::llround(kRate * args.seconds * kFixedShare)),
      kIndexRows / 2);
  // 15 % spare for the traces filtered out below.
  const auto passes = static_cast<int64_t>(std::ceil(
      1.15 * static_cast<double>(kIndexRows) /
      static_cast<double>(w->corpus.size())));
  // Only items the pipeline can ingest: a GPS trace too short to match is
  // an input error, not a measurement (the probe reports the match failure
  // share on unfiltered traces).
  std::vector<serve::StreamItem> items;
  {
    std::vector<serve::StreamItem> raw =
        MakeGpsStream(*w, passes, 0, SubSeed(args.seed, 10));
    const MatchedSet ok = MatchAll(
        *w, raw, std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
    size_t k = 0;
    for (auto& item : raw) {
      if (k < ok.ids.size() && item.id == ok.ids[k]) {
        items.push_back(std::move(item));
        ++k;
      }
    }
    if (items.size() > kIndexRows) items.resize(kIndexRows);
  }
  // Ids are stream positions: the callback indexes its stamps by id.
  for (size_t i = 0; i < items.size(); ++i) {
    items[i].id = static_cast<int64_t>(i);
  }

  const int64_t d = encoder->dim();
  serve::HnswIndex hnsw(d);
  TimedIndex timed(&hnsw);
  serve::DriftConfig drift_config;
  drift_config.window_size = 256;
  serve::DriftMonitor drift(d, drift_config);
  StageStamps stamps(items.size());
  common::FaultHooks hooks;
  hooks.before_stage = [&stamps](const char* stage, int64_t seq) {
    return stamps.Stamp(stage, seq);
  };
  serve::StreamPipeline pipeline(
      encoder.get(), w->net.get(),
      args.trace ? static_cast<serve::IndexInterface*>(&timed) : &hnsw,
      IngestStreamConfig(), &drift, args.trace ? &hooks : nullptr);

  std::vector<int64_t> done(items.size(), -1);
  std::vector<int64_t> row_ids;
  std::vector<float> rows;
  pipeline.SetOnIngested([&](int64_t id, const traj::Trajectory&,
                             const serve::EmbeddingRow& row) {
    done[static_cast<size_t>(id)] = NowUs();
    row_ids.push_back(id);
    rows.insert(rows.end(), row.data(), row.data() + row.dim());
  });

  std::unique_ptr<Sampler> sampler;
  if (args.trace) sampler = std::make_unique<Sampler>(&pipeline);
  Trace::Enable(args.trace);
  std::vector<int64_t> sent(items.size(), 0);
  int64_t push_errors = 0;
  const double cpu0 = CpuSeconds();

  // Fixed-rate phase (open loop).
  auto& fixed = report->ops("ingest");
  const int64_t t0 = NowUs() + 1000;
  size_t next = 0;
  for (; next < fixed_n && next < items.size(); ++next) {
    const int64_t due =
        t0 + std::llround(static_cast<double>(next) * 1e6 / kRate);
    const int64_t wait = due - NowUs();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::microseconds(wait));
    sent[next] = NowUs();
    if (!pipeline.Push(items[next]).ok()) ++push_errors;
    fixed.due_us.push_back(due);
  }
  pipeline.Flush();

  // Saturation phase (as fast as backpressure admits).
  const size_t saturated_begin = next;
  WindowToggler toggler(report, "ingest_saturated", args.trace);
  const double saturated_cpu0 = CpuSeconds();
  while (next < items.size()) {
    toggler.Tick();
    sent[next] = NowUs();
    if (!pipeline.Push(items[next]).ok()) ++push_errors;
    ++next;
  }
  pipeline.Flush();
  toggler.Finish();
  const double cpu_s = CpuSeconds() - cpu0;
  report->SetValue("phase_cpu_s", CpuSeconds() - saturated_cpu0);
  if (sampler) sampler->Finish(report);

  for (size_t i = 0; i < saturated_begin; ++i) {
    fixed.start_us.push_back(sent[i]);
    fixed.end_us.push_back(done[i]);
  }
  auto& saturated = report->ops("ingest_saturated");
  for (size_t i = saturated_begin; i < next; ++i) {
    saturated.start_us.push_back(sent[i]);
    saturated.end_us.push_back(done[i]);
  }

  if (args.trace) RecordStageSpans(stamps, sent, done, next);

  pipeline.Drain();
  const serve::PipelineStats st = pipeline.stats();
  report->ops("ingest_saturated").shed = st.total_dropped();
  report->SetValue("cpu_s", cpu_s);
  report->SetValue("ops_completed", static_cast<double>(st.ingested()));
  report->SetValue("serve.retried",
                   static_cast<double>(st.match.retried + st.embed.retried +
                                       st.upsert.retried));
  report->SetValue("serve.index_rows", static_cast<double>(hnsw.size()));
  report->SetValue("traj.stream_match_failed",
                   static_cast<double>(st.match.failed));

  const bool accounted =
      st.in_flight == 0 &&
      st.accepted == st.ingested() + st.total_failed() + st.embed.dropped +
                         st.upsert.dropped;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "accepted %lld == ingested %lld + failed %lld + dropped %lld, "
                "in_flight %lld, push errors %lld",
                static_cast<long long>(st.accepted),
                static_cast<long long>(st.ingested()),
                static_cast<long long>(st.total_failed()),
                static_cast<long long>(st.embed.dropped + st.upsert.dropped),
                static_cast<long long>(st.in_flight),
                static_cast<long long>(push_errors));
  report->Check("ingest_accounting", accounted && push_errors == 0, buf);
  std::snprintf(buf, sizeof(buf), "%lld rows (>= %zu)",
                static_cast<long long>(hnsw.size()), kIndexRows);
  report->Check("ingest_index_rows",
                hnsw.size() >= static_cast<int64_t>(kIndexRows), buf);

  // Recall of the streamed HNSW index against an exact mirror of exactly
  // the rows the pipeline ingested.
  serve::EmbeddingIndex exact(d);
  if (!exact.AddBatch(row_ids, rows).ok() || row_ids.empty()) {
    report->Check("ingest_recall_at_10", false, "exact mirror build failed");
    return 0;
  }
  common::Rng rng(SubSeed(args.seed, 11));
  double recall = 0.0;
  std::vector<float> q(static_cast<size_t>(d));
  for (int64_t qi = 0; qi < kRecallQueries; ++qi) {
    const int64_t pick =
        rng.UniformInt(static_cast<int64_t>(row_ids.size()));
    for (int64_t j = 0; j < d; ++j) {
      q[static_cast<size_t>(j)] =
          rows[static_cast<size_t>(pick * d + j)] +
          static_cast<float>(rng.Normal(0.0, 0.05));
    }
    const auto truth = exact.Query(q.data(), d, 10);
    const auto got = hnsw.Query(q.data(), d, 10);
    if (!truth.ok() || !got.ok()) {
      report->Check("ingest_recall_at_10", false, "query failed");
      return 0;
    }
    recall += RecallAt(*got, *truth);
  }
  recall /= static_cast<double>(kRecallQueries);
  std::snprintf(buf, sizeof(buf), "%.4f over %lld rows (>= 0.95)", recall,
                static_cast<long long>(hnsw.size()));
  report->Check("ingest_recall_at_10", recall >= 0.95, buf);
  report->SetValue("ingest_recall_at_10", recall);

  if (args.trace) ProbeLayers(args, *w, kLayerPipeline | kLayerHnswInsert |
                                            kLayerEncoderLoad, report);
  return 0;
}

}  // namespace perfbench
