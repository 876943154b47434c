// Workload `query`: the closed-loop read path.
//
// nproc clients against a prebuilt HNSW index of >= 15k rows served by the
// int8 engine. All clients but one run similarity searches (a matched road
// trajectory through EmbeddingService::EncodeSync, then HnswIndex::Query
// with k = 10); one client asks CityRouter::TravelTimeSeconds for seeded
// random segment pairs. int8 qgemm, micro-batch coalescing, HNSW search and
// CH queries do the work; map matching, f32 GEMM and HNSW inserts do none.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "roadnet/csr_graph.h"
#include "serve/city_router.h"
#include "serve/embedding_index.h"
#include "serve/embedding_service.h"
#include "serve/hnsw_index.h"

namespace perfbench {
namespace {

constexpr int64_t kIndexRows = 15000;
constexpr int64_t kQueryPasses = 2;
constexpr int64_t kK = 10;
constexpr int64_t kRecallQueries = 200;
constexpr int64_t kChChecks = 200;

constexpr double kEtaRate = 2000.0;  ///< Offered ETA requests/s.
/// Corpus embedding batch at set-up. At EmbedAll's default of 64 the
/// concurrent chunks' attention buffers set the process's peak RSS, and it
/// moved by 17 % with how the chunks' longest batches happened to overlap.
constexpr int64_t kCorpusBatch = 16;
/// Longest the service waits for the last search client of a burst.
constexpr int64_t kCoalesceDeadlineUs = 20'000;

/// Embeds `trajs` with FrozenEncoder::EmbedAll, one contiguous chunk per
/// thread, kCorpusBatch trajectories per batch. A single caller's EmbedAll
/// runs every OpenMP region on one spinning team, which a busy host slows
/// by 10x or more in wall and CPU time alike; one caller per hardware
/// thread does not.
std::vector<float> EmbedCorpus(const serve::FrozenEncoder& encoder,
                               const std::vector<traj::Trajectory>& trajs,
                               int threads) {
  const size_t n = trajs.size(), parts = static_cast<size_t>(threads);
  std::vector<std::vector<float>> chunks(parts);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < parts; ++t) {
    pool.emplace_back([&, t] {
      const std::vector<traj::Trajectory> chunk(
          trajs.begin() + static_cast<std::ptrdiff_t>(n * t / parts),
          trajs.begin() + static_cast<std::ptrdiff_t>(n * (t + 1) / parts));
      chunks[t] =
          encoder.EmbedAll(chunk, eval::EncodeMode::kFull, kCorpusBatch);
    });
  }
  for (auto& th : pool) th.join();
  std::vector<float> rows;
  for (const auto& c : chunks) rows.insert(rows.end(), c.begin(), c.end());
  return rows;
}

struct ClientLog {
  std::vector<int64_t> due, start, end;
  double cpu_s = 0.0;  ///< The client thread's own CPU seconds.
};

}  // namespace

int RunQuery(const Args& args, Report* report) {
  std::unique_ptr<World> w;
  std::unique_ptr<serve::FrozenEncoder> encoder;
  std::unique_ptr<serve::HnswIndex> hnsw;
  MatchedSet corpus, queries;
  std::vector<float> rows;
  const int threads = std::max(1u, std::thread::hardware_concurrency());
  for (int r = 0; r < args.setups; ++r) {
    hnsw.reset();
    encoder.reset();
    w.reset();
    common::Stopwatch world_timer;
    double setup_cpu_s = -CpuSeconds();
    w = BuildWorld(args.seed, args.workdir);
    const double world_s = world_timer.ElapsedSeconds();
    setup_cpu_s += CpuSeconds();
    common::Stopwatch load;
    encoder = LoadEncoder(*w, serve::Precision::kInt8);
    const double load_s = load.ElapsedSeconds();
    if (r == 0) {
      // Inputs, not set-up: the matched trajectories the index is built
      // from and the query pool (fresh GPS noise, distinct ids).
      const auto passes = static_cast<int64_t>(
          std::ceil(1.1 * kIndexRows / static_cast<double>(w->corpus.size())));
      corpus = MatchAll(*w, MakeGpsStream(*w, passes, 0, SubSeed(args.seed, 20)),
                        threads);
      queries = MatchAll(
          *w, MakeGpsStream(*w, kQueryPasses, 1'000'000'000,
                            SubSeed(args.seed, 21)),
          threads);
    }
    common::Stopwatch embed_timer;
    setup_cpu_s -= CpuSeconds();
    rows = EmbedCorpus(*encoder, corpus.trajs, threads);
    const double embed_s = embed_timer.ElapsedSeconds();
    common::Stopwatch build_timer;
    hnsw = std::make_unique<serve::HnswIndex>(encoder->dim());
    if (!hnsw->AddBatch(corpus.ids, rows).ok()) {
      std::fprintf(stderr, "index build failed\n");
      return 2;
    }
    const double build_s = build_timer.ElapsedSeconds();
    setup_cpu_s += CpuSeconds();
    report->AddSetup(world_s + embed_s + build_s, setup_cpu_s);
    report->AddSamples("roadnet.ch.build_s", {w->ch_build_s});
    report->AddSamples("serve.encoder.load_s", {load_s});
    report->AddSamples("serve.embed_all_s", {embed_s});
    report->AddSamples("serve.hnsw.build_s", {build_s});
  }
  const int64_t d = encoder->dim();
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%lld rows (>= %lld)",
                static_cast<long long>(hnsw->size()),
                static_cast<long long>(kIndexRows));
  report->Check("query_index_rows", hnsw->size() >= kIndexRows, buf);
  report->SetValue("serve.index_rows", static_cast<double>(hnsw->size()));

  TimedIndex timed(hnsw.get());
  serve::IndexInterface* index =
      args.trace ? static_cast<serve::IndexInterface*>(&timed) : hnsw.get();
  // One client runs ETAs, the rest searches. The service waits for one
  // request from every search client before it encodes, so each burst
  // holds the same requests however busy the host is and the CPU per
  // search does not drift with timing.
  const int clients = std::max(2, threads);
  serve::ServiceConfig service_config;
  service_config.max_batch_size = clients - 1;
  service_config.batch_deadline_us = kCoalesceDeadlineUs;
  serve::EmbeddingService service(encoder.get(), service_config);
  serve::CityRouter router(w->registry.get());
  {
    serve::CityRouter::CityConfig lane;
    lane.encoder = encoder.get();
    lane.index = hnsw.get();
    const auto st = router.OpenCity(World::kCity, lane);
    if (!st.ok()) {
      std::fprintf(stderr, "OpenCity failed: %s\n", st.ToString().c_str());
      return 2;
    }
  }
  const int64_t segments = w->net->num_segments();

  std::vector<ClientLog> logs(static_cast<size_t>(clients));
  std::atomic<bool> stop{false};
  std::unique_ptr<Sampler> sampler;
  if (args.trace) sampler = std::make_unique<Sampler>(nullptr);
  WindowToggler toggler(report, "search", args.trace);
  const double cpu0 = CpuSeconds();
  std::vector<std::thread> pool;
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<size_t>(c)];
      common::Rng rng(SubSeed(args.seed, 30 + static_cast<uint64_t>(c)));
      if (c == clients - 1) {
        // ETA requests arrive open loop at a fixed rate, timed from due.
        const int64_t t0 = NowUs();
        for (int64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          const int64_t due =
              t0 + std::llround(static_cast<double>(i) * 1e6 / kEtaRate);
          const int64_t wait = due - NowUs();
          if (wait > 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(wait));
          }
          log.due.push_back(due);
          log.start.push_back(NowUs());
          bool ok = false;
          {
            ScopedSpan span("query.eta");
            ok = router.TravelTimeSeconds(World::kCity, rng.UniformInt(segments),
                                          rng.UniformInt(segments))
                     .ok();
          }
          log.end.push_back(ok ? NowUs() : -1);
        }
        log.cpu_s = ThreadCpuSeconds();
        return;
      }
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t t0 = NowUs();
        bool ok = false;
        {
          ScopedSpan span("query.search");
          const auto& t = queries.trajs[static_cast<size_t>(
              rng.UniformInt(static_cast<int64_t>(queries.trajs.size())))];
          common::Result<std::vector<float>> row =
              common::Status::Internal("unset");
          {
            ScopedSpan encode("serve.embed.roundtrip");
            row = service.EncodeSync(t);
          }
          ok = row.ok() && index->Query(row->data(), d, kK).ok();
        }
        log.start.push_back(t0);
        log.end.push_back(ok ? NowUs() : -1);
      }
    });
  }
  const int64_t deadline = NowUs() + std::llround(args.seconds * 1e6);
  while (NowUs() < deadline) {
    toggler.Tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : pool) t.join();
  toggler.Finish();
  const double cpu_s = CpuSeconds() - cpu0;
  if (sampler) sampler->Finish(report);

  int64_t completed = 0;
  for (int c = 0; c < clients; ++c) {
    auto& ops = report->ops(c == clients - 1 ? "eta" : "search");
    const ClientLog& log = logs[static_cast<size_t>(c)];
    ops.due_us.insert(ops.due_us.end(), log.due.begin(), log.due.end());
    ops.start_us.insert(ops.start_us.end(), log.start.begin(), log.start.end());
    ops.end_us.insert(ops.end_us.end(), log.end.begin(), log.end.end());
    for (int64_t e : log.end) completed += e >= 0 ? 1 : 0;
  }
  report->SetValue("cpu_s", cpu_s);
  report->SetValue("phase_cpu_s", cpu_s - logs.back().cpu_s);
  report->SetValue("ops_completed", static_cast<double>(completed));
  const serve::ServiceStats ss = service.stats();
  report->SetValue("serve.embed.coalescing", ss.coalescing());
  report->SetValue("serve.embed.padding_eff", ss.padding_efficiency());

  // recall@10 of HNSW against an exact index over the same rows, on
  // embeddings of the query pool.
  {
    serve::EmbeddingIndex exact(d);
    if (!exact.AddBatch(corpus.ids, rows).ok()) {
      report->Check("query_recall_at_10", false, "exact index build failed");
      return 0;
    }
    const int64_t nq = std::min<int64_t>(
        kRecallQueries, static_cast<int64_t>(queries.trajs.size()));
    const std::vector<traj::Trajectory> probe(
        queries.trajs.begin(), queries.trajs.begin() + nq);
    const std::vector<float> qrows =
        encoder->EmbedAll(probe, eval::EncodeMode::kFull);
    double recall = 0.0;
    for (int64_t i = 0; i < nq; ++i) {
      const float* q = qrows.data() + i * d;
      const auto truth = exact.Query(q, d, kK);
      const auto got = hnsw->Query(q, d, kK);
      if (!truth.ok() || !got.ok()) {
        report->Check("query_recall_at_10", false, "query failed");
        return 0;
      }
      recall += RecallAt(*got, *truth);
    }
    recall /= static_cast<double>(nq);
    std::snprintf(buf, sizeof(buf), "%.4f over %lld queries (>= 0.95)",
                  recall, static_cast<long long>(nq));
    report->Check("query_recall_at_10", recall >= 0.95, buf);
    report->SetValue("recall_at_10", recall);
  }

  // A sample of CH answers must equal the exact Dijkstra oracle bit for bit.
  {
    const auto city = w->registry->Get(World::kCity);
    roadnet::CsrDijkstra dijkstra(city->graph.get());
    auto ctx = city->ch->MakeContext();
    common::Rng rng(SubSeed(args.seed, 40));
    int64_t mismatches = 0;
    for (int64_t i = 0; i < kChChecks; ++i) {
      const int64_t a = rng.UniformInt(segments);
      const int64_t b = rng.UniformInt(segments);
      const int32_t na = city->graph->ToNode(a), nb = city->graph->ToNode(b);
      const roadnet::Cost want = dijkstra.Distance(na, nb);
      const roadnet::Cost got = city->ch->Distance(na, nb, &ctx);
      const auto eta = router.TravelTimeSeconds(World::kCity, a, b);
      const bool eta_ok = want >= roadnet::kInfCost
                              ? !eta.ok()
                              : eta.ok() && *eta == city->graph->CostToSeconds(want);
      if (got != want || !eta_ok) ++mismatches;
    }
    std::snprintf(buf, sizeof(buf), "%lld/%lld CH answers differ from Dijkstra",
                  static_cast<long long>(mismatches),
                  static_cast<long long>(kChChecks));
    report->Check("ch_equals_dijkstra", mismatches == 0, buf);
  }

  if (args.trace) {
    ProbeLayers(args, *w, kLayerService | kLayerHnswSearch | kLayerIndexBuild |
                              kLayerEncoderLoad, report);
  }
  return 0;
}

}  // namespace perfbench
