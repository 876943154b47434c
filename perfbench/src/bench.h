// Shared pieces of the benchmark driver: the seeded world every workload
// runs on, the raw-result document the driver writes for run.py, and the
// span recorder of the traced run.
//
// The driver measures from outside the program: every number here comes
// from timing public calls into src/ from this directory's own code.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "roadnet/graph_registry.h"
#include "roadnet/road_network.h"
#include "serve/frozen_encoder.h"
#include "serve/index_interface.h"
#include "serve/stream_pipeline.h"
#include "traj/traffic_model.h"
#include "traj/trajectory.h"

namespace perfbench {

namespace common = start::common;
namespace core = start::core;
namespace data = start::data;
namespace eval = start::eval;
namespace nn = start::nn;
namespace roadnet = start::roadnet;
namespace serve = start::serve;
namespace tensor = start::tensor;
namespace traj = start::traj;

/// Command line of one driver run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int setups = 1;             ///< World builds; setup_s is their median.
  std::string workdir = ".";  ///< Scratch files (the model checkpoint).
  std::string out;            ///< Raw-result JSON path.
};

/// Monotonic microseconds (steady_clock).
int64_t NowUs();
/// Monotonic nanoseconds (steady_clock): span stamps.
int64_t NowNs();

/// \brief Raw results of one run, written as JSON for run.py.
///
/// Operations are recorded per kind as parallel arrays of start, end and
/// (open loop only) due stamps in microseconds; run.py turns them into
/// percentiles and rates, so every statistic is computed (and unit-tested)
/// in one place.
class Report {
 public:
  struct OpSeries {
    std::vector<int64_t> due_us;  ///< Open loop only: when it was due.
    std::vector<int64_t> start_us;
    std::vector<int64_t> end_us;  ///< -1 == failed (no completion).
    int64_t shed = 0;             ///< Refused by the system (load shedding).
  };

  OpSeries& ops(const std::string& kind) { return ops_[kind]; }
  void SetValue(const std::string& name, double v) { values_[name] = v; }
  void AddSamples(const std::string& name, const std::vector<double>& v);
  /// One set-up's wall seconds and process CPU seconds. Set-up is the
  /// world (and for query the index build, for train the trainer); the
  /// encoder load is not part of it: in some processes of the same code it
  /// takes 40x longer (OpenMP waits; the serve.encoder.load_s samples).
  void AddSetup(double wall_s, double cpu_s) {
    setup_s_.push_back(wall_s);
    setup_cpu_s_.push_back(cpu_s);
  }
  void Check(const std::string& name, bool ok, const std::string& detail);
  void Note(const std::string& text) { notes_.push_back(text); }
  /// Traced run: one measuring window of `kind` ops, traced or not; run.py
  /// compares the rates of traced and untraced windows (trace overhead).
  void AddWindow(const std::string& kind, int64_t start_us, int64_t end_us,
                 bool traced) {
    windows_.push_back({kind, start_us, end_us, traced});
  }
  void SetHost(const std::string& key, const std::string& value) {
    host_[key] = value;
  }
  bool all_checks_ok() const;

  /// Writes the document (plus the trace's spans when recorded).
  bool Write(const std::string& path) const;

 private:
  std::map<std::string, OpSeries> ops_;
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> samples_;
  std::vector<double> setup_s_, setup_cpu_s_;
  struct CheckRow {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<CheckRow> checks_;
  std::vector<std::string> notes_;
  std::map<std::string, std::string> host_;
  struct Window {
    std::string kind;
    int64_t start_us, end_us;
    bool traced;
  };
  std::vector<Window> windows_;
};

// ---- Tracing ---------------------------------------------------------------

/// \brief In-memory span store of the traced run.
///
/// A span is (id, parent, request, name, start_ns, end_ns). Spans opened on one
/// thread nest through a thread-local stack; a root span starts a request
/// and its descendants share the request id. Recording is off unless
/// Enable(true) — the untraced run pays one relaxed load per span site.
class Trace {
 public:
  struct Span {
    int64_t id, parent, request;
    int32_t name;
    int64_t start_ns, end_ns;
  };
  static void Enable(bool on);
  static bool on() { return enabled_.load(std::memory_order_relaxed); }
  static int32_t NameId(const char* name);
  static void Record(const Span& span);
  static int64_t NextId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  static std::vector<Span> Spans();
  static std::vector<std::string> Names();

 private:
  static std::atomic<bool> enabled_;
  static std::atomic<int64_t> next_id_;
};

/// RAII span: records [construction, destruction) under the current parent.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
  Trace::Span span_{};
  int64_t saved_parent_ = -1, saved_request_ = -1;
};

/// \brief Traced run: alternates tracing off/on in fixed windows over one
/// throughput phase, recording each window in the report, so the trace's
/// overhead is measured against untraced windows of the same phase. In an
/// untraced run it does nothing.
class WindowToggler {
 public:
  WindowToggler(Report* report, std::string kind, bool trace,
                int64_t window_us = 1'000'000);
  /// Closes the current window when it is due; call from the phase's loop.
  void Tick();
  /// Closes the last window and leaves tracing on (traced run).
  void Finish();

 private:
  Report* report_;
  std::string kind_;
  bool trace_;
  int64_t window_us_;
  int64_t start_us_ = 0;
  bool traced_ = false;
};

/// Span with caller-given microsecond stamps (for intervals observed through
/// callbacks);
/// returns its id, or -1 when tracing is off. A child inherits its parent's
/// request id.
int64_t RecordInterval(const char* name, int64_t start_us, int64_t end_us,
                       int64_t parent = -1);

// ---- World -----------------------------------------------------------------

/// \brief The shared world: a seeded synthetic city, its trip corpus, the
/// contraction hierarchy, and one untrained START model saved as a
/// checkpoint. Everything derives from the workload seed.
struct World {
  static constexpr const char* kCity = "bench";

  std::shared_ptr<roadnet::RoadNetwork> net;
  std::unique_ptr<traj::TrafficModel> traffic;
  std::vector<traj::Trajectory> corpus;
  std::unique_ptr<roadnet::TransferProbability> transfer;
  std::unique_ptr<roadnet::GraphRegistry> registry;
  core::StartConfig config;
  std::string checkpoint;
  double ch_build_s = 0.0;  ///< GraphRegistry::Register (CSR + CH), seconds.
};

/// Model architecture of the world (d=64, 2x4 encoder, GAT heads {4,1}).
core::StartConfig ModelConfig();

/// Builds the world from `seed`; writes the checkpoint under `workdir`.
std::unique_ptr<World> BuildWorld(uint64_t seed, const std::string& workdir);

/// Loads the world's checkpoint as a frozen engine; aborts on failure
/// (the checkpoint was written by this process).
std::unique_ptr<serve::FrozenEncoder> LoadEncoder(const World& w,
                                                  serve::Precision precision);

/// `passes` noisy GPS replays of the corpus (30 s sampling, 10 m noise),
/// ids `id_base + pass * corpus.size() + i`.
std::vector<serve::StreamItem> MakeGpsStream(const World& w, int64_t passes,
                                             int64_t id_base, uint64_t seed);

/// Map-matches `items` with the pipeline's matcher on `threads` threads;
/// items the pipeline would fail (fewer than min_roads roads, or longer than
/// the model's max_len) are left out.
struct MatchedSet {
  std::vector<int64_t> ids;
  std::vector<traj::Trajectory> trajs;
};
MatchedSet MatchAll(const World& w, const std::vector<serve::StreamItem>& items,
                    int threads);

/// Stream configuration shared by the ingest workload and the layer probe.
serve::StreamConfig IngestStreamConfig();

/// Mixes a workload seed with a stream tag (SplitMix64).
uint64_t SubSeed(uint64_t seed, uint64_t tag);

/// recall@k of `got` against `truth`: id overlap / |truth|.
double RecallAt(const std::vector<serve::Neighbor>& got,
                const std::vector<serve::Neighbor>& truth);

/// Process CPU seconds (user + system) from getrusage.
double CpuSeconds();
/// CPU seconds of the calling thread (CLOCK_THREAD_CPUTIME_ID).
double ThreadCpuSeconds();
/// Peak resident set size in MiB (getrusage ru_maxrss).
double PeakRssMb();
/// Current thread count of this process (/proc/self/status).
int64_t ThreadCount();

/// \brief IndexInterface decorator that spans each insert and search into
/// the real index ("serve.hnsw.insert" / "serve.hnsw.search").
class TimedIndex : public serve::IndexInterface {
 public:
  explicit TimedIndex(serve::IndexInterface* inner) : inner_(inner) {}
  int64_t dim() const override { return inner_->dim(); }
  int64_t size() const override { return inner_->size(); }
  bool Contains(int64_t id) const override { return inner_->Contains(id); }
  using serve::IndexInterface::Add;
  common::Status Add(int64_t id, const float* embedding,
                     int64_t dim) override {
    ScopedSpan span("serve.hnsw.insert");
    return inner_->Add(id, embedding, dim);
  }
  common::Status AddBatch(const std::vector<int64_t>& ids,
                          const std::vector<float>& rows) override {
    return inner_->AddBatch(ids, rows);
  }
  common::Status Remove(int64_t id) override { return inner_->Remove(id); }
  using serve::IndexInterface::Query;
  common::Result<std::vector<serve::Neighbor>> Query(const float* query,
                                                     int64_t dim,
                                                     int64_t k) const override {
    ScopedSpan span("serve.hnsw.search");
    return inner_->Query(query, dim, k);
  }

 private:
  serve::IndexInterface* inner_;
};

/// \brief Traced run: samples the pipeline's queue depths (when given one)
/// and the process's thread count every 2 ms until Finish().
class Sampler {
 public:
  explicit Sampler(const serve::StreamPipeline* pipeline);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;
  /// Stops sampling and writes the maxima into `report`.
  void Finish(Report* report);

 private:
  const serve::StreamPipeline* pipeline_;
  std::atomic<bool> stop_{false};
  int64_t depth_match_ = 0, depth_embed_ = 0, depth_upsert_ = 0;
  int64_t threads_ = 0;
  std::thread thread_;  // declared last: uses the members above
};

/// \brief First common::FaultHooks::before_stage stamp per (stage, seq) of a
/// StreamPipeline; 0 == not seen. Stamps only while tracing is on.
class StageStamps {
 public:
  explicit StageStamps(size_t n)
      : match_(new std::atomic<int64_t>[n]()),
        embed_(new std::atomic<int64_t>[n]()),
        upsert_(new std::atomic<int64_t>[n]()),
        n_(n) {}

  common::Status Stamp(const char* stage, int64_t seq) {
    if (!Trace::on() || seq < 0 || static_cast<size_t>(seq) >= n_) {
      return common::Status::OK();
    }
    std::atomic<int64_t>* slot = nullptr;
    switch (stage[0]) {
      case 'm': slot = &match_[static_cast<size_t>(seq)]; break;
      case 'e': slot = &embed_[static_cast<size_t>(seq)]; break;
      case 'u': slot = &upsert_[static_cast<size_t>(seq)]; break;
      default: return common::Status::OK();
    }
    int64_t expected = 0;
    slot->compare_exchange_strong(expected, NowUs());
    return common::Status::OK();
  }

  int64_t match(size_t i) const { return match_[i].load(); }
  int64_t embed(size_t i) const { return embed_[i].load(); }
  int64_t upsert(size_t i) const { return upsert_[i].load(); }

 private:
  std::unique_ptr<std::atomic<int64_t>[]> match_, embed_, upsert_;
  size_t n_;
};

/// Traced run: records each ingested item as a "serve.item" span (push ->
/// ingested callback) with one child per stage, each ending at that stage's
/// entry hook — match: push -> match entry (queue wait); embed: match entry
/// -> embed entry (matching + embed queue wait); upsert: embed entry ->
/// upsert entry (service round trip + reorder + upsert queue wait). The
/// item's self time is the finalizer's part: HNSW insert, drift, callback.
void RecordStageSpans(const StageStamps& stamps,
                      const std::vector<int64_t>& sent,
                      const std::vector<int64_t>& done, size_t n);

/// Runs ParallelTrainer steps fed by a BatchLoader on a fresh model until
/// `seconds` have passed and `min_steps` are done, or `max_steps` are done,
/// recording each step as an op of `kind`.
void TrainSteps(const World& w, uint64_t seed, int shards, double seconds,
                int64_t min_steps, int64_t max_steps, const std::string& kind,
                bool toggle_trace, Report* report, std::vector<double>* losses);

/// Layer groups a workload measured in place; ProbeLayers skips them.
enum Layer : unsigned {
  kLayerPipeline = 1u << 0,  ///< serve.stage_wait / queue_depth / retried
  kLayerService = 1u << 1,   ///< serve.embed.roundtrip / coalescing / padding
  kLayerHnswInsert = 1u << 2,
  kLayerHnswSearch = 1u << 3,
  kLayerIndexBuild = 1u << 4,  ///< serve.hnsw.build_s, serve.embed_all_s
  kLayerEncoderLoad = 1u << 5,
  kLayerTrain = 1u << 6,  ///< core.train.loader_wait_ms / step_ms
};

// ---- Workloads -------------------------------------------------------------

int RunIngest(const Args& args, Report* report);
int RunQuery(const Args& args, Report* report);
int RunTrain(const Args& args, Report* report);

/// Traced run only: times each layer's public calls directly on `w`, for
/// the per-layer metrics the workload itself does not drive.
void ProbeLayers(const Args& args, const World& w, unsigned in_place,
                 Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
