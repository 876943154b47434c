// The seeded world shared by every workload, and the generated inputs.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/checkpoint.h"
#include "core/start_model.h"
#include "data/dataset.h"
#include "roadnet/synthetic_city.h"
#include "traj/map_matching.h"
#include "traj/trip_generator.h"

namespace perfbench {

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

core::StartConfig ModelConfig() {
  core::StartConfig config;
  config.d = 64;
  config.encoder_layers = 2;
  config.encoder_heads = 4;
  config.gat_layers = 2;
  config.gat_heads = {4, 1};
  config.max_len = 160;
  return config;
}

std::unique_ptr<World> BuildWorld(uint64_t seed, const std::string& workdir) {
  auto w = std::make_unique<World>();
  roadnet::SyntheticCityConfig city;
  city.grid_width = 24;
  city.grid_height = 24;
  city.seed = SubSeed(seed, 1);
  w->net = std::make_shared<roadnet::RoadNetwork>(
      roadnet::BuildSyntheticCity(city));
  w->traffic = std::make_unique<traj::TrafficModel>(
      w->net.get(), traj::TrafficModel::Config{});

  traj::TripGenerator::Config trips;
  trips.num_drivers = 24;
  trips.num_days = 6;
  trips.trips_per_driver_day = 4.0;
  trips.seed = SubSeed(seed, 2);
  traj::TripGenerator gen(w->traffic.get(), trips);
  data::DatasetConfig ds;
  ds.min_length = 6;
  ds.max_length = 150;
  ds.min_user_trajectories = 2;
  w->corpus = data::TrajDataset::FromCorpus(*w->net, gen.Generate(), ds).All();
  std::vector<std::vector<int64_t>> seqs;
  seqs.reserve(w->corpus.size());
  for (const auto& t : w->corpus) seqs.push_back(t.roads);
  w->transfer = std::make_unique<roadnet::TransferProbability>(
      roadnet::TransferProbability::FromTrajectories(*w->net, seqs));

  w->registry = std::make_unique<roadnet::GraphRegistry>();
  common::Stopwatch ch_timer;
  const auto st = w->registry->Register(World::kCity, w->net);
  w->ch_build_s = ch_timer.ElapsedSeconds();
  if (!st.ok()) {
    std::fprintf(stderr, "CH registration failed: %s\n", st.ToString().c_str());
    std::exit(2);
  }

  w->config = ModelConfig();
  common::Rng rng(SubSeed(seed, 3));
  core::StartModel model(w->config, w->net.get(), w->transfer.get(), &rng);
  w->checkpoint = workdir + "/perfbench_model.sttn";
  const auto saved = core::SaveModelCheckpoint(
      w->checkpoint, model, core::HashStartConfig(w->config));
  if (!saved.ok()) {
    std::fprintf(stderr, "checkpoint save failed: %s\n",
                 saved.ToString().c_str());
    std::exit(2);
  }
  return w;
}

std::unique_ptr<serve::FrozenEncoder> LoadEncoder(const World& w,
                                                  serve::Precision precision) {
  serve::FrozenEncoderOptions options;
  options.precision = precision;
  auto loaded = serve::FrozenEncoder::Load(w.checkpoint, w.config, w.net.get(),
                                           w.transfer.get(), options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "encoder load failed: %s\n",
                 loaded.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(loaded).value();
}

std::vector<serve::StreamItem> MakeGpsStream(const World& w, int64_t passes,
                                             int64_t id_base, uint64_t seed) {
  common::Rng rng(seed);
  const auto n = static_cast<int64_t>(w.corpus.size());
  std::vector<serve::StreamItem> items;
  items.reserve(static_cast<size_t>(passes * n));
  for (int64_t pass = 0; pass < passes; ++pass) {
    for (int64_t i = 0; i < n; ++i) {
      serve::StreamItem item;
      item.id = id_base + pass * n + i;
      item.gps = traj::SimulateGps(*w.net, w.corpus[static_cast<size_t>(i)],
                                   /*sample_interval_s=*/30.0,
                                   /*noise_m=*/10.0, &rng);
      if (item.gps.points.size() >= 2) items.push_back(std::move(item));
    }
  }
  return items;
}

MatchedSet MatchAll(const World& w, const std::vector<serve::StreamItem>& items,
                    int threads) {
  const serve::StreamConfig stream = IngestStreamConfig();
  std::vector<traj::Trajectory> matched(items.size());
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const traj::HmmMapMatcher matcher(w.net.get(), stream.matcher);
      for (size_t i = static_cast<size_t>(t); i < items.size();
           i += static_cast<size_t>(threads)) {
        matched[i] = matcher.MatchTrajectory(items[i].gps);
      }
    });
  }
  for (auto& th : pool) th.join();
  MatchedSet out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (matched[i].size() < stream.min_roads ||
        matched[i].size() > w.config.max_len) {
      continue;
    }
    out.ids.push_back(items[i].id);
    out.trajs.push_back(std::move(matched[i]));
  }
  return out;
}

serve::StreamConfig IngestStreamConfig() {
  serve::StreamConfig config;
  config.match_workers = 2;
  // One embed worker keeps one request in flight, so the service encodes
  // every trajectory alone. With two, how often their requests met in one
  // batch depended on timing, and the CPU per trajectory with it (it fell
  // as the host got busier); coalescing is measured on query.
  config.embed_workers = 1;
  config.service.max_batch_size = 16;
  config.service.batch_deadline_us = 100;
  return config;
}

double RecallAt(const std::vector<serve::Neighbor>& got,
                const std::vector<serve::Neighbor>& truth) {
  if (truth.empty()) return 1.0;
  std::unordered_set<int64_t> want;
  for (const auto& n : truth) want.insert(n.id);
  int64_t hit = 0;
  for (const auto& n : got) hit += want.count(n.id) > 0 ? 1 : 0;
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

}  // namespace perfbench
