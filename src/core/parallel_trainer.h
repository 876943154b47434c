#ifndef START_CORE_PARALLEL_TRAINER_H_
#define START_CORE_PARALLEL_TRAINER_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/start_model.h"
#include "data/loader.h"
#include "nn/optimizer.h"

namespace start::core {

/// \brief Data-parallel sharded pre-training engine.
///
/// One optimizer step consumes a group of `accum_steps` micro-batches from
/// the loader, decomposes them into fixed-size *micro-shards* ("grains" of
/// `shard_grain` trajectories), fans the grains out across `num_shards` model
/// replicas (one common::ParallelFor chunk each), and combines their gradients
/// with the deterministic fixed-order tree all-reduce of nn/allreduce.h
/// before one fused AdamW update on the primary model.
///
/// ## Determinism contract (the load-bearing design decision)
///
/// Floating-point summation is order-sensitive, so data parallelism is only
/// bitwise-reproducible if the *summation order* is pinned independently of
/// the parallelism. The engine therefore separates two knobs:
///
///  * The **decomposition** — (shard_grain, accum_steps) — defines which
///    gradient contributions exist and the fixed tree in which they are
///    combined. Changing it changes the floating-point stream (never the
///    math): it is training-semantics and is folded into the resume plan
///    hash.
///  * The **schedule** — num_shards — says how many replicas *compute* the
///    fixed grain set. It cannot affect a single bit of the result: every
///    grain's forward/backward is a self-contained serial computation (own
///    activations, own per-grain-seeded dropout stream, gradients captured
///    in the grain's own slot), and the tree all-reduce walks the grain
///    ordinals in the same order for any K. K ∈ {1,2,3,5} produce
///    bitwise-identical parameters, optimizer state, and loss curves
///    (tests/parallel_trainer_test.cc; gated in bench_pretrain).
///
/// Batch-coupled reductions cannot be computed per shard without changing
/// their value — NT-Xent scores every trajectory against every other in the
/// step, and the masked-recovery cross entropy averages over all masked
/// positions. The engine handles them SimCLR-style: shards compute the
/// row-independent encoder forward only, the coordinator gathers the
/// boundary tensors (masked-position logits, CLS rows) and evaluates both
/// losses *centrally* over the full group — identically for any K — then
/// scatters the boundary gradients back for the per-grain backward passes.
/// Gradient accumulation rides the same path: the micro-batches of one
/// optimizer step contribute grains to one central loss, so accumulation
/// *increases the effective contrastive batch* and two micro-batches are
/// bitwise-equivalent to one double batch when their row streams align.
///
/// Stage 1 (TPE-GAT road representations) is batch-independent: the
/// coordinator runs it once per optimizer step on the primary replica,
/// shares the detached values with every grain through zero-copy proxy
/// leaves, tree-reduces the per-grain proxy gradients, and back-propagates
/// the combined gradient through the retained stage-1 graph exactly once.
///
/// Threading contract: Step() is single-consumer; replicas touch disjoint
/// model instances; phases are separated by joins, so no tensor is read and
/// written concurrently. The TSan CI job runs the sharded step.
struct ShardConfig {
  /// Model replicas, run concurrently up to the common::ParallelFor thread
  /// budget. Pure scheduling: any value yields
  /// bitwise-identical training. 1 runs the grain set inline.
  int num_shards = 1;
  /// Trajectories per micro-shard; 0 = one grain per micro-batch (no intra-
  /// batch decomposition — with num_shards > 1 parallelism then comes only
  /// from accumulation groups). Summation-order-defining.
  int64_t shard_grain = 0;
  /// Micro-batches per optimizer step. Summation-order-defining.
  int64_t accum_steps = 1;

  // Loss knobs, mirroring core::PretrainConfig.
  bool use_mask_task = true;
  bool use_contrastive_task = true;
  double lambda = 0.6;
  float tau = 0.05f;
  double grad_clip = 5.0;
  /// Base seed of the per-(optimizer step, grain) dropout streams.
  uint64_t seed = 7;
};

/// \brief Per-optimizer-step telemetry.
struct ShardStepStats {
  double loss = 0.0;       ///< Combined central loss (Eq. 15 mix).
  double mask_loss = 0.0;  ///< Central masked-recovery CE (0 when absent).
  double con_loss = 0.0;   ///< Central NT-Xent (0 when absent).
  int64_t grains = 0;      ///< Micro-shards the step decomposed into.
};

class ParallelTrainer {
 public:
  /// `model` is the primary replica: it receives the reduced gradients and
  /// the optimizer update, and stays the single source of truth for
  /// checkpointing. The trainer builds `num_shards - 1` additional replicas
  /// from the model's own construction inputs and keeps them value-synced
  /// after every step. The trainer installs per-replica dropout generators
  /// (Module::SetDropoutRng) for its lifetime.
  ParallelTrainer(StartModel* model, const ShardConfig& config);
  ~ParallelTrainer();

  ParallelTrainer(const ParallelTrainer&) = delete;
  ParallelTrainer& operator=(const ParallelTrainer&) = delete;

  /// Runs one optimizer step over `micros` (1..accum_steps micro-batches, in
  /// loader order): sharded forward/backward, tree all-reduce into the
  /// primary model, gradient clipping, AdamW update at learning rate `lr`,
  /// and parameter broadcast to the replicas. `opt` must be built from the
  /// primary model's Parameters().
  ShardStepStats Step(const std::vector<const data::TrainingBatch*>& micros,
                      int64_t opt_step, nn::AdamW* opt, double lr);

  /// Call after externally overwriting the primary model's parameters (e.g.
  /// a checkpoint resume) so the replicas match again.
  void SyncReplicas();

  /// Per-replica dropout-stream cursors (common::Rng::GetState, 6 words
  /// each), flattened in replica order — the TrainerState shard_rng payload.
  std::vector<uint64_t> ShardRngStates() const;

  int num_shards() const { return config_.num_shards; }

 private:
  struct Grain;

  StartModel* ReplicaModel(int r) const;
  /// Runs fn(r) for every replica, one executor chunk per replica.
  void RunOnReplicas(const std::function<void(int)>& fn);

  ShardConfig config_;
  StartModel* primary_;
  common::Rng replica_init_rng_;  ///< Dummy init source for replica builds.
  std::vector<std::unique_ptr<StartModel>> extra_replicas_;
  /// Per-replica dropout generators; stable addresses (sized once).
  std::vector<common::Rng> rngs_;
  /// Per-replica parameter handles in registry order (index 0 = primary).
  std::vector<std::vector<tensor::Tensor>> replica_params_;
};

}  // namespace start::core

#endif  // START_CORE_PARALLEL_TRAINER_H_
