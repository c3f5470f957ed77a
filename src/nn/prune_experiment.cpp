#include "nn/prune_experiment.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "exec/scheduler.hpp"
#include "io/serialize.hpp"
#include "nn/batch_entry.hpp"
#include "nn/bert_mini.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/nmt_mini.hpp"
#include "nn/optimizer.hpp"
#include "nn/vgg_mini.hpp"
#include "prune/importance.hpp"
#include "prune/patterns.hpp"
#include "prune/tw_pruner.hpp"
#include "tensor/ops.hpp"
#include "workload/datasets.hpp"

namespace tilesparse {

const char* pattern_name(PatternKind kind) {
  switch (kind) {
    case PatternKind::kDense: return "Dense";
    case PatternKind::kEw: return "EW";
    case PatternKind::kVw: return "VW";
    case PatternKind::kBw: return "BW";
    case PatternKind::kTw: return "TW";
    case PatternKind::kTew: return "TEW";
  }
  return "?";
}

namespace {

/// Pads the BW block edge down to a divisor of both dimensions so mini
/// models with non-multiple shapes still get a block pattern.
std::size_t fit_block(std::size_t block, std::size_t rows, std::size_t cols) {
  while (block > 1 && (rows % block != 0 || cols % block != 0)) block /= 2;
  return std::max<std::size_t>(1, block);
}

double realised_sparsity(const std::vector<Param*>& weights) {
  std::size_t zero = 0, total = 0;
  for (const Param* p : weights) {
    total += p->value.size();
    for (float v : p->value.flat()) zero += (v == 0.0f);
  }
  return total ? static_cast<double>(zero) / static_cast<double>(total) : 0.0;
}

}  // namespace

PruneResult prune_and_evaluate(PruneTask& task, const PatternSpec& spec,
                               int finetune_steps) {
  PruneResult result;
  std::vector<Param*> weights = task.prunable();

  if (spec.kind == PatternKind::kDense || spec.sparsity <= 0.0) {
    result.metric = task.evaluate();
    return result;
  }

  // Masks must outlive the fine-tuning; owned here, bound to the params
  // for the duration of this call, unbound before returning (the zeroed
  // weights persist; only the enforcement pointer is cleared).
  std::vector<MatrixU8> mask_storage;

  auto bind_masks = [&](std::vector<MatrixU8> masks) {
    mask_storage = std::move(masks);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      weights[i]->mask = &mask_storage[i];
      apply_mask(weights[i]->value, mask_storage[i]);
    }
  };

  switch (spec.kind) {
    case PatternKind::kEw: {
      std::vector<MatrixF> scores;
      std::vector<const MatrixF*> score_ptrs;
      scores.reserve(weights.size());
      for (Param* p : weights) scores.push_back(magnitude_scores(p->value));
      for (const auto& s : scores) score_ptrs.push_back(&s);
      bind_masks(ew_mask_global(score_ptrs, spec.sparsity));
      task.train_steps(finetune_steps);
      break;
    }
    case PatternKind::kVw: {
      std::vector<MatrixU8> masks;
      for (Param* p : weights) {
        masks.push_back(vw_mask(magnitude_scores(p->value), spec.sparsity,
                                spec.vector_len));
      }
      bind_masks(std::move(masks));
      task.train_steps(finetune_steps);
      break;
    }
    case PatternKind::kBw: {
      std::vector<MatrixU8> masks;
      for (Param* p : weights) {
        const std::size_t block =
            fit_block(spec.block, p->value.rows(), p->value.cols());
        masks.push_back(
            bw_mask(magnitude_scores(p->value), spec.sparsity, block));
      }
      bind_masks(std::move(masks));
      task.train_steps(finetune_steps);
      break;
    }
    case PatternKind::kTw:
    case PatternKind::kTew: {
      const bool tew = spec.kind == PatternKind::kTew;
      const double tw_target =
          tew ? std::min(0.99, spec.sparsity + spec.tew_delta) : spec.sparsity;
      // Keep pre-prune values so TEW can restore high-score elements.
      const std::vector<MatrixF> original = snapshot_params(weights);

      TwPruneOptions options;
      options.target_sparsity = tw_target;
      options.g = spec.g;
      options.stages = spec.stages;
      options.apriori = spec.apriori;
      options.global_rank = spec.global_rank;

      std::vector<MatrixF*> raw;
      raw.reserve(weights.size());
      for (Param* p : weights) raw.push_back(&p->value);

      const int per_stage =
          std::max(1, finetune_steps / std::max(1, spec.stages));
      auto patterns = tw_prune(
          raw, options, /*score_fn=*/{},
          [&](const std::vector<MatrixU8>& masks) {
            bind_masks(masks);
            task.train_steps(per_stage);
          });

      if (tew) {
        // Restore the top-delta pruned elements (by original magnitude)
        // into both the weights and the masks, then fine-tune again.
        for (std::size_t wi = 0; wi < weights.size(); ++wi) {
          const MatrixU8 tw_mask = pattern_to_mask(patterns[wi]);
          struct Cand {
            float score;
            std::uint32_t r, c;
          };
          std::vector<Cand> cands;
          for (std::size_t r = 0; r < tw_mask.rows(); ++r)
            for (std::size_t c = 0; c < tw_mask.cols(); ++c)
              if (!tw_mask(r, c))
                cands.push_back({std::fabs(original[wi](r, c)),
                                 static_cast<std::uint32_t>(r),
                                 static_cast<std::uint32_t>(c)});
          const auto restore = std::min(
              cands.size(),
              static_cast<std::size_t>(spec.tew_delta *
                                       static_cast<double>(tw_mask.size())));
          std::partial_sort(cands.begin(), cands.begin() + restore, cands.end(),
                            [](const Cand& a, const Cand& b) {
                              return a.score > b.score;
                            });
          for (std::size_t i = 0; i < restore; ++i) {
            mask_storage[wi](cands[i].r, cands[i].c) = 1;
            weights[wi]->value(cands[i].r, cands[i].c) =
                original[wi](cands[i].r, cands[i].c);
          }
        }
        task.train_steps(per_stage);
      }
      result.patterns = std::move(patterns);
      break;
    }
    case PatternKind::kDense:
      break;
  }

  result.achieved_sparsity = realised_sparsity(weights);
  result.metric = task.evaluate();
  for (Param* p : weights) p->mask = nullptr;
  result.masks = std::move(mask_storage);
  return result;
}

namespace {

/// Restores dense execution on every exit path — without this, a
/// throwing evaluate would leave the task serving through a stale
/// packed format.
class PackedEvalScope {
 public:
  explicit PackedEvalScope(PruneTask& task) : task_(task) {}
  ~PackedEvalScope() { task_.clear_packed_weights(); }
  PackedEvalScope(const PackedEvalScope&) = delete;
  PackedEvalScope& operator=(const PackedEvalScope&) = delete;

 private:
  PruneTask& task_;
};

}  // namespace

double evaluate_with_format(PruneTask& task, const std::string& format,
                            const std::vector<TilePattern>* patterns,
                            const ExecContext& ctx) {
  if (!task.pack_weights(format, patterns, ctx)) {
    throw std::logic_error("evaluate_with_format: task '" + task.name() +
                           "' has no packed execution path");
  }
  PackedEvalScope scope(task);
  return task.evaluate();
}

void export_packed_weights(PruneTask& task, const std::string& format,
                           const std::vector<TilePattern>* patterns,
                           const std::string& path, const ExecContext& ctx) {
  const std::vector<Linear*> layers = task.packed_layers();
  if (layers.empty() || !task.pack_weights(format, patterns, ctx)) {
    throw std::logic_error("export_packed_weights: task '" + task.name() +
                           "' has no layer-level packed execution path");
  }
  try {
    save_packed_linear_layers(path, layers);
    task.clear_packed_weights();
  } catch (...) {
    task.clear_packed_weights();
    throw;
  }
}

double evaluate_from_artifact(PruneTask& task, const std::string& path,
                              const ExecContext& ctx, ArtifactLoad mode) {
  const std::vector<Linear*> layers = task.packed_layers();
  if (layers.empty()) {
    throw std::logic_error("evaluate_from_artifact: task '" + task.name() +
                           "' has no layer-level packed execution path");
  }
  PackedEvalScope scope(task);
  load_packed_linear_layers(path, layers, ctx, mode);
  return task.evaluate();
}

// =================================================================== tasks

namespace {

class BertTaskBase : public PruneTask {
 public:
  BertTaskBase(BertMiniConfig config, const MatrixF& embedding,
               std::uint64_t seed)
      : model_(config, embedding), rng_(seed) {}

  std::vector<Param*> prunable() override { return model_.prunable_weights(); }
  std::vector<Param*> parameters() override { return model_.params(); }

  bool pack_weights(const std::string& format,
                    const std::vector<TilePattern>* patterns,
                    const ExecContext& ctx) override {
    model_.pack_weights(format, patterns, ctx);
    return true;
  }
  void clear_packed_weights() override { model_.clear_packed_weights(); }
  std::vector<Linear*> packed_layers() override {
    return model_.prunable_layers();
  }

  void train_steps(int steps) override {
    SgdOptimizer opt(model_.params(), lr_, 0.9f);
    for (int s = 0; s < steps; ++s) {
      const TokenBatch batch = sample_train(64);
      const MatrixF logits = model_.forward(batch);
      MatrixF dlogits;
      softmax_cross_entropy(logits, batch.y, dlogits);
      model_.backward(dlogits);
      opt.step();
    }
  }

  double evaluate() override {
    Rng eval_rng(9999);
    const TokenBatch batch = sample_eval(512, eval_rng);
    // A fresh entry per call: its graphs bind the backends installed
    // now, so no graph outlives a pack, clear or artifact load.
    const std::unique_ptr<GraphBatchEntry> entry =
        make_bert_entry("eval", model_);
    SchedulerOptions options;
    options.streams = 1;
    ExecScheduler scheduler(options);
    return accuracy(entry->run(scheduler, model_.embed(batch)), batch.y);
  }

 protected:
  virtual TokenBatch sample_train(std::size_t batch) = 0;
  virtual TokenBatch sample_eval(std::size_t batch, Rng& rng) = 0;

  BertMini model_;
  Rng rng_;
  float lr_ = 0.03f;
};

class BertClsTask final : public BertTaskBase {
 public:
  BertClsTask(int pretrain_steps, std::uint64_t seed)
      : BertTaskBase(BertMiniConfig{}, make_dataset().embedding(), seed),
        dataset_(make_dataset()) {
    train_steps(pretrain_steps);
    lr_ = 0.01f;  // lower rate for fine-tuning
  }
  std::string name() const override { return "BERT-MNLI(proxy)"; }

 protected:
  static TokenTeacherDataset make_dataset() {
    const BertMiniConfig config;
    return TokenTeacherDataset(64, config.seq, config.classes, config.dim, 77);
  }
  TokenBatch sample_train(std::size_t batch) override {
    return dataset_.sample(batch, rng_);
  }
  TokenBatch sample_eval(std::size_t batch, Rng& rng) override {
    return dataset_.sample(batch, rng);
  }

 private:
  TokenTeacherDataset dataset_;
};

class BertSpanTask final : public BertTaskBase {
 public:
  BertSpanTask(int pretrain_steps, std::uint64_t seed)
      : BertTaskBase(span_config(), make_dataset().embedding(), seed),
        dataset_(make_dataset()) {
    train_steps(pretrain_steps);
    lr_ = 0.01f;
  }
  std::string name() const override { return "BERT-SQuAD(proxy)"; }

 protected:
  static BertMiniConfig span_config() {
    BertMiniConfig config;
    config.classes = config.seq;  // predict the answer position
    return config;
  }
  static SpanDataset make_dataset() {
    const BertMiniConfig config;
    return SpanDataset(64, config.seq, config.dim, 78);
  }
  TokenBatch sample_train(std::size_t batch) override {
    return dataset_.sample(batch, rng_);
  }
  TokenBatch sample_eval(std::size_t batch, Rng& rng) override {
    return dataset_.sample(batch, rng);
  }

 private:
  SpanDataset dataset_;
};

class VggTask final : public PruneTask {
 public:
  VggTask(int pretrain_steps, std::uint64_t seed)
      : dataset_(10, 3, 8, 8, 1.0f, 79), model_(VggMiniConfig{}), rng_(seed) {
    train_steps(pretrain_steps);
    lr_ = 0.01f;
  }
  std::string name() const override { return "VGG-ImageNet(proxy)"; }
  std::vector<Param*> prunable() override { return model_.prunable_weights(); }
  std::vector<Param*> parameters() override { return model_.params(); }

  bool pack_weights(const std::string& format,
                    const std::vector<TilePattern>* patterns,
                    const ExecContext& ctx) override {
    model_.pack_weights(format, patterns, ctx);
    return true;
  }
  void clear_packed_weights() override { model_.clear_packed_weights(); }

  void train_steps(int steps) override {
    SgdOptimizer opt(model_.params(), lr_, 0.9f);
    for (int s = 0; s < steps; ++s) {
      const ClassificationBatch batch = dataset_.sample(64, rng_);
      const MatrixF logits = model_.forward(batch.x);
      MatrixF dlogits;
      softmax_cross_entropy(logits, batch.y, dlogits);
      model_.backward(dlogits);
      opt.step();
    }
  }

  double evaluate() override {
    Rng eval_rng(9999);
    const ClassificationBatch batch = dataset_.sample(512, eval_rng);
    const MatrixF logits = model_.forward(batch.x);
    return accuracy(logits, batch.y);
  }

 private:
  ClusterImageDataset dataset_;
  VggMini model_;
  Rng rng_;
  float lr_ = 0.03f;
};

class NmtTask final : public PruneTask {
 public:
  NmtTask(int pretrain_steps, std::uint64_t seed)
      : dataset_(NmtMiniConfig{}.vocab, NmtMiniConfig{}.seq, 80),
        model_(NmtMiniConfig{}), rng_(seed) {
    train_steps(pretrain_steps);
    lr_ = 0.01f;
  }
  std::string name() const override { return "NMT-IWSLT(proxy)"; }
  std::vector<Param*> prunable() override { return model_.prunable_weights(); }
  std::vector<Param*> parameters() override { return model_.params(); }

  bool pack_weights(const std::string& format,
                    const std::vector<TilePattern>* patterns,
                    const ExecContext& ctx) override {
    model_.pack_weights(format, patterns, ctx);
    return true;
  }
  void clear_packed_weights() override { model_.clear_packed_weights(); }

  void train_steps(int steps) override {
    AdamOptimizer opt(model_.params(), lr_);
    for (int s = 0; s < steps; ++s) {
      const Seq2SeqBatch batch = dataset_.sample(32, rng_);
      const MatrixF logits = model_.forward(batch);
      MatrixF dlogits;
      softmax_cross_entropy(logits, batch.tgt, dlogits);
      model_.backward(dlogits);
      opt.step();
    }
  }

  double evaluate() override {
    Rng eval_rng(9999);
    const Seq2SeqBatch batch = dataset_.sample(128, eval_rng);
    const std::vector<int> decoded = model_.greedy_decode(batch);
    return bleu4(decoded, batch.tgt, batch.batch, batch.seq);
  }

 private:
  ReverseDataset dataset_;
  NmtMini model_;
  Rng rng_;
  float lr_ = 2e-3f;
};

}  // namespace

std::unique_ptr<PruneTask> make_bert_cls_task(int pretrain_steps,
                                              std::uint64_t seed) {
  return std::make_unique<BertClsTask>(pretrain_steps, seed);
}
std::unique_ptr<PruneTask> make_bert_span_task(int pretrain_steps,
                                               std::uint64_t seed) {
  return std::make_unique<BertSpanTask>(pretrain_steps, seed);
}
std::unique_ptr<PruneTask> make_vgg_task(int pretrain_steps,
                                         std::uint64_t seed) {
  return std::make_unique<VggTask>(pretrain_steps, seed);
}
std::unique_ptr<PruneTask> make_nmt_task(int pretrain_steps,
                                         std::uint64_t seed) {
  return std::make_unique<NmtTask>(pretrain_steps, seed);
}

}  // namespace tilesparse
