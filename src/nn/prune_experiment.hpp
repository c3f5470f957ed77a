#pragma once
// Shared orchestration for the accuracy experiments (paper Figs. 9a,
// 10a, 12, 14): pre-train a proxy model, prune its weight matrices with
// one of the sparsity patterns, fine-tune under the fixed masks, and
// evaluate.
//
// A PruneTask wraps one (model, dataset, metric) triple; the four
// concrete tasks mirror the paper's benchmarks: BERT sentence
// classification (MNLI proxy), BERT span extraction (SQuAD proxy), VGG
// image classification (ImageNet proxy) and LSTM translation (NMT
// proxy, scored in BLEU).

#include <memory>
#include <string>
#include <vector>

#include "core/tile_pattern.hpp"
#include "exec/exec_context.hpp"
#include "nn/layers.hpp"
#include "nn/param.hpp"

namespace tilesparse {

class Linear;

enum class PatternKind { kDense, kEw, kVw, kBw, kTw, kTew };

const char* pattern_name(PatternKind kind);

struct PatternSpec {
  PatternKind kind = PatternKind::kDense;
  double sparsity = 0.0;
  std::size_t g = 32;          ///< TW granularity (scaled to mini models)
  std::size_t block = 8;       ///< BW block edge
  std::size_t vector_len = 8;  ///< VW vector length
  double tew_delta = 0.05;     ///< EW fraction restored on top of TW
  bool apriori = true;         ///< Algorithm 2 for TW/TEW
  bool global_rank = true;     ///< cross-layer tile ranking for TW/TEW
  int stages = 3;              ///< multi-stage schedule for TW/TEW
};

class PruneTask {
 public:
  virtual ~PruneTask() = default;
  virtual std::string name() const = 0;
  /// Weight matrices eligible for pruning.
  virtual std::vector<Param*> prunable() = 0;
  /// Every trainable parameter of the model (prunable weights plus
  /// biases, norms, embeddings) — what snapshot/restore must cover to
  /// return the task to a byte-identical state.
  virtual std::vector<Param*> parameters() = 0;
  /// Runs `steps` optimizer steps (masks bound to params stay enforced).
  virtual void train_steps(int steps) = 0;
  /// Metric on the held-out evaluation set: accuracy in [0,1], or BLEU
  /// in [0,100] for the NMT task.  BERT tasks evaluate through the
  /// model's serving entry (make_bert_entry) on a single-stream
  /// scheduler, so the reported metric comes from the deployed path.
  virtual double evaluate() = 0;

  /// Packs the model's prunable weights for inference under a
  /// registered PackedWeight format (`patterns` aligned with
  /// prunable(); required by TW-family formats).  Returns false when
  /// the task's model has no packed execution path (e.g. conv nets).
  virtual bool pack_weights(const std::string& format,
                            const std::vector<TilePattern>* patterns,
                            const ExecContext& ctx) {
    (void)format;
    (void)patterns;
    (void)ctx;
    return false;
  }
  /// Undoes pack_weights (dense execution).  Default no-op.
  virtual void clear_packed_weights() {}

  /// Linear layers holding the packed weights pack_weights() installs,
  /// in prunable() order.  Empty when the task has no layer-level
  /// packed path (conv nets, LSTM gate weights) — such tasks cannot
  /// ship deployment artifacts yet.
  virtual std::vector<Linear*> packed_layers() { return {}; }
};

/// Result of one prune-and-fine-tune run.
struct PruneResult {
  double metric = 0.0;            ///< task metric after fine-tuning
  double achieved_sparsity = 0.0; ///< realised over prunable weights
  std::vector<TilePattern> patterns;  ///< TW/TEW only
  std::vector<MatrixU8> masks;        ///< final element masks per weight
};

/// Applies the pattern to the task's weights, fine-tunes with masks
/// fixed, and evaluates.  The task should be pre-trained.  The task's
/// weights are modified; snapshot/restore around calls to compare
/// patterns from the same starting point.
PruneResult prune_and_evaluate(PruneTask& task, const PatternSpec& spec,
                               int finetune_steps);

/// Packs the task's prunable weights under `format`, evaluates the task
/// end-to-end through PackedWeight execution, and restores dense
/// execution before returning.  `patterns` come from a prior TW/TEW
/// prune run (PruneResult::patterns) for formats that need them.
/// Throws std::logic_error when the task has no packed execution path.
double evaluate_with_format(PruneTask& task, const std::string& format,
                            const std::vector<TilePattern>* patterns = nullptr,
                            const ExecContext& ctx = {});

/// Packs the task's prunable weights under `format` and writes them as
/// ONE deployment artifact (io/serialize model-weights container) at
/// `path`; the task is restored to dense execution before returning.
/// This is the training-side half of the paper's deployment story:
/// prune once, ship compacted (and, for "tw-int8", quantised) tiles.
/// Throws std::logic_error when the task has no layer-level packed path.
void export_packed_weights(PruneTask& task, const std::string& format,
                           const std::vector<TilePattern>* patterns,
                           const std::string& path, const ExecContext& ctx = {});

/// The serving-side half: loads the artifact written by
/// export_packed_weights straight into the task's layers — no
/// re-pruning, re-packing or re-quantising — evaluates end-to-end, and
/// restores dense execution.  `mode` selects stream vs zero-copy mmap
/// loading (nn/layers.hpp ArtifactLoad); results are bit-identical.
double evaluate_from_artifact(PruneTask& task, const std::string& path,
                              const ExecContext& ctx = {},
                              ArtifactLoad mode = ArtifactLoad::kStream);

// ----------------------------------------------------------------- tasks

/// Factory functions pre-train each proxy to its reference metric.
/// `pretrain_steps` trades fidelity for runtime (benches use more than
/// the smoke tests).
std::unique_ptr<PruneTask> make_bert_cls_task(int pretrain_steps,
                                              std::uint64_t seed = 11);
std::unique_ptr<PruneTask> make_bert_span_task(int pretrain_steps,
                                               std::uint64_t seed = 12);
std::unique_ptr<PruneTask> make_vgg_task(int pretrain_steps,
                                         std::uint64_t seed = 13);
std::unique_ptr<PruneTask> make_nmt_task(int pretrain_steps,
                                         std::uint64_t seed = 14);

}  // namespace tilesparse
