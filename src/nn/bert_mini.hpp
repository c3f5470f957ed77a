#pragma once
// BertMini — the scaled-down BERT proxy (see DESIGN.md substitutions).
// Pre-LN transformer encoder: per layer MHA + FFN with residuals, then
// mean-pool and a classifier head.  The prunable matrices mirror BERT's
// structure: 6 weight GEMMs per layer (Q, K, V, attention-out, FFN-in,
// FFN-out), which is what paper Fig. 5 counts.

#include <cstddef>
#include <memory>
#include <vector>

#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "workload/datasets.hpp"

namespace tilesparse {

struct BertMiniConfig {
  std::size_t dim = 64;
  std::size_t heads = 4;
  std::size_t layers = 2;
  std::size_t ffn_dim = 256;
  std::size_t seq = 16;
  std::size_t classes = 4;
  std::uint64_t seed = 1;
};

class BertMini {
 public:
  BertMini(const BertMiniConfig& config, const MatrixF& embedding_table);

  /// Tokens: batch * seq ids.  Returns batch x classes logits.  The
  /// training path: layer by layer, caching what backward() needs.
  /// Inference runs the same layers as the graph append_exec_graph
  /// builds.
  MatrixF forward(const TokenBatch& batch);
  /// Token + positional embedding only: (batch * seq) x dim activation
  /// rows — the batchable form a serving request carries (see
  /// nn/batch_entry.hpp); forward() is embed() + the encoder stack.
  MatrixF embed(const TokenBatch& batch);
  /// dlogits from the loss; propagates through the whole stack.
  void backward(const MatrixF& dlogits);

  std::vector<Param*> params();
  /// The prunable weight matrices (6 per layer + classifier weight).
  std::vector<Param*> prunable_weights();

  /// The Linear layers owning prunable_weights(), aligned 1:1 with it.
  std::vector<Linear*> prunable_layers();

  /// Packs every prunable Linear for inference under a registered
  /// PackedWeight format.  `patterns` (required by the TW-family
  /// formats) must align 1:1 with prunable_weights() — e.g. the
  /// patterns a TW/TEW prune run produced.  Forward passes then execute
  /// those GEMMs through the packed backends; backward still
  /// differentiates against the dense master weights.
  void pack_weights(const std::string& format,
                    const std::vector<TilePattern>* patterns = nullptr,
                    const ExecContext& ctx = {});
  /// Back to dense master-weight execution.
  void clear_packed_weights();

  /// Appends the whole encoder stack (blocks, pool, classifier) to an
  /// externally owned graph, reading embedded rows from `input` and
  /// returning the logits slot — the model's one inference path:
  /// Q/K/V as independent GEMM nodes, host nodes for layernorm,
  /// softmax and residual glue, FFN and classifier GEMMs, over the
  /// *current* execution backends (packed where installed, the plain
  /// layer forward otherwise).  The appended nodes hold refs to those
  /// backends, so the graph must be discarded after pack_weights /
  /// clear_packed_weights / artifact loads.  make_bert_entry
  /// (nn/batch_entry.hpp) wraps it for serving and evaluation.
  ExecGraph::SlotId append_exec_graph(ExecGraph& graph,
                                      ExecGraph::SlotId input);

  const BertMiniConfig& config() const noexcept { return config_; }

 private:
  struct Block {
    std::unique_ptr<LayerNorm> ln1;
    std::unique_ptr<MultiHeadAttention> attn;
    std::unique_ptr<LayerNorm> ln2;
    std::unique_ptr<Linear> ffn_in;
    std::unique_ptr<Gelu> gelu;
    std::unique_ptr<Linear> ffn_out;
    MatrixF x_attn_in, x_ffn_in;  // residual caches
  };

  BertMiniConfig config_;
  Embedding embedding_;
  Param pos_embedding_;  ///< seq x dim, learned
  std::vector<Block> blocks_;
  MeanPoolRows pool_;
  std::unique_ptr<Linear> classifier_;
  std::size_t last_batch_ = 0;
};

}  // namespace tilesparse
