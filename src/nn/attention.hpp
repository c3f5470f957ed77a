#pragma once
// Multi-head self-attention (the MHA block of paper Fig. 1) with full
// backward.  Input/output are (batch * seq) x dim row blocks.

#include <cstddef>
#include <vector>

#include "nn/layers.hpp"

namespace tilesparse {

class MultiHeadAttention : public Layer {
 public:
  MultiHeadAttention(std::string name, std::size_t dim, std::size_t heads,
                     std::size_t seq, Rng& rng);

  MatrixF forward(const MatrixF& x) override;
  MatrixF backward(const MatrixF& dy) override;
  std::vector<Param*> params() override;

  /// The four prunable projection weights (Q, K, V, output).
  std::vector<Param*> projection_weights();

  /// The owning Linear layers, aligned 1:1 with projection_weights();
  /// exposed so the packed-weight inference path can rebind them.
  std::vector<Linear*> projection_layers();

  /// Adds this block to an execution graph: the Q/K/V projections as
  /// three *independent* GEMM nodes (the scheduler overlaps them on
  /// separate streams — the paper's Fig. 7-4 assignment), a host node
  /// for the softmax(QK^T)V core (the inference form of
  /// attention_core: no backward cache), and the output projection.
  /// Produces exactly what forward() produces; the block must outlive
  /// the graph.
  ExecGraph::NodeId add_to_graph(ExecGraph& graph, ExecGraph::SlotId in,
                                 ExecGraph::SlotId out);

 private:
  /// softmax(scale * Q K^T) V per (sequence, head), writing `context`
  /// (sized to q.rows() x dim here).  QK^T and PV run on the GEMM
  /// micro-kernel core (gemm/micro_kernel.hpp) with the per-thread
  /// packing scratch.  The one core both paths run:
  ///  * training (forward()): `probs` receives every block's softmax
  ///    probabilities, the cache backward() reads;
  ///  * inference (the graph node): `probs` is null and one seq x seq
  ///    per-thread scratch block is reused for every (sequence, head),
  ///    so a run allocates nothing once warm and writes no layer state.
  void attention_core(const MatrixF& q, const MatrixF& k, const MatrixF& v,
                      MatrixF& context, MatrixF* probs) const;

  std::size_t dim_, heads_, seq_, head_dim_;
  Linear q_, k_, v_, out_;
  // Cached activations for backward.
  MatrixF q_act_, k_act_, v_act_;
  /// Softmax probabilities: block (b * heads + h) is rows
  /// [(b * heads + h) * seq, +seq), seq x seq.
  MatrixF attn_;
};

}  // namespace tilesparse
