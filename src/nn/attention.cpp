#include "nn/attention.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "gemm/micro_kernel.hpp"
#include "tensor/ops.hpp"
#include "util/guards.hpp"

namespace tilesparse {
namespace {

/// Softmax over each row of a rows x cols block, in place.
void softmax_rows_inplace(float* block, std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = block + r * cols;
    float maxv = row[0];
    for (std::size_t c = 1; c < cols; ++c) maxv = std::max(maxv, row[c]);
    float sum = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - maxv);
      sum += row[c];
    }
    const float inv = 1.0f / sum;
    for (std::size_t c = 0; c < cols; ++c) row[c] *= inv;
  }
}

/// scores (seq x seq, row-major) = scale * Q_h K_h^T on the micro-kernel
/// core.  `q`/`k` point at the head's first column of the sequence's
/// first row, `ld` is the activation row stride.  K_h^T is packed as
/// kNr-wide B strips (one transposed activation panel per strip), Q_h
/// as scaled kMr-row A micro-panels.
void head_scores(const float* q, const float* k, std::size_t ld,
                 std::size_t seq, std::size_t head_dim, float scale,
                 float* scores) {
  GemmScratch& scratch = thread_gemm_scratch();
  const std::size_t strips = (seq + kNr - 1) / kNr;
  scratch.b_f32.resize(strips * head_dim * kNr);
  scratch.a_f32.resize(head_dim * kMr);
  float* b_panels = scratch.b_f32.data();
  float* a_panel = scratch.a_f32.data();
  for (std::size_t js = 0; js < strips; ++js) {
    const std::size_t j0 = js * kNr;
    pack_at_panel_f32(k + j0 * ld, ld, std::min(kNr, seq - j0), head_dim,
                      b_panels + js * head_dim * kNr);
  }
  std::fill(scores, scores + seq * seq, 0.0f);
  for (std::size_t i0 = 0; i0 < seq; i0 += kMr) {
    const std::size_t rows = std::min(kMr, seq - i0);
    pack_a_panel_f32(q + i0 * ld, ld, rows, head_dim, scale,
                     /*fp16_inputs=*/false, a_panel);
    for (std::size_t js = 0; js < strips; ++js) {
      const std::size_t j0 = js * kNr;
      micro_kernel_f32(head_dim, a_panel, b_panels + js * head_dim * kNr,
                       scores + i0 * seq + j0, seq, rows,
                       std::min(kNr, seq - j0));
    }
  }
}

/// context_h += P V_h on the micro-kernel core: `probs` is seq x seq,
/// `v`/`context` point at the head's first column with row stride `ld`.
void head_context(const float* probs, const float* v, std::size_t ld,
                  std::size_t seq, std::size_t head_dim, float* context) {
  GemmScratch& scratch = thread_gemm_scratch();
  const std::size_t strips = (head_dim + kNr - 1) / kNr;
  scratch.b_f32.resize(strips * seq * kNr);
  scratch.a_f32.resize(seq * kMr);
  float* b_panels = scratch.b_f32.data();
  float* a_panel = scratch.a_f32.data();
  for (std::size_t js = 0; js < strips; ++js) {
    const std::size_t j0 = js * kNr;
    pack_b_panel_f32(v + j0, ld, seq, std::min(kNr, head_dim - j0),
                     b_panels + js * seq * kNr);
  }
  for (std::size_t i0 = 0; i0 < seq; i0 += kMr) {
    const std::size_t rows = std::min(kMr, seq - i0);
    pack_a_panel_f32(probs + i0 * seq, seq, rows, seq, 1.0f,
                     /*fp16_inputs=*/false, a_panel);
    for (std::size_t js = 0; js < strips; ++js) {
      const std::size_t j0 = js * kNr;
      micro_kernel_f32(seq, a_panel, b_panels + js * seq * kNr,
                       context + i0 * ld + j0, ld, rows,
                       std::min(kNr, head_dim - j0));
    }
  }
}

/// One (sequence, head) probability block at a time on the inference
/// path: grow-only, reused across runs and graphs on this thread.
GuardedVec<float>& thread_probs_scratch() {
  thread_local GuardedVec<float> scratch;
  return scratch;
}

}  // namespace

MultiHeadAttention::MultiHeadAttention(std::string name, std::size_t dim,
                                       std::size_t heads, std::size_t seq,
                                       Rng& rng)
    : dim_(dim),
      heads_(heads),
      seq_(seq),
      head_dim_(dim / heads),
      q_(name + ".q", dim, dim, rng),
      k_(name + ".k", dim, dim, rng),
      v_(name + ".v", dim, dim, rng),
      out_(name + ".out", dim, dim, rng) {
  assert(dim % heads == 0);
}

std::vector<Param*> MultiHeadAttention::params() {
  std::vector<Param*> all;
  for (Layer* l : {static_cast<Layer*>(&q_), static_cast<Layer*>(&k_),
                   static_cast<Layer*>(&v_), static_cast<Layer*>(&out_)}) {
    for (Param* p : l->params()) all.push_back(p);
  }
  return all;
}

std::vector<Param*> MultiHeadAttention::projection_weights() {
  return {&q_.weight(), &k_.weight(), &v_.weight(), &out_.weight()};
}

std::vector<Linear*> MultiHeadAttention::projection_layers() {
  return {&q_, &k_, &v_, &out_};
}

void MultiHeadAttention::attention_core(const MatrixF& q, const MatrixF& k,
                                        const MatrixF& v, MatrixF& context,
                                        MatrixF* probs) const {
  const std::size_t batch = q.rows() / seq_;
  const std::size_t block = seq_ * seq_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  ensure_shape(context, q.rows(), dim_);
  context.fill(0.0f);
  float* scratch = nullptr;
  if (probs) {
    ensure_shape(*probs, batch * heads_ * seq_, seq_);
  } else {
    thread_probs_scratch().resize(block);
    scratch = thread_probs_scratch().data();
  }

  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t h = 0; h < heads_; ++h) {
      const std::size_t offset = b * seq_ * dim_ + h * head_dim_;
      float* p = probs ? probs->data() + (b * heads_ + h) * block : scratch;
      head_scores(q.data() + offset, k.data() + offset, dim_, seq_, head_dim_,
                  scale, p);
      softmax_rows_inplace(p, seq_, seq_);
      head_context(p, v.data() + offset, dim_, seq_, head_dim_,
                   context.data() + offset);
    }
  }
}

MatrixF MultiHeadAttention::forward(const MatrixF& x) {
  assert(x.cols() == dim_ && x.rows() % seq_ == 0);
  q_act_ = q_.forward(x);
  k_act_ = k_.forward(x);
  v_act_ = v_.forward(x);
  MatrixF context;
  attention_core(q_act_, k_act_, v_act_, context, &attn_);
  return out_.forward(context);
}

ExecGraph::NodeId MultiHeadAttention::add_to_graph(ExecGraph& graph,
                                                   ExecGraph::SlotId in,
                                                   ExecGraph::SlotId out) {
  const ExecGraph::SlotId q = graph.add_slot(q_.weight().name + ".act");
  const ExecGraph::SlotId k = graph.add_slot(k_.weight().name + ".act");
  const ExecGraph::SlotId v = graph.add_slot(v_.weight().name + ".act");
  const ExecGraph::SlotId context =
      graph.add_slot(out_.weight().name + ".context");
  q_.add_to_graph(graph, in, q);
  k_.add_to_graph(graph, in, k);
  v_.add_to_graph(graph, in, v);
  graph.add_host(out_.weight().name + ".core", {q, k, v}, {context},
                 [this, q, k, v, context](ExecGraph& g) {
                   attention_core(g.slot(q), g.slot(k), g.slot(v),
                                  g.slot(context), /*probs=*/nullptr);
                 });
  return out_.add_to_graph(graph, context, out);
}

MatrixF MultiHeadAttention::backward(const MatrixF& dy) {
  const std::size_t batch = dy.rows() / seq_;
  const MatrixF dcontext = out_.backward(dy);

  MatrixF dq(dy.rows(), dim_), dk(dy.rows(), dim_), dv(dy.rows(), dim_);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t h = 0; h < heads_; ++h) {
      const std::size_t col0 = h * head_dim_;
      const float* probs = attn_.data() + (b * heads_ + h) * seq_ * seq_;

      // dprobs(s, t) = <dcontext_s, v_t>;  dv_t += sum_s probs(s,t) dcontext_s.
      MatrixF dprobs(seq_, seq_);
      for (std::size_t s = 0; s < seq_; ++s) {
        const float* dcrow = dcontext.data() + (b * seq_ + s) * dim_ + col0;
        for (std::size_t t = 0; t < seq_; ++t) {
          const float* vrow = v_act_.data() + (b * seq_ + t) * dim_ + col0;
          float dot = 0.0f;
          for (std::size_t d = 0; d < head_dim_; ++d) dot += dcrow[d] * vrow[d];
          dprobs(s, t) = dot;
          float* dvrow = dv.data() + (b * seq_ + t) * dim_ + col0;
          const float p = probs[s * seq_ + t];
          for (std::size_t d = 0; d < head_dim_; ++d) dvrow[d] += p * dcrow[d];
        }
      }
      // Softmax backward: dscore = p .* (dprob - sum_t p*dprob).
      MatrixF dscores(seq_, seq_);
      for (std::size_t s = 0; s < seq_; ++s) {
        float dot = 0.0f;
        for (std::size_t t = 0; t < seq_; ++t)
          dot += probs[s * seq_ + t] * dprobs(s, t);
        for (std::size_t t = 0; t < seq_; ++t)
          dscores(s, t) = probs[s * seq_ + t] * (dprobs(s, t) - dot);
      }
      // dq_s += scale * sum_t dscore(s,t) k_t;  dk_t += scale * sum_s dscore(s,t) q_s.
      for (std::size_t s = 0; s < seq_; ++s) {
        float* dqrow = dq.data() + (b * seq_ + s) * dim_ + col0;
        const float* qrow = q_act_.data() + (b * seq_ + s) * dim_ + col0;
        for (std::size_t t = 0; t < seq_; ++t) {
          const float ds = dscores(s, t) * scale;
          const float* krow = k_act_.data() + (b * seq_ + t) * dim_ + col0;
          float* dkrow = dk.data() + (b * seq_ + t) * dim_ + col0;
          for (std::size_t d = 0; d < head_dim_; ++d) {
            dqrow[d] += ds * krow[d];
            dkrow[d] += ds * qrow[d];
          }
        }
      }
    }
  }

  MatrixF dx = q_.backward(dq);
  const MatrixF dxk = k_.backward(dk);
  const MatrixF dxv = v_.backward(dv);
  for (std::size_t i = 0; i < dx.size(); ++i)
    dx.data()[i] += dxk.data()[i] + dxv.data()[i];
  return dx;
}

}  // namespace tilesparse
