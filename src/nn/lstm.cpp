#include "nn/lstm.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "gemm/dense_gemm.hpp"
#include "tensor/ops.hpp"

namespace tilesparse {
namespace {
inline float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }
}  // namespace

Lstm::Lstm(std::string name, std::size_t input, std::size_t hidden, Rng& rng)
    : input_(input),
      hidden_(hidden),
      wx_(name + ".wx", input, 4 * hidden),
      wh_(name + ".wh", hidden, 4 * hidden),
      bias_(name + ".b", 1, 4 * hidden) {
  fill_kaiming(wx_.value, rng);
  fill_kaiming(wh_.value, rng);
  // Forget-gate bias of 1.0: standard trick for gradient flow early on.
  for (std::size_t j = hidden_; j < 2 * hidden_; ++j)
    bias_.value(0, j) = 1.0f;
}

void Lstm::pack_weights(const std::string& format,
                        const std::vector<TilePattern>* patterns,
                        const ExecContext& ctx) {
  if (patterns && patterns->size() != 2) {
    throw std::invalid_argument(
        "Lstm::pack_weights: patterns must hold {Wx, Wh}");
  }
  PackOptions wx_options, wh_options;
  if (patterns) {
    wx_options.pattern = &(*patterns)[0];
    wh_options.pattern = &(*patterns)[1];
  }
  packed_wx_ = make_packed(format, wx_.value, wx_options);
  packed_wh_ = make_packed(format, wh_.value, wh_options);
  ctx_ = ctx;
  ctx_.alpha = 1.0f;
  ctx_.beta = 0.0f;
}

void Lstm::clear_packed_weights() noexcept {
  packed_wx_.reset();
  packed_wh_.reset();
}

MatrixF Lstm::forward(const MatrixF& x, std::size_t seq, const MatrixF& h0,
                      const MatrixF& c0) {
  assert(seq > 0 && x.rows() % seq == 0 && x.cols() == input_);
  batch_ = x.rows() / seq;
  seq_ = seq;
  x_ = x;
  h0_ = h0.empty() ? MatrixF(batch_, hidden_) : h0;
  c0_ = c0.empty() ? MatrixF(batch_, hidden_) : c0;
  gates_.assign(seq, MatrixF{});
  cells_.assign(seq, MatrixF{});
  hiddens_.assign(seq, MatrixF{});

  // All input projections in one big GEMM: (B*S) x 4H.
  const MatrixF xproj =
      packed_wx_ ? packed_wx_->matmul(ctx_, x) : matmul(x, wx_.value);

  MatrixF h_prev = h0_;
  MatrixF c_prev = c0_;
  MatrixF out(batch_ * seq, hidden_);
  for (std::size_t t = 0; t < seq; ++t) {
    MatrixF gates(batch_, 4 * hidden_);
    const MatrixF hproj = packed_wh_ ? packed_wh_->matmul(ctx_, h_prev)
                                     : matmul(h_prev, wh_.value);
    for (std::size_t b = 0; b < batch_; ++b) {
      const float* xp = xproj.data() + (b * seq + t) * 4 * hidden_;
      const float* hp = hproj.data() + b * 4 * hidden_;
      const float* bias = bias_.value.data();
      float* g = gates.data() + b * 4 * hidden_;
      for (std::size_t j = 0; j < 4 * hidden_; ++j) g[j] = xp[j] + hp[j] + bias[j];
    }
    MatrixF c_new(batch_, hidden_);
    MatrixF h_new(batch_, hidden_);
    for (std::size_t b = 0; b < batch_; ++b) {
      float* g = gates.data() + b * 4 * hidden_;
      const float* cp = c_prev.data() + b * hidden_;
      float* cn = c_new.data() + b * hidden_;
      float* hn = h_new.data() + b * hidden_;
      for (std::size_t j = 0; j < hidden_; ++j) {
        const float i = sigmoid(g[j]);
        const float f = sigmoid(g[hidden_ + j]);
        const float gg = std::tanh(g[2 * hidden_ + j]);
        const float o = sigmoid(g[3 * hidden_ + j]);
        g[j] = i;
        g[hidden_ + j] = f;
        g[2 * hidden_ + j] = gg;
        g[3 * hidden_ + j] = o;
        cn[j] = f * cp[j] + i * gg;
        hn[j] = o * std::tanh(cn[j]);
      }
      float* orow = out.data() + (b * seq + t) * hidden_;
      for (std::size_t j = 0; j < hidden_; ++j) orow[j] = hn[j];
    }
    gates_[t] = std::move(gates);
    cells_[t] = c_new;
    hiddens_[t] = h_new;
    h_prev = std::move(h_new);
    c_prev = std::move(c_new);
  }
  final_h_ = h_prev;
  final_c_ = c_prev;
  return out;
}

MatrixF Lstm::backward(const MatrixF& dh_all, MatrixF* dh0, MatrixF* dc0) {
  assert(dh_all.rows() == batch_ * seq_ && dh_all.cols() == hidden_);
  MatrixF dx(batch_ * seq_, input_);
  MatrixF dh_next(batch_, hidden_);  // gradient flowing from step t+1
  MatrixF dc_next(batch_, hidden_);
  const MatrixF wht = transposed(wh_.value);
  const MatrixF wxt = transposed(wx_.value);

  // Accumulate d(pre-activation gates) for all steps to batch the weight
  // gradient GEMMs afterwards.
  MatrixF dgates_all(batch_ * seq_, 4 * hidden_);

  for (std::size_t t = seq_; t-- > 0;) {
    const MatrixF& gates = gates_[t];
    const MatrixF& c_t = cells_[t];
    const MatrixF& c_prev = (t == 0) ? c0_ : cells_[t - 1];

    MatrixF dgates(batch_, 4 * hidden_);
    MatrixF dc_prev(batch_, hidden_);
    for (std::size_t b = 0; b < batch_; ++b) {
      const float* g = gates.data() + b * 4 * hidden_;
      const float* ct = c_t.data() + b * hidden_;
      const float* cp = c_prev.data() + b * hidden_;
      const float* dh_out = dh_all.data() + (b * seq_ + t) * hidden_;
      const float* dhn = dh_next.data() + b * hidden_;
      const float* dcn = dc_next.data() + b * hidden_;
      float* dg = dgates.data() + b * 4 * hidden_;
      float* dcp = dc_prev.data() + b * hidden_;
      for (std::size_t j = 0; j < hidden_; ++j) {
        const float i = g[j], f = g[hidden_ + j], gg = g[2 * hidden_ + j],
                    o = g[3 * hidden_ + j];
        const float tanh_c = std::tanh(ct[j]);
        const float dh = dh_out[j] + dhn[j];
        const float dc = dcn[j] + dh * o * (1.0f - tanh_c * tanh_c);
        dg[j] = dc * gg * i * (1.0f - i);                     // d pre-i
        dg[hidden_ + j] = dc * cp[j] * f * (1.0f - f);        // d pre-f
        dg[2 * hidden_ + j] = dc * i * (1.0f - gg * gg);      // d pre-g
        dg[3 * hidden_ + j] = dh * tanh_c * o * (1.0f - o);   // d pre-o
        dcp[j] = dc * f;
      }
    }
    // dh_prev = dgates * Wh^T;  dx_t = dgates * Wx^T.
    dh_next = matmul(dgates, wht);
    dc_next = std::move(dc_prev);
    const MatrixF dx_t = matmul(dgates, wxt);
    for (std::size_t b = 0; b < batch_; ++b) {
      float* dst = dx.data() + (b * seq_ + t) * input_;
      const float* src = dx_t.data() + b * input_;
      for (std::size_t j = 0; j < input_; ++j) dst[j] = src[j];
      float* gdst = dgates_all.data() + (b * seq_ + t) * 4 * hidden_;
      const float* gsrc = dgates.data() + b * 4 * hidden_;
      for (std::size_t j = 0; j < 4 * hidden_; ++j) gdst[j] = gsrc[j];
    }
  }

  // Weight gradients, batched over all steps:
  //   dWx += x^T dgates_all;   dWh += h_prev_all^T dgates_all.
  const MatrixF xt = transposed(x_);
  const MatrixF dwx = matmul(xt, dgates_all);
  for (std::size_t i = 0; i < dwx.size(); ++i)
    wx_.grad.data()[i] += dwx.data()[i];

  MatrixF h_prev_all(batch_ * seq_, hidden_);
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t t = 0; t < seq_; ++t) {
      const float* src =
          (t == 0) ? h0_.data() + b * hidden_ : hiddens_[t - 1].data() + b * hidden_;
      float* dst = h_prev_all.data() + (b * seq_ + t) * hidden_;
      for (std::size_t j = 0; j < hidden_; ++j) dst[j] = src[j];
    }
  }
  const MatrixF hpt = transposed(h_prev_all);
  const MatrixF dwh = matmul(hpt, dgates_all);
  for (std::size_t i = 0; i < dwh.size(); ++i)
    wh_.grad.data()[i] += dwh.data()[i];

  for (std::size_t r = 0; r < dgates_all.rows(); ++r) {
    const float* row = dgates_all.data() + r * 4 * hidden_;
    for (std::size_t j = 0; j < 4 * hidden_; ++j) bias_.grad.data()[j] += row[j];
  }

  if (dh0) *dh0 = dh_next;
  if (dc0) *dc0 = dc_next;
  return dx;
}

}  // namespace tilesparse
