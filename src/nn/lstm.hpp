#pragma once
// LSTM layer over a full sequence, with backward-through-time.  Weight
// layout matches the paper's LSTM GEMMs: an input GEMM (in x 4H) and a
// recurrent GEMM (H x 4H); both are prunable weight matrices.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "exec/backend_registry.hpp"
#include "exec/exec_context.hpp"
#include "exec/packed_weight.hpp"
#include "nn/param.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace tilesparse {

class Lstm {
 public:
  Lstm(std::string name, std::size_t input, std::size_t hidden, Rng& rng);

  /// x is (batch * seq) x input, sequence-major inside each batch row
  /// block (row b*seq + t is sample b at step t).  Returns hidden states
  /// of the same row layout, (batch * seq) x hidden.  `h0`/`c0` may be
  /// empty (zero initial state) or batch x hidden.
  MatrixF forward(const MatrixF& x, std::size_t seq, const MatrixF& h0 = {},
                  const MatrixF& c0 = {});

  /// dh is the gradient of every hidden output.  Returns dx and fills
  /// optional gradients of the initial state.
  MatrixF backward(const MatrixF& dh_all, MatrixF* dh0 = nullptr,
                   MatrixF* dc0 = nullptr);

  /// Final-step hidden/cell state of the last forward call (batch x hidden).
  const MatrixF& final_h() const noexcept { return final_h_; }
  const MatrixF& final_c() const noexcept { return final_c_; }

  std::vector<Param*> params() { return {&wx_, &wh_, &bias_}; }
  /// Prunable weight matrices (the two GEMM operands).
  std::vector<Param*> gemm_weights() { return {&wx_, &wh_}; }

  /// Packs the input and recurrent GEMMs for inference under a
  /// registered PackedWeight format.  `patterns` aligns with
  /// gemm_weights() (Wx then Wh); may be null for pattern-free formats.
  /// Backward keeps using the dense master weights.
  void pack_weights(const std::string& format,
                    const std::vector<TilePattern>* patterns = nullptr,
                    const ExecContext& ctx = {});
  void clear_packed_weights() noexcept;

  std::size_t hidden() const noexcept { return hidden_; }

 private:
  std::size_t input_, hidden_;
  Param wx_;    ///< input x 4H (gate order: i, f, g, o)
  Param wh_;    ///< hidden x 4H
  Param bias_;  ///< 1 x 4H
  std::unique_ptr<PackedWeight> packed_wx_;  ///< optional inference backends
  std::unique_ptr<PackedWeight> packed_wh_;
  ExecContext ctx_;

  // Caches for backward.
  std::size_t batch_ = 0, seq_ = 0;
  MatrixF x_;
  std::vector<MatrixF> gates_;   ///< per step, batch x 4H (post-activation)
  std::vector<MatrixF> cells_;   ///< per step, batch x hidden (c_t)
  std::vector<MatrixF> hiddens_; ///< per step, batch x hidden (h_t)
  MatrixF h0_, c0_;
  MatrixF final_h_, final_c_;
};

}  // namespace tilesparse
