#pragma once
// NmtMini — the scaled-down NMT/IWSLT proxy: LSTM encoder, LSTM decoder
// with teacher forcing, output projection.  Translation task is sequence
// reversal; quality is measured with BLEU on greedy decodes (metrics.hpp),
// mirroring the paper's BLEU reporting for NMT.

#include <memory>
#include <vector>

#include "nn/layers.hpp"
#include "nn/lstm.hpp"
#include "workload/datasets.hpp"

namespace tilesparse {

struct NmtMiniConfig {
  std::size_t vocab = 24;
  std::size_t embed_dim = 32;
  std::size_t hidden = 64;
  std::size_t seq = 8;
  std::uint64_t seed = 3;
};

class NmtMini {
 public:
  explicit NmtMini(const NmtMiniConfig& config);

  /// Teacher-forced forward: returns (batch * seq) x vocab logits; row
  /// b*seq + t predicts target token t of sample b.
  MatrixF forward(const Seq2SeqBatch& batch);
  void backward(const MatrixF& dlogits);

  /// Greedy decode (feeds back its own predictions).
  std::vector<int> greedy_decode(const Seq2SeqBatch& batch);

  std::vector<Param*> params();
  std::vector<Param*> prunable_weights();  ///< enc/dec Wx, Wh + out proj

  /// Packs the five prunable GEMMs (enc Wx/Wh, dec Wx/Wh, output
  /// projection) for inference under a registered PackedWeight format.
  /// `patterns` aligns 1:1 with prunable_weights(); may be null for
  /// pattern-free formats.
  void pack_weights(const std::string& format,
                    const std::vector<TilePattern>* patterns = nullptr,
                    const ExecContext& ctx = {});
  void clear_packed_weights();

  const NmtMiniConfig& config() const noexcept { return config_; }

 private:
  MatrixF decoder_inputs(const std::vector<int>& tgt, std::size_t batch);

  NmtMiniConfig config_;
  std::unique_ptr<Embedding> src_embed_;
  std::unique_ptr<Embedding> tgt_embed_;
  std::unique_ptr<Lstm> encoder_;
  std::unique_ptr<Lstm> decoder_;
  std::unique_ptr<Linear> out_proj_;
  std::size_t last_batch_ = 0;
};

}  // namespace tilesparse
