#include <gtest/gtest.h>

#include <cstring>

#include "gemm/fused_ops.hpp"
#include "nn/layers.hpp"
#include "prune/tw_pruner.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "workload/model_ops.hpp"
#include "workload/shapes.hpp"

namespace tilesparse {
namespace {

std::size_t count_kind(const std::vector<E2eOp>& ops, E2eOp::Kind kind) {
  std::size_t n = 0;
  for (const auto& op : ops) n += op.kind == kind;
  return n;
}

TEST(BertOps, Has72PrunableGemms) {
  const auto ops = build_bert_ops(128, 1);
  EXPECT_EQ(count_kind(ops, E2eOp::Kind::kGemm), 72u);
}

TEST(BertOps, GemmShapesMatchShapeList) {
  const auto ops = build_bert_ops(128, 1);
  const auto gemms = bert_base_gemms(128, 1);
  std::size_t gemm_index = 0;
  for (const auto& op : ops) {
    if (op.kind != E2eOp::Kind::kGemm) continue;
    ASSERT_LT(gemm_index, gemms.size());
    EXPECT_EQ(op.shape.m, gemms[gemm_index].shape.m);
    EXPECT_EQ(op.shape.n, gemms[gemm_index].shape.n);
    EXPECT_EQ(op.shape.k, gemms[gemm_index].shape.k);
    ++gemm_index;
  }
  EXPECT_EQ(gemm_index, gemms.size());
}

TEST(BertOps, PatternsAttachInOrder) {
  const auto gemms = bert_base_gemms(128, 1);
  std::vector<TilePattern> patterns;
  Rng rng(1);
  for (const auto& gemm : gemms) {
    MatrixF scores(gemm.shape.k, gemm.shape.n);
    fill_uniform(scores, rng, 0.1f, 1.0f);
    patterns.push_back(tw_pattern_from_scores(scores, 0.5, 128));
  }
  std::vector<const TilePattern*> ptrs;
  for (const auto& p : patterns) ptrs.push_back(&p);
  const auto ops = build_bert_ops(128, 1, &ptrs);
  std::size_t index = 0;
  for (const auto& op : ops) {
    if (op.kind != E2eOp::Kind::kGemm) continue;
    EXPECT_EQ(op.pattern, ptrs[index]);
    // Pattern dims must match the GEMM's weight dims.
    EXPECT_EQ(op.pattern->k, op.shape.k);
    EXPECT_EQ(op.pattern->n, op.shape.n);
    ++index;
  }
}

TEST(BertOps, HasFixedGemmsAndTransposes) {
  const auto ops = build_bert_ops(128, 1);
  EXPECT_EQ(count_kind(ops, E2eOp::Kind::kGemmFixed), 24u);  // 2 per layer
  EXPECT_EQ(count_kind(ops, E2eOp::Kind::kTranspose), 12u);  // 1 per layer
}

TEST(NmtOps, Has10PrunableGemms) {
  const auto ops = build_nmt_ops(32, 32);
  EXPECT_EQ(count_kind(ops, E2eOp::Kind::kGemm), 10u);
}

TEST(NmtOps, ElementwiseBytesArePositive) {
  for (const auto& op : build_nmt_ops(32, 32)) {
    if (op.kind == E2eOp::Kind::kElementwise) EXPECT_GT(op.bytes, 0.0);
  }
}

// ---- nn layers vs the kernels and inference forms they share (the
// training path and the served graph must compute the same bits).

TEST(Consistency, LayerNormInferMatchesForwardAndNormalises) {
  Rng rng(2);
  MatrixF x(6, 32);
  fill_normal(x, rng, 2.0f, 3.0f);
  LayerNorm layer("ln", 32);
  const MatrixF y_forward = layer.forward(x);
  MatrixF y_infer;
  layer.infer(x, y_infer);
  ASSERT_EQ(y_infer.rows(), x.rows());
  ASSERT_EQ(y_infer.cols(), x.cols());
  EXPECT_EQ(std::memcmp(y_forward.data(), y_infer.data(),
                        x.size() * sizeof(float)),
            0);
  // gamma = 1, beta = 0 at construction: rows come out standardised.
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double mean = 0.0, var = 0.0;
    for (std::size_t c = 0; c < x.cols(); ++c) mean += y_infer(r, c);
    mean /= static_cast<double>(x.cols());
    for (std::size_t c = 0; c < x.cols(); ++c) {
      const double d = y_infer(r, c) - mean;
      var += d * d;
    }
    var /= static_cast<double>(x.cols());
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(Consistency, GeluLayerMatchesFusedKernel) {
  // Gelu::forward, Gelu::infer (the graph node) and the fused_ops
  // kernel are one computation: equal bit for bit, at a width with a
  // ragged 8-lane tail.
  Rng rng(3);
  MatrixF x(4, 17);
  fill_normal(x, rng, 0.0f, 3.0f);
  Gelu layer;
  const MatrixF y_layer = layer.forward(x);
  MatrixF y_kernel(x.rows(), x.cols());
  gelu(x.data(), y_kernel.data(), x.size());
  MatrixF y_infer = x;
  Gelu::infer(y_infer, y_infer);  // in place, as a slot may be
  EXPECT_EQ(std::memcmp(y_layer.data(), y_kernel.data(),
                        x.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(y_layer.data(), y_infer.data(),
                        x.size() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace tilesparse
