#include <gtest/gtest.h>

#include "sparse/spmm.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace tilesparse {
namespace {

MatrixF random_sparse(std::size_t rows, std::size_t cols, double sparsity,
                      std::uint64_t seed) {
  Rng rng(seed);
  MatrixF m(rows, cols);
  for (float& v : m.flat())
    v = (rng.uniform() < sparsity) ? 0.0f : rng.normal();
  return m;
}

TEST(Spmm, DenseTimesCsrMatchesReference) {
  Rng rng(3);
  MatrixF a(8, 25);
  fill_normal(a, rng);
  const MatrixF w = random_sparse(25, 11, 0.8, 4);
  const MatrixF c = dense_times_csr(a, csr_from_dense(w));
  EXPECT_LT(max_abs_diff(c, matmul_reference(a, w)), 1e-4f);
}

TEST(Spmm, EmptySparseGivesZero) {
  MatrixF a(5, 5);
  a.fill(1.0f);
  const MatrixF w(5, 5);  // all zeros
  const MatrixF c = dense_times_csr(a, csr_from_dense(w));
  for (float v : c.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(Spmm, FullySparseAgreesWithFullyDense) {
  Rng rng(5);
  MatrixF a(6, 6), w(6, 6);
  fill_normal(a, rng);
  fill_normal(w, rng);
  const MatrixF c = dense_times_csr(a, csr_from_dense(w));
  EXPECT_LT(max_abs_diff(c, matmul_reference(a, w)), 1e-4f);
}

// ------------------------------------------------------- panel SpMM
//
// The strip-panel path must agree with the naive scalar loop at every
// sparsity extreme; the two accumulate in different associations, so
// the comparison is tolerance-based (the shard bit-identity guarantee
// is panel-vs-panel and lives in exec_graph_test).

void expect_panel_matches_naive(const MatrixF& a, const MatrixF& w) {
  const Csr csr = csr_from_dense(w);
  MatrixF naive(a.rows(), w.cols());
  dense_times_csr_accumulate(a, csr, naive);
  MatrixF panel(a.rows(), w.cols());
  csr_panels_spmm_accumulate(a, build_csr_panels(csr), panel);
  EXPECT_LT(max_abs_diff(panel, naive), 1e-4f);
  // A narrow strip width exercises multi-strip fragments and ragged
  // final strips on the same data.
  MatrixF narrow(a.rows(), w.cols());
  csr_panels_spmm_accumulate(a, build_csr_panels(csr, 16), narrow);
  EXPECT_LT(max_abs_diff(narrow, naive), 1e-4f);
}

TEST(SpmmPanels, FullyDenseMatrixMatchesNaive) {
  Rng rng(11);
  MatrixF a(21, 40), w(40, 53);  // ragged M (crosses the 16-row block)
  fill_normal(a, rng);
  fill_normal(w, rng);
  expect_panel_matches_naive(a, w);
}

TEST(SpmmPanels, ExtremeSparsityMatchesNaive) {
  Rng rng(13);
  MatrixF a(18, 64);
  fill_normal(a, rng);
  const MatrixF w = random_sparse(64, 70, 0.99, 14);
  expect_panel_matches_naive(a, w);
}

TEST(SpmmPanels, EmptyRowsAreSkipped) {
  Rng rng(17);
  MatrixF a(9, 32);
  fill_normal(a, rng);
  MatrixF w = random_sparse(32, 48, 0.5, 18);
  // Zero out most weight rows entirely — the compacted per-strip row
  // lists must skip them without touching the fragment.
  for (std::size_t r = 0; r < w.rows(); ++r) {
    if (r % 4 == 0) continue;
    for (std::size_t c = 0; c < w.cols(); ++c) w(r, c) = 0.0f;
  }
  expect_panel_matches_naive(a, w);
}

TEST(SpmmPanels, SingleNonzeroPerRowMatchesNaive) {
  Rng rng(19);
  MatrixF a(5, 24);
  fill_normal(a, rng);
  MatrixF w(24, 31);
  for (std::size_t r = 0; r < w.rows(); ++r)
    w(r, (r * 7) % w.cols()) = rng.normal();
  expect_panel_matches_naive(a, w);
}

TEST(SpmmPanels, AllZeroWeightGivesZero) {
  MatrixF a(7, 12);
  a.fill(1.0f);
  const MatrixF w(12, 20);
  MatrixF c(7, 20);
  csr_panels_spmm_accumulate(a, build_csr_panels(csr_from_dense(w)), c);
  for (float v : c.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(SpmmPanels, AccumulatesIntoExistingC) {
  Rng rng(23);
  MatrixF a(4, 10);
  fill_normal(a, rng);
  const MatrixF w = random_sparse(10, 9, 0.6, 24);
  MatrixF base(4, 9);
  fill_normal(base, rng);
  MatrixF expected = base;
  dense_times_csr_accumulate(a, csr_from_dense(w), expected);
  MatrixF c = base;
  csr_panels_spmm_accumulate(a, build_csr_panels(csr_from_dense(w)), c);
  EXPECT_LT(max_abs_diff(c, expected), 1e-4f);
}

}  // namespace
}  // namespace tilesparse
