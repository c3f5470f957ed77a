#include <gtest/gtest.h>

#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace tilesparse {
namespace {

TEST(Matrix, ConstructionZeroInitialises) {
  MatrixF m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (float v : m.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(Matrix, ElementAccessRoundTrips) {
  MatrixF m(2, 3);
  m(1, 2) = 42.0f;
  EXPECT_EQ(m(1, 2), 42.0f);
  EXPECT_EQ(m.data()[1 * 3 + 2], 42.0f);
}

TEST(Matrix, CopyIsDeep) {
  MatrixF a(2, 2);
  a(0, 0) = 1.0f;
  MatrixF b = a;
  b(0, 0) = 2.0f;
  EXPECT_EQ(a(0, 0), 1.0f);
}

TEST(Matrix, MoveTransfersOwnership) {
  MatrixF a(2, 2);
  a(0, 0) = 7.0f;
  const float* p = a.data();
  MatrixF b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(a.rows(), 0u);
}

TEST(Matrix, EnsureShapeKeepsStorageWithinCapacity) {
  MatrixF m(4, 8);
  const float* storage = m.data();
  EXPECT_EQ(m.capacity(), 32u);

  ensure_shape(m, 2, 8);  // shrink
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 8u);
  EXPECT_EQ(m.data(), storage);
  ensure_shape(m, 3, 10);  // re-grow, new width, still within capacity
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 10u);
  EXPECT_EQ(m.data(), storage);
  ensure_shape(m, 4, 8);  // exactly the capacity
  EXPECT_EQ(m.data(), storage);
  EXPECT_EQ(m.capacity(), 32u);

  ensure_shape(m, 5, 8);  // past capacity: fresh zero-filled storage
  EXPECT_NE(m.data(), storage);
  EXPECT_EQ(m.rows(), 5u);
  EXPECT_EQ(m.capacity(), 40u);
  for (float v : m.flat()) EXPECT_EQ(v, 0.0f);

  // Moves carry the capacity; copies allocate just the shape.
  ensure_shape(m, 1, 8);
  const MatrixF copy = m;
  EXPECT_EQ(copy.capacity(), 8u);
  const MatrixF moved = std::move(m);
  EXPECT_EQ(moved.capacity(), 40u);
}

TEST(Matrix, EnsureShapeMakesABorrowedMatrixOwning) {
  MatrixF source(2, 3);
  source.fill(1.5f);
  MatrixF view = MatrixF::borrowed(source.data(), 2, 3);
  EXPECT_TRUE(view.borrows());
  EXPECT_EQ(view.capacity(), 0u);
  ensure_shape(view, 2, 3);  // same shape, but never written in place
  EXPECT_FALSE(view.borrows());
  EXPECT_NE(view.data(), source.data());
  view.fill(-1.0f);
  for (float v : source.flat()) EXPECT_EQ(v, 1.5f);
  MatrixF narrower = MatrixF::borrowed(source.data(), 1, 3);
  ensure_shape(narrower, 1, 2);  // a smaller shape does not borrow either
  EXPECT_FALSE(narrower.borrows());
  EXPECT_NE(narrower.data(), source.data());
}

TEST(Matrix, DataIsCacheLineAligned) {
  MatrixF m(5, 7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % 64, 0u);
}

TEST(Matrix, RowSpanViewsCorrectSlice) {
  MatrixF m(3, 4);
  m(2, 0) = 5.0f;
  auto row = m.row(2);
  EXPECT_EQ(row.size(), 4u);
  EXPECT_EQ(row[0], 5.0f);
}

TEST(Ops, TransposeRoundTrip) {
  Rng rng(1);
  MatrixF m(13, 29);
  fill_normal(m, rng);
  const MatrixF t = transposed(m);
  ASSERT_EQ(t.rows(), 29u);
  ASSERT_EQ(t.cols(), 13u);
  const MatrixF back = transposed(t);
  EXPECT_FLOAT_EQ(max_abs_diff(m, back), 0.0f);
}

TEST(Ops, TransposeValuesCorrect) {
  MatrixF m(2, 3);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) m(r, c) = static_cast<float>(r * 10 + c);
  const MatrixF t = transposed(m);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(t(c, r), m(r, c));
}

TEST(Ops, SparsityCountsZeros) {
  MatrixF m(2, 2);
  m(0, 0) = 1.0f;
  EXPECT_DOUBLE_EQ(sparsity(m), 0.75);
  EXPECT_EQ(count_nonzero(m), 1u);
}

TEST(Ops, ApplyMaskZeroesWhereMaskIsZero) {
  MatrixF m(2, 2);
  m.fill(3.0f);
  MatrixU8 mask(2, 2);
  mask.fill(1);
  mask(0, 1) = 0;
  apply_mask(m, mask);
  EXPECT_EQ(m(0, 1), 0.0f);
  EXPECT_EQ(m(0, 0), 3.0f);
}

TEST(Ops, KaimingInitVarianceScales) {
  Rng rng(2);
  MatrixF m(512, 64);
  fill_kaiming(m, rng);
  double sum_sq = 0.0;
  for (float v : m.flat()) sum_sq += static_cast<double>(v) * v;
  const double var = sum_sq / static_cast<double>(m.size());
  EXPECT_NEAR(var, 2.0 / 512.0, 2.0 / 512.0 * 0.1);
}

TEST(Ops, MatmulReferenceSmallKnownResult) {
  MatrixF a(2, 2), b(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  const MatrixF c = matmul_reference(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 50.0f);
}

TEST(Ops, FrobeniusNormOfIdentityLike) {
  MatrixF m(3, 3);
  m(0, 0) = m(1, 1) = m(2, 2) = 2.0f;
  EXPECT_NEAR(frobenius_norm(m), std::sqrt(12.0), 1e-9);
}

}  // namespace
}  // namespace tilesparse
