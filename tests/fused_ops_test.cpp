#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "gemm/fused_ops.hpp"
#include "gemm/micro_kernel.hpp"
#include "util/rng.hpp"

namespace tilesparse {
namespace {

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : saved_(active_simd_level()) {
    set_simd_level(level);
  }
  ~ScopedSimdLevel() { set_simd_level(saved_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel saved_;
};

std::vector<SimdLevel> testable_simd_levels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (detected_simd_level() != SimdLevel::kScalar)
    levels.push_back(detected_simd_level());
  return levels;
}

/// The tanh-form GELU in double precision: the reference the stated
/// bound in gemm/fused_ops.hpp is measured against.
double gelu_reference(double x) {
  const double c = std::sqrt(2.0 / std::numbers::pi);
  const double u = c * (x + 0.044715 * x * x * x);
  return 0.5 * x * (1.0 + std::tanh(u));
}

std::vector<float> gelu_of(const std::vector<float>& x) {
  std::vector<float> y(x.size());
  gelu(x.data(), y.data(), x.size());
  return y;
}

TEST(GeluKernel, MeetsStatedBoundAtEverySimdLevel) {
  std::vector<float> x;
  for (int i = -100000; i <= 100000; ++i) x.push_back(i * 1e-4f);  // [-10, 10]
  const float max = std::numeric_limits<float>::max();
  const float min = std::numeric_limits<float>::min();
  const float denorm = std::numeric_limits<float>::denorm_min();
  for (float v : {100.0f, 1e30f, max, min, denorm, 1e7f, 1e13f, 11.0f, 20.0f})
    for (float s : {1.0f, -1.0f}) x.push_back(s * v);
  for (SimdLevel level : testable_simd_levels()) {
    ScopedSimdLevel scoped(level);
    const std::vector<float> y = gelu_of(x);
    double worst = 0.0;
    float worst_x = 0.0f;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double ref = gelu_reference(x[i]);
      const double err = std::fabs(static_cast<double>(y[i]) - ref);
      const double bound = kGeluAbsErr + kGeluRelErr * std::fabs(ref);
      ASSERT_LE(err, bound) << simd_level_name(level) << " x=" << x[i]
                            << " got " << y[i] << " ref " << ref;
      if (err / bound > worst) {
        worst = err / bound;
        worst_x = x[i];
      }
    }
    RecordProperty(std::string("worst_bound_fraction_") +
                       simd_level_name(level),
                   std::to_string(worst) + " at x=" + std::to_string(worst_x));
  }
}

TEST(GeluKernel, IeeeEdgesFollowTheTanhForm) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> x = {inf, -inf, std::nanf(""), -0.0f, 0.0f, -100.0f};
  for (SimdLevel level : testable_simd_levels()) {
    ScopedSimdLevel scoped(level);
    const std::vector<float> y = gelu_of(x);
    EXPECT_EQ(y[0], inf) << simd_level_name(level);
    // 0.5 * -inf * (1 + tanh(-inf)) = -inf * 0: NaN, as the reference.
    EXPECT_TRUE(std::isnan(y[1])) << simd_level_name(level);
    EXPECT_TRUE(std::isnan(y[2])) << simd_level_name(level);
    EXPECT_EQ(y[3], 0.0f);
    EXPECT_TRUE(std::signbit(y[3])) << simd_level_name(level);
    EXPECT_EQ(y[4], 0.0f);
    EXPECT_FALSE(std::signbit(y[4])) << simd_level_name(level);
    EXPECT_EQ(y[5], 0.0f) << simd_level_name(level);
  }
}

TEST(GeluKernel, BitsDoNotDependOnOffsetInBuffer) {
  // A 37-wide buffer has four full 8-lane vectors and a 5-element tail;
  // shifting the same values by 0-7 moves every element through each
  // lane and through the tail.  Any tail arithmetic that differs from
  // the vector body shows up as a bit difference.
  constexpr std::size_t kWidth = 37;
  Rng rng(17);
  std::vector<float> values(kWidth);
  for (float& v : values) v = 4.0f * rng.normal();
  for (SimdLevel level : testable_simd_levels()) {
    ScopedSimdLevel scoped(level);
    const std::vector<float> base = gelu_of(values);
    for (std::size_t shift = 1; shift < 8; ++shift) {
      std::vector<float> shifted(kWidth + shift, 0.0f);
      for (std::size_t i = 0; i < kWidth; ++i) shifted[i + shift] = values[i];
      const std::vector<float> y = gelu_of(shifted);
      for (std::size_t i = 0; i < kWidth; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(y[i + shift]),
                  std::bit_cast<std::uint32_t>(base[i]))
            << simd_level_name(level) << " element " << i << " shift "
            << shift;
      }
    }
  }
}

TEST(GeluKernel, InPlaceMatchesOutOfPlace) {
  Rng rng(5);
  std::vector<float> x(101);
  for (float& v : x) v = 3.0f * rng.normal();
  const std::vector<float> expected = gelu_of(x);
  gelu(x.data(), x.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint32_t>(x[i]),
              std::bit_cast<std::uint32_t>(expected[i]));
}

}  // namespace
}  // namespace tilesparse
