#include "gemm/fused_ops.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "gemm/micro_kernel.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TILESPARSE_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace tilesparse {
namespace {

// t = -2u = x * (kTa * x^2 + kTb), u = sqrt(2/pi) * (x + 0.044715 x^3).
constexpr float kTb = -2.0f * 0.7978845608028654f;
constexpr float kTa = kTb * 0.044715f;

// exp(t) = 2^n * exp(r), n = round(t / ln 2), r = t - n ln 2 with ln 2
// split in two (Cody-Waite) so r is exact to float precision.  The
// clamp keeps 2^n a normal float; above kExpHi exp(t) is taken as
// +inf, so gelu gives -0 there (and NaN at x = -inf, as the reference).
constexpr float kExpHi = 88.0f;
constexpr float kExpLo = -87.0f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
// Minimax polynomial for (exp(r) - 1 - r) / r^2 on |r| <= ln(2)/2
// (the Cephes expf coefficients).
constexpr float kP0 = 1.9875691500e-4f;
constexpr float kP1 = 1.3981999507e-3f;
constexpr float kP2 = 8.3334519073e-3f;
constexpr float kP3 = 4.1665795894e-2f;
constexpr float kP4 = 1.6666665459e-1f;
constexpr float kP5 = 5.0000001201e-1f;

// ------------------------------------------------------------ scalar body

float gelu_scalar(float x) noexcept {
  const float t = x * (kTa * (x * x) + kTb);
  // std::min(kExpHi, t) maps NaN to kExpHi, so the int conversion
  // below always sees a finite value.
  const float tc = std::max(kExpLo, std::min(kExpHi, t));
  const float fx = std::floor(tc * kLog2e + 0.5f);
  float r = tc - fx * kLn2Hi;
  r = r - fx * kLn2Lo;
  float p = kP0 * r + kP1;
  p = p * r + kP2;
  p = p * r + kP3;
  p = p * r + kP4;
  p = p * r + kP5;
  float e = p * (r * r) + r + 1.0f;
  const auto biased = static_cast<std::uint32_t>(static_cast<int>(fx) + 127);
  e *= std::bit_cast<float>(biased << 23);
  if (t > kExpHi) e = std::numeric_limits<float>::infinity();
  return x / (1.0f + e);
}

void gelu_scalar(const float* x, float* y, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] = gelu_scalar(x[i]);
}

// -------------------------------------------------------------- AVX2 body

#ifdef TILESPARSE_X86_DISPATCH

__attribute__((target("avx2,fma"))) inline __m256 gelu8_avx2(__m256 x) {
  const __m256 t = _mm256_mul_ps(
      x, _mm256_fmadd_ps(_mm256_set1_ps(kTa), _mm256_mul_ps(x, x),
                         _mm256_set1_ps(kTb)));
  // min(t, hi) returns hi for a NaN t (second operand wins).
  const __m256 tc = _mm256_max_ps(_mm256_min_ps(t, _mm256_set1_ps(kExpHi)),
                                  _mm256_set1_ps(kExpLo));
  const __m256 fx = _mm256_floor_ps(
      _mm256_fmadd_ps(tc, _mm256_set1_ps(kLog2e), _mm256_set1_ps(0.5f)));
  __m256 r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(kLn2Hi), tc);
  r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(kLn2Lo), r);
  __m256 p = _mm256_fmadd_ps(_mm256_set1_ps(kP0), r, _mm256_set1_ps(kP1));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kP2));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kP3));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kP4));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kP5));
  __m256 e = _mm256_add_ps(_mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r),
                           _mm256_set1_ps(1.0f));
  const __m256i biased =
      _mm256_add_epi32(_mm256_cvttps_epi32(fx), _mm256_set1_epi32(127));
  e = _mm256_mul_ps(e, _mm256_castsi256_ps(_mm256_slli_epi32(biased, 23)));
  e = _mm256_blendv_ps(
      e, _mm256_set1_ps(std::numeric_limits<float>::infinity()),
      _mm256_cmp_ps(t, _mm256_set1_ps(kExpHi), _CMP_GT_OQ));
  return _mm256_div_ps(x, _mm256_add_ps(_mm256_set1_ps(1.0f), e));
}

__attribute__((target("avx2,fma"))) void gelu_avx2(const float* x, float* y,
                                                   std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(y + i, gelu8_avx2(_mm256_loadu_ps(x + i)));
  if (i == n) return;
  // Tail through the same vector arithmetic, zero-padded, so an
  // element's bits never depend on its offset in the buffer.
  float lanes[8] = {};
  const std::size_t tail = n - i;
  std::memcpy(lanes, x + i, tail * sizeof(float));
  _mm256_storeu_ps(lanes, gelu8_avx2(_mm256_loadu_ps(lanes)));
  std::memcpy(y + i, lanes, tail * sizeof(float));
}

#endif  // TILESPARSE_X86_DISPATCH

}  // namespace

void gelu(const float* x, float* y, std::size_t n) noexcept {
#ifdef TILESPARSE_X86_DISPATCH
  if (active_simd_level() == SimdLevel::kAvx2) {
    gelu_avx2(x, y, n);
    return;
  }
#endif
  gelu_scalar(x, y, n);
}

}  // namespace tilesparse
