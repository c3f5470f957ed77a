#pragma once
// Vectorised GELU for the host nodes of the served transformer graph.
//
// The paper (Sec. VI, "Kernel Fusion") attacks the non-GEMM share of a
// BERT request: fusing Add-bias + GELU takes it from 39% to 29%.  On
// this CPU substrate the same share was dominated by GELU itself,
// evaluated as scalar std::tanh over every FFN activation, so the fix
// here is one SIMD kernel that the training layer (nn::Gelu) and the
// graph's gelu node both call.
//
// Formulation: tanh-form GELU rewritten through the identity
// 0.5 * (1 + tanh(u)) = 1 / (1 + exp(-2u)),
//   gelu(x) = x / (1 + exp(-2u)),  u = sqrt(2/pi) * (x + 0.044715 x^3),
// with a polynomial exp (Cody-Waite range reduction, degree-5 minimax
// polynomial) and one exactly rounded division.  Dispatch follows the
// micro-kernel's SimdLevel (gemm/micro_kernel.hpp): an AVX2+FMA body
// or a portable scalar body.  Both levels meet the stated bound; they
// are not bit-identical to each other (FMA vs separate multiply-add).
//
// Bit-identity: at one SimdLevel an element's result depends only on
// its own value.  The AVX2 body runs the tail (n % 8 elements) through
// the same vector arithmetic on a zero-padded register, so the bits do
// not depend on the element's offset in the buffer — batched == solo
// and sharded == whole hold for any row width.
//
// IEEE edges follow the tanh-form reference: gelu(+inf) = +inf,
// gelu(-inf) = NaN (as 0.5 * x * (1 + tanh(u)) evaluates there),
// NaN propagates, gelu(-0) = -0, and finite x below about -10 gives
// -0 (the reference is below 1e-37 in magnitude there).

#include <cstddef>

namespace tilesparse {

/// Stated accuracy of gelu() against a double-precision evaluation of
/// 0.5 * x * (1 + tanh(u)) on finite float inputs, at every SimdLevel:
///   |gelu(x) - ref(x)| <= kGeluAbsErr + kGeluRelErr * |ref(x)|.
/// fused_ops_test sweeps [-10, 10] densely (plus +-100, +-1e30, the
/// float extremes and the IEEE edges above) to hold it.
inline constexpr double kGeluAbsErr = 1e-6;
inline constexpr double kGeluRelErr = 1e-6;

/// y[i] = gelu(x[i]) for i < n.  `y` may equal `x` (in place); other
/// overlap is not allowed.  Serial: callers are host graph nodes, each
/// already running on one stream thread.
void gelu(const float* x, float* y, std::size_t n) noexcept;

}  // namespace tilesparse
