#include "abft/dmr.hpp"

#include <algorithm>
#include <vector>

#include "common/math_util.hpp"

namespace ftfft::abft {
namespace {

// Recurrence resync cadence; matches the checksum generator's choice.
constexpr std::size_t kResyncInterval = 64;

}  // namespace

// Each resync block of 64 elements starts from the exact twiddle and runs
// four interleaved recurrences w_j *= base^4 (lanes j = i mod 4), so the
// multiplies of neighbouring elements do not wait on one another.
void twiddle_multiply(const cplx* src, std::size_t stride, cplx* dst,
                      std::size_t len, std::size_t n, std::size_t step,
                      cplx scale) {
  const cplx base = omega(n, step);
  const cplx base4 = omega(n, 4 * static_cast<std::uint64_t>(step));
  for (std::size_t i0 = 0; i0 < len; i0 += kResyncInterval) {
    const std::size_t end = std::min(len, i0 + kResyncInterval);
    cplx w0 = cmul(scale, omega(n, static_cast<std::uint64_t>(i0) * step));
    cplx w1 = cmul(w0, base);
    cplx w2 = cmul(w1, base);
    cplx w3 = cmul(w2, base);
    std::size_t i = i0;
    for (; i + 4 <= end; i += 4) {
      dst[i] = cmul(src[i * stride], w0);
      dst[i + 1] = cmul(src[(i + 1) * stride], w1);
      dst[i + 2] = cmul(src[(i + 2) * stride], w2);
      dst[i + 3] = cmul(src[(i + 3) * stride], w3);
      w0 = cmul(w0, base4);
      w1 = cmul(w1, base4);
      w2 = cmul(w2, base4);
      w3 = cmul(w3, base4);
    }
    const cplx tail[3] = {w0, w1, w2};
    for (std::size_t j = 0; i < end; ++i, ++j) {
      dst[i] = cmul(src[i * stride], tail[j]);
    }
  }
}

std::size_t dmr_twiddle_multiply(const cplx* src, std::size_t stride,
                                 cplx* dst, std::size_t len, std::size_t n,
                                 std::size_t factor_step, std::size_t unit,
                                 fault::Injector* injector, cplx scale) {
  twiddle_multiply(src, stride, dst, len, n, factor_step, scale);
  if (injector != nullptr) {
    injector->apply(fault::Phase::kTwiddleDmrCopy, unit, dst, len);
  }
  // Second redundant execution into a thread-local staging buffer.
  thread_local std::vector<cplx> second;
  if (second.size() < len) second.resize(len);
  twiddle_multiply(src, stride, second.data(), len, n, factor_step, scale);

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < len; ++i) {
    if (dst[i] != second[i]) {
      // Third execution of just this element, exact table lookup; majority
      // vote between the three results.
      const cplx third = cmul(
          src[i * stride],
          cmul(scale, omega(n, static_cast<std::uint64_t>(i) * factor_step)));
      dst[i] = (second[i] == third) ? second[i]
               : (dst[i] == third)  ? dst[i]
                                    : third;
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace ftfft::abft
