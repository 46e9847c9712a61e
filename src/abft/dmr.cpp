#include "abft/dmr.hpp"

#include <vector>

#include "common/math_util.hpp"
#include "simd/dispatch.hpp"

namespace ftfft::abft {

void twiddle_multiply(const cplx* src, std::size_t stride, cplx* dst,
                      std::size_t len, std::size_t n, std::size_t step,
                      cplx scale) {
  simd::fft_kernels().twiddle_multiply(src, stride, dst, len, n, step, scale,
                                       nullptr, nullptr);
}

std::size_t dmr_twiddle_multiply(const cplx* src, std::size_t stride,
                                 cplx* dst, std::size_t len, std::size_t n,
                                 std::size_t factor_step, std::size_t unit,
                                 fault::Injector* injector, cplx scale,
                                 const cplx* cw, checksum::SumEnergy* cs) {
  const simd::FftKernels& k = simd::fft_kernels();
  k.twiddle_multiply(src, stride, dst, len, n, factor_step, scale, cw, cs);
  if (injector != nullptr) {
    injector->apply(fault::Phase::kTwiddleDmrCopy, unit, dst, len);
  }
  // Second redundant execution into a thread-local staging buffer.
  thread_local std::vector<cplx> second;
  if (second.size() < len) second.resize(len);
  k.twiddle_multiply(src, stride, second.data(), len, n, factor_step, scale,
                     nullptr, nullptr);

  std::size_t mismatches = 0;
  for (std::size_t i = k.first_mismatch(dst, second.data(), len); i < len;
       i = i + 1 + k.first_mismatch(dst + i + 1, second.data() + i + 1,
                                    len - i - 1)) {
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
  // The sums of copy 1 describe what it computed; after a vote they are
  // rebuilt over the voted result.
  if (mismatches > 0 && cw != nullptr) {
    *cs = checksum::weighted_sum_energy(cw, dst, len);
  }
  return mismatches;
}

}  // namespace ftfft::abft
