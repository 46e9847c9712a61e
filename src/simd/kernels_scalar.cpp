// Scalar backend: the reference implementations every vector backend is
// checked against. This TU is compiled with -ffp-contract=off (see
// CMakeLists.txt) so the schoolbook complex multiply stays a plain
// 4-mul/2-add sequence regardless of compiler contraction defaults — the
// cross-backend comparison tests rely on that baseline being stable.
#include <algorithm>
#include <cassert>

#include "dft/codelets.hpp"
#include "simd/kernels.hpp"
#include "simd/kernels_impl.hpp"
#include "simd/vec.hpp"

namespace ftfft::simd {

// Shared scalar helpers (also the fallbacks inside the vector backends).

void scalar_combine_columns(cplx* out, std::size_t os, std::size_t m,
                            std::size_t r, const cplx* tw,
                            std::size_t k1_begin, std::size_t k1_end) {
  // Upper bound on the combine radix; kRadixPreference in plan.cpp tops out
  // at 16 and generic codelets at 32, both far below this.
  constexpr std::size_t kMaxRadix = 64;
  assert(r <= kMaxRadix);
  cplx buf[kMaxRadix];
  cplx res[kMaxRadix];
  for (std::size_t k1 = k1_begin; k1 < k1_end; ++k1) {
    buf[0] = out[k1 * os];
    for (std::size_t t1 = 1; t1 < r; ++t1) {
      buf[t1] = cmul(out[(k1 + m * t1) * os], tw[(t1 - 1) * m + k1]);
    }
    dft::codelet_dft(r, buf, 1, res, 1);
    for (std::size_t k2 = 0; k2 < r; ++k2) {
      out[(k1 + m * k2) * os] = res[k2];
    }
  }
}

void scalar_radix2_stage0_range(cplx* data, std::size_t begin,
                                std::size_t end) {
  for (std::size_t base = begin; base + 1 < end; base += 2) {
    const cplx u = data[base];
    const cplx t = data[base + 1];
    data[base] = u + t;
    data[base + 1] = u - t;
  }
}

void scalar_radix4_first_stage_range(cplx* data, std::size_t begin,
                                     std::size_t end, bool inverse) {
  for (std::size_t base = begin; base + 3 < end; base += 4) {
    const cplx a = data[base];
    const cplx b = data[base + 1];
    const cplx c = data[base + 2];
    const cplx d = data[base + 3];
    const cplx a1 = a + b;
    const cplx b1 = a - b;
    const cplx c1 = c + d;
    const cplx d1 = c - d;
    const cplx t3 = inverse ? mul_i(d1) : mul_neg_i(d1);
    data[base] = a1 + c1;
    data[base + 1] = b1 + t3;
    data[base + 2] = a1 - c1;
    data[base + 3] = b1 - t3;
  }
}

void scalar_radix2_stage0_from_range(cplx* dst, const cplx* src,
                                     std::size_t begin, std::size_t end) {
  for (std::size_t base = begin; base + 1 < end; base += 2) {
    const cplx u = src[base];
    const cplx t = src[base + 1];
    dst[base] = u + t;
    dst[base + 1] = u - t;
  }
}

void scalar_radix4_first_stage_from_range(cplx* dst, const cplx* src,
                                          std::size_t begin, std::size_t end,
                                          bool inverse) {
  for (std::size_t base = begin; base + 3 < end; base += 4) {
    const cplx a = src[base];
    const cplx b = src[base + 1];
    const cplx c = src[base + 2];
    const cplx d = src[base + 3];
    const cplx a1 = a + b;
    const cplx b1 = a - b;
    const cplx c1 = c + d;
    const cplx d1 = c - d;
    const cplx t3 = inverse ? mul_i(d1) : mul_neg_i(d1);
    dst[base] = a1 + c1;
    dst[base + 1] = b1 + t3;
    dst[base + 2] = a1 - c1;
    dst[base + 3] = b1 - t3;
  }
}

void scalar_r2c_finalize_range(cplx* dst, const cplx* src, std::size_t nc,
                               const cplx* wq, std::size_t begin,
                               std::size_t end, const cplx* cw, cplx* cs) {
  // One Hermitian pair per k; the op sequence is exactly the width-1 shape
  // of impl::k_r2c_finalize_t (add, exact *0.5, -i rotation, schoolbook
  // cmul), and this TU pins contraction off, so vector backends calling in
  // for their remainder pairs land on the same bits.
  for (std::size_t k = begin; k < end; ++k) {
    const std::size_t j = nc - k;
    const cplx zk = src[k];
    const cplx zjc = std::conj(src[j]);
    const cplx a{(zk.real() + zjc.real()) * 0.5,
                 (zk.imag() + zjc.imag()) * 0.5};
    const cplx b{(zk.real() - zjc.real()) * 0.5,
                 (zk.imag() - zjc.imag()) * 0.5};
    const cplx t = cmul(mul_neg_i(b), wq[k]);
    const cplx xk = a + t;
    const cplx xj = std::conj(a - t);
    dst[k] = xk;
    dst[j] = xj;
    if (cw != nullptr) *cs += cmul(cw[k], xk) + cmul(cw[j], xj);
  }
}

void scalar_c2r_prepare_range(cplx* dst, const cplx* src, std::size_t nc,
                              const cplx* wq, bool conjugate,
                              std::size_t begin, std::size_t end,
                              const cplx* cw, cplx* cs) {
  for (std::size_t k = begin; k < end; ++k) {
    const std::size_t j = nc - k;
    const cplx xk = src[k];
    const cplx xjc = std::conj(src[j]);
    const cplx a{(xk.real() + xjc.real()) * 0.5,
                 (xk.imag() + xjc.imag()) * 0.5};
    const cplx b{(xk.real() - xjc.real()) * 0.5,
                 (xk.imag() - xjc.imag()) * 0.5};
    const cplx u = mul_i(cmul(b, std::conj(wq[k])));
    cplx zk = a + u;
    cplx zj = std::conj(a - u);
    if (conjugate) {
      zk = std::conj(zk);
      zj = std::conj(zj);
    }
    dst[k] = zk;
    dst[j] = zj;
    if (cw != nullptr) *cs += cmul(cw[k], src[k]) + cmul(cw[j], src[j]);
  }
}

void scalar_twiddle_seeds(std::size_t n, std::size_t i0, std::size_t step,
                          cplx scale, cplx base, cplx* w4) {
  w4[0] = cmul(scale, omega(n, static_cast<std::uint64_t>(i0) * step));
  for (int j = 1; j < 4; ++j) w4[j] = cmul(w4[j - 1], base);
}

void scalar_twiddle_tail(const cplx* src, std::size_t stride, cplx* dst,
                         std::size_t count, const cplx* w) {
  for (std::size_t j = 0; j < count; ++j) dst[j] = cmul(src[j * stride], w[j]);
}

void scalar_column_checksums(const cplx* x, std::size_t rows,
                             std::size_t cols, std::size_t first_row,
                             const cplx* w, cplx* s1, cplx* s2,
                             double* energy, cplx* copy, std::size_t begin,
                             std::size_t end) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double td = static_cast<double>(first_row + r);
    const cplx* row = x + r * cols;
    if (copy != nullptr) {
      std::copy(row + begin, row + end, copy + r * cols + begin);
    }
    for (std::size_t i = begin; i < end; ++i) {
      const cplx p = w != nullptr ? cmul(w[r], row[i]) : row[i];
      s1[i] += p;
      s2[i] += td * p;
      energy[i] += norm2(row[i]);
    }
  }
}

namespace {

using V = ScalarVec;

void s_column_checksums(const cplx* x, std::size_t rows, std::size_t cols,
                        std::size_t first_row, const cplx* w, cplx* s1,
                        cplx* s2, double* energy, cplx* copy) {
  scalar_column_checksums(x, rows, cols, first_row, w, s1, s2, energy, copy,
                          0, cols);
}

void s_radix2_stage0(cplx* data, std::size_t n) {
  scalar_radix2_stage0_range(data, 0, n);
}

void s_radix2_stage0_from(cplx* dst, const cplx* src, std::size_t n) {
  scalar_radix2_stage0_from_range(dst, src, 0, n);
}

void s_radix4_first_stage(cplx* data, std::size_t n, bool inverse) {
  scalar_radix4_first_stage_range(data, 0, n, inverse);
}

void s_radix4_first_stage_from(cplx* dst, const cplx* src, std::size_t n,
                               bool inverse) {
  scalar_radix4_first_stage_from_range(dst, src, 0, n, inverse);
}

void s_combine(cplx* out, std::size_t os, std::size_t m, std::size_t r,
               const cplx* tw) {
  scalar_combine_columns(out, os, m, r, tw, 0, m);
}

constexpr FftKernels kScalarFft = {
    s_radix2_stage0,
    s_radix2_stage0_from,
    s_radix4_first_stage,
    s_radix4_first_stage_from,
    impl::k_radix4_stage<V>,
    impl::k_radix16_stage<V>,
    s_combine,
    nullptr,  // dft4: width-1 backend, scalar codelets are already optimal
    nullptr,  // dft8
    nullptr,  // dft16
    impl::k_radix4_stage_cs<V>,
    impl::k_radix16_stage_cs<V>,
    impl::k_copy_weighted_sum_energy<V>,
    impl::k_r2c_finalize<V>,
    impl::k_r2c_finalize_cs<V>,
    impl::k_c2r_prepare<V>,
    impl::k_c2r_prepare_cs<V>,
    impl::k_r2c_last_stage4<V>,
    impl::k_r2c_last_stage16<V>,
    impl::k_twiddle_multiply<V>,
    impl::k_first_mismatch<V>,
    impl::k_window_epilogue<V>,
};

constexpr ChecksumKernels kScalarChecksum = {
    impl::k_weighted_sum<V>,
    impl::k_dual_weighted_sum<V>,
    impl::k_energy<V>,
    impl::k_robust_energy<V>,
    impl::k_weighted_sum_energy<V>,
    impl::k_dual_weighted_sum_energy<V>,
    impl::k_omega3_weighted_sum<V>,
    impl::k_copy_dual_sum<V>,
    impl::k_syndrome_dot<V>,
    s_column_checksums,
};

}  // namespace

const ChecksumKernels* scalar_checksum_kernels() { return &kScalarChecksum; }
const FftKernels* scalar_fft_kernels() { return &kScalarFft; }

}  // namespace ftfft::simd
