#include "checksum/memory_checksum.hpp"

#include <cmath>
#include <cstring>

#include "simd/dispatch.hpp"

namespace ftfft::checksum {
namespace {

// How far the recovered index may sit from an integer before we declare the
// localization unreliable. 0.25 splits the distance to the neighboring
// index evenly between round-off slack and mislocation guard.
constexpr double kIndexSlack = 0.25;

}  // namespace

LocateResult locate_single_error(const DualSum& stored, const DualSum& current,
                                 const cplx* w, std::size_t n, double eta) {
  LocateResult out;
  const cplx d1 = current.plain - stored.plain;
  const cplx d2 = current.indexed - stored.indexed;
  if (std::abs(d1) <= eta) return out;  // within round-off: no mismatch
  out.mismatch = true;
  const cplx ratio = d2 / d1;
  const double idx = ratio.real();
  const double rounded = std::round(idx);
  // The imaginary part of a clean single-error ratio is zero; allow it the
  // same slack as the real part, scaled to the index magnitude.
  const double imag_slack = kIndexSlack * (1.0 + std::abs(rounded));
  if (std::abs(idx - rounded) > kIndexSlack ||
      std::abs(ratio.imag()) > imag_slack || rounded < 0.0 ||
      rounded >= static_cast<double>(n)) {
    return out;  // mismatch detected but not localizable
  }
  out.valid = true;
  out.index = static_cast<std::size_t>(rounded);
  out.delta = (w == nullptr) ? d1 : d1 / w[out.index];
  return out;
}

void apply_correction(cplx* data, std::size_t stride,
                      const LocateResult& loc) {
  if (loc.valid) data[loc.index * stride] -= loc.delta;
}

RepairResult repair_single_error(const DualSum& stored, cplx* data,
                                 std::size_t stride, const cplx* w,
                                 std::size_t n, double eta, int max_iters) {
  RepairResult out;
  for (int iter = 0; iter < max_iters; ++iter) {
    const DualSum cur = dual_weighted_sum(w, data, n, stride);
    const LocateResult loc = locate_single_error(stored, cur, w, n, eta);
    if (!loc.mismatch) {
      out.corrected = out.mismatch;  // clean now (trivially true if never bad)
      return out;
    }
    out.mismatch = true;
    if (!loc.valid) return out;  // not localizable
    apply_correction(data, stride, loc);
    out.index = loc.index;
    ++out.iterations;
  }
  // Ran out of iterations: check whether the last correction landed.
  const DualSum cur = dual_weighted_sum(w, data, n, stride);
  out.corrected =
      !locate_single_error(stored, cur, w, n, eta).mismatch;
  return out;
}

void accumulate_column_checksums(const cplx* x, std::size_t rows,
                                 std::size_t cols, std::size_t first_row,
                                 const cplx* w, cplx* s1, cplx* s2,
                                 double* energy) {
  simd::checksum_kernels().column_checksums(x, rows, cols, first_row, w, s1,
                                            s2, energy, nullptr);
}

void input_cmcg(const cplx* x, std::size_t rows, std::size_t cols,
                const cplx* w, int moments, std::vector<cplx>& s1,
                std::vector<cplx>& s2, std::vector<double>& energy,
                std::vector<SyndromeSet>& syn, cplx* copy) {
  s1.assign(cols, cplx{0.0, 0.0});
  s2.assign(cols, cplx{0.0, 0.0});
  energy.assign(cols, 0.0);
  syn.clear();
  if (moments == 0) {
    simd::checksum_kernels().column_checksums(x, rows, cols, 0, w, s1.data(),
                                              s2.data(), energy.data(), copy);
    return;
  }
  if (copy != nullptr) {
    std::memcpy(static_cast<void*>(copy), x, rows * cols * sizeof(cplx));
  }
  SyndromeSet init;
  init.moments = moments;
  syn.assign(cols, init);
  const double inv_rows = 1.0 / static_cast<double>(rows);
  for (std::size_t t = 0; t < rows; ++t) {
    const double td = static_cast<double>(t);
    const cplx* row = x + t * cols;
    for (std::size_t i = 0; i < cols; ++i) {
      const cplx p = w != nullptr ? cmul(w[t], row[i]) : row[i];
      s1[i] += p;
      s2[i] += td * p;
      energy[i] += norm2(row[i]);
      syn[i].accumulate(t, p, inv_rows);
    }
  }
}

}  // namespace ftfft::checksum
