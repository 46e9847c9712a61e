// Single-error localization and correction from dual checksums
// (paper sections 3.2 and 4.1).
//
// With stored sums S = (sum w_j x_j, sum j w_j x_j) and the same sums
// recomputed over possibly corrupted data, a single corrupted element
// x'_j = x_j + delta yields
//   d1 = w_j * delta          and   d2 = j * w_j * delta,
// so j = Re(d2 / d1) and delta = d1 / w_j. Round-off can push the recovered
// index off its integer (the paper's "Uncorrected" column in Table 6); the
// locate result therefore reports a confidence flag instead of asserting.
#pragma once

#include <cstddef>
#include <vector>

#include "checksum/dot.hpp"
#include "checksum/multi_error.hpp"
#include "common/complex.hpp"

namespace ftfft::checksum {

/// Outcome of single-error localization.
struct LocateResult {
  bool mismatch = false;  ///< checksums differ beyond eta at all
  bool valid = false;     ///< index recovered with integer confidence
  std::size_t index = 0;  ///< corrupted element position (when valid)
  cplx delta{0.0, 0.0};   ///< value that was ADDED to the element
};

/// Compares stored vs current dual sums and attempts localization.
/// `w` are the generation weights (nullptr = all ones); `n` bounds the
/// recovered index; `eta` is the round-off tolerance on the plain sum.
[[nodiscard]] LocateResult locate_single_error(const DualSum& stored,
                                               const DualSum& current,
                                               const cplx* w, std::size_t n,
                                               double eta);

/// Applies the correction in place: data[index * stride] -= delta.
void apply_correction(cplx* data, std::size_t stride,
                      const LocateResult& loc);

/// Outcome of an iterative repair session.
struct RepairResult {
  bool mismatch = false;    ///< checksums disagreed at least once
  bool corrected = false;   ///< data now verifies against `stored`
  std::size_t index = 0;    ///< (last) corrected element
  int iterations = 0;       ///< locate/correct rounds performed
};

/// Locates and corrects a single corrupted element, iterating until the
/// recomputed checksums match `stored` within eta. Iteration matters: when
/// the corruption is huge (an exponent-bit flip), the first recovered delta
/// carries an eps * |corruption| rounding residue that itself exceeds eta;
/// each round shrinks the residue by ~eps until it vanishes below threshold.
/// Returns corrected == false when the mismatch is not localizable (more
/// than one error, or NaN/Inf contamination).
[[nodiscard]] RepairResult repair_single_error(const DualSum& stored,
                                               cplx* data, std::size_t stride,
                                               const cplx* w, std::size_t n,
                                               double eta, int max_iters = 4);

/// Column checksums of the online schemes: x is a rows x cols row-major
/// block whose rows carry the indices t = first_row, first_row + 1, ...;
/// for every column i, s1[i] += sum_t p_ti, s2[i] += sum_t t p_ti and
/// energy[i] += sum_t |x_ti|^2, with p_ti = w[t - first_row] * x_ti
/// (w == nullptr: p_ti = x_ti), summed in t order. One contiguous pass on
/// the dispatched SIMD body, bitwise equal to the scalar one on every
/// backend. Folding successive row blocks gives the same bits as one call
/// over their union.
void accumulate_column_checksums(const cplx* x, std::size_t rows,
                                 std::size_t cols, std::size_t first_row,
                                 const cplx* w, cplx* s1, cplx* s2,
                                 double* energy);

/// Input CMCG of the online schemes (section 3.2): slot i covers column i
/// of the rows x cols input, the elements x[t*cols + i] of one first-layer
/// sub-FFT. Sets s1, s2 and energy (each resized to cols) to the column
/// checksums above with first_row 0. With moments > 0 (a multi-error budget
/// t > 1) the same pass folds every weighted element into the slot's
/// syndrome moments, the only cost that escalation path adds to a
/// fault-free run, in a scalar loop with the same dual-sum bits; otherwise
/// syn is cleared. With copy != nullptr, x is also copied to
/// copy[0, rows * cols), in the same pass when moments == 0.
void input_cmcg(const cplx* x, std::size_t rows, std::size_t cols,
                const cplx* w, int moments, std::vector<cplx>& s1,
                std::vector<cplx>& s2, std::vector<double>& energy,
                std::vector<SyndromeSet>& syn, cplx* copy = nullptr);

}  // namespace ftfft::checksum
