// Duplicated-execution (DMR) twiddle multiplication with majority vote.
//
// The twiddle stage between the two ABFT layers cannot be checksummed (an
// error there corrupts the *input* of the second layer before its checksum
// exists), so the paper protects it with DMR: compute twice, compare, and on
// mismatch compute a third time and take the majority (section 3.1).
//
// Each redundant execution generates its twiddles by recurrence rather than
// per-element sin/cos. Every block of 64 elements restarts from the exact
// omega_N value, then four interleaved recurrences (elements i mod 4, each
// stepped by omega_N^(4*step)) carry it through the block, so neighbouring
// multiplies are independent and pipeline. The recurrence is a SIMD kernel
// (simd::FftKernels::twiddle_multiply) whose vector bodies round exactly
// like the scalar reference, so the products do not depend on the backend.
// Both executions call the same routine, so a fault-free run compares
// bit-equal; the table-exact third evaluation only runs on a mismatch.
#pragma once

#include <cstddef>

#include "checksum/dot.hpp"
#include "common/complex.hpp"
#include "fault/injector.hpp"

namespace ftfft::abft {

/// Computes dst[i] = src[i * stride] * scale * omega_N^(i * factor_step)
/// for i in [0, len) twice, votes on mismatch. The constant prefactor
/// `scale` lets distributed callers express omega_N^(base + i*step) twiddles
/// without a second table. src and dst must not overlap.
///
/// `unit` tags the injector hook (phase kTwiddleDmrCopy fires on the first
/// redundant copy). Returns the number of elementwise mismatches repaired by
/// the vote; 0 on a fault-free run.
///
/// With cw non-null, *cs receives weighted_sum_energy(cw, dst, len) of the
/// final dst: the first copy accumulates it in flight, and a mismatch
/// recomputes it over the voted result. Bit-identical to the separate sweep
/// either way.
std::size_t dmr_twiddle_multiply(const cplx* src, std::size_t stride,
                                 cplx* dst, std::size_t len, std::size_t n,
                                 std::size_t factor_step, std::size_t unit,
                                 fault::Injector* injector,
                                 cplx scale = cplx{1.0, 0.0},
                                 const cplx* cw = nullptr,
                                 checksum::SumEnergy* cs = nullptr);

/// One unvoted execution of the routine both copies above run:
/// dst[i] = src[i * stride] * scale * omega_N^(i * factor_step). For
/// callers that duplicate a larger fused operation themselves (the in-place
/// middle layer). dst may equal src when stride == 1.
void twiddle_multiply(const cplx* src, std::size_t stride, cplx* dst,
                      std::size_t len, std::size_t n, std::size_t factor_step,
                      cplx scale = cplx{1.0, 0.0});

}  // namespace ftfft::abft
