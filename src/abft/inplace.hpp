// Protected in-place FFT (paper section 5).
//
// Parallel FFTs work in place, so a detected error cannot be fixed by
// restarting from the (overwritten) input. The paper's answer is a
// three-layer plan n = k * r * k:
//
//   layer 1: r*k k-point sub-FFTs (stride r*k)   - ABFT per sub-FFT, run in
//            tiles of up to 16 columns gathered row-wise into staging; each
//            staged input column is its sub-FFT's Fig. 4 backup;
//   layer 2: k^2  r-point sub-FFTs + twiddles    - DMR-protected (r is tiny:
//            1 or 2 for powers of two; a restart here is impossible in
//            place, which is exactly Fig. 5's failure scenario);
//   layer 3: r*k k-point sub-FFTs (contiguous)   - ABFT per sub-FFT with
//            output dual checksums for the postponed final verification.
//
// The layer structure is palindromic (k, r, k) on purpose: the digit-reversal
// permutation that restores natural output order is then an involution, so
// it runs in place as swaps (tile pairs of a k x k transpose). When r == 1
// the middle layer vanishes (Fig. 6 "omitted when r = 1").
//
// Which in-place calls run this scheme: inplace_online_transform always.
// FtPlan::forward_inplace, the batch engine's in-place lanes and the
// sharded FFT2 all go through protected_transform_inplace, which runs it
// unless the window schedule covers the call (a power of two from 2^14 on
// under the options window_schedule_covers accepts); those calls run the
// out-of-place scheme's window schedule in place instead (online.hpp).
// Memory: this scheme stages O(sqrt(n) * r) elements per thread; the
// in-place window schedule holds a per-thread n-element backup (the one
// FtPlan::forward uses) and an m-element window stash.
#pragma once

#include <cstddef>

#include "abft/options.hpp"
#include "common/complex.hpp"

namespace ftfft::abft {

/// Shape of the in-place plan for size n.
struct InplaceShape {
  std::size_t k = 0;  ///< outer sub-FFT size (largest k with k^2 | n)
  std::size_t r = 0;  ///< middle layer size, n = k*r*k
};

/// Computes the k*r*k split for n. Throws when k == 1 (no square factor:
/// nothing to decompose in place) or when 3 divides k (degenerate encoding).
[[nodiscard]] InplaceShape inplace_shape(std::size_t n);

/// In-place digit-reversal permutation for the palindromic radix vector
/// (k, r, k): position d0 + d1*k + d2*r*k swaps with d2 + d1*k + d0*r*k.
/// Self-inverse; runs as a cache-blocked in-place transpose per middle
/// digit. Exposed for tests.
void krk_digit_reverse_permute(cplx* data, std::size_t k, std::size_t r);

/// Protected in-place forward DFT of data[0..n). Uses O(sqrt(n) * r)
/// auxiliary buffers only (the layer-1 tile staging is reused per thread).
/// Honors opts.memory_ft, ra_method, postpone_mcv (naive mode verifies
/// every block before use; optimized mode postpones into the computational
/// checks), eta_override, max_retries and injector; contiguous staging is
/// inherent to the algorithm.
/// Output is in natural order. Throws UncorrectableError when verification
/// cannot be satisfied within the fault model.
void inplace_online_transform(cplx* data, std::size_t n, const Options& opts,
                              Stats& stats);

class ProtectionPlan;

/// Same transform against a pre-resolved plan (Scheme::kOnlineInplace).
void inplace_online_transform(cplx* data, const ProtectionPlan& plan,
                              const Options& opts, Stats& stats);

}  // namespace ftfft::abft
