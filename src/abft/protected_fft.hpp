// Umbrella entry point for protected sequential transforms.
//
// Dispatches on Options::mode to the plain, offline-protected or
// online-protected executor. This is what the public core API and the
// benchmarks call.
#pragma once

#include <cstddef>
#include <vector>

#include "abft/options.hpp"
#include "common/complex.hpp"

namespace ftfft::abft {

class ProtectionPlan;

/// Out-of-place forward DFT with the protection selected in `opts`.
/// See offline.hpp / online.hpp for the per-mode contracts. `in` may be
/// modified by fault correction (and by the backup_in_input option).
///
/// `plan` is an optional pre-resolved ProtectionPlan for (n, opts) — the
/// batch engine and FtPlan pass one so repeated transforms skip the cache
/// lookup entirely; nullptr resolves through the process-wide cache.
void protected_transform(cplx* in, cplx* out, std::size_t n,
                         const Options& opts, Stats& stats,
                         const ProtectionPlan* plan = nullptr);

/// In-place forward DFT with the protection selected in `opts`. kOnline
/// runs the window schedule in place (online.hpp) for powers of two from
/// 2^14 on under the options window_schedule_covers accepts, and the k*r*k
/// scheme (section 5, inplace.hpp) otherwise; kOffline stages through an
/// internal copy (its restart needs an intact input); kNone is the plain
/// in-place FFT. Natural-order output. Shared by FtPlan::forward_inplace
/// and the batch engine so the mode dispatch lives in exactly one place.
/// `plan`, when given, must be the plan resolve_protection_plan returns
/// with inplace = true; its scheme selects the executor.
void protected_transform_inplace(cplx* data, std::size_t n,
                                 const Options& opts, Stats& stats,
                                 const ProtectionPlan* plan = nullptr);

/// Convenience overload: allocates the output, default stats sink.
std::vector<cplx> protected_fft(std::vector<cplx> input, const Options& opts);

}  // namespace ftfft::abft
