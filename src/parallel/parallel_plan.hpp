// ParallelPlan: the immutable shared state of one (p, N) six-step
// distributed transform, resolved once and cached process-wide.
//
// A ParallelPlan hoists the per-rank setup out of the rank tasks: the
// p-point FFT1 input-checksum vector (rA) and the FFT2 ProtectionPlan are
// shared cache references, the sub-FFT plan trees FFT1 and FFT2 run are
// pre-touched at build so no rank races through a cold plan build, and the
// sigma-independent threshold coefficients are precomputed so the hot path
// only pays roundoff::eta_from_coeff. submit_parallel (and parallel_fft,
// which wraps it) resolves the plan once per submission.
//
// Plans live behind the shared LRU-bounded PlanRegistry and show up in
// ftfft::plan_cache_stats() as "parallel-plan".
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "abft/protection_plan.hpp"
#include "common/complex.hpp"
#include "common/error.hpp"
#include "parallel/parallel_fft.hpp"

namespace ftfft::parallel {

class ParallelPlan {
 public:
  /// Direct (uncached) build from opts.protect and, when protected,
  /// memory_ft and max_correctable_errors (clamped to
  /// [1, checksum::kMaxCorrectableErrors]; > 1 also caches the syndrome
  /// node table for the bsz-element transpose blocks). Throws
  /// std::invalid_argument for bad geometry (p < 2, 3 | p, p^2 does not
  /// divide n) and for an n_loc FFT2 cannot run in place. Prefer get().
  ParallelPlan(std::size_t p, std::size_t n, const ParallelOptions& opts);

  /// Cached resolution keyed on the fields the build reads. Thread-safe.
  static std::shared_ptr<const ParallelPlan> get(std::size_t p, std::size_t n,
                                                 const ParallelOptions& opts);

  [[nodiscard]] std::size_t p() const noexcept { return p_; }
  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t n_loc() const noexcept { return n_loc_; }
  [[nodiscard]] std::size_t bsz() const noexcept { return bsz_; }
  [[nodiscard]] bool protect() const noexcept { return protect_; }

  /// p-point FFT1 input checksum vector (rA, DMR-generated, shared with the
  /// "checksum-weights" cache). nullptr when unprotected.
  [[nodiscard]] const cplx* cp() const noexcept {
    return cp_ ? cp_->data() : nullptr;
  }

  /// Cached plan of the n_loc-point FFT2: resolve_protection_plan(n_loc,
  /// fft2_options(), inplace = true), i.e. the window schedule or k*r*k as
  /// for every in-place call, handed to protected_transform_inplace so FFT2
  /// is rA-generation-free per call. nullptr when unprotected.
  [[nodiscard]] const abft::ProtectionPlan* fft2_plan() const noexcept {
    return fft2_.get();
  }

  /// The abft::Options a protected FFT2 runs under: Opt-Online for the
  /// plan's memory_ft at its error budget. Callers add only per-call
  /// fields (injector, eta_override, max_retries); none selects a plan.
  [[nodiscard]] const abft::Options& fft2_options() const noexcept {
    return fft2_opts_;
  }

  /// Sigma-independent threshold coefficients (see roundoff::eta_from_coeff):
  /// FFT1 per-column computational threshold over p points, and the
  /// memory-checksum threshold for one bsz-element transposed block.
  [[nodiscard]] double eta_fft1_coeff() const noexcept {
    return eta_fft1_coeff_;
  }
  [[nodiscard]] double eta_block_coeff() const noexcept {
    return eta_block_coeff_;
  }

  /// Clamped multi-error budget the plan was resolved with (1 = single).
  [[nodiscard]] int max_errors() const noexcept { return max_errors_; }
  /// Duplicated normalized node table for one bsz-element transpose block
  /// (checksum::shared_syndrome_nodes(bsz)); nullptr unless protected with
  /// max_errors() > 1.
  [[nodiscard]] const double* syndrome_nodes_block() const noexcept {
    return sn_block_ ? sn_block_->data() : nullptr;
  }

  /// Appends the rA vector, the block syndrome node table and
  /// (transitively) the FFT2 ProtectionPlan's cached payloads to `out`
  /// (plan-state sealing; see common/seal.hpp).
  void collect_state(StateSpans& out) const {
    if (cp_) out.add_vec(*cp_);
    if (sn_block_) out.add_vec(*sn_block_);
    if (fft2_) fft2_->collect_state(out);
  }

  // ---- cache introspection (tests, benches, monitoring) ----

  /// Plans constructed process-wide (cache misses + direct builds).
  [[nodiscard]] static std::uint64_t build_count() noexcept;
  [[nodiscard]] static std::size_t cache_size();
  static void drop_cache();

 private:
  std::size_t p_, n_, n_loc_, bsz_;
  bool protect_;
  int max_errors_ = 1;
  abft::Options fft2_opts_;
  std::shared_ptr<const std::vector<cplx>> cp_;
  std::shared_ptr<const std::vector<double>> sn_block_;
  std::shared_ptr<const abft::ProtectionPlan> fft2_;
  double eta_fft1_coeff_ = 0.0;
  double eta_block_coeff_ = 0.0;
};

/// Pre-resolves everything a (p, n) distributed transform of a Fig. 8
/// preset touches — protect = true warms the memory-fault-tolerant
/// variants (ft_fftw / opt_ft_fftw), false the unprotected ones: the
/// ParallelPlan itself, the rA vector, the FFT2 ProtectionPlan and the
/// sub-FFT plan trees — so the first submit_parallel call afterwards
/// performs zero rA generations and no plan builds. Returns the plan handle
/// (keeping it alive pins the entry against LRU eviction).
/// max_correctable_errors: 0 = the FTFFT_MAX_ERRORS process default, i.e.
/// the budget a default-constructed ParallelOptions submit resolves.
std::shared_ptr<const ParallelPlan> warm_plans(std::size_t p, std::size_t n,
                                               bool protect = true,
                                               int max_correctable_errors = 0);

namespace detail {
using ftfft::detail::require;
}  // namespace detail

}  // namespace ftfft::parallel
