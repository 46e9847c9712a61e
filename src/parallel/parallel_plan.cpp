#include "parallel/parallel_plan.hpp"

#include <atomic>

#include "abft/options.hpp"
#include "checksum/weights.hpp"
#include "common/plan_registry.hpp"
#include "fft/fft.hpp"
#include "roundoff/model.hpp"

namespace ftfft::parallel {
namespace {

std::atomic<std::uint64_t> plan_builds{0};

struct PlanKey {
  std::size_t p;
  std::size_t n;
  bool protect;
  bool memory_ft;
  int max_errors;
  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& key) const noexcept {
    return ((key.p * 1000003 + key.n) * 4 +
            static_cast<std::size_t>(key.protect) * 2 +
            static_cast<std::size_t>(key.memory_ft)) *
               8 +
           static_cast<std::size_t>(key.max_errors);
  }
};

std::uint64_t seal_parallel_plan(const ParallelPlan& plan) {
  StateSpans spans;
  plan.collect_state(spans);
  return seal_spans(spans);
}

PlanRegistry<PlanKey, ParallelPlan, PlanKeyHash>& registry() {
  static PlanRegistry<PlanKey, ParallelPlan, PlanKeyHash> instance(
      plan_cache_capacity(), seal_parallel_plan);
  return instance;
}

// Enroll in plan_cache_stats() / scrub_plan_caches() before main. The
// lambdas are lazy on purpose: the registry (and its FTFFT_PLAN_CACHE_CAP /
// FTFFT_PLAN_VERIFY reads) is only materialized at first use or first stats
// call, never during static initialization.
const bool registry_registered =
    (ftfft::detail::register_plan_cache(ftfft::detail::PlanCacheHooks{
         [] { return registry().snapshot("parallel-plan"); },
         [] { return registry().scrub(); },
         [](std::size_t k) { registry().set_verify_interval(k); }}),
     true);

}  // namespace

ParallelPlan::ParallelPlan(std::size_t p, std::size_t n,
                           const ParallelOptions& opts)
    : p_(p), n_(n), n_loc_(p == 0 ? 0 : n / p),
      bsz_(p == 0 ? 0 : n / p / p), protect_(opts.protect),
      max_errors_(opts.protect
                      ? checksum::clamp_max_errors(opts.max_correctable_errors)
                      : 1) {
  plan_builds.fetch_add(1, std::memory_order_relaxed);
  detail::require(p >= 2, "parallel plan: need at least 2 ranks");
  detail::require(p % 3 != 0,
                  "parallel plan: rank count divisible by 3 degenerates the "
                  "checksum encoding");
  detail::require(n % (p * p) == 0, "parallel plan: N must be divisible by p^2");

  if (protect_) {
    cp_ = checksum::shared_input_checksum_vector(
        p_, checksum::RaGenMethod::kClosedForm);
    fft2_opts_ = abft::Options::online_opt(opts.memory_ft);
    fft2_opts_.max_correctable_errors = max_errors_;
    fft2_ = abft::resolve_protection_plan(n_loc_, fft2_opts_, /*inplace=*/true);
    eta_fft1_coeff_ = roundoff::practical_eta_coeff(p_);
    eta_block_coeff_ =
        roundoff::practical_eta_memory_coeff(bsz_ == 0 ? 1 : bsz_);
    if (max_errors_ > 1 && bsz_ > 0) {
      sn_block_ = checksum::shared_syndrome_nodes(bsz_);
    }
  }

  // Touch every sub-FFT plan tree the run will execute, so rank threads /
  // engine workers never race through a cold plan build: FFT1's p-point
  // engine, then FFT2's. The window schedule runs on the whole n_loc engine
  // and recomputes on m- and k-point ones; k*r*k runs k- and r-point
  // sub-engines; unprotected FFT2 is the plain n_loc engine.
  fft::Fft warm_p(p_);
  const bool windowed = fft2_ != nullptr && fft2_->window_log2() != 0;
  if (fft2_ == nullptr || windowed) fft::Fft warm_loc(n_loc_);
  if (fft2_ != nullptr) {
    fft::Fft warm_inner(windowed ? fft2_->m() : fft2_->r());
    fft::Fft warm_k(fft2_->k());
  }
}

std::shared_ptr<const ParallelPlan> ParallelPlan::get(
    std::size_t p, std::size_t n, const ParallelOptions& opts) {
  const bool protect = opts.protect;
  const PlanKey key{
      p, n, protect, protect && opts.memory_ft,
      protect ? checksum::clamp_max_errors(opts.max_correctable_errors) : 1};
  return registry().get_or_build(key, [&] {
    return std::make_shared<const ParallelPlan>(p, n, opts);
  });
}

std::uint64_t ParallelPlan::build_count() noexcept {
  return plan_builds.load(std::memory_order_relaxed);
}

std::size_t ParallelPlan::cache_size() { return registry().size(); }

void ParallelPlan::drop_cache() { registry().clear(); }

std::shared_ptr<const ParallelPlan> warm_plans(std::size_t p, std::size_t n,
                                               bool protect,
                                               int max_correctable_errors) {
  ParallelOptions opts = protect ? ParallelOptions::opt_ft_fftw()
                                 : ParallelOptions::opt_fftw();
  if (max_correctable_errors > 0) {
    opts.max_correctable_errors = max_correctable_errors;
  }
  return ParallelPlan::get(p, n, opts);
}

}  // namespace ftfft::parallel
