#include "abft/protection_plan.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "abft/inplace.hpp"
#include "common/env.hpp"
#include "common/math_util.hpp"
#include "common/plan_registry.hpp"
#include "roundoff/model.hpp"

namespace ftfft::abft {
namespace {

// Staging block target in complex elements (~512 KiB): the online scheme's
// section-4.4 buffering stages strided sub-FFT inputs / intermediate columns
// through blocks of this footprint.
constexpr std::size_t kStageElems = 32768;

std::atomic<std::uint64_t> plan_builds{0};

struct PlanKey {
  std::size_t n;
  Scheme scheme;
  checksum::RaGenMethod ra_method;
  bool contiguous_buffering;
  int max_errors;
  unsigned window_log2;
  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& key) const noexcept {
    std::size_t h = key.n;
    h = h * 31 + static_cast<std::size_t>(key.scheme);
    h = h * 31 + static_cast<std::size_t>(key.ra_method);
    h = h * 31 + static_cast<std::size_t>(key.contiguous_buffering);
    h = h * 31 + static_cast<std::size_t>(key.max_errors);
    h = h * 31 + key.window_log2;
    return h;
  }
};

std::uint64_t seal_protection_plan(const ProtectionPlan& plan) {
  StateSpans spans;
  plan.collect_state(spans);
  return seal_spans(spans);
}

PlanRegistry<PlanKey, ProtectionPlan, PlanKeyHash>& registry() {
  static PlanRegistry<PlanKey, ProtectionPlan, PlanKeyHash> instance(
      plan_cache_capacity(), seal_protection_plan);
  return instance;
}

// Enroll in plan_cache_stats() / scrub_plan_caches() before main. The
// lambdas are lazy on purpose: the registry (and its FTFFT_PLAN_CACHE_CAP /
// FTFFT_PLAN_VERIFY reads) is only materialized at first use or first stats
// call, never during static initialization.
const bool registry_registered =
    (ftfft::detail::register_plan_cache(ftfft::detail::PlanCacheHooks{
         [] { return registry().snapshot("protection-plan"); },
         [] { return registry().scrub(); },
         [](std::size_t k) { registry().set_verify_interval(k); }}),
     true);

EtaCoeffs eta_coeffs(std::size_t n) {
  return {roundoff::practical_eta_coeff(n),
          roundoff::practical_eta_memory_coeff(n)};
}

// Layer-1 tile width of the in-place scheme: columns gathered per tile, so
// each row contributes one contiguous run. 16 columns are four cache lines
// per row; wider tiles measured no faster at 2^22 and slower on
// cache-resident 2^14 lanes (4 cores, g++ 12.2, AVX2). Past k = 2048 the
// width shrinks to keep one staging buffer within kStageElems.
std::size_t inplace_tile_columns(std::size_t k, std::size_t blk) {
  return std::clamp<std::size_t>(kStageElems / k, std::min<std::size_t>(4, blk),
                                 std::min<std::size_t>(16, blk));
}

// Fused execution (forward_fused) needs the in-place schedule and wants a
// final stage of len >= 8 to fuse the output dot into; smaller or
// non-power-of-two sub-sizes keep the separate-pass path.
bool fused_eligible(std::size_t n) { return n >= 8 && is_pow2(n); }

// Window schedule of the out-of-place online scheme (abft/online.cpp): the
// first layer is one cache window of the engine, m = 2^w with w of the
// parity of log2(n) so the windows end on a radix-4 stage boundary, and the
// second layer is the engine's tail of k = n / m points. Measured on 4
// cores, g++ 12.2, AVX2 (FtPlan::forward medians of 15-21 calls against the
// staged path, paired in one process):
//  * k = 2^8 makes the tail exactly two radix-16 passes, as many as the
//    plain engine makes at 2^20..2^22. k = 2^4, 2^6, 2^8 and 2^10 measured
//    within noise of each other at 2^17..2^20, and k = 2^8 fastest at
//    2^15/2^16; larger k also widens eta_k (ROADMAP lists eta per split).
//  * m stops at 2^14 (256 KiB) so that the window and the four column
//    arrays the epilogue updates (CCG, duals, energies; 1 MiB) fit a 2 MiB
//    L2; larger windows were not measured. Above 2^22 the split keeps m at
//    2^13/2^14 and lets k grow instead.
//  * The schedule starts at 2^14. On ftbench serve_mixed (2^10/2^12/2^14
//    lanes and 2^14 r2c, whose packed half-size transform is 2^13; 8
//    rounds of 10 s, each rotating four builds), starting it at 2^14
//    instead of 2^15 gave throughput +20% (7/8 rounds), protected p50
//    -18% and latency p50 -13%, with high-priority latency p50 within
//    noise (+1.8%, 3/8 better). Starting at 2^13 or 2^12 added +26% /
//    +28% throughput but made the high-priority latency p50 worse (+7%,
//    1/8 better; +12%, 0/8 better), so the sizes below 2^14 keep the
//    staged split. m = 2^6 at 2^14 keeps margin_m/margin_k <= 0.12 / 0.23
//    over 24 seeds each of uniform, gaussian and tones inputs.
//  * m = 2^9 is skipped: it is the one sub-size at which today's practical
//    eta leaves a fault-free run less than a 2x margin (worst residual/eta
//    0.87 over 24 gaussian seeds at 2^17, against <= 0.41 for every other
//    split in use), so 2^17 takes m = 2^11, k = 2^6.
constexpr unsigned kWindowMinLog2 = 14;
constexpr unsigned kWindowTailLog2 = 8;
constexpr unsigned kWindowMaxLog2 = 14;
constexpr unsigned kWindowSkipLog2 = 9;

// log2(m) of the window schedule for size n, or 0 for the staged split.
unsigned window_split_log2(std::size_t n) {
  if (!is_pow2(n)) return 0;
  const unsigned log2n = log2_floor(n);
  if (log2n < kWindowMinLog2) return 0;
  unsigned w = log2n - kWindowTailLog2;
  if (w == kWindowSkipLog2) w += 2;
  if (w > kWindowMaxLog2) w = kWindowMaxLog2 - ((log2n ^ kWindowMaxLog2) & 1u);
  return w;
}

// The split of a kOnline plan: the window schedule only for option sets it
// covers, so every other set keeps the balanced split at every size.
unsigned online_window_log2(std::size_t n, const Options& opts) {
  return window_schedule_covers(opts) ? window_split_log2(n) : 0;
}

}  // namespace

bool window_schedule_covers(const Options& opts) noexcept {
  return opts.memory_ft && opts.combined_checksums && opts.postpone_mcv &&
         opts.incremental_mcg && opts.contiguous_buffering &&
         !opts.backup_in_input;
}

bool fused_profitable(std::size_t n) noexcept {
  // Inside the schemes every sub-FFT input was just staged (gathered rows,
  // DMR-multiplied columns), so the separate checksum sweep the fusion
  // would remove is a cache-resident re-read, not a DRAM pass. Since
  // fft::Fft runs every power-of-two n > 16 on the same in-place engine,
  // the separate path is "weighted_sum_energy + forward_copy +
  // omega3_weighted_sum" against one forward_fused. Measured per sub-FFT
  // (4 cores, g++ 12.2, AVX2, hot buffers, min of 31 interleaved rounds,
  // two runs): fused wins -9..-11% at 32, -5..-9% at 64/128, -9..0% at
  // 256, -4..-5% at 512, -6..-7% at 1024, -5% at 2048 and -8..+2% at 4096.
  // It loses only at 8 and 16 (+30..+44%), where the separate path runs an
  // unrolled codelet instead of the engine. Whole transforms agree
  // (bench_micro_fft, medians of 7, CV 2-12%): OnlineComp -> Fused at
  // 64x64 / 128x128 / 256x256 is 148 -> 130 us, 746 -> 642 us and 2.69 ->
  // 2.31 ms; OnlineMem -> Fused 199 -> 186 us, 720 -> 773 us (within its
  // 11% CV) and 4.00 -> 3.91 ms. The whole-transform offline
  // scheme is NOT gated: its input comes in cold and its interesting sizes
  // live in the streaming tail regime where the in-kernel output dot saves
  // a real DRAM sweep.
  return n > 16;
}

ProtectionPlan::ProtectionPlan(std::size_t n, Scheme scheme,
                               const Options& opts)
    : n_(n),
      scheme_(scheme),
      max_errors_(checksum::clamp_max_errors(opts.max_correctable_errors)) {
  plan_builds.fetch_add(1, std::memory_order_relaxed);
  switch (scheme) {
    case Scheme::kOffline: {
      wm_ = checksum::shared_input_checksum_vector(n, opts.ra_method);
      eta_m_ = eta_coeffs(n);
      eta_whole_ = eta_m_;
      if (fused_eligible(n)) {
        fused_m_ = fft::InplaceRadix2Plan::get(n);
        w3m_ = checksum::shared_comp_weights(n);
      }
      if (max_errors_ > 1) sn_m_ = checksum::shared_syndrome_nodes(n);
      break;
    }
    case Scheme::kOnline: {
      window_log2_ = online_window_log2(n, opts);
      const auto split = window_log2_ != 0
                             ? std::pair{std::size_t{1} << window_log2_,
                                         n >> window_log2_}
                             : balanced_split(n);
      m_ = split.first;
      k_ = split.second;
      wm_ = checksum::shared_input_checksum_vector(m_, opts.ra_method);
      wk_ = checksum::shared_input_checksum_vector(k_, opts.ra_method);
      eta_m_ = eta_coeffs(m_);
      eta_k_ = eta_coeffs(k_);
      if (fused_eligible(m_)) {
        fused_m_ = fft::InplaceRadix2Plan::get(m_);
        w3m_ = checksum::shared_comp_weights(m_);
      }
      if (fused_eligible(k_)) {
        fused_k_ = fft::InplaceRadix2Plan::get(k_);
        w3k_ = checksum::shared_comp_weights(k_);
      }
      if (opts.contiguous_buffering) {
        layer1_batch_ = std::clamp<std::size_t>(
            kStageElems / m_, std::min<std::size_t>(4, k_), k_);
        layer2_cols_ = std::clamp<std::size_t>(
            kStageElems / std::max<std::size_t>(k_, 1), 1, m_);
      }
      if (max_errors_ > 1) {
        sn_m_ = checksum::shared_syndrome_nodes(m_);
        sn_k_ = checksum::shared_syndrome_nodes(k_);
      }
      break;
    }
    case Scheme::kOnlineInplace: {
      const InplaceShape shape = inplace_shape(n);
      k_ = shape.k;
      r_ = shape.r;
      blk_ = r_ * k_;
      wk_ = checksum::shared_input_checksum_vector(k_, opts.ra_method);
      eta_k_ = eta_coeffs(k_);
      eta_block_ = eta_coeffs(blk_);
      eta_whole_ = eta_coeffs(n);
      layer1_batch_ = inplace_tile_columns(k_, blk_);
      if (fused_eligible(k_)) {
        fused_k_ = fft::InplaceRadix2Plan::get(k_);
        w3k_ = checksum::shared_comp_weights(k_);
      }
      if (max_errors_ > 1) {
        sn_m_ = checksum::shared_syndrome_nodes(blk_);
        sn_k_ = checksum::shared_syndrome_nodes(k_);
      }
      break;
    }
  }
}

std::shared_ptr<const ProtectionPlan> ProtectionPlan::get(std::size_t n,
                                                          Scheme scheme,
                                                          const Options& opts) {
  // The staging layout and the split only shape kOnline plans; normalize
  // the irrelevant combinations out of the key so option sweeps don't
  // dilute the LRU with identical entries. The key holds the split itself,
  // so option sets that resolve the same split share the entry.
  const bool buffered = scheme == Scheme::kOnline && opts.contiguous_buffering;
  const PlanKey key{n,
                    scheme,
                    opts.ra_method,
                    buffered,
                    checksum::clamp_max_errors(opts.max_correctable_errors),
                    scheme == Scheme::kOnline ? online_window_log2(n, opts)
                                              : 0u};
  return registry().get_or_build(key, [&] {
    return std::make_shared<const ProtectionPlan>(n, scheme, opts);
  });
}

std::uint64_t ProtectionPlan::build_count() noexcept {
  return plan_builds.load(std::memory_order_relaxed);
}

std::size_t ProtectionPlan::cache_size() { return registry().size(); }

std::size_t ProtectionPlan::cache_capacity() {
  return registry().capacity();
}

void ProtectionPlan::set_cache_capacity(std::size_t capacity) {
  registry().set_capacity(capacity);
}

void ProtectionPlan::drop_cache() { registry().clear(); }

std::shared_ptr<const ProtectionPlan> resolve_protection_plan(
    std::size_t n, const Options& opts, bool inplace) {
  switch (opts.mode) {
    case Mode::kNone:
      return nullptr;
    case Mode::kOffline:
      return ProtectionPlan::get(n, Scheme::kOffline, opts);
    case Mode::kOnline:
      // The window schedule runs in place too: a covered in-place call
      // shares the out-of-place kOnline plan.
      return ProtectionPlan::get(
          n,
          inplace && online_window_log2(n, opts) == 0 ? Scheme::kOnlineInplace
                                                      : Scheme::kOnline,
          opts);
  }
  return nullptr;  // unreachable; keeps GCC's -Wreturn-type quiet
}

namespace detail {

bool inject_plan_state(std::size_t n, const Options& opts, bool inplace) {
  if (opts.injector == nullptr ||
      !opts.injector->pending(fault::Phase::kPlanState)) {
    return false;
  }
  const auto plan = resolve_protection_plan(n, opts, inplace);
  if (!plan) return false;
  StateSpans s;
  plan->collect_state(s);
  // The window schedule runs on the shared engine plan of size n, which the
  // protection plan does not hold (its own registry seals it): its spans
  // follow the plan's, so campaigns can reach the stage twiddles too.
  std::shared_ptr<const fft::InplaceRadix2Plan> engine;
  if (plan->window_log2() != 0) {
    engine = fft::InplaceRadix2Plan::get(n);
    engine->collect_state(s);
  }
  std::size_t fired = 0;
  for (std::size_t i = 0; i < s.spans.size(); ++i) {
    // The spans are immutable by contract; the const_cast models a hardware
    // upset in long-lived plan memory, which is exactly what the registry
    // seals exist to catch. A span is viewed as cplx elements (16-byte
    // granules) so FaultSpec addressing works unchanged; spans smaller than
    // one granule (none today) are skipped.
    const std::size_t len = s.spans[i].bytes / sizeof(cplx);
    auto* data = static_cast<cplx*>(const_cast<void*>(s.spans[i].data));
    fired += opts.injector->apply(fault::Phase::kPlanState, i, data, len);
  }
  return fired > 0;
}

}  // namespace detail

}  // namespace ftfft::abft
