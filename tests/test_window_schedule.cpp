// Opt-Online on the window schedule of the shared power-of-two engine
// (abft/online.cpp, window_log2() != 0), out of place and in place: the
// engine's split entry points, the fault-free margins of the whole scheme
// on both entries, one fault per phase of the schedule on both entries,
// and which plan an in-place call resolves.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "abft/inplace.hpp"
#include "abft/online.hpp"
#include "abft/options.hpp"
#include "abft/protected_fft.hpp"
#include "abft/protection_plan.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/plan_registry.hpp"
#include "common/rng.hpp"
#include "common/seal.hpp"
#include "core/ftfft.hpp"
#include "dft/reference_dft.hpp"
#include "fault/injector.hpp"
#include "fft/bit_reversal.hpp"
#include "fft/fft.hpp"
#include "fft/inplace_radix2.hpp"
#include "parallel/parallel_plan.hpp"

namespace ftfft {
namespace {

using abft::Options;
using abft::Stats;
using fault::FaultSpec;
using fault::Injector;
using fault::Phase;

bool same_bytes(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

std::vector<cplx> engine_fft(const std::vector<cplx>& x) {
  std::vector<cplx> y(x.size());
  fft::Fft(x.size()).execute(x.data(), y.data());
  return y;
}

// Entries of the size-n engine's packed stage twiddles: one w1 and one w2
// run of 2^(t-1) values per fused radix-4 stage.
std::size_t engine_twiddle_count(std::size_t n) {
  std::size_t twiddles = 0;
  const unsigned log2n = log2_floor(n);
  for (unsigned t = (log2n & 1u) ? 2 : 1; t + 1 <= log2n; t += 2) {
    twiddles += 2 * (std::size_t{1} << (t - 1));
  }
  return twiddles;
}

// Index of the stage-twiddle span among the size-n engine's collect_state
// spans (whether the pair-swap table precedes it depends on the size).
std::size_t engine_twiddle_span(std::size_t n) {
  StateSpans spans;
  fft::InplaceRadix2Plan::get(n)->collect_state(spans);
  const std::size_t bytes = engine_twiddle_count(n) * sizeof(cplx);
  std::size_t i = 0;
  while (i < spans.spans.size() && spans.spans[i].bytes != bytes) ++i;
  EXPECT_LT(i, spans.spans.size()) << "no twiddle span at n=" << n;
  return i;
}

// ------------------------------------------------------- engine split

// Permutation + forward_window over every window + forward_tail_from is
// forward() bit for bit, for every admissible window at sizes on both sides
// of the COBRA threshold.
TEST(WindowEngine, SplitPassesEqualForward) {
  for (unsigned log2n : {5u, 8u, 11u, 12u, 15u, 16u}) {
    const std::size_t n = std::size_t{1} << log2n;
    const fft::InplaceRadix2Plan plan(n);
    const auto x = random_vector(n, InputDistribution::kNormal, 40 + log2n);
    auto want = x;
    plan.forward(want.data());
    for (unsigned w = 1; w < log2n; ++w) {
      SCOPED_TRACE("log2n=" + std::to_string(log2n) +
                   " w=" + std::to_string(w));
      ASSERT_EQ(plan.window_split_ok(w),
                w >= 2 && (w & 1u) == (log2n & 1u));
      if (!plan.window_split_ok(w)) continue;
      auto got = x;
      const bool fused = plan.cobra_enabled();
      if (fused) {
        plan.permute_cobra_fused_opener(got.data());
      } else {
        plan.permute_pairswap(got.data());
      }
      const std::size_t m = std::size_t{1} << w;
      for (std::size_t off = 0; off < n; off += m) {
        plan.forward_window(got.data() + off, w, /*include_opener=*/!fused);
      }
      plan.forward_tail_from(got.data(), w);
      ASSERT_TRUE(same_bytes(got, want));
    }
  }
}

// Window W holds the m-point DFT of slot bitrev(W)'s stride-k subsequence
// once its stages ran, whichever way the opener was applied.
TEST(WindowEngine, WindowIsTheSubsequenceDft) {
  const unsigned log2n = 14, w = 8;
  const std::size_t n = std::size_t{1} << log2n, m = std::size_t{1} << w;
  const std::size_t k = n / m;
  const fft::InplaceRadix2Plan plan(n);
  const auto x = random_vector(n, InputDistribution::kUniform, 17);
  auto perm = x;
  plan.permute_cobra_fused_opener(perm.data());
  for (const std::size_t win : {std::size_t{0}, std::size_t{5}, k - 1}) {
    const std::size_t i = fft::reverse_bits(win, log2n - w);
    std::vector<cplx> sub(m), gathered(m);
    for (std::size_t t = 0; t < m; ++t) {
      sub[t] = x[t * k + i];
      gathered[t] = x[fft::reverse_bits(t, w) * k + i];
    }
    const auto want = dft::reference_dft(sub);
    std::vector<cplx> a(perm.begin() + win * m, perm.begin() + (win + 1) * m);
    plan.forward_window(a.data(), w, /*include_opener=*/false);
    plan.forward_window(gathered.data(), w, /*include_opener=*/true);
    EXPECT_TRUE(same_bytes(a, gathered)) << "win=" << win;
    for (std::size_t c = 0; c < m; ++c) {
      ASSERT_NEAR(std::abs(a[c] - want[c]), 0.0, 1e-11) << "c=" << c;
    }
  }
}

// ------------------------------------------------ fault-free margins

// Test signal families: uniform and gaussian components, and a sum of
// three tones of random frequency and amplitude over faint noise.
enum class Family { kUniform, kGaussian, kTones };

std::vector<cplx> signal(std::size_t n, Family f, std::uint64_t seed) {
  if (f == Family::kUniform) {
    return random_vector(n, InputDistribution::kUniform, seed);
  }
  if (f == Family::kGaussian) {
    return random_vector(n, InputDistribution::kNormal, seed);
  }
  auto x = random_vector(n, InputDistribution::kUniform, seed);
  Rng rng(seed ^ 0x7f4a7c15ULL);
  std::vector<std::pair<std::size_t, double>> tones;
  for (int q = 0; q < 3; ++q) {
    tones.emplace_back(rng.below(n), rng.uniform(1.0, 10.0));
  }
  for (std::size_t t = 0; t < n; ++t) {
    x[t] *= 1e-3;
    for (const auto& [f0, a] : tones) {
      x[t] += a * omega(n, (n - (f0 * t) % n) % n);  // exp(+2 pi i f0 t / n)
    }
  }
  return x;
}

const char* family_name(Family f) {
  switch (f) {
    case Family::kUniform:
      return "uniform";
    case Family::kGaussian:
      return "gaussian";
    default:
      return "tones";
  }
}

// Every fault-free Opt-Online run must pass both layers with at least a 2x
// margin under today's thresholds, and on the window schedule reproduce
// the plain engine byte for byte. A failing seed is a finding, not noise:
// none is skipped.
void check_fault_free(std::size_t n, Family f, std::uint64_t seed) {
  SCOPED_TRACE(std::string("n=") + std::to_string(n) + " " + family_name(f) +
               " seed=" + std::to_string(seed));
  const auto x = signal(n, f, seed);
  auto in = x;
  std::vector<cplx> out(n);
  Stats stats;
  const Options opts = Options::online_opt(true);
  abft::online_transform(in.data(), out.data(), n, opts, stats);
  EXPECT_EQ(stats.comp_errors_detected + stats.mem_errors_detected, 0u);
  EXPECT_EQ(stats.sub_fft_retries, 0u);
  EXPECT_GT(stats.margin_m, 0.0);
  EXPECT_GT(stats.margin_k, 0.0);
  EXPECT_LE(stats.margin_m, 0.5);
  EXPECT_LE(stats.margin_k, 0.5);
  const auto plan =
      abft::ProtectionPlan::get(n, abft::Scheme::kOnline, opts);
  if (plan->window_log2() != 0) {
    EXPECT_TRUE(same_bytes(out, engine_fft(x)));
  }
}

TEST(OnlineFaultFree, MarginsAcrossSizesAndFamilies) {
  for (unsigned log2n = 10; log2n <= 21; ++log2n) {
    for (const Family f : {Family::kUniform, Family::kGaussian,
                           Family::kTones}) {
      check_fault_free(std::size_t{1} << log2n, f, 77 + log2n);
    }
  }
  // Two sizes that are not powers of two run the staged split.
  for (const std::size_t n : {std::size_t{20480}, std::size_t{81920}}) {
    for (const Family f : {Family::kUniform, Family::kGaussian,
                           Family::kTones}) {
      check_fault_free(n, f, 91);
    }
  }
}

TEST(OnlineFaultFree, MarginsAt2p22) {
  for (std::uint64_t s = 0; s < 3; ++s) {
    check_fault_free(std::size_t{1} << 22, Family::kUniform, 77 + s);
    check_fault_free(std::size_t{1} << 22, Family::kGaussian, 77 + s);
  }
  check_fault_free(std::size_t{1} << 22, Family::kTones, 77);
}

// 2^18 is where the staged split's eta_k ran out of margin on uniform and
// gaussian inputs (2 of 64 seeds each).
TEST(OnlineFaultFree, MarginsAt2p18Over64Seeds) {
  for (std::uint64_t s = 0; s < 64; ++s) {
    check_fault_free(std::size_t{1} << 18, Family::kUniform, 77 + s);
    check_fault_free(std::size_t{1} << 18, Family::kGaussian, 77 + s);
  }
}

// Only the option sets the window schedule covers resolve its split; the
// staged presets keep the balanced split (and its eta_m) at every size.
TEST(WindowSplit, StagedPresetsKeepTheBalancedSplit) {
  for (unsigned log2n = 10; log2n <= 22; ++log2n) {
    const std::size_t n = std::size_t{1} << log2n;
    for (const Options& o : {Options::online_opt(false),
                             Options::online_naive(true),
                             Options::online_naive(false)}) {
      ASSERT_FALSE(abft::window_schedule_covers(o));
      const auto plan = abft::ProtectionPlan::get(n, abft::Scheme::kOnline, o);
      EXPECT_EQ(plan->window_log2(), 0u) << "n=" << n;
      EXPECT_EQ(plan->m(), balanced_split(n).first) << "n=" << n;
    }
    Options in_input = Options::online_opt(true);
    in_input.backup_in_input = true;
    EXPECT_EQ(abft::ProtectionPlan::get(n, abft::Scheme::kOnline, in_input)
                  ->m(),
              balanced_split(n).first)
        << "n=" << n;
  }
}

// 2^14, the smallest size on the window schedule (m = 2^6, k = 2^8), is a
// serving size: check it as widely as 2^18.
TEST(OnlineFaultFree, MarginsAt2p14Over64Seeds) {
  for (std::uint64_t s = 0; s < 64; ++s) {
    check_fault_free(std::size_t{1} << 14, Family::kUniform, 77 + s);
    check_fault_free(std::size_t{1} << 14, Family::kGaussian, 77 + s);
  }
}

// ---------------------------------------- fault-free in-place margins

// The same bar for the in-place entry of the default preset, which runs
// the window schedule in place for every power of two from 2^14 on.
void check_inplace_fault_free(FtPlan& plan, Family f, std::uint64_t seed) {
  const std::size_t n = plan.size();
  SCOPED_TRACE(std::string("in place n=") + std::to_string(n) + " " +
               family_name(f) + " seed=" + std::to_string(seed));
  const auto x = signal(n, f, seed);
  auto data = x;
  plan.forward_inplace(data.data());
  const Stats& stats = plan.last_stats();
  EXPECT_EQ(stats.comp_errors_detected + stats.mem_errors_detected, 0u);
  EXPECT_EQ(stats.sub_fft_retries, 0u);
  EXPECT_GT(stats.margin_m, 0.0);
  EXPECT_GT(stats.margin_k, 0.0);
  EXPECT_LE(stats.margin_m, 0.5);
  EXPECT_LE(stats.margin_k, 0.5);
  EXPECT_TRUE(same_bytes(data, engine_fft(x)));
}

TEST(InplaceFaultFree, MarginsAcrossSizesAndFamilies) {
  for (unsigned log2n = 14; log2n <= 21; ++log2n) {
    FtPlan plan(std::size_t{1} << log2n);
    for (const Family f : {Family::kUniform, Family::kGaussian,
                           Family::kTones}) {
      check_inplace_fault_free(plan, f, 77 + log2n);
    }
  }
}

TEST(InplaceFaultFree, MarginsAt2p22) {
  FtPlan plan(std::size_t{1} << 22);
  for (const Family f : {Family::kUniform, Family::kGaussian,
                         Family::kTones}) {
    check_inplace_fault_free(plan, f, 77);
  }
}

// The k*r*k scheme runs 512-point units at 2^18 and 2^19 and threw
// "kept failing verification" on fault-free inputs among these seeds
// (gaussian 21, 26 and 31 at 2^18; uniform 30, gaussian 11 and 44 at 2^19).
TEST(InplaceFaultFree, MarginsAt2p18And2p19Over64Seeds) {
  for (const unsigned log2n : {18u, 19u}) {
    FtPlan plan(std::size_t{1} << log2n);
    for (std::uint64_t s = 0; s < 64; ++s) {
      check_inplace_fault_free(plan, Family::kUniform, s);
      check_inplace_fault_free(plan, Family::kGaussian, s);
    }
  }
}

// The k*r*k scheme keeps the in-place calls the window schedule does not
// cover (sizes below 2^14, other sizes, the other presets) and the sharded
// FFT2: check it directly on sizes of each kind.
TEST(InplaceFaultFree, KrkSchemeStillMatchesTheEngine) {
  for (const std::size_t n : {std::size_t{1} << 12, std::size_t{1} << 14,
                              std::size_t{1} << 16, std::size_t{20480}}) {
    for (const Family f : {Family::kUniform, Family::kGaussian,
                           Family::kTones}) {
      SCOPED_TRACE(std::string("k*r*k n=") + std::to_string(n) + " " +
                   family_name(f));
      const auto x = signal(n, f, 91);
      auto data = x;
      Stats stats;
      abft::inplace_online_transform(data.data(), n, Options::online_opt(true),
                                     stats);
      EXPECT_EQ(stats.comp_errors_detected + stats.mem_errors_detected, 0u);
      EXPECT_EQ(stats.sub_fft_retries, 0u);
      EXPECT_LE(stats.margin_m, 0.5);
      EXPECT_LE(stats.margin_k, 0.5);
      const auto want = engine_fft(x);
      const double tol = 1e-10 * static_cast<double>(n);
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_NEAR(std::abs(data[j] - want[j]), 0.0, tol) << "j=" << j;
      }
    }
  }
}

// ------------------------------------------------------------ plan routing

// The in-place entry resolves the window schedule's kOnline plan (the one
// forward() uses) exactly where the schedule covers the call, and the
// k*r*k plan everywhere else.
TEST(InplaceRouting, CoveredPowersOfTwoResolveTheWindowPlan) {
  const Options covered = Options::online_opt(true);
  Options in_input = covered;
  in_input.backup_in_input = true;
  for (unsigned log2n = 10; log2n <= 22; ++log2n) {
    const std::size_t n = std::size_t{1} << log2n;
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto plan = abft::resolve_protection_plan(n, covered, true);
    if (log2n >= 14) {
      EXPECT_EQ(plan->scheme(), abft::Scheme::kOnline);
      EXPECT_NE(plan->window_log2(), 0u);
      EXPECT_EQ(plan.get(),
                abft::resolve_protection_plan(n, covered, false).get());
    } else {
      EXPECT_EQ(plan->scheme(), abft::Scheme::kOnlineInplace);
    }
    for (const Options& o : {Options::online_opt(false),
                             Options::online_naive(true),
                             Options::online_naive(false), in_input}) {
      EXPECT_EQ(abft::resolve_protection_plan(n, o, true)->scheme(),
                abft::Scheme::kOnlineInplace);
    }
  }
  for (const std::size_t n : {std::size_t{20480}, std::size_t{81920}}) {
    EXPECT_EQ(abft::resolve_protection_plan(n, covered, true)->scheme(),
              abft::Scheme::kOnlineInplace)
        << "n=" << n;
  }
}

// The sharded FFT2 takes the routing of every in-place entry point: its
// plan is the one resolve_protection_plan returns for the options FFT2 runs
// with — the window schedule on covered slices (2^21 / 16 = 2^17), k*r*k
// below 2^14 (2^16 / 16 = 2^12) and without memory_ft — at every budget t.
TEST(InplaceRouting, ShardedFft2ResolvesTheInplacePlan) {
  struct Case {
    std::size_t n;
    bool memory_ft;
    int t;
    abft::Scheme scheme;
  };
  for (const Case& c :
       {Case{std::size_t{1} << 21, true, 1, abft::Scheme::kOnline},
        Case{std::size_t{1} << 21, true, 2, abft::Scheme::kOnline},
        Case{std::size_t{1} << 21, false, 1, abft::Scheme::kOnlineInplace},
        Case{std::size_t{1} << 16, true, 1, abft::Scheme::kOnlineInplace}}) {
    SCOPED_TRACE("n=" + std::to_string(c.n) +
                 " memory_ft=" + std::to_string(c.memory_ft) +
                 " t=" + std::to_string(c.t));
    parallel::ParallelOptions po = parallel::ParallelOptions::opt_ft_fftw();
    po.memory_ft = c.memory_ft;
    po.max_correctable_errors = c.t;
    const auto pp = parallel::ParallelPlan::get(16, c.n, po);
    const abft::Options& fo = pp->fft2_options();
    EXPECT_EQ(fo.memory_ft, c.memory_ft);
    EXPECT_EQ(fo.max_correctable_errors, c.t);
    const auto want = abft::resolve_protection_plan(c.n / 16, fo, true);
    ASSERT_NE(pp->fft2_plan(), nullptr);
    EXPECT_EQ(pp->fft2_plan(), want.get());
    EXPECT_EQ(pp->fft2_plan()->scheme(), c.scheme);
    EXPECT_EQ(pp->fft2_plan()->max_errors(), c.t);
    EXPECT_EQ(pp->fft2_plan()->window_log2() != 0,
              c.scheme == abft::Scheme::kOnline);
  }
}

std::uint64_t total_corruptions() {
  std::uint64_t c = 0;
  for (const auto& s : plan_cache_stats()) c += s.corruptions;
  return c;
}

// A kPlanState fault scheduled on a covered in-place call lands in the
// state that call reads: the spans of its kOnline plan, then the engine's.
// A flip of the engine's stage twiddles fires, and the verifying registry
// catches it when the window schedule acquires the engine, so the call
// delivers the clean spectrum. (The k*r*k plan has no span at that index.)
TEST(InplaceRouting, PlanStateFaultHitsTheSpansTheInplaceCallReads) {
  const std::size_t n = std::size_t{1} << 16;
  const Options opts = Options::online_opt(true);
  const auto plan = abft::resolve_protection_plan(n, opts, true);
  ASSERT_NE(plan->window_log2(), 0u);
  StateSpans spans;
  plan->collect_state(spans);
  const std::size_t twiddle_span = spans.spans.size() + engine_twiddle_span(n);
  const auto x = random_vector(n, InputDistribution::kUniform, 5150);
  const auto clean = engine_fft(x);

  set_plan_verify_interval(1);
  const std::uint64_t before = total_corruptions();
  Injector inj;
  inj.schedule(FaultSpec::bit_flip(Phase::kPlanState, twiddle_span, 0, 40,
                                   /*imag_part=*/false));
  Options o = opts;
  o.injector = &inj;
  auto data = x;
  Stats stats;
  abft::protected_transform_inplace(data.data(), n, o, stats);
  const std::uint64_t after = total_corruptions();
  set_plan_verify_interval(detail::default_plan_verify_interval());
  scrub_plan_caches();
  EXPECT_EQ(inj.fired_count(), 1u);
  EXPECT_GT(after, before);
  EXPECT_TRUE(same_bytes(data, clean));
}

// --------------------------------------------------- one fault per phase

// One size on one entry: protected_transform out of place, or
// protected_transform_inplace, which runs the same schedule with in == out.
struct Shape {
  std::size_t n;
  bool inplace;
};

// The out-of-place entry prints as its size alone.
void PrintTo(const Shape& s, std::ostream* os) {
  *os << s.n << (s.inplace ? " in place" : "");
}

class WindowSchedule : public ::testing::TestWithParam<Shape> {
 protected:
  void SetUp() override {
    n_ = GetParam().n;
    const auto plan = abft::ProtectionPlan::get(n_, abft::Scheme::kOnline,
                                                Options::online_opt(true));
    ASSERT_NE(plan->window_log2(), 0u) << "size runs the staged split";
    w_ = plan->window_log2();
    m_ = plan->m();
    k_ = plan->k();
    x_ = random_vector(n_, InputDistribution::kUniform, 1200 + n_);
    clean_ = engine_fft(x_);
  }

  // Runs the entry under test on a fresh copy of the input.
  void run_entry(const Options& o, std::vector<cplx>& y, Stats& stats) const {
    if (GetParam().inplace) {
      y = x_;
      abft::protected_transform_inplace(y.data(), n_, o, stats);
    } else {
      y.assign(n_, cplx{0.0, 0.0});
      auto in = x_;
      abft::protected_transform(in.data(), y.data(), n_, o, stats);
    }
  }

  // Runs Opt-Online with `inj` armed.
  Stats run_with(Injector& inj, std::vector<cplx>& y,
                 std::size_t expect_fired = 1,
                 Options o = Options::online_opt(true)) const {
    o.injector = &inj;
    Stats stats;
    run_entry(o, y, stats);
    EXPECT_EQ(inj.fired_count(), expect_fired);
    return stats;
  }

  void expect_close_to_clean(const std::vector<cplx>& y) const {
    const double tol = 1e-10 * static_cast<double>(n_);
    for (std::size_t j = 0; j < n_; ++j) {
      ASSERT_NEAR(std::abs(y[j] - clean_[j]), 0.0, tol) << "j=" << j;
    }
  }

  std::size_t slot_of_window(std::size_t win) const {
    return fft::reverse_bits(win, log2_floor(k_));
  }

  std::size_t n_ = 0, m_ = 0, k_ = 0;
  unsigned w_ = 0;
  std::vector<cplx> x_, clean_;
};

TEST_P(WindowSchedule, FirstLayerFaultRecomputesItsWindow) {
  // The first and last slot, and the slot whose window sits mid-array.
  for (const std::size_t i : {std::size_t{0}, k_ - 1, slot_of_window(k_ / 2)}) {
    Injector inj;
    inj.schedule(FaultSpec::computational(Phase::kMFftOutput, i, m_ / 3,
                                          {2.5, -1.0}));
    std::vector<cplx> y;
    const Stats stats = run_with(inj, y);
    EXPECT_TRUE(same_bytes(y, clean_)) << "slot " << i;
    EXPECT_EQ(stats.comp_errors_detected, 1u) << "slot " << i;
    EXPECT_EQ(stats.sub_fft_retries, 1u) << "slot " << i;
    EXPECT_EQ(stats.mem_errors_detected, 0u) << "slot " << i;
  }
}

TEST_P(WindowSchedule, InputMemoryFaultRepairedBeforeItsWindowReruns) {
  Injector inj;
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0,
                                     n_ / 2 + 3, {30.0, -12.0}));
  std::vector<cplx> y;
  const Stats stats = run_with(inj, y);
  expect_close_to_clean(y);
  EXPECT_EQ(stats.mem_errors_detected, 1u);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
  EXPECT_EQ(stats.comp_errors_detected, 0u);
}

// Two elements of one slot corrupted after the CMCG: the window check
// fails, and the slot's 2t = 4 syndrome moments decode both. In place, the
// slot is the window's stash, repaired in natural order.
TEST_P(WindowSchedule, InputBurstInOneSlotDecodedWithTwoErrorBudget) {
  const std::size_t i = slot_of_window(k_ / 2);
  Options o = Options::online_opt(true);
  o.max_correctable_errors = 2;
  Injector inj;
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0,
                                     3 * k_ + i, {30.0, -12.0}));
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0,
                                     (m_ / 2 + 1) * k_ + i, {-9.0, 21.0}));
  std::vector<cplx> y;
  const Stats stats = run_with(inj, y, 2, o);
  expect_close_to_clean(y);
  EXPECT_EQ(stats.mem_errors_detected, 1u);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
  EXPECT_EQ(stats.multi_errors_corrected, 2u);
  EXPECT_EQ(stats.comp_errors_detected, 0u);
}

TEST_P(WindowSchedule, SecondLayerFaultsRerunTheTailFromTheBackup) {
  const std::size_t col = m_ - 1;
  struct Case {
    const char* name;
    FaultSpec spec;
  };
  const Case cases[] = {
      {"intermediate", FaultSpec::memory_set(Phase::kIntermediate, 0,
                                             (k_ / 2) * m_ + col,
                                             {25.0, -8.0})},
      {"k-fft output",
       FaultSpec::computational(Phase::kKFftOutput, col, k_ - 1, {-4.0, 0.5})},
      {"final output",
       FaultSpec::bit_flip(Phase::kFinalOutput, 0, 3 * m_ + 7, 58, false)},
  };
  for (const Case& c : cases) {
    Injector inj;
    inj.schedule(c.spec);
    std::vector<cplx> y;
    const Stats stats = run_with(inj, y);
    // The backup is intact: the restored tail equals a clean run.
    EXPECT_TRUE(same_bytes(y, clean_)) << c.name;
    EXPECT_EQ(stats.mem_errors_detected, 1u) << c.name;
    EXPECT_EQ(stats.mem_errors_corrected, 1u) << c.name;
    EXPECT_EQ(stats.sub_fft_retries, 1u) << c.name;
    EXPECT_EQ(stats.comp_errors_detected, 0u) << c.name;
  }
}

TEST_P(WindowSchedule, CorruptBackupRepairedBeforeTheTailReruns) {
  // The backup row of window k/3 and the output row 5 of the same column.
  const std::size_t col = m_ / 2 + 1;
  Injector inj;
  inj.schedule(FaultSpec::memory_set(Phase::kIntermediate, 1,
                                     (k_ / 3) * m_ + col, {40.0, 10.0}));
  inj.schedule(FaultSpec::memory_set(Phase::kFinalOutput, 0, 5 * m_ + col,
                                     {-17.0, 3.0}));
  std::vector<cplx> y;
  const Stats stats = run_with(inj, y, 2);
  expect_close_to_clean(y);
  EXPECT_EQ(stats.mem_errors_detected, 2u);  // the column and the backup
  EXPECT_EQ(stats.mem_errors_corrected, 2u);
}

TEST_P(WindowSchedule, FlippedTailTwiddleIsNeverSilent) {
  // The last twiddle of the engine's packs belongs to its final stage, a
  // tail pass. The CCG weights do not read the packs, so the corrupted
  // tail fails the final check and the rerun from the backup fails again:
  // the transform reports it instead of returning a wrong spectrum. (With
  // verify-on-acquire enabled the registry may catch the flip first and
  // rebuild the plan; the result is then the clean spectrum.)
  const Options opts = Options::online_opt(true);
  const auto plan = abft::ProtectionPlan::get(n_, abft::Scheme::kOnline, opts);
  StateSpans spans;
  plan->collect_state(spans);
  // Engine spans follow the plan's.
  const std::size_t twiddle_span =
      spans.spans.size() + engine_twiddle_span(n_);
  const std::size_t twiddles = engine_twiddle_count(n_);

  const std::uint64_t corruptions_before = total_corruptions();
  Injector inj;
  inj.schedule(FaultSpec::bit_flip(Phase::kPlanState, twiddle_span,
                                   twiddles - 1, 45, /*imag_part=*/true));
  Options o = opts;
  o.injector = &inj;
  std::vector<cplx> y;
  Stats stats;
  bool threw = false;
  try {
    run_entry(o, y, stats);
  } catch (const UncorrectableError&) {
    threw = true;
  }
  EXPECT_EQ(inj.fired_count(), 1u);
  const std::uint64_t corruptions_after = total_corruptions();
  // Leave no poisoned plan behind for later tests.
  scrub_plan_caches();
  if (!threw) {
    EXPECT_GT(corruptions_after, corruptions_before) << "silent corruption";
    EXPECT_TRUE(same_bytes(y, clean_));
  } else {
    EXPECT_GE(stats.mem_errors_detected, 1u);
  }
  // The scrubbed cache serves a correct engine again.
  EXPECT_TRUE(same_bytes(engine_fft(x_), clean_));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WindowSchedule,
    ::testing::Values(Shape{std::size_t{1} << 14, false},
                      Shape{std::size_t{1} << 15, false},
                      Shape{std::size_t{1} << 16, false},
                      Shape{std::size_t{1} << 18, false},
                      Shape{std::size_t{1} << 14, true},
                      Shape{std::size_t{1} << 15, true},
                      Shape{std::size_t{1} << 16, true},
                      Shape{std::size_t{1} << 18, true}),
    [](const ::testing::TestParamInfo<Shape>& pi) {
      return "n" + std::to_string(pi.param.n) +
             (pi.param.inplace ? "_inplace" : "");
    });

}  // namespace
}  // namespace ftfft
