// Engine-sharded parallel FFT: async API, plan caching, and fault campaigns
// over the modeled network (link corruption, stragglers, rank failure with
// restart recovery).
//
// Every campaign asserts exact deterministic counter values, so running
// this suite under FTFFT_SIMD=scalar / avx2 / neon (CI does) proves the
// detection/correction outcomes are identical across backends.
#include "parallel/parallel_fft.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "abft/protection_plan.hpp"
#include "checksum/weights.hpp"
#include "common/plan_registry.hpp"
#include "common/rng.hpp"
#include "engine/batch_engine.hpp"
#include "fft/fft.hpp"
#include "parallel/parallel_plan.hpp"

namespace ftfft {
namespace {

using parallel::ParallelOptions;
using parallel::ParallelReport;

void expect_matches_sequential(const std::vector<cplx>& x,
                               const std::vector<cplx>& got) {
  const auto want = fft::fft(x);
  const double tol = 1e-9 * static_cast<double>(x.size());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    ASSERT_NEAR(got[j].real(), want[j].real(), tol) << "j=" << j;
    ASSERT_NEAR(got[j].imag(), want[j].imag(), tol) << "j=" << j;
  }
}

// Wire size of one transpose message: bsz values plus the checksum trailer,
// 2t values for the error budget t the plan resolved from opts (the dual
// checksum at t = 1, the 2t syndrome moments above; FTFFT_MAX_ERRORS sets
// the default).
std::size_t message_bytes(std::size_t p, std::size_t n,
                          const ParallelOptions& opts) {
  const auto plan = parallel::ParallelPlan::get(p, n, opts);
  const auto t = static_cast<std::size_t>(plan->max_errors());
  return (n / (p * p) + 2 * t) * sizeof(cplx);
}

TEST(ShardedFuture, AsyncSubmitCompletesWithReport) {
  const std::size_t p = 4, n = 4096;
  const auto x = random_vector(n, InputDistribution::kUniform, 71);
  auto fut = parallel::submit_parallel(p, x, ParallelOptions::opt_ft_fftw());
  ASSERT_TRUE(fut.valid());
  fut.wait();
  EXPECT_TRUE(fut.ready());
  ParallelReport report;
  const auto got = fut.get(&report);
  EXPECT_FALSE(fut.valid()) << "get() is one-shot";
  expect_matches_sequential(x, got);
  EXPECT_EQ(report.rank_restarts, 0u);
  EXPECT_EQ(report.stats.comp_errors_detected, 0u);
  EXPECT_EQ(report.comm_stats.comm_errors_detected, 0u);
  // Three phases ran and were timed; comm/compute split is per phase.
  // Overlap hides up to the whole transfer under the block-pull work, so a
  // phase charges between nothing and its (p-1) unhidden messages.
  const std::size_t message =
      message_bytes(p, n, ParallelOptions::opt_ft_fftw());
  const double transfer =
      static_cast<double>(p - 1) * ParallelOptions{}.net.cost(message);
  for (int ph = 0; ph < 3; ++ph) {
    EXPECT_GT(report.phases[ph].wall_seconds, 0.0) << "phase " << ph;
    EXPECT_GT(report.phases[ph].max_cpu_seconds, 0.0) << "phase " << ph;
    EXPECT_GE(report.phases[ph].modeled_comm, 0.0) << "phase " << ph;
    EXPECT_LE(report.phases[ph].modeled_comm, transfer) << "phase " << ph;
  }
  EXPECT_EQ(report.bytes_per_rank, 3 * (p - 1) * message);
  EXPECT_THROW(parallel::ParallelFuture{}.wait(), std::invalid_argument);
}

TEST(ShardedFuture, RejectsBadGeometrySynchronously) {
  const auto x = random_vector(96, InputDistribution::kUniform, 72);
  EXPECT_THROW(parallel::submit_parallel(3, x, ParallelOptions::fftw()),
               std::invalid_argument);
  EXPECT_THROW(parallel::submit_parallel(8, x, ParallelOptions::fftw()),
               std::invalid_argument);
}

TEST(ShardedCampaign, OutcomesMatchReferencePathCounters) {
  // An armed campaign (FFT1 computational fault, in-flight block
  // corruption, final-output memory fault) must deliver the exact spectrum
  // with exactly these detection and correction counts. The values were
  // read from the thread-per-rank reference executor, which this one
  // replaced, on the same campaign; they are identical under every SIMD
  // backend and with fused checksums on or off.
  const std::size_t p = 4, n = 4096;
  const auto x = random_vector(n, InputDistribution::kUniform, 73);
  const auto arm = [](std::size_t rank, fault::Injector& inj) {
    if (rank == 1) {
      inj.schedule(fault::FaultSpec::computational(
          fault::Phase::kRankFft1Output, 3, 2, {7.0, -2.0}));
    }
    if (rank == 0) {
      inj.schedule(fault::FaultSpec::computational(fault::Phase::kCommBlock, 2,
                                                   9, {11.0, 3.0}));
    }
    if (rank == 2) {
      inj.schedule(fault::FaultSpec::memory_set(fault::Phase::kFinalOutput, 0,
                                                100, {42.0, -42.0}));
    }
  };
  ParallelReport report;
  const auto got =
      parallel::parallel_fft(p, x, ParallelOptions::opt_ft_fftw(), &report, arm);
  expect_matches_sequential(x, got);
  EXPECT_EQ(report.stats.comp_errors_detected, 1u);
  EXPECT_EQ(report.stats.sub_fft_retries, 1u);
  EXPECT_EQ(report.stats.mem_errors_detected, 1u);
  EXPECT_EQ(report.stats.mem_errors_corrected, 1u);
  EXPECT_EQ(report.stats.dmr_mismatches, 0u);
  EXPECT_EQ(report.stats.verifications, 1557u);
  EXPECT_EQ(report.comm_stats.comm_errors_detected, 1u);
  EXPECT_EQ(report.comm_stats.comm_errors_corrected, 1u);
  EXPECT_EQ(report.comm_stats.messages_received, 36u);
}

TEST(ShardedCampaign, Fft2FaultsCorrectedOnKrkSlices) {
  // FFT2 sub-FFT faults on slices below the window schedule (1024 points:
  // the k*r*k scheme): each recomputed, the exact spectrum delivered.
  const std::size_t p = 4, n = 4096;
  const auto x = random_vector(n, InputDistribution::kNormal, 74);
  ASSERT_EQ(parallel::ParallelPlan::get(p, n, ParallelOptions::opt_ft_fftw())
                ->fft2_plan()
                ->scheme(),
            abft::Scheme::kOnlineInplace);
  const auto arm = [](std::size_t rank, fault::Injector& inj) {
    if (rank == 2) {
      inj.schedule(fault::FaultSpec::computational(fault::Phase::kMFftOutput,
                                                   5, 1, {4.0, 4.0}));
    }
    if (rank == 3) {
      inj.schedule(fault::FaultSpec::computational(fault::Phase::kKFftOutput,
                                                   7, 2, {-3.0, 1.0}));
    }
  };
  ParallelReport report;
  const auto got = parallel::parallel_fft(p, x, ParallelOptions::opt_ft_fftw(),
                                          &report, arm);
  expect_matches_sequential(x, got);
  EXPECT_EQ(report.stats.comp_errors_detected, 2u);
  EXPECT_EQ(report.stats.sub_fft_retries, 2u);
  EXPECT_EQ(report.stats.mem_errors_detected, 0u);
}

TEST(ShardedCampaign, Fft2FaultsCorrectedOnWindowSlices) {
  // N = 2^18 on 4 ranks: 2^16-point slices, which FFT2 runs on the window
  // schedule. One fault per phase of it on rank 1, each in its own run:
  // detected, corrected, and the spectrum matches the sequential one.
  const std::size_t p = 4, n = std::size_t{1} << 18, n_loc = n / p;
  const auto plan =
      parallel::ParallelPlan::get(p, n, ParallelOptions::opt_ft_fftw());
  ASSERT_EQ(plan->fft2_plan()->scheme(), abft::Scheme::kOnline);
  ASSERT_NE(plan->fft2_plan()->window_log2(), 0u);
  const std::size_t m = plan->fft2_plan()->m(), k = plan->fft2_plan()->k();
  const auto x = random_vector(n, InputDistribution::kUniform, 79);
  using fault::FaultSpec;
  using fault::Phase;
  struct Case {
    const char* name;
    FaultSpec spec;
    bool first_layer;  // recomputes its window; the rest rerun the tail
  };
  const Case cases[] = {
      {"input", FaultSpec::memory_set(Phase::kInputAfterChecksum, 0,
                                      n_loc / 2 + 3, {30.0, -12.0}),
       false},
      {"m-fft output",
       FaultSpec::computational(Phase::kMFftOutput, k / 2, m / 3, {2.5, -1.0}),
       true},
      {"intermediate", FaultSpec::memory_set(Phase::kIntermediate, 0,
                                             (k / 2) * m + 5, {25.0, -8.0}),
       false},
      {"k-fft output",
       FaultSpec::computational(Phase::kKFftOutput, m - 1, k - 1, {-4.0, 0.5}),
       false},
      {"final output",
       FaultSpec::bit_flip(Phase::kFinalOutput, 0, 3 * m + 7, 58, false),
       false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ParallelReport report;
    const auto got = parallel::parallel_fft(
        p, x, ParallelOptions::opt_ft_fftw(), &report,
        [&](std::size_t rank, fault::Injector& inj) {
          if (rank == 1) inj.schedule(c.spec);
        });
    expect_matches_sequential(x, got);
    EXPECT_EQ(report.stats.comp_errors_detected, c.first_layer ? 1u : 0u);
    EXPECT_EQ(report.stats.mem_errors_detected, c.first_layer ? 0u : 1u);
    EXPECT_EQ(report.stats.mem_errors_corrected,
              report.stats.mem_errors_detected);
    EXPECT_EQ(report.comm_stats.comm_errors_detected, 0u);
  }
}

TEST(ShardedFaultFree, WindowSlicesAt2p22On16RanksOver32Seeds) {
  // N = 2^22 on 16 ranks: 2^18-point FFT2 slices on the window schedule.
  // Every fault-free run completes without a detection and with both
  // layers' residuals at most half their thresholds.
  const std::size_t p = 16, n = std::size_t{1} << 22;
  for (const auto dist :
       {InputDistribution::kUniform, InputDistribution::kNormal}) {
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
      SCOPED_TRACE("dist=" + std::to_string(static_cast<int>(dist)) +
                   " seed=" + std::to_string(seed));
      ParallelReport report;
      std::vector<cplx> got;
      ASSERT_NO_THROW(got = parallel::submit_parallel(
                                p, random_vector(n, dist, seed),
                                ParallelOptions::opt_ft_fftw())
                                .get(&report));
      ASSERT_EQ(got.size(), n);
      EXPECT_EQ(report.stats.comp_errors_detected +
                    report.stats.mem_errors_detected,
                0u);
      EXPECT_GT(report.stats.margin_m, 0.0);
      EXPECT_LE(report.stats.margin_m, 0.5);
      EXPECT_LE(report.stats.margin_k, 0.5);
    }
  }
}

TEST(ShardedCampaign, RankFailureRecoversWithinRestartBudget) {
  const std::size_t p = 4, n = 4096;
  const auto x = random_vector(n, InputDistribution::kUniform, 75);

  // Without a failover budget the node loss propagates, taxonomy intact.
  ParallelOptions failing = ParallelOptions::opt_ft_fftw();
  failing.net.fail_rank = 1;
  failing.net.fail_phase = 2;
  EXPECT_THROW(parallel::parallel_fft(p, x, failing), RankFailedError);

  // With one restart allowed, the transform completes exactly and the
  // report shows the absorbed failover; counters equal a clean run's.
  ParallelOptions recovering = failing;
  recovering.max_rank_restarts = 1;
  ParallelReport report;
  const auto got = parallel::parallel_fft(p, x, recovering, &report);
  expect_matches_sequential(x, got);
  EXPECT_EQ(report.rank_restarts, 1u);
  EXPECT_EQ(report.stats.comp_errors_detected, 0u);
  EXPECT_EQ(report.comm_stats.comm_errors_detected, 0u);
  // Accumulators were reset on restart: bytes reflect one clean pass.
  EXPECT_EQ(report.bytes_per_rank,
            3 * (p - 1) * message_bytes(p, n, recovering));
}

TEST(ShardedCampaign, RankFailurePlusTransientFaultStillExact) {
  // A transient FFT1 fault on one rank and a node loss on another, with a
  // restart budget: the restarted run recomputes from the (corrected-once)
  // input and still delivers the exact spectrum.
  const std::size_t p = 4, n = 1024;
  const auto x = random_vector(n, InputDistribution::kNormal, 76);
  ParallelOptions opts = ParallelOptions::opt_ft_fftw();
  opts.net.fail_rank = 2;
  opts.net.fail_phase = 1;
  opts.max_rank_restarts = 1;
  ParallelReport report;
  const auto got = parallel::parallel_fft(
      p, x, opts, &report, [](std::size_t rank, fault::Injector& inj) {
        if (rank == 0) {
          inj.schedule(fault::FaultSpec::computational(
              fault::Phase::kRankFft1Output, 1, 1, {5.0, 5.0}));
        }
      });
  expect_matches_sequential(x, got);
  EXPECT_EQ(report.rank_restarts, 1u);
}

TEST(ShardedCampaign, StragglerRankRaisesModeledComm) {
  const std::size_t p = 4, n = 4096;
  const auto x = random_vector(n, InputDistribution::kUniform, 77);
  ParallelReport clean, stalled;
  parallel::parallel_fft(p, x, ParallelOptions::opt_ft_fftw(), &clean);
  ParallelOptions opts = ParallelOptions::opt_ft_fftw();
  opts.net.stall_rank = 1;
  opts.net.stall_seconds = 1e-3;
  const auto got = parallel::parallel_fft(p, x, opts, &stalled);
  expect_matches_sequential(x, got);
  // Three phases x (p-1) stalled messages each.
  EXPECT_GE(stalled.max_comm,
            clean.max_comm + 3.0 * static_cast<double>(p - 1) * 1e-3 * 0.999);
}

std::uint64_t total_plan_misses() {
  std::uint64_t misses = 0;
  for (const auto& cache : plan_cache_stats()) misses += cache.misses;
  return misses;
}

TEST(ShardedPlan, WarmedSubmitDoesNoPlanOrRaWork) {
  // Unique geometries so no other test has warmed these entries: 2048-point
  // FFT2 slices (k*r*k) and 2^15-point ones (the window schedule).
  for (const auto& [p, n] : {std::pair<std::size_t, std::size_t>{8, 8 * 2048},
                             {4, std::size_t{1} << 17}}) {
    SCOPED_TRACE("p=" + std::to_string(p) + " n=" + std::to_string(n));
    parallel::warm_plans(p, n, /*protect=*/true);
    const auto builds_before = parallel::ParallelPlan::build_count();
    const auto ra_before = checksum::ra_generations();
    const auto misses_before = total_plan_misses();
    auto x = random_vector(n, InputDistribution::kUniform, 78);
    auto fut = parallel::submit_parallel(p, std::move(x),
                                         ParallelOptions::opt_ft_fftw());
    (void)fut.get();
    EXPECT_EQ(parallel::ParallelPlan::build_count(), builds_before)
        << "submit after warm_plans must not build plans";
    EXPECT_EQ(checksum::ra_generations(), ra_before)
        << "submit after warm_plans must not regenerate checksum weights";
    EXPECT_EQ(total_plan_misses(), misses_before)
        << "submit after warm_plans must not miss any plan cache";
  }
}

TEST(ShardedPlan, ComputationalOnlyFft2RunsKrkOnCoveredSlices) {
  // Without memory_ft the window schedule does not cover FFT2, so a 2^16
  // slice runs k*r*k: the plan must be resolved for the options FFT2 runs
  // with, not for the memory-fault-tolerant preset.
  const std::size_t p = 4, n = std::size_t{1} << 18;
  ParallelOptions opts = ParallelOptions::opt_ft_fftw();
  opts.memory_ft = false;
  EXPECT_EQ(parallel::ParallelPlan::get(p, n, opts)->fft2_plan()->scheme(),
            abft::Scheme::kOnlineInplace);
  const auto x = random_vector(n, InputDistribution::kUniform, 80);
  ParallelReport report;
  const auto got = parallel::parallel_fft(p, x, opts, &report);
  expect_matches_sequential(x, got);
  EXPECT_EQ(report.stats.comp_errors_detected, 0u);
}

TEST(ShardedPlan, RegisteredInPlanCacheStats) {
  parallel::warm_plans(4, 1024, true);
  bool found = false;
  for (const auto& cache : plan_cache_stats()) {
    if (std::string_view(cache.name) == "parallel-plan") {
      found = true;
      EXPECT_GE(cache.size, 1u);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace ftfft
