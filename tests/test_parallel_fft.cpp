#include "parallel/parallel_fft.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dft/reference_dft.hpp"
#include "engine/batch_engine.hpp"
#include "fft/fft.hpp"

namespace ftfft {
namespace {

using parallel::NetworkModel;
using parallel::ParallelOptions;
using parallel::ParallelReport;

TEST(NetworkModel, CostIsAffine) {
  NetworkModel net{1e-6, 1e9};
  EXPECT_DOUBLE_EQ(net.cost(0), 1e-6);
  EXPECT_DOUBLE_EQ(net.cost(1000000000), 1.0 + 1e-6);
  EXPECT_GT(net.cost(2048), net.cost(1024));
}

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

class ParallelVariant : public ::testing::TestWithParam<int> {
 protected:
  static ParallelOptions variant(int id) {
    switch (id) {
      case 0:
        return ParallelOptions::fftw();
      case 1:
        return ParallelOptions::ft_fftw();
      case 2:
        return ParallelOptions::opt_fftw();
      default:
        return ParallelOptions::opt_ft_fftw();
    }
  }
};

TEST_P(ParallelVariant, MatchesSequentialAcrossShapes) {
  for (const auto& [p, n] : std::vector<std::pair<std::size_t, std::size_t>>{
           {2, 64}, {4, 256}, {4, 1024}, {8, 1024}, {8, 4096}, {16, 4096}}) {
    auto x = random_vector(n, InputDistribution::kUniform, 900 + n + p);
    ParallelReport report;
    const auto got = parallel::parallel_fft(p, x, variant(GetParam()), &report);
    expect_matches_sequential(x, got);
    EXPECT_GT(report.makespan, 0.0) << "p=" << p << " n=" << n;
    EXPECT_EQ(report.stats.comp_errors_detected, 0u);
    EXPECT_EQ(report.stats.mem_errors_detected, 0u);
    EXPECT_EQ(report.comm_stats.comm_errors_detected, 0u);
  }
}

TEST_P(ParallelVariant, BitIdenticalAcrossEngineWidths) {
  // The spectrum must not depend on how many workers the rank tasks are
  // sharded across: a one-worker engine, which runs every rank task in
  // sequence, is the oracle for two and four workers.
  const ParallelOptions opts = variant(GetParam());
  for (const auto& [p, n] : std::vector<std::pair<std::size_t, std::size_t>>{
           {4, 1024}, {8, 4096}}) {
    auto x = random_vector(n, InputDistribution::kUniform, 500 + n + p);
    engine::BatchEngine serial(1);
    const auto want = parallel::submit_parallel(p, x, opts, {}, &serial).get();
    expect_matches_sequential(x, want);
    for (std::size_t threads : {2u, 4u}) {
      engine::BatchEngine eng(threads);
      const auto got = parallel::submit_parallel(p, x, opts, {}, &eng).get();
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(cplx)), 0)
          << "p=" << p << " n=" << n << " threads=" << threads;
    }
  }
}

std::string variant_name(const ::testing::TestParamInfo<int>& pi) {
  static const char* const kNames[] = {"fftw", "ft_fftw", "opt_fftw",
                                       "opt_ft_fftw"};
  return kNames[pi.param];
}

INSTANTIATE_TEST_SUITE_P(AllVariants, ParallelVariant, ::testing::Range(0, 4),
                         variant_name);

TEST(ParallelFft, OddPowerLocalSizesWork) {
  // n_loc = 512 = 2^9 exercises the r = 2 middle layer inside FFT2.
  const std::size_t p = 4, n = 2048;
  auto x = random_vector(n, InputDistribution::kNormal, 31);
  const auto got =
      parallel::parallel_fft(p, x, ParallelOptions::opt_ft_fftw());
  expect_matches_sequential(x, got);
}

TEST(ParallelFft, Fft1ComputationalFaultCorrected) {
  const std::size_t p = 4, n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 33);
  ParallelReport report;
  const auto got = parallel::parallel_fft(
      p, x, ParallelOptions::opt_ft_fftw(), &report,
      [](std::size_t rank, fault::Injector& inj) {
        if (rank == 1) {
          inj.schedule(fault::FaultSpec::computational(
              fault::Phase::kRankFft1Output, 3, 2, {7.0, -2.0}));
        }
      });
  expect_matches_sequential(x, got);
  EXPECT_EQ(report.stats.comp_errors_detected, 1u);
  EXPECT_EQ(report.stats.sub_fft_retries, 1u);
}

TEST(ParallelFft, Fft2FaultsCorrectedInsideInplaceScheme) {
  const std::size_t p = 4, n = 4096;  // n_loc = 1024
  auto x = random_vector(n, InputDistribution::kUniform, 35);
  ParallelReport report;
  const auto got = parallel::parallel_fft(
      p, x, ParallelOptions::opt_ft_fftw(), &report,
      [](std::size_t rank, fault::Injector& inj) {
        if (rank == 2) {
          inj.schedule(fault::FaultSpec::computational(
              fault::Phase::kMFftOutput, 5, 1, {4.0, 4.0}));
        }
        if (rank == 3) {
          inj.schedule(fault::FaultSpec::computational(
              fault::Phase::kKFftOutput, 7, 2, {-3.0, 1.0}));
        }
      });
  expect_matches_sequential(x, got);
  EXPECT_EQ(report.stats.comp_errors_detected, 2u);
}

TEST(ParallelFft, CommunicationFaultCorrected) {
  const std::size_t p = 4, n = 1024;
  auto x = random_vector(n, InputDistribution::kNormal, 37);
  ParallelReport report;
  const auto got = parallel::parallel_fft(
      p, x, ParallelOptions::opt_ft_fftw(), &report,
      [](std::size_t rank, fault::Injector& inj) {
        if (rank == 0) {
          inj.schedule(fault::FaultSpec::computational(
              fault::Phase::kCommBlock, 2, 9, {11.0, 3.0}));
        }
      });
  expect_matches_sequential(x, got);
  EXPECT_EQ(report.comm_stats.comm_errors_corrected, 1u);
}

TEST(ParallelFft, FinalOutputMemoryFaultCorrected) {
  const std::size_t p = 4, n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 39);
  ParallelReport report;
  const auto got = parallel::parallel_fft(
      p, x, ParallelOptions::opt_ft_fftw(), &report,
      [](std::size_t rank, fault::Injector& inj) {
        if (rank == 1) {
          inj.schedule(fault::FaultSpec::memory_set(
              fault::Phase::kFinalOutput, 0, 100, {42.0, -42.0}));
        }
      });
  expect_matches_sequential(x, got);
  EXPECT_EQ(report.stats.mem_errors_corrected, 1u);
}

TEST(ParallelFft, TheTable2Scenario2m2c) {
  // Two memory faults + two computational faults on distinct units/ranks:
  // all corrected, result exact.
  const std::size_t p = 8, n = 4096;
  auto x = random_vector(n, InputDistribution::kUniform, 41);
  ParallelReport report;
  const auto got = parallel::parallel_fft(
      p, x, ParallelOptions::opt_ft_fftw(), &report,
      [](std::size_t rank, fault::Injector& inj) {
        if (rank == 0) {
          inj.schedule(fault::FaultSpec::computational(
              fault::Phase::kRankFft1Output, 1, 1, {5.0, 5.0}));
        }
        if (rank == 3) {
          inj.schedule(fault::FaultSpec::computational(
              fault::Phase::kKFftOutput, 2, 3, {-6.0, 2.0}));
        }
        if (rank == 5) {
          inj.schedule(fault::FaultSpec::memory_set(
              fault::Phase::kCommBlock, 1, 7, {30.0, 0.0}));
        }
        if (rank == 6) {
          inj.schedule(fault::FaultSpec::memory_set(
              fault::Phase::kFinalOutput, 0, 11, {-19.0, 8.0}));
        }
      });
  expect_matches_sequential(x, got);
  EXPECT_GE(report.stats.comp_errors_detected +
                report.stats.mem_errors_corrected +
                report.comm_stats.comm_errors_corrected,
            4u);
}

TEST(ParallelFft, OverlapNeverSlowerThanBlocking) {
  // Algorithm 3 hides the block-pull work under the transfer, so the
  // overlapped variants charge strictly less communication than their
  // blocking twins and never take longer. Makespans add measured thread-CPU
  // time, which the host moves both ways: most runs are inflated by
  // co-running load, and a few run well below the rest (a burst of host
  // speed can cut FFT2's CPU time by a third for one run). A best-of-N
  // picks such a lone fast run for one variant and not the other, so the
  // pair runs interleaved (alternating which goes first) on a one-worker
  // engine, where no rank task shares the host with another, and the
  // median of 25 runs of each is compared.
  const std::size_t p = 8, n = 1 << 14;
  auto x = random_vector(n, InputDistribution::kUniform, 43);
  engine::BatchEngine eng(1);
  const auto median_pair = [&](const ParallelOptions& blocking,
                               const ParallelOptions& overlapped) {
    constexpr int kRuns = 25;
    const auto run = [&](const ParallelOptions& opts, ParallelReport* rep) {
      (void)parallel::submit_parallel(p, x, opts, {}, &eng).get(rep);
    };
    std::vector<ParallelReport> b(kRuns), o(kRuns);
    run(blocking, nullptr);
    run(overlapped, nullptr);
    for (int rep = 0; rep < kRuns; ++rep) {
      if (rep % 2 == 0) {
        run(blocking, &b[rep]);
        run(overlapped, &o[rep]);
      } else {
        run(overlapped, &o[rep]);
        run(blocking, &b[rep]);
      }
    }
    const auto median = [](std::vector<ParallelReport>& runs) {
      auto mid = runs.begin() + runs.size() / 2;
      std::nth_element(runs.begin(), mid, runs.end(),
                       [](const ParallelReport& l, const ParallelReport& r) {
                         return l.makespan < r.makespan;
                       });
      return *mid;
    };
    return std::pair{median(b), median(o)};
  };
  const auto [ft, opt_ft] =
      median_pair(ParallelOptions::ft_fftw(), ParallelOptions::opt_ft_fftw());
  EXPECT_LT(opt_ft.max_comm, ft.max_comm);
  EXPECT_LT(opt_ft.makespan, ft.makespan * 1.05);
  const auto [plain, opt_plain] =
      median_pair(ParallelOptions::fftw(), ParallelOptions::opt_fftw());
  EXPECT_LT(opt_plain.max_comm, plain.max_comm);
  EXPECT_LE(opt_plain.makespan, plain.makespan);
}

TEST(ParallelFft, ReportsCommunicationBytes) {
  // Three transposes, each sending (p-1) blocks of bsz values plus the
  // checksum trailer: the dual checksum (2 values) at t = 1, 2t syndrome
  // moments above. The modeled transfer is charged on the same wire size.
  const std::size_t p = 4, n = 1024;
  const std::size_t bsz = n / (p * p);
  auto x = random_vector(n, InputDistribution::kUniform, 45);
  for (const int t : {1, 2}) {
    SCOPED_TRACE(t);
    ParallelOptions opts = ParallelOptions::ft_fftw();
    opts.max_correctable_errors = t;
    ParallelReport report;
    parallel::parallel_fft(p, x, opts, &report);
    const std::size_t message = (bsz + 2 * t) * sizeof(cplx);
    EXPECT_EQ(report.bytes_per_rank, 3 * (p - 1) * message);
    EXPECT_DOUBLE_EQ(report.max_comm,
                     3.0 * static_cast<double>(p - 1) * opts.net.cost(message));
  }
}

TEST(ParallelFft, LinkCorruptionCorrectedOncePerRank) {
  // Modeled link corruption (every 5th received block per rank): each rank
  // receives 9 blocks across the three transposes, so exactly one fires per
  // rank, and all are repaired in place.
  const std::size_t p = 4, n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 49);
  ParallelOptions opts = ParallelOptions::opt_ft_fftw();
  opts.net.corrupt_every = 5;
  ParallelReport report;
  const auto got = parallel::parallel_fft(p, x, opts, &report);
  expect_matches_sequential(x, got);
  EXPECT_EQ(report.comm_stats.comm_errors_detected, p);
  EXPECT_EQ(report.comm_stats.comm_errors_corrected, p);
}

TEST(ParallelFft, LinkCorruptionSilentlyPoisonsUnprotectedVariant) {
  // The same link fault under the unprotected variants: nothing verifies
  // the message, so the corruption lands in the spectrum — the failure mode
  // the paper's checksummed communication exists to close.
  const std::size_t p = 4, n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 51);
  ParallelOptions opts = ParallelOptions::opt_fftw();
  opts.net.corrupt_every = 7;
  const auto got = parallel::parallel_fft(p, x, opts);
  const auto want = fft::fft(x);
  const double tol = 1e-9 * static_cast<double>(n);
  bool corrupted = false;
  for (std::size_t j = 0; j < n && !corrupted; ++j) {
    corrupted = std::abs(got[j] - want[j]) > tol;
  }
  EXPECT_TRUE(corrupted);
}

TEST(ParallelFft, RankFailurePropagatesWithoutRestartBudget) {
  const std::size_t p = 4, n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 53);
  ParallelOptions opts = ParallelOptions::opt_ft_fftw();
  opts.net.fail_rank = 2;
  opts.net.fail_phase = 2;
  opts.max_rank_restarts = 0;
  EXPECT_THROW(parallel::parallel_fft(p, x, opts), RankFailedError);
}

TEST(ParallelFft, StragglerRankSlowsSimulatedMakespan) {
  const std::size_t p = 4, n = 4096;
  auto x = random_vector(n, InputDistribution::kUniform, 55);
  ParallelReport clean, stalled;
  parallel::parallel_fft(p, x, ParallelOptions::ft_fftw(), &clean);
  ParallelOptions opts = ParallelOptions::ft_fftw();
  opts.net.stall_rank = 1;
  opts.net.stall_seconds = 1e-3;
  const auto got = parallel::parallel_fft(p, x, opts, &stalled);
  expect_matches_sequential(x, got);
  EXPECT_GT(stalled.makespan, clean.makespan + 1e-3);
}

TEST(ParallelFft, RejectsBadGeometry) {
  auto x = random_vector(96, InputDistribution::kUniform, 47);
  EXPECT_THROW(parallel::parallel_fft(3, x, ParallelOptions::fftw()),
               std::invalid_argument);  // p divisible by 3
  EXPECT_THROW(parallel::parallel_fft(8, x, ParallelOptions::fftw()),
               std::invalid_argument);  // 96 not divisible by 64
}

}  // namespace
}  // namespace ftfft
