#include "abft/online.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "abft/options.hpp"
#include "abft/protection_plan.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dft/reference_dft.hpp"
#include "fault/injector.hpp"

namespace ftfft {
namespace {

using abft::Options;
using abft::Stats;
using fault::FaultSpec;
using fault::Injector;
using fault::Phase;

void expect_matches_reference(const std::vector<cplx>& x,
                              const std::vector<cplx>& got) {
  const auto want = dft::reference_dft(x);
  const double tol = 1e-10 * static_cast<double>(x.size());
  for (std::size_t j = 0; j < x.size(); ++j) {
    ASSERT_NEAR(got[j].real(), want[j].real(), tol) << "j=" << j;
    ASSERT_NEAR(got[j].imag(), want[j].imag(), tol) << "j=" << j;
  }
}

// Presets 0..3: comp-naive, comp-opt, mem-naive, mem-opt.
Options preset(int id) {
  switch (id) {
    case 0:
      return Options::online_naive(false);
    case 1:
      return Options::online_opt(false);
    case 2:
      return Options::online_naive(true);
    default:
      return Options::online_opt(true);
  }
}

class OnlinePreset : public ::testing::TestWithParam<int> {};

TEST_P(OnlinePreset, FaultFreeCorrectAcrossSizes) {
  for (std::size_t n : {16, 32, 64, 100, 250, 256, 1024, 2048}) {
    auto x = random_vector(n, InputDistribution::kUniform, 300 + n);
    const auto pristine = x;
    std::vector<cplx> out(n);
    Stats stats;
    abft::online_transform(x.data(), out.data(), n, preset(GetParam()),
                           stats);
    expect_matches_reference(pristine, out);
    EXPECT_EQ(stats.sub_fft_retries, 0u) << n;
    EXPECT_EQ(stats.comp_errors_detected, 0u) << n;
    EXPECT_EQ(stats.mem_errors_detected, 0u) << n;
    EXPECT_GT(stats.verifications, 0u) << n;
  }
}

TEST_P(OnlinePreset, ComputationalFaultInFirstLayerCorrected) {
  const std::size_t n = 1024;  // m = 32, k = 32
  auto x = random_vector(n, InputDistribution::kUniform, 31);
  Injector inj;
  inj.schedule(FaultSpec::computational(Phase::kMFftOutput, 7, 13, {2.5, 1.0}));
  Options opts = preset(GetParam());
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(x, out);
  EXPECT_EQ(stats.comp_errors_detected, 1u);
  EXPECT_EQ(stats.sub_fft_retries, 1u);
  EXPECT_EQ(inj.fired_count(), 1u);
}

TEST_P(OnlinePreset, ComputationalFaultInSecondLayerCorrected) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kNormal, 33);
  Injector inj;
  inj.schedule(
      FaultSpec::computational(Phase::kKFftOutput, 21, 5, {-4.0, 0.5}));
  Options opts = preset(GetParam());
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(x, out);
  EXPECT_EQ(stats.comp_errors_detected, 1u);
  EXPECT_EQ(stats.sub_fft_retries, 1u);
}

TEST_P(OnlinePreset, TwiddleDmrFaultVotedOut) {
  const std::size_t n = 256;
  auto x = random_vector(n, InputDistribution::kUniform, 35);
  Injector inj;
  inj.schedule(
      FaultSpec::computational(Phase::kTwiddleDmrCopy, 3, 9, {1.5, -2.0}));
  Options opts = preset(GetParam());
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(x, out);
  EXPECT_EQ(stats.dmr_mismatches, 1u);
  EXPECT_EQ(stats.comp_errors_detected, 0u);  // DMR fixed it before the CCV
}

std::string online_preset_name(const ::testing::TestParamInfo<int>& pi) {
  static const char* const kNames[] = {"comp_naive", "comp_opt", "mem_naive",
                                       "mem_opt"};
  return kNames[pi.param];
}

INSTANTIATE_TEST_SUITE_P(AllPresets, OnlinePreset, ::testing::Range(0, 4),
                         online_preset_name);

class OnlineMemoryPreset : public ::testing::TestWithParam<int> {};

TEST_P(OnlineMemoryPreset, InputMemoryFaultE1Corrected) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 41);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 517,
                                     {30.0, -12.0}));
  Options opts = preset(GetParam());
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(pristine, out);
  EXPECT_EQ(stats.mem_errors_detected, 1u);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
}

TEST_P(OnlineMemoryPreset, IntermediateMemoryFaultE2Corrected) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kNormal, 43);
  Injector inj;
  inj.schedule(
      FaultSpec::bit_flip(Phase::kIntermediate, 0, 700, 58, false));
  Options opts = preset(GetParam());
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(x, out);
  EXPECT_EQ(stats.mem_errors_detected, 1u);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
}

TEST_P(OnlineMemoryPreset, FinalOutputMemoryFaultE3Corrected) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 45);
  Injector inj;
  inj.schedule(
      FaultSpec::memory_set(Phase::kFinalOutput, 0, 99, {77.0, 0.0}));
  Options opts = preset(GetParam());
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(x, out);
  EXPECT_EQ(stats.mem_errors_detected, 1u);
}

TEST_P(OnlineMemoryPreset, CombinedFaultLoad1m2c) {
  // The Table 1 scenario: one memory fault plus two computational faults in
  // distinct protection units, all corrected online.
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 47);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 100,
                                     {15.0, 15.0}));
  inj.schedule(FaultSpec::computational(Phase::kMFftOutput, 3, 8, {5.0, 0.0}));
  inj.schedule(FaultSpec::computational(Phase::kKFftOutput, 17, 2, {0.0, 6.0}));
  Options opts = preset(GetParam());
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(pristine, out);
  EXPECT_EQ(inj.fired_count(), 3u);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
  EXPECT_EQ(stats.comp_errors_detected, 2u);
}

INSTANTIATE_TEST_SUITE_P(NaiveAndOpt, OnlineMemoryPreset,
                         ::testing::Values(2, 3),
                         [](const ::testing::TestParamInfo<int>& pi) {
                           return pi.param == 2 ? "naive" : "opt";
                         });

TEST(OnlineAbft, CompOnlySchemeSilentlyMissesInputMemoryFault) {
  // In the computational-only online scheme the per-sub-FFT checksum is
  // generated from the input at gather time; a memory fault that corrupts
  // the input beforehand is faithfully transformed and never detected.
  // This pins the paper's coverage boundary (section 3.1 vs 3.2).
  const std::size_t n = 256;
  auto x = random_vector(n, InputDistribution::kUniform, 51);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 40,
                                     {60.0, 0.0}));
  Options opts = Options::online_opt(false);
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  EXPECT_EQ(stats.mem_errors_detected, 0u);
  EXPECT_EQ(stats.comp_errors_detected, 0u);
  // The output is the (consistent) transform of the corrupted input.
  const auto want = dft::reference_dft(pristine);
  EXPECT_GT(inf_diff(out.data(), want.data(), n), 1.0);
}

TEST(OnlineAbft, BackupInInputDestroysInputButStaysCorrect) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 53);
  const auto pristine = x;
  Options opts = Options::online_opt(true);
  opts.backup_in_input = true;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(pristine, out);
  // The input now holds the parked intermediate, not the original data.
  bool modified = false;
  for (std::size_t j = 0; j < n; ++j) {
    if (x[j] != pristine[j]) {
      modified = true;
      break;
    }
  }
  EXPECT_TRUE(modified);
}

TEST(OnlineAbft, PreservesInputByDefault) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kNormal, 55);
  const auto pristine = x;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, Options::online_opt(true),
                         stats);
  for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(x[j], pristine[j]);
}

TEST(OnlineAbft, ManyComputationalFaultsAcrossUnits) {
  // One fault per protection unit is within the model no matter how many
  // units are hit.
  const std::size_t n = 4096;  // m = k = 64
  auto x = random_vector(n, InputDistribution::kUniform, 57);
  Injector inj;
  for (std::size_t u = 0; u < 64; u += 8) {
    inj.schedule(FaultSpec::computational(Phase::kMFftOutput, u, u % 13,
                                          {1.0 + static_cast<double>(u), 0.5}));
    inj.schedule(FaultSpec::computational(Phase::kKFftOutput, u + 1, u % 7,
                                          {-2.0, static_cast<double>(u)}));
  }
  Options opts = Options::online_opt(true);
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  expect_matches_reference(x, out);
  EXPECT_EQ(stats.comp_errors_detected, 16u);
  EXPECT_EQ(stats.sub_fft_retries, 16u);
}

TEST(OnlineAbft, StatsReportThresholds) {
  const std::size_t n = 256;
  auto x = random_vector(n, InputDistribution::kUniform, 59);
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, Options::online_opt(true),
                         stats);
  EXPECT_GT(stats.eta_m, 0.0);
  EXPECT_GT(stats.eta_k, 0.0);
  EXPECT_GT(stats.eta_mem, 0.0);
}

TEST(OnlineAbft, IntermediateRepairReachesTheBackupOfALaterOutputFault) {
  // Column 5 takes an intermediate fault (row 10), repaired by the column
  // MCV, and then a final-output fault (row 20), recovered by recomputing
  // the column from the parked backup. The backup was parked after the
  // intermediate fault, so the column MCV must have repaired it as well.
  const std::size_t n = 1 << 12;  // m = k = 64
  auto x = random_vector(n, InputDistribution::kUniform, 61);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::memory_set(Phase::kIntermediate, 0, 10 * 64 + 5,
                                     {50.0, -30.0}));
  inj.schedule(FaultSpec::memory_set(Phase::kFinalOutput, 0, 20 * 64 + 5,
                                     {40.0, 10.0}));
  Options opts = Options::online_opt(true);
  opts.injector = &inj;
  std::vector<cplx> out(n);
  Stats stats;
  abft::online_transform(x.data(), out.data(), n, opts, stats);
  EXPECT_EQ(inj.fired_count(), 2u);
  EXPECT_EQ(stats.mem_errors_detected, 2u);
  EXPECT_EQ(stats.mem_errors_corrected, 2u);
  expect_matches_reference(pristine, out);
}

TEST(OnlineAbft, RejectsTinySizes) {
  std::vector<cplx> x(2), out(2);
  Stats stats;
  EXPECT_THROW(abft::online_transform(x.data(), out.data(), 2,
                                      Options::online_opt(false), stats),
               std::invalid_argument);
}

}  // namespace
}  // namespace ftfft

namespace ftfft {
namespace {

// The second layer runs in tiles of plan.layer2_cols() staged columns.
// Faults on the first and last column of a tile, and on the last column
// overall, must be handled with the same counters as anywhere else. The
// sizes run the staged split with its DMR twiddle: powers of two from 2^14
// on run the window schedule instead (test_window_schedule.cpp).
struct TileCase {
  std::size_t n;
  std::size_t bins;  // reference bins checked; 0 = the whole spectrum
};

class OnlineTile : public ::testing::TestWithParam<TileCase> {
 protected:
  void SetUp() override {
    n_ = GetParam().n;
    const auto plan = abft::ProtectionPlan::get(n_, abft::Scheme::kOnline,
                                                Options::online_opt(true));
    m_ = plan->m();
    k_ = plan->k();
    s_ = plan->layer2_cols();
    x_ = random_vector(n_, InputDistribution::kUniform, 950 + n_);
    clean_.resize(n_);
    auto in = x_;
    Stats stats;
    abft::online_transform(in.data(), clean_.data(), n_,
                           Options::online_opt(true), stats);
    EXPECT_EQ(stats.comp_errors_detected, 0u);
    EXPECT_EQ(stats.mem_errors_detected, 0u);
    EXPECT_EQ(stats.dmr_mismatches, 0u);
  }

  // Layer-2 columns at tile edges: first and last column of the second
  // tile (or the first, when there is only one) and the last column.
  std::vector<std::size_t> edge_columns() const {
    const std::size_t t0 = m_ > s_ ? s_ : 0;
    return {t0, std::min(t0 + s_, m_) - 1, m_ - 1};
  }

  Stats run_with(Injector& inj, std::vector<cplx>& y) const {
    y.assign(n_, cplx{0.0, 0.0});
    auto in = x_;
    Options o = Options::online_opt(true);
    o.injector = &inj;
    Stats stats;
    abft::online_transform(in.data(), y.data(), n_, o, stats);
    EXPECT_EQ(inj.fired_count(), 1u);
    return stats;
  }

  void expect_close_to_clean(const std::vector<cplx>& y) const {
    const double tol = 1e-10 * static_cast<double>(n_);
    for (std::size_t j = 0; j < n_; ++j) {
      ASSERT_NEAR(std::abs(y[j] - clean_[j]), 0.0, tol) << "j=" << j;
    }
  }

  std::size_t n_ = 0, m_ = 0, k_ = 0, s_ = 0;
  std::vector<cplx> x_, clean_;
};

TEST_P(OnlineTile, FaultFreeMatchesReference) {
  const double tol = 1e-10 * static_cast<double>(n_);
  const std::size_t bins = GetParam().bins;
  if (bins == 0) {
    const auto want = dft::reference_dft(x_);
    for (std::size_t j = 0; j < n_; ++j) {
      ASSERT_NEAR(std::abs(clean_[j] - want[j]), 0.0, tol) << "j=" << j;
    }
    return;
  }
  // Large n: sampled bins of the O(n^2) oracle, spread over every column.
  for (std::size_t b = 0; b < bins; ++b) {
    const std::size_t j = (b * (n_ / bins) + b * 7) % n_;
    const cplx want = dft::reference_dft_element(x_.data(), n_, j);
    ASSERT_NEAR(std::abs(clean_[j] - want), 0.0, tol) << "j=" << j;
  }
}

TEST_P(OnlineTile, IntermediateMemoryFaultAtTileEdgeCorrected) {
  for (const std::size_t col : edge_columns()) {
    Injector inj;
    // Row k/2 of layer-2 column col.
    inj.schedule(FaultSpec::memory_set(Phase::kIntermediate, 0,
                                       (k_ / 2) * m_ + col, {25.0, -8.0}));
    std::vector<cplx> y;
    const Stats stats = run_with(inj, y);
    expect_close_to_clean(y);
    EXPECT_EQ(stats.mem_errors_detected, 1u) << "col=" << col;
    EXPECT_EQ(stats.mem_errors_corrected, 1u) << "col=" << col;
    EXPECT_EQ(stats.comp_errors_detected, 0u) << "col=" << col;
    EXPECT_EQ(stats.sub_fft_retries, 0u) << "col=" << col;
  }
}

TEST_P(OnlineTile, TwiddleDmrFaultAtTileEdgeVotedOut) {
  for (const std::size_t col : edge_columns()) {
    for (const std::size_t row : {std::size_t{0}, k_ - 1}) {
      Injector inj;
      inj.schedule(FaultSpec::computational(Phase::kTwiddleDmrCopy, col, row,
                                            {3.0, -2.0}));
      std::vector<cplx> y;
      const Stats stats = run_with(inj, y);
      expect_close_to_clean(y);
      EXPECT_EQ(stats.dmr_mismatches, 1u) << "col=" << col << " row=" << row;
      EXPECT_EQ(stats.comp_errors_detected, 0u) << "col=" << col;
      EXPECT_EQ(stats.mem_errors_detected, 0u) << "col=" << col;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, OnlineTile,
                         ::testing::Values(TileCase{200, 0},
                                           TileCase{1 << 13, 512},
                                           TileCase{81920, 64}),
                         [](const ::testing::TestParamInfo<TileCase>& pi) {
                           return "n" + std::to_string(pi.param.n);
                         });

}  // namespace
}  // namespace ftfft
