#include "abft/inplace.hpp"

#include <gtest/gtest.h>

#include <cstring>
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

TEST(InplaceShape, SplitsAsExpected) {
  EXPECT_EQ(abft::inplace_shape(64).k, 8u);
  EXPECT_EQ(abft::inplace_shape(64).r, 1u);
  EXPECT_EQ(abft::inplace_shape(32).k, 4u);
  EXPECT_EQ(abft::inplace_shape(32).r, 2u);
  EXPECT_EQ(abft::inplace_shape(1 << 20).k, 1u << 10);
  EXPECT_EQ(abft::inplace_shape(1 << 20).r, 1u);
  EXPECT_EQ(abft::inplace_shape(1 << 21).k, 1u << 10);
  EXPECT_EQ(abft::inplace_shape(1 << 21).r, 2u);
  EXPECT_EQ(abft::inplace_shape(200).k, 10u);
  EXPECT_EQ(abft::inplace_shape(200).r, 2u);
}

TEST(InplaceShape, RejectsDegenerateSizes) {
  EXPECT_THROW((void)abft::inplace_shape(7), std::invalid_argument);    // k == 1
  EXPECT_THROW((void)abft::inplace_shape(10), std::invalid_argument);   // k == 1
  EXPECT_THROW((void)abft::inplace_shape(9), std::invalid_argument);    // 3 | k
  EXPECT_THROW((void)abft::inplace_shape(36), std::invalid_argument);   // 3 | k
}

TEST(DigitReversePermute, IsAnInvolution) {
  for (const auto& [k, r] : {std::pair<std::size_t, std::size_t>{4, 1},
                            {4, 2},
                            {8, 3},
                            {5, 2}}) {
    const std::size_t n = k * k * r;
    auto x = random_vector(n, InputDistribution::kUniform, 600 + n);
    auto once = x;
    abft::krk_digit_reverse_permute(once.data(), k, r);
    auto twice = once;
    abft::krk_digit_reverse_permute(twice.data(), k, r);
    for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(twice[j], x[j]) << j;
    // And it is not the identity for nontrivial shapes.
    bool moved = false;
    for (std::size_t j = 0; j < n; ++j) {
      if (once[j] != x[j]) moved = true;
    }
    EXPECT_TRUE(moved);
  }
}

// The untiled triple loop the blocked permutation replaced, kept as its
// oracle.
void untiled_digit_reverse_permute(cplx* data, std::size_t k, std::size_t r) {
  const std::size_t blk = r * k;
  for (std::size_t d2 = 0; d2 < k; ++d2) {
    for (std::size_t d1 = 0; d1 < r; ++d1) {
      for (std::size_t d0 = 0; d0 < k; ++d0) {
        const std::size_t p = d0 + d1 * k + d2 * blk;
        const std::size_t q = d2 + d1 * k + d0 * blk;
        if (p < q) std::swap(data[p], data[q]);
      }
    }
  }
}

TEST(DigitReversePermute, MatchesUntiledOracle) {
  // More than one tile, ragged edge tiles (5, 40, 100) and r > 1. k = 2048
  // (the 2^22 shape) runs at r = 1 only, to keep the test's memory small.
  for (const std::size_t k : {5, 40, 100, 256, 2048}) {
    for (const std::size_t r : {1, 2, 3}) {
      if (k == 2048 && r > 1) continue;
      const std::size_t n = k * k * r;
      auto got = random_vector(n, InputDistribution::kUniform, 610 + n);
      auto want = got;
      abft::krk_digit_reverse_permute(got.data(), k, r);
      untiled_digit_reverse_permute(want.data(), k, r);
      ASSERT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(cplx)), 0)
          << "k=" << k << " r=" << r;
    }
  }
}

class InplaceMode : public ::testing::TestWithParam<bool> {
 protected:
  Options opts() const {
    return GetParam() ? Options::online_opt(true)
                      : Options::online_opt(false);
  }
};

TEST_P(InplaceMode, FaultFreeMatchesReferenceAcrossSizes) {
  // Mix of even powers (r=1), odd powers (r=2) and non-powers of two.
  for (std::size_t n : {16, 32, 50, 64, 100, 128, 200, 256, 512, 1024, 2048}) {
    auto x = random_vector(n, InputDistribution::kUniform, 700 + n);
    const auto pristine = x;
    Stats stats;
    abft::inplace_online_transform(x.data(), n, opts(), stats);
    expect_matches_reference(pristine, x);
    EXPECT_EQ(stats.comp_errors_detected, 0u) << n;
    EXPECT_EQ(stats.mem_errors_detected, 0u) << n;
  }
}

TEST_P(InplaceMode, Layer1ComputationalFaultCorrected) {
  const std::size_t n = 512;  // k = 16, r = 2
  auto x = random_vector(n, InputDistribution::kUniform, 61);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::computational(Phase::kMFftOutput, 11, 3, {4.0, 4.0}));
  Options o = opts();
  o.injector = &inj;
  Stats stats;
  abft::inplace_online_transform(x.data(), n, o, stats);
  expect_matches_reference(pristine, x);
  EXPECT_EQ(stats.comp_errors_detected, 1u);
  EXPECT_EQ(stats.sub_fft_retries, 1u);
}

TEST_P(InplaceMode, Layer3ComputationalFaultCorrected) {
  const std::size_t n = 512;
  auto x = random_vector(n, InputDistribution::kNormal, 63);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::computational(Phase::kKFftOutput, 9, 1, {0.0, -5.0}));
  Options o = opts();
  o.injector = &inj;
  Stats stats;
  abft::inplace_online_transform(x.data(), n, o, stats);
  expect_matches_reference(pristine, x);
  EXPECT_EQ(stats.comp_errors_detected, 1u);
}

TEST_P(InplaceMode, MiddleLayerDmrFaultVotedOut) {
  const std::size_t n = 512;  // r = 2: middle layer active
  auto x = random_vector(n, InputDistribution::kUniform, 65);
  const auto pristine = x;
  Injector inj;
  inj.schedule(
      FaultSpec::computational(Phase::kMiddleDmrCopy, 37, 1, {3.0, 3.0}));
  Options o = opts();
  o.injector = &inj;
  Stats stats;
  abft::inplace_online_transform(x.data(), n, o, stats);
  expect_matches_reference(pristine, x);
  EXPECT_EQ(stats.dmr_mismatches, 1u);
}

TEST_P(InplaceMode, TwiddleDmrFaultVotedOut) {
  const std::size_t n = 256;
  auto x = random_vector(n, InputDistribution::kUniform, 67);
  const auto pristine = x;
  Injector inj;
  inj.schedule(
      FaultSpec::computational(Phase::kTwiddleDmrCopy, 5, 12, {-2.0, 1.0}));
  Options o = opts();
  o.injector = &inj;
  Stats stats;
  abft::inplace_online_transform(x.data(), n, o, stats);
  expect_matches_reference(pristine, x);
  EXPECT_EQ(stats.dmr_mismatches, 1u);
}

INSTANTIATE_TEST_SUITE_P(CompAndMem, InplaceMode, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& pi) {
                           return pi.param ? "memory_ft" : "comp_only";
                         });

TEST(InplaceAbft, InputMemoryFaultCorrected) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 69);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 300,
                                     {25.0, -8.0}));
  Options o = Options::online_opt(true);
  o.injector = &inj;
  Stats stats;
  abft::inplace_online_transform(x.data(), n, o, stats);
  expect_matches_reference(pristine, x);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
}

TEST(InplaceAbft, IntermediateBlockMemoryFaultCorrected) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kNormal, 71);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::bit_flip(Phase::kIntermediate, 0, 555, 57, true));
  Options o = Options::online_opt(true);
  o.injector = &inj;
  Stats stats;
  abft::inplace_online_transform(x.data(), n, o, stats);
  expect_matches_reference(pristine, x);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
}

TEST(InplaceAbft, FinalOutputMemoryFaultCorrected) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kUniform, 73);
  const auto pristine = x;
  Injector inj;
  inj.schedule(
      FaultSpec::memory_set(Phase::kFinalOutput, 0, 450, {-33.0, 10.0}));
  Options o = Options::online_opt(true);
  o.injector = &inj;
  Stats stats;
  abft::inplace_online_transform(x.data(), n, o, stats);
  expect_matches_reference(pristine, x);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
}

TEST(InplaceAbft, NaiveMemoryHierarchyAlsoCorrects) {
  const std::size_t n = 512;
  auto x = random_vector(n, InputDistribution::kUniform, 75);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 77,
                                     {19.0, 19.0}));
  Options o = Options::online_naive(true);
  o.injector = &inj;
  Stats stats;
  abft::inplace_online_transform(x.data(), n, o, stats);
  expect_matches_reference(pristine, x);
  EXPECT_EQ(stats.mem_errors_corrected, 1u);
}

TEST(InplaceAbft, MultipleFaultsAcrossLayers) {
  const std::size_t n = 2048;  // k = 32, r = 2
  auto x = random_vector(n, InputDistribution::kUniform, 77);
  const auto pristine = x;
  Injector inj;
  inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0, 1234,
                                     {12.0, 0.0}));
  inj.schedule(FaultSpec::computational(Phase::kMFftOutput, 40, 7, {3.0, 3.0}));
  inj.schedule(FaultSpec::computational(Phase::kKFftOutput, 50, 9, {-1.0, 8.0}));
  Options o = Options::online_opt(true);
  o.injector = &inj;
  Stats stats;
  abft::inplace_online_transform(x.data(), n, o, stats);
  expect_matches_reference(pristine, x);
  EXPECT_EQ(inj.fired_count(), 3u);
}

}  // namespace
}  // namespace ftfft

namespace ftfft {
namespace {

// Layer 1 runs in tiles of plan.layer1_batch() columns. Faults on the first
// and last column of a tile and in a ragged last tile must be corrected with
// the same counters as anywhere else.
struct TileCase {
  std::size_t n;
  std::size_t bins;  // reference bins checked; 0 = the whole spectrum
};

class InplaceTile : public ::testing::TestWithParam<TileCase> {
 protected:
  void SetUp() override {
    n_ = GetParam().n;
    const auto shape = abft::inplace_shape(n_);
    k_ = shape.k;
    blk_ = shape.k * shape.r;
    w_ = abft::ProtectionPlan::get(n_, abft::Scheme::kOnlineInplace,
                                   Options::online_opt(true))
             ->layer1_batch();
    x_ = random_vector(n_, InputDistribution::kUniform, 900 + n_);
    clean_ = x_;
    Stats stats;
    abft::inplace_online_transform(clean_.data(), n_, Options::online_opt(true),
                                   stats);
    EXPECT_EQ(stats.comp_errors_detected, 0u);
    EXPECT_EQ(stats.mem_errors_detected, 0u);
  }

  // Layer-1 columns at tile edges: first and last column of the second
  // tile (or the first, when there is only one) and the last column overall
  // (inside a ragged tile when w does not divide the block).
  std::vector<std::size_t> edge_columns() const {
    const std::size_t t0 = blk_ > w_ ? w_ : 0;
    return {t0, std::min(t0 + w_, blk_) - 1, blk_ - 1};
  }

  Stats run_with(Injector& inj, std::vector<cplx>& y) const {
    y = x_;
    Options o = Options::online_opt(true);
    o.injector = &inj;
    Stats stats;
    abft::inplace_online_transform(y.data(), n_, o, stats);
    EXPECT_EQ(inj.fired_count(), 1u);
    return stats;
  }

  void expect_close_to_clean(const std::vector<cplx>& y) const {
    const double tol = 1e-10 * static_cast<double>(n_);
    for (std::size_t j = 0; j < n_; ++j) {
      ASSERT_NEAR(std::abs(y[j] - clean_[j]), 0.0, tol) << "j=" << j;
    }
  }

  std::size_t n_ = 0, k_ = 0, blk_ = 0, w_ = 0;
  std::vector<cplx> x_, clean_;
};

TEST_P(InplaceTile, FaultFreeMatchesReference) {
  const double tol = 1e-10 * static_cast<double>(n_);
  const std::size_t bins = GetParam().bins;
  if (bins == 0) {
    const auto want = dft::reference_dft(x_);
    for (std::size_t j = 0; j < n_; ++j) {
      ASSERT_NEAR(std::abs(clean_[j] - want[j]), 0.0, tol) << "j=" << j;
    }
    return;
  }
  // Large n: sampled bins of the O(n^2) oracle, spread over every block.
  for (std::size_t b = 0; b < bins; ++b) {
    const std::size_t j = (b * (n_ / bins) + b * 7) % n_;
    const cplx want = dft::reference_dft_element(x_.data(), n_, j);
    ASSERT_NEAR(std::abs(clean_[j] - want), 0.0, tol) << "j=" << j;
  }
}

TEST_P(InplaceTile, Layer1ComputationalFaultAtTileEdgeCorrected) {
  for (const std::size_t col : edge_columns()) {
    Injector inj;
    inj.schedule(FaultSpec::computational(Phase::kMFftOutput, col, k_ / 2,
                                          {4.0, -4.0}));
    std::vector<cplx> y;
    const Stats stats = run_with(inj, y);
    expect_close_to_clean(y);
    EXPECT_EQ(stats.comp_errors_detected, 1u) << "col=" << col;
    EXPECT_EQ(stats.sub_fft_retries, 1u) << "col=" << col;
    EXPECT_EQ(stats.mem_errors_detected, 0u) << "col=" << col;
  }
}

TEST_P(InplaceTile, InputMemoryFaultAtTileEdgeCorrected) {
  for (const std::size_t col : edge_columns()) {
    Injector inj;
    // Row k/2 of layer-1 column col.
    inj.schedule(FaultSpec::memory_set(Phase::kInputAfterChecksum, 0,
                                       (k_ / 2) * blk_ + col, {25.0, -8.0}));
    std::vector<cplx> y;
    const Stats stats = run_with(inj, y);
    expect_close_to_clean(y);
    EXPECT_EQ(stats.mem_errors_detected, 1u) << "col=" << col;
    EXPECT_EQ(stats.mem_errors_corrected, 1u) << "col=" << col;
    EXPECT_EQ(stats.sub_fft_retries, 1u) << "col=" << col;
    EXPECT_EQ(stats.comp_errors_detected, 0u) << "col=" << col;
  }
}

// Every InplaceTile shape has r = 2. The middle layer runs each DMR pass
// over a whole block, so the hook's per-sub-FFT units at the block edges
// (first and last i, first and last block) must still be voted out.
TEST_P(InplaceTile, MiddleLayerDmrFaultAtBlockEdgeVotedOut) {
  for (const std::size_t unit : {std::size_t{0}, k_ - 1, k_ * (k_ - 1),
                                 k_ * k_ - 1}) {
    for (const std::size_t t : {0, 1}) {
      Injector inj;
      inj.schedule(FaultSpec::computational(Phase::kMiddleDmrCopy, unit, t,
                                            {3.0, -2.0}));
      std::vector<cplx> y;
      const Stats stats = run_with(inj, y);
      expect_close_to_clean(y);
      EXPECT_EQ(stats.dmr_mismatches, 1u) << "unit=" << unit << " t=" << t;
      EXPECT_EQ(stats.comp_errors_detected, 0u) << "unit=" << unit;
      EXPECT_EQ(stats.mem_errors_detected, 0u) << "unit=" << unit;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, InplaceTile,
                         ::testing::Values(TileCase{200, 0},     // k 10, r 2
                                           TileCase{1 << 13, 512},  // k 64, r 2
                                           TileCase{1 << 17, 64}),  // k 256
                         [](const ::testing::TestParamInfo<TileCase>& pi) {
                           return "n" + std::to_string(pi.param.n);
                         });

}  // namespace
}  // namespace ftfft
