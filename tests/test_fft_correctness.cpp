#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/complex.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "dft/reference_dft.hpp"
#include "fft/fft.hpp"
#include "fft/inplace_radix2.hpp"

namespace ftfft {
namespace {

using fft::Direction;
using fft::Fft;

// Tolerance scaled to the transform: output magnitudes grow like sqrt(n) and
// the O(n^2) reference oracle itself accumulates ~n*eps error.
double tol_for(std::size_t n) { return 1e-11 * static_cast<double>(n); }

void expect_matches_reference(const std::vector<cplx>& x,
                              const std::vector<cplx>& got) {
  const auto want = dft::reference_dft(x);
  const double tol = tol_for(x.size());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < want.size(); ++j) {
    ASSERT_NEAR(got[j].real(), want[j].real(), tol)
        << "n=" << x.size() << " j=" << j;
    ASSERT_NEAR(got[j].imag(), want[j].imag(), tol)
        << "n=" << x.size() << " j=" << j;
  }
}

class FftSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSize, ForwardMatchesReference) {
  const std::size_t n = GetParam();
  auto x = random_vector(n, InputDistribution::kUniform, 1000 + n);
  std::vector<cplx> out(n);
  Fft engine(n);
  engine.execute(x.data(), out.data());
  expect_matches_reference(x, out);
}

TEST_P(FftSize, InverseRoundTrips) {
  const std::size_t n = GetParam();
  auto x = random_vector(n, InputDistribution::kNormal, 2000 + n);
  std::vector<cplx> freq(n), back(n);
  Fft fwd(n, Direction::kForward);
  Fft inv(n, Direction::kInverse);
  fwd.execute(x.data(), freq.data());
  inv.execute(freq.data(), back.data());
  const double tol = tol_for(n);
  for (std::size_t t = 0; t < n; ++t) {
    ASSERT_NEAR(back[t].real(), x[t].real(), tol) << "n=" << n;
    ASSERT_NEAR(back[t].imag(), x[t].imag(), tol) << "n=" << n;
  }
}

TEST_P(FftSize, InplaceMatchesOutOfPlace) {
  const std::size_t n = GetParam();
  auto x = random_vector(n, InputDistribution::kUniform, 3000 + n);
  std::vector<cplx> oop(n);
  Fft engine(n);
  engine.execute(x.data(), oop.data());
  std::vector<cplx> ip = x;
  engine.execute_inplace(ip.data());
  const double tol = tol_for(n);
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_NEAR(ip[j].real(), oop[j].real(), tol) << "n=" << n << " j=" << j;
    ASSERT_NEAR(ip[j].imag(), oop[j].imag(), tol) << "n=" << n << " j=" << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PowersOfTwo, FftSize,
    ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048,
                      4096),
    [](const ::testing::TestParamInfo<std::size_t>& pi) { return "n" + std::to_string(pi.param); });

INSTANTIATE_TEST_SUITE_P(
    MixedRadix, FftSize,
    ::testing::Values(6, 12, 20, 60, 100, 120, 360, 1000, 1440, 2187, 3125),
    [](const ::testing::TestParamInfo<std::size_t>& pi) { return "n" + std::to_string(pi.param); });

INSTANTIATE_TEST_SUITE_P(
    PrimesAndAwkward, FftSize,
    ::testing::Values(7, 17, 31, 37, 97, 101, 251, 509, 74, 202, 1111),
    [](const ::testing::TestParamInfo<std::size_t>& pi) { return "n" + std::to_string(pi.param); });

TEST(Fft, StridedExecutionMatches) {
  const std::size_t n = 256, is = 2, os = 3;
  auto packed = random_vector(n, InputDistribution::kUniform, 42);
  std::vector<cplx> in(n * is);
  for (std::size_t t = 0; t < n; ++t) in[t * is] = packed[t];
  std::vector<cplx> out(n * os);
  Fft engine(n);
  engine.execute_strided(in.data(), is, out.data(), os);
  const auto want = dft::reference_dft(packed);
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_NEAR(out[j * os].real(), want[j].real(), tol_for(n));
    ASSERT_NEAR(out[j * os].imag(), want[j].imag(), tol_for(n));
  }
}

TEST(Fft, ConvenienceWrappersRoundTrip) {
  auto x = random_vector(512, InputDistribution::kNormal, 50);
  const auto back = fft::ifft(fft::fft(x));
  for (std::size_t t = 0; t < x.size(); ++t) {
    ASSERT_NEAR(back[t].real(), x[t].real(), 1e-10);
    ASSERT_NEAR(back[t].imag(), x[t].imag(), 1e-10);
  }
}

TEST(InplaceRadix2, MatchesReferenceAcrossSizes) {
  for (std::size_t n = 1; n <= 4096; n *= 2) {
    auto x = random_vector(n, InputDistribution::kUniform, 60 + n);
    std::vector<cplx> data = x;
    fft::InplaceRadix2Plan::get(n)->forward(data.data());
    const auto want = dft::reference_dft(x);
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_NEAR(data[j].real(), want[j].real(), tol_for(n)) << "n=" << n;
      ASSERT_NEAR(data[j].imag(), want[j].imag(), tol_for(n)) << "n=" << n;
    }
  }
}

TEST(InplaceRadix2, InverseRoundTrips) {
  const std::size_t n = 1024;
  auto x = random_vector(n, InputDistribution::kNormal, 70);
  std::vector<cplx> data = x;
  const auto plan = fft::InplaceRadix2Plan::get(n);
  plan->forward(data.data());
  plan->inverse(data.data());
  for (std::size_t t = 0; t < n; ++t) {
    ASSERT_NEAR(data[t].real(), x[t].real(), 1e-11);
    ASSERT_NEAR(data[t].imag(), x[t].imag(), 1e-11);
  }
}

TEST(InplaceRadix2, RejectsNonPowerOfTwo) {
  EXPECT_THROW(fft::InplaceRadix2Plan bad(12), std::invalid_argument);
}

// ---------------------------------------------------------- engine parity
//
// fft::Fft has one engine per size class: power-of-two n > 16 runs the
// in-place InplaceRadix2Plan behind every entry point, everything else the
// mixed-radix planner. The oracle is dft::reference_dft (the O(n^2) sum),
// taken in full up to 2^11 and at sampled bins above; the benchmark's own
// reference shares the engine under test, so it cannot serve here.

/// Every Fft entry point in one direction: execute, execute_strided over
/// is in {1, 3} x os in {1, 2}, and execute_inplace, each unpacked to a
/// contiguous vector. Labels name the entry point for failure messages.
struct EntryResult {
  std::string label;
  std::vector<cplx> out;
};

std::vector<EntryResult> run_every_entry_point(Fft& engine,
                                               const std::vector<cplx>& x) {
  const std::size_t n = x.size();
  std::vector<EntryResult> results;
  std::vector<cplx> out(n);
  engine.execute(x.data(), out.data());
  results.push_back({"execute", out});
  for (std::size_t is : {1u, 3u}) {
    for (std::size_t os : {1u, 2u}) {
      std::vector<cplx> in(n * is, cplx{-7.0, 7.0});
      for (std::size_t t = 0; t < n; ++t) in[t * is] = x[t];
      std::vector<cplx> strided(n * os, cplx{-7.0, 7.0});
      engine.execute_strided(in.data(), is, strided.data(), os);
      for (std::size_t j = 0; j < n; ++j) out[j] = strided[j * os];
      results.push_back({"execute_strided is=" + std::to_string(is) +
                             " os=" + std::to_string(os),
                         out});
    }
  }
  out = x;
  engine.execute_inplace(out.data());
  results.push_back({"execute_inplace", out});
  return results;
}

/// Reference values of the forward (or 1/n-normalized inverse) DFT of x at
/// the given bins.
std::vector<cplx> reference_bins(const std::vector<cplx>& x, Direction dir,
                                 const std::vector<std::size_t>& bins) {
  const std::size_t n = x.size();
  std::vector<cplx> conj_x(n);
  for (std::size_t t = 0; t < n; ++t) conj_x[t] = std::conj(x[t]);
  std::vector<cplx> want;
  for (std::size_t j : bins) {
    // idft(x)[j] = conj(dft(conj(x))[j]) / n.
    want.push_back(dir == Direction::kForward
                       ? dft::reference_dft_element(x.data(), n, j)
                       : std::conj(dft::reference_dft_element(conj_x.data(),
                                                              n, j)) /
                             static_cast<double>(n));
  }
  return want;
}

/// Checks every entry point of an n-point Fft in `dir` against the oracle
/// (all bins up to 2^11, 19 sampled bins above) and, when `engine_plan` is
/// given, bit for bit against copy + engine_plan->forward/inverse.
void check_entry_points(std::size_t n, Direction dir,
                        const fft::InplaceRadix2Plan* engine_plan) {
  const auto x = random_vector(n, InputDistribution::kUniform, 4000 + n);
  std::vector<std::size_t> bins;
  if (n <= (1u << 11)) {
    for (std::size_t j = 0; j < n; ++j) bins.push_back(j);
  } else {
    for (std::size_t j : {std::size_t{0}, std::size_t{1}, n / 2, n - 1}) {
      bins.push_back(j);
    }
    for (std::size_t s = 0; s < 15; ++s) bins.push_back((s * 2654435761u) % n);
  }
  const auto want = reference_bins(x, dir, bins);
  double scale = 0.0;
  for (const cplx& w : want) scale = std::max(scale, std::abs(w));
  const double tol =
      std::max(1e-14 * static_cast<double>(n), 1e-13) * (scale + 1.0);

  std::vector<cplx> canonical;
  if (engine_plan != nullptr) {
    canonical = x;
    if (dir == Direction::kForward) {
      engine_plan->forward(canonical.data());
    } else {
      engine_plan->inverse(canonical.data());
    }
  }
  Fft engine(n, dir);
  for (const EntryResult& r : run_every_entry_point(engine, x)) {
    for (std::size_t b = 0; b < bins.size(); ++b) {
      ASSERT_LT(std::abs(r.out[bins[b]] - want[b]), tol)
          << "n=" << n << " " << r.label << " bin=" << bins[b];
    }
    if (engine_plan == nullptr) continue;
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(r.out[j].real(), canonical[j].real())
          << "n=" << n << " " << r.label << " j=" << j;
      ASSERT_EQ(r.out[j].imag(), canonical[j].imag())
          << "n=" << n << " " << r.label << " j=" << j;
    }
  }
}

class EnginePowerOfTwo : public ::testing::TestWithParam<unsigned> {};

TEST_P(EnginePowerOfTwo, EveryEntryPointMatchesOracleAndEngine) {
  const std::size_t n = std::size_t{1} << GetParam();
  // Sizes with an unrolled codelet stay planner leaves; above them every
  // entry point must be the engine, bit for bit.
  const auto plan = n > 16 ? fft::InplaceRadix2Plan::get(n) : nullptr;
  for (Direction dir : {Direction::kForward, Direction::kInverse}) {
    check_entry_points(n, dir, plan.get());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, EnginePowerOfTwo,
    ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u, 13u,
                      14u, 15u, 16u, 17u, 18u, 20u),
    [](const ::testing::TestParamInfo<unsigned>& pi) {
      return "n2e" + std::to_string(pi.param);
    });

class PlannerSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlannerSize, EveryEntryPointMatchesOracle) {
  for (Direction dir : {Direction::kForward, Direction::kInverse}) {
    check_entry_points(GetParam(), dir, nullptr);
  }
}

// Non-power-of-two sizes keep the mixed-radix planner: codelet leaves
// (3, 5, 7, 31), every combine radix (r = 2 at 14 and 74, 3, 4, 5, 8 at 24,
// 16 at 48 and 240) and Bluestein (37, 74, 97, 101, 202, 509, 4099).
INSTANTIATE_TEST_SUITE_P(
    NonPowersOfTwo, PlannerSize,
    ::testing::Values(3, 5, 6, 7, 12, 14, 24, 31, 37, 48, 60, 74, 97, 100,
                      101, 202, 240, 509, 1000, 4099),
    [](const ::testing::TestParamInfo<std::size_t>& pi) {
      return "n" + std::to_string(pi.param);
    });

TEST(Fft, LargeTransformSpotCheck) {
  // 2^16 is too big for the O(n^2) oracle; verify via a single tone whose
  // transform is analytically known.
  const std::size_t n = 1 << 16;
  const std::size_t bin = 12345;
  std::vector<cplx> x(n);
  for (std::size_t t = 0; t < n; ++t)
    x[t] = std::conj(omega(n, static_cast<std::uint64_t>(bin) * t));
  std::vector<cplx> X(n);
  Fft engine(n);
  engine.execute(x.data(), X.data());
  EXPECT_NEAR(X[bin].real(), static_cast<double>(n), 1e-6);
  EXPECT_NEAR(X[bin].imag(), 0.0, 1e-6);
  double off_peak = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (j != bin) off_peak = std::max(off_peak, std::abs(X[j]));
  }
  EXPECT_LT(off_peak, 1e-6);
}

}  // namespace
}  // namespace ftfft
