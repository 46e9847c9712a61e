// DMR twiddle multiplication: correctness, the majority vote, and the
// distributed scale prefactor.
#include "abft/dmr.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "checksum/dot.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "simd/dispatch.hpp"

namespace ftfft {
namespace {

using fault::FaultSpec;
using fault::Injector;
using fault::Phase;

TEST(DmrTwiddle, MatchesDirectComputation) {
  const std::size_t len = 257, n = 4096, step = 5;
  auto x = random_vector(len, InputDistribution::kUniform, 1);
  std::vector<cplx> out(len);
  const std::size_t fixed =
      abft::dmr_twiddle_multiply(x.data(), 1, out.data(), len, n, step, 0,
                                 nullptr);
  EXPECT_EQ(fixed, 0u);
  for (std::size_t i = 0; i < len; ++i) {
    const cplx want = x[i] * omega(n, i * step);
    EXPECT_NEAR(std::abs(out[i] - want), 0.0, 1e-12) << i;
  }
}

TEST(DmrTwiddle, StridedSource) {
  const std::size_t len = 64, stride = 3, n = 1024, step = 7;
  auto flat = random_vector(len * stride, InputDistribution::kNormal, 2);
  std::vector<cplx> out(len);
  abft::dmr_twiddle_multiply(flat.data(), stride, out.data(), len, n, step, 0,
                             nullptr);
  for (std::size_t i = 0; i < len; ++i) {
    const cplx want = flat[i * stride] * omega(n, i * step);
    EXPECT_NEAR(std::abs(out[i] - want), 0.0, 1e-12) << i;
  }
}

TEST(DmrTwiddle, ScalePrefactorApplied) {
  const std::size_t len = 100, n = 2048, step = 3;
  const cplx scale = omega(n, 555);
  auto x = random_vector(len, InputDistribution::kUniform, 3);
  std::vector<cplx> out(len);
  abft::dmr_twiddle_multiply(x.data(), 1, out.data(), len, n, step, 0,
                             nullptr, scale);
  for (std::size_t i = 0; i < len; ++i) {
    const cplx want = cmul(x[i], cmul(scale, omega(n, i * step)));
    EXPECT_NEAR(std::abs(out[i] - want), 0.0, 1e-12) << i;
  }
}

// Lengths around the four interleaved recurrences and the 64-element resync
// block: shorter than one group, ragged groups and ragged resync blocks.
constexpr std::size_t kTailLengths[] = {1,  2,  3,  5,   7,  63,
                                        65, 66, 67, 130, 199};

TEST(DmrTwiddle, TailLengthsMatchDirectComputation) {
  const std::size_t n = 8192, step = 11;
  for (const std::size_t len : kTailLengths) {
    auto x = random_vector(len, InputDistribution::kUniform, 10 + len);
    std::vector<cplx> out(len);
    EXPECT_EQ(abft::dmr_twiddle_multiply(x.data(), 1, out.data(), len, n, step,
                                         0, nullptr),
              0u)
        << len;
    for (std::size_t i = 0; i < len; ++i) {
      const cplx want = x[i] * omega(n, i * step);
      EXPECT_NEAR(std::abs(out[i] - want), 0.0, 1e-12) << len << ":" << i;
    }
  }
}

TEST(DmrTwiddle, StridedSourceAtTailLengths) {
  const std::size_t stride = 5, n = 4096, step = 13;
  for (const std::size_t len : kTailLengths) {
    auto flat =
        random_vector(len * stride, InputDistribution::kNormal, 20 + len);
    std::vector<cplx> out(len);
    EXPECT_EQ(abft::dmr_twiddle_multiply(flat.data(), stride, out.data(), len,
                                         n, step, 0, nullptr),
              0u)
        << len;
    for (std::size_t i = 0; i < len; ++i) {
      const cplx want = flat[i * stride] * omega(n, i * step);
      EXPECT_NEAR(std::abs(out[i] - want), 0.0, 1e-12) << len << ":" << i;
    }
  }
}

TEST(DmrTwiddle, ScalePrefactorOverSeveralResyncBlocks) {
  // The distributed callers' omega_N^(base + i*step) form, long enough that
  // every resync block restarts the recurrences from the scaled exact value.
  const std::size_t n = 1 << 21, step = 3;
  const cplx scale = omega(n, 987654);
  for (const std::size_t len : {std::size_t{257}, std::size_t{1000}}) {
    auto x = random_vector(len, InputDistribution::kUniform, 30 + len);
    std::vector<cplx> out(len);
    EXPECT_EQ(abft::dmr_twiddle_multiply(x.data(), 1, out.data(), len, n, step,
                                         0, nullptr, scale),
              0u);
    for (std::size_t i = 0; i < len; ++i) {
      const cplx want = cmul(x[i], cmul(scale, omega(n, i * step)));
      EXPECT_NEAR(std::abs(out[i] - want), 0.0, 1e-12) << len << ":" << i;
    }
  }
}

TEST(DmrTwiddle, VotesOutInjectedFault) {
  const std::size_t len = 128, n = 1024, step = 9, unit = 4;
  auto x = random_vector(len, InputDistribution::kUniform, 4);
  Injector inj;
  inj.schedule(FaultSpec::computational(Phase::kTwiddleDmrCopy, unit, 31,
                                        {9.0, -9.0}));
  std::vector<cplx> out(len);
  const std::size_t fixed = abft::dmr_twiddle_multiply(
      x.data(), 1, out.data(), len, n, step, unit, &inj);
  EXPECT_EQ(fixed, 1u);
  EXPECT_EQ(inj.fired_count(), 1u);
  // The voted result must match the fault-free computation at the struck
  // element. When the corrupted copy agrees with neither the redundant
  // recurrence copy nor the table-exact third evaluation, the vote falls
  // back to the third, which may differ from the recurrence by an ulp —
  // hence a tolerance rather than exact equality.
  std::vector<cplx> clean(len);
  abft::dmr_twiddle_multiply(x.data(), 1, clean.data(), len, n, step, unit,
                             nullptr);
  for (std::size_t i = 0; i < len; ++i) {
    EXPECT_NEAR(std::abs(out[i] - clean[i]), 0.0, 1e-13) << i;
  }
}

TEST(DmrTwiddle, WrongUnitDoesNotFire) {
  const std::size_t len = 32, n = 256, step = 1;
  auto x = random_vector(len, InputDistribution::kUniform, 5);
  Injector inj;
  inj.schedule(
      FaultSpec::computational(Phase::kTwiddleDmrCopy, 7, 3, {1.0, 1.0}));
  std::vector<cplx> out(len);
  const std::size_t fixed = abft::dmr_twiddle_multiply(
      x.data(), 1, out.data(), len, n, step, /*unit=*/2, &inj);
  EXPECT_EQ(fixed, 0u);
  EXPECT_EQ(inj.pending_count(), 1u);
}

// Every compiled-in backend, the active one restored afterwards.
template <class F>
void on_every_backend(F&& check) {
  const simd::Backend prev = simd::active_backend();
  for (const simd::Backend b :
       {simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (!simd::set_backend(b)) continue;
    SCOPED_TRACE(simd::backend_name(b));
    check();
  }
  simd::set_backend(prev);
}

TEST(DmrTwiddle, NanInputMismatchesItselfAndStaysNan) {
  // Both copies see the same NaN, but NaN != NaN: the compare flags the
  // element, the vote falls through to the third evaluation, and the NaN
  // survives. Every finite element is untouched.
  const std::size_t len = 70, n = 4096, step = 3;
  auto x = random_vector(len, InputDistribution::kUniform, 7);
  const auto clean_x = x;
  x[0] = cplx{std::nan(""), 0.0};
  x[33] = cplx{1.0, std::nan("")};
  x[69] = cplx{std::nan(""), std::nan("")};
  on_every_backend([&] {
    std::vector<cplx> out(len), clean(len);
    EXPECT_EQ(abft::dmr_twiddle_multiply(x.data(), 1, out.data(), len, n,
                                         step, 0, nullptr),
              3u);
    abft::dmr_twiddle_multiply(clean_x.data(), 1, clean.data(), len, n, step,
                               0, nullptr);
    for (std::size_t i = 0; i < len; ++i) {
      if (i == 0 || i == 33 || i == 69) {
        EXPECT_TRUE(std::isnan(out[i].real()) || std::isnan(out[i].imag()))
            << i;
      } else {
        EXPECT_EQ(out[i], clean[i]) << i;
      }
    }
  });
}

TEST(DmrTwiddle, SignedZeroInputsCompareEqual) {
  // -0 and +0 inputs give products whose zero signs follow the twiddle;
  // both copies round alike and -0 == +0 anyway, so nothing is voted.
  const std::size_t len = 67, n = 1024, step = 5;
  std::vector<cplx> x(len);
  for (std::size_t i = 0; i < len; ++i) {
    x[i] = cplx{(i % 2) ? -0.0 : 0.0, (i % 3) ? 0.0 : -0.0};
  }
  on_every_backend([&] {
    std::vector<cplx> out(len);
    EXPECT_EQ(abft::dmr_twiddle_multiply(x.data(), 1, out.data(), len, n,
                                         step, 0, nullptr),
              0u);
    for (const cplx v : out) EXPECT_EQ(std::abs(v), 0.0);
  });
}

TEST(DmrTwiddle, ChecksumFollowsTheVotedResult) {
  // The first copy accumulates the checksum as it computes. When the vote
  // replaces an element with the table-exact third evaluation, which can
  // differ from the recurrence by an ulp, the returned checksum must be the
  // separate sweep over the voted output, bit for bit.
  // A unit impulse at an element whose recurrence twiddle is inexact makes
  // that ulp the whole checksum instead of noise under the other terms.
  const std::size_t len = 300, n = 1 << 16, step = 17;
  const std::vector<cplx> ones(len, cplx{1.0, 0.0});
  std::vector<cplx> clean(len);
  abft::twiddle_multiply(ones.data(), 1, clean.data(), len, n, step);
  std::size_t hit = len;
  for (std::size_t i = 0; i < len && hit == len; ++i) {
    if (clean[i] != omega(n, i * step)) hit = i;
  }
  ASSERT_LT(hit, len) << "no element where the recurrence is inexact";
  std::vector<cplx> x(len, cplx{0.0, 0.0});
  x[hit] = cplx{1.0, 0.0};
  const auto cw = random_vector(len, InputDistribution::kUniform, 9);
  for (const bool faulty : {false, true}) {
    Injector inj;
    if (faulty) {
      inj.schedule(FaultSpec::computational(Phase::kTwiddleDmrCopy, 2, hit,
                                            {5.0, -1.0}));
    }
    std::vector<cplx> out(len);
    checksum::SumEnergy cs;
    EXPECT_EQ(abft::dmr_twiddle_multiply(x.data(), 1, out.data(), len, n, step,
                                         2, &inj, cplx{1.0, 0.0}, cw.data(),
                                         &cs),
              faulty ? 1u : 0u);
    EXPECT_EQ(out[hit] != clean[hit], faulty);  // the vote took the third
    const auto want = checksum::weighted_sum_energy(cw.data(), out.data(), len);
    EXPECT_EQ(cs.sum, want.sum) << faulty;
    EXPECT_EQ(cs.energy, want.energy) << faulty;
  }
}

TEST(DmrTwiddle, LongRunStaysAccurate) {
  // The recurrence resyncs every 64 elements; over a long run the result
  // must not drift from the table-exact value.
  const std::size_t len = 8192, n = 1 << 20, step = 12345;
  auto x = random_vector(len, InputDistribution::kUniform, 6);
  std::vector<cplx> out(len);
  abft::dmr_twiddle_multiply(x.data(), 1, out.data(), len, n, step, 0,
                             nullptr);
  double worst = 0.0;
  for (std::size_t i = 0; i < len; ++i) {
    const cplx want =
        cmul(x[i], omega(n, static_cast<std::uint64_t>(i) * step));
    worst = std::max(worst, std::abs(out[i] - want));
  }
  EXPECT_LT(worst, 1e-13);
}

}  // namespace
}  // namespace ftfft
