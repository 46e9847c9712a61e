// SIMD backend coverage: every dispatched kernel must agree with the scalar
// reference on every compiled-in backend, across sizes 1..2^16, odd strides,
// the w == nullptr dual-sum path, the env/forcing dispatch machinery, and —
// most importantly — the fault-injection campaigns must detect and correct
// exactly the same faults no matter which backend runs the math.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "abft/inplace.hpp"
#include "abft/online.hpp"
#include "abft/options.hpp"
#include "checksum/dot.hpp"
#include "checksum/memory_checksum.hpp"
#include "checksum/weights.hpp"
#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "dft/codelets.hpp"
#include "dft/reference_dft.hpp"
#include "fault/bitflip.hpp"
#include "fault/injector.hpp"
#include "fft/fft.hpp"
#include "fft/inplace_radix2.hpp"
#include "simd/dispatch.hpp"

namespace ftfft {
namespace {

using simd::Backend;

std::vector<Backend> available_backends() {
  std::vector<Backend> out{Backend::kScalar};
  if (simd::backend_available(Backend::kAvx2)) out.push_back(Backend::kAvx2);
  if (simd::backend_available(Backend::kNeon)) out.push_back(Backend::kNeon);
  return out;
}

/// Restores the entry backend when a test scope ends.
struct BackendGuard {
  Backend prev = simd::active_backend();
  ~BackendGuard() { simd::set_backend(prev); }
};

// Naive single-chain references, independent of the library's kernels.
cplx naive_weighted_sum(const cplx* w, const cplx* x, std::size_t n,
                        std::size_t stride = 1) {
  cplx acc{0.0, 0.0};
  for (std::size_t j = 0; j < n; ++j) acc += cmul(w[j], x[j * stride]);
  return acc;
}

double naive_energy(const cplx* x, std::size_t n, std::size_t stride = 1) {
  double acc = 0.0;
  for (std::size_t j = 0; j < n; ++j) acc += norm2(x[j * stride]);
  return acc;
}

constexpr std::size_t kSizes[] = {0,  1,  2,   3,   4,    5,    7,    8,
                                  15, 16, 31,  48,  64,   100,  127,  256,
                                  999, 1024, 4096, 65536};

// ------------------------------------------------------------- checksums

TEST(SimdChecksum, WeightedSumMatchesNaiveOnEveryBackend) {
  BackendGuard guard;
  for (std::size_t n : kSizes) {
    if (n == 0) continue;
    auto x = random_vector(n, InputDistribution::kUniform, 101);
    auto w = random_vector(n, InputDistribution::kNormal, 102);
    const cplx want = naive_weighted_sum(w.data(), x.data(), n);
    const double scale = std::abs(want) + std::sqrt(naive_energy(x.data(), n));
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      const cplx got = checksum::weighted_sum(w.data(), x.data(), n);
      EXPECT_LT(std::abs(got - want), 1e-11 * (1.0 + scale))
          << "n=" << n << " backend=" << simd::backend_name(b);
    }
  }
}

TEST(SimdChecksum, DualWeightedSumMatchesNaiveIncludingNullWeights) {
  BackendGuard guard;
  for (std::size_t n : kSizes) {
    auto x = random_vector(n == 0 ? 1 : n, InputDistribution::kNormal, 202);
    std::vector<cplx> w(n == 0 ? 1 : n);
    Rng rng(17);
    for (auto& c : w) c = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    for (const cplx* wp : {static_cast<const cplx*>(w.data()),
                           static_cast<const cplx*>(nullptr)}) {
      checksum::DualSum want;
      for (std::size_t j = 0; j < n; ++j) {
        const cplx p = wp == nullptr ? x[j] : cmul(wp[j], x[j]);
        want.plain += p;
        want.indexed += static_cast<double>(j) * p;
      }
      const double scale =
          std::abs(want.indexed) + static_cast<double>(n) + 1.0;
      for (Backend b : available_backends()) {
        ASSERT_TRUE(simd::set_backend(b));
        const auto got = checksum::dual_weighted_sum(wp, x.data(), n);
        EXPECT_LT(std::abs(got.plain - want.plain), 1e-11 * scale)
            << "n=" << n << " backend=" << simd::backend_name(b);
        EXPECT_LT(std::abs(got.indexed - want.indexed), 1e-11 * scale)
            << "n=" << n << " backend=" << simd::backend_name(b);
      }
    }
  }
}

TEST(SimdChecksum, EnergyAndRobustVariantsMatchNaive) {
  BackendGuard guard;
  for (std::size_t n : kSizes) {
    auto x = random_vector(n == 0 ? 1 : n, InputDistribution::kUniform, 303);
    // Plant one large outlier so the robust exclusion actually matters.
    if (n >= 8) x[n / 3] = cplx{1e6, -2e6};
    const double e_all = naive_energy(x.data(), n);
    double top = -1.0;
    std::size_t ti = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (norm2(x[j]) > top) {
        top = norm2(x[j]);
        ti = j;
      }
    }
    double e_rob = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != ti) e_rob += norm2(x[j]);
    }
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      const char* name = simd::backend_name(b);
      EXPECT_LT(std::abs(checksum::energy(x.data(), n) - e_all),
                1e-11 * (1.0 + e_all))
          << "n=" << n << " backend=" << name;
      EXPECT_LT(std::abs(checksum::robust_energy(x.data(), n) - e_rob),
                1e-11 * (1.0 + e_rob))
          << "n=" << n << " backend=" << name;
    }
  }
}

TEST(SimdChecksum, FusedSumEnergyAndOmega3MatchNaive) {
  BackendGuard guard;
  for (std::size_t n : kSizes) {
    if (n == 0) continue;
    auto x = random_vector(n, InputDistribution::kNormal, 404);
    auto w = random_vector(n, InputDistribution::kUniform, 405);
    const cplx ws = naive_weighted_sum(w.data(), x.data(), n);
    const double e = naive_energy(x.data(), n);
    cplx o3{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) o3 += cmul(omega3_pow(j), x[j]);
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      const char* name = simd::backend_name(b);
      const auto se = checksum::weighted_sum_energy(w.data(), x.data(), n);
      EXPECT_LT(std::abs(se.sum - ws), 1e-11 * (1.0 + std::abs(ws) + e))
          << "n=" << n << " backend=" << name;
      EXPECT_LT(std::abs(se.energy - e), 1e-11 * (1.0 + e))
          << "n=" << n << " backend=" << name;
      const auto de =
          checksum::dual_weighted_sum_energy(nullptr, x.data(), n);
      EXPECT_LT(std::abs(de.energy - e), 1e-11 * (1.0 + e))
          << "n=" << n << " backend=" << name;
      EXPECT_LT(std::abs(checksum::omega3_weighted_sum(x.data(), n) - o3),
                1e-10 * (1.0 + std::abs(o3) + std::sqrt(e) * std::sqrt(n)))
          << "n=" << n << " backend=" << name;
    }
  }
}

TEST(SimdChecksum, OddStridesTakeTheScalarPathOnEveryBackend) {
  BackendGuard guard;
  const std::size_t n = 257;
  for (std::size_t stride : {2ul, 3ul, 5ul}) {
    auto x = random_vector(n * stride, InputDistribution::kUniform, 505);
    auto w = checksum::input_checksum_vector(
        n, checksum::RaGenMethod::kClosedForm);
    const cplx want = naive_weighted_sum(w.data(), x.data(), n, stride);
    const double e = naive_energy(x.data(), n, stride);
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      EXPECT_LT(std::abs(checksum::weighted_sum(w.data(), x.data(), n,
                                                stride) -
                         want),
                1e-11 * (1.0 + std::abs(want)))
          << "stride=" << stride;
      EXPECT_LT(std::abs(checksum::energy(x.data(), n, stride) - e),
                1e-11 * (1.0 + e))
          << "stride=" << stride;
      double top = -1.0;
      std::size_t ti = 0;
      for (std::size_t j = 0; j < n; ++j) {
        if (norm2(x[j * stride]) > top) {
          top = norm2(x[j * stride]);
          ti = j;
        }
      }
      double e_rob = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j != ti) e_rob += norm2(x[j * stride]);
      }
      EXPECT_LT(std::abs(checksum::robust_energy(x.data(), n, stride) - e_rob),
                1e-11 * (1.0 + e_rob))
          << "stride=" << stride;
    }
  }
}

TEST(SimdChecksum, BackendResultsAreDeterministic) {
  BackendGuard guard;
  const std::size_t n = 4099;
  auto x = random_vector(n, InputDistribution::kNormal, 606);
  for (Backend b : available_backends()) {
    ASSERT_TRUE(simd::set_backend(b));
    const auto a = checksum::dual_weighted_sum(nullptr, x.data(), n);
    const auto c = checksum::dual_weighted_sum(nullptr, x.data(), n);
    EXPECT_EQ(std::memcmp(&a, &c, sizeof(a)), 0)
        << simd::backend_name(b) << " not bit-stable across calls";
  }
}

template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(SimdChecksum, ColumnChecksumsBitIdenticalToScalarOnEveryBackend) {
  BackendGuard guard;
  // Columns around the AVX2 body's four-column step, rows around its
  // four-row fold, with and without weights.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {3, 5}, {4, 4}, {5, 7}, {9, 13}, {16, 64}, {64, 65}, {33, 2048}};
  for (const auto& [rows, cols] : shapes) {
    auto x = random_vector(rows * cols, InputDistribution::kNormal,
                           700 + rows * cols);
    x[0] = cplx{-0.0, 0.0};  // signed zeros must round like the reference
    auto w = random_vector(rows, InputDistribution::kUniform, 701 + rows);
    for (const cplx* weights : {static_cast<const cplx*>(nullptr),
                                static_cast<const cplx*>(w.data())}) {
      std::vector<cplx> rs1, rs2, s1, s2;
      std::vector<double> re, e;
      std::vector<checksum::SyndromeSet> syn;
      ASSERT_TRUE(simd::set_backend(Backend::kScalar));
      checksum::input_cmcg(x.data(), rows, cols, weights, 0, rs1, rs2, re,
                           syn);
      for (Backend b : available_backends()) {
        ASSERT_TRUE(simd::set_backend(b));
        checksum::input_cmcg(x.data(), rows, cols, weights, 0, s1, s2, e,
                             syn);
        EXPECT_TRUE(same_bits(s1, rs1) && same_bits(s2, rs2) &&
                    same_bits(e, re))
            << rows << "x" << cols << " weights=" << (weights != nullptr)
            << " backend=" << simd::backend_name(b);
        // The copying pass (the window schedule's input copy) leaves the
        // sums alone and copies every element.
        std::vector<cplx> copy(rows * cols);
        checksum::input_cmcg(x.data(), rows, cols, weights, 0, s1, s2, e, syn,
                             copy.data());
        EXPECT_TRUE(same_bits(s1, rs1) && same_bits(s2, rs2) &&
                    same_bits(e, re) && same_bits(copy, x))
            << rows << "x" << cols << " copy, backend="
            << simd::backend_name(b);
        // Row blocks folded one after another, each carrying its first row
        // index (the incremental column checksums of layer 1), give the
        // same bits as one pass.
        s1.assign(cols, cplx{0.0, 0.0});
        s2.assign(cols, cplx{0.0, 0.0});
        e.assign(cols, 0.0);
        for (std::size_t r0 = 0; r0 < rows; r0 += 3) {
          const std::size_t rc = std::min<std::size_t>(3, rows - r0);
          checksum::accumulate_column_checksums(
              x.data() + r0 * cols, rc, cols, r0,
              weights != nullptr ? weights + r0 : nullptr, s1.data(),
              s2.data(), e.data());
        }
        EXPECT_TRUE(same_bits(s1, rs1) && same_bits(s2, rs2) &&
                    same_bits(e, re))
            << rows << "x" << cols << " in row blocks, weights="
            << (weights != nullptr) << " backend=" << simd::backend_name(b);
      }
      // The multi-error path folds the syndromes in its own scalar loop;
      // its dual sums and energies are the same bits.
      checksum::input_cmcg(x.data(), rows, cols, weights, 4, s1, s2, e, syn);
      EXPECT_TRUE(same_bits(s1, rs1) && same_bits(s2, rs2) &&
                  same_bits(e, re))
          << rows << "x" << cols << " syndrome path";
      EXPECT_EQ(syn.size(), cols);
    }
  }
}

// ------------------------------------------------------------ DMR twiddle

std::vector<cplx> twiddle_on(Backend b, const std::vector<cplx>& src,
                             std::size_t stride, std::size_t len,
                             std::size_t n, std::size_t step, cplx scale) {
  EXPECT_TRUE(simd::set_backend(b));
  std::vector<cplx> out(len);
  simd::fft_kernels().twiddle_multiply(src.data(), stride, out.data(), len, n,
                                       step, scale, nullptr, nullptr);
  return out;
}

TEST(SimdDmr, TwiddleBitIdenticalToScalarOnEveryBackend) {
  BackendGuard guard;
  const std::size_t n = 1 << 22;
  for (const std::size_t len :
       {1, 2, 3, 4, 5, 63, 64, 65, 127, 130, 2048}) {
    for (const std::size_t stride : {1, 3, 129}) {
      auto src = random_vector(len * stride, InputDistribution::kNormal,
                               800 + len + stride);
      for (const cplx scale : {cplx{1.0, 0.0}, omega(n, 987653)}) {
        for (const std::size_t step : {1, 2047}) {
          const auto want =
              twiddle_on(Backend::kScalar, src, stride, len, n, step, scale);
          for (Backend b : available_backends()) {
            EXPECT_TRUE(same_bits(
                twiddle_on(b, src, stride, len, n, step, scale), want))
                << "len=" << len << " stride=" << stride << " step=" << step
                << " scale=" << scale << " backend=" << simd::backend_name(b);
          }
        }
      }
    }
  }
}

TEST(SimdDmr, InPlaceTwiddleMatchesOutOfPlace) {
  BackendGuard guard;
  const std::size_t len = 259, n = 4096, step = 7;
  const auto src = random_vector(len, InputDistribution::kUniform, 810);
  for (Backend b : available_backends()) {
    const auto want = twiddle_on(b, src, 1, len, n, step, cplx{1.0, 0.0});
    auto data = src;
    simd::fft_kernels().twiddle_multiply(data.data(), 1, data.data(), len, n,
                                         step, cplx{1.0, 0.0}, nullptr,
                                         nullptr);
    EXPECT_TRUE(same_bits(data, want)) << simd::backend_name(b);
  }
}

TEST(SimdDmr, FusedSumIsTheWeightedSumEnergyOfTheProducts) {
  BackendGuard guard;
  const std::size_t n = 1 << 20;
  for (const std::size_t len : {1, 2, 3, 5, 7, 63, 65, 66, 67, 1000, 2048}) {
    const auto src = random_vector(len * 2, InputDistribution::kNormal,
                                   820 + len);
    const auto cw = random_vector(len, InputDistribution::kUniform, 821);
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      for (const std::size_t stride : {1, 2}) {
        std::vector<cplx> out(len);
        checksum::SumEnergy fused;
        simd::fft_kernels().twiddle_multiply(src.data(), stride, out.data(),
                                             len, n, 5, cplx{1.0, 0.0},
                                             cw.data(), &fused);
        const auto want = checksum::weighted_sum_energy(cw.data(), out.data(),
                                                        len);
        EXPECT_EQ(std::memcmp(&fused, &want, sizeof(want)), 0)
            << "len=" << len << " stride=" << stride
            << " backend=" << simd::backend_name(b);
      }
    }
  }
}

// The window epilogue equals its separate passes bit for bit on every
// backend: the CCG products are twiddle_multiply's, the duals and energies
// are accumulate_column_checksums' (energies in both slots), and the backup
// is a (streamed) copy.
TEST(SimdWindow, EpilogueEqualsItsSeparatePassesOnEveryBackend) {
  BackendGuard guard;
  const std::size_t n = 1 << 22;
  for (const std::size_t len : {4, 64, 128, 132, 2048}) {
    const auto y = random_vector(len, InputDistribution::kNormal, 840 + len);
    const auto acc0 = random_vector(len, InputDistribution::kUniform, 841);
    const auto s10 = random_vector(len, InputDistribution::kUniform, 842);
    const auto s20 = random_vector(len, InputDistribution::kUniform, 843);
    const cplx scale = omega(n, 12345);
    const std::size_t step = 777;
    const double row = 37.0;
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      std::vector<cplx> tw(len);
      simd::fft_kernels().twiddle_multiply(y.data(), 1, tw.data(), len, n,
                                           step, scale, nullptr, nullptr);
      std::vector<cplx> want_acc = acc0;
      for (std::size_t c = 0; c < len; ++c) want_acc[c] += tw[c];
      std::vector<cplx> want_s1 = s10, want_s2 = s20;
      std::vector<double> want_e(len, 0.5);
      checksum::accumulate_column_checksums(y.data(), 1, len, 37, nullptr,
                                            want_s1.data(), want_s2.data(),
                                            want_e.data());
      std::vector<cplx> acc = acc0, s1 = s10, s2 = s20;
      std::vector<cplx> e2(len, cplx{0.5, 0.5});
      AlignedBuffer<cplx> backup(len);
      simd::fft_kernels().window_epilogue(y.data(), len, n, step, scale, row,
                                          acc.data(), s1.data(), s2.data(),
                                          e2.data(), backup.data());
      const std::vector<cplx> copied(backup.data(), backup.data() + len);
      std::vector<double> e(len);
      bool dup = true;
      for (std::size_t c = 0; c < len; ++c) {
        e[c] = e2[c].real();
        dup = dup && e2[c].imag() == e2[c].real();
      }
      EXPECT_TRUE(same_bits(acc, want_acc) && same_bits(s1, want_s1) &&
                  same_bits(s2, want_s2) && same_bits(e, want_e) && dup &&
                  same_bits(copied, y))
          << "len=" << len << " backend=" << simd::backend_name(b);
    }
  }
}

TEST(SimdDmr, FirstMismatchKeepsComplexNotEqualSemantics) {
  BackendGuard guard;
  const double nan = std::nan("");
  for (Backend b : available_backends()) {
    ASSERT_TRUE(simd::set_backend(b));
    const auto& k = simd::fft_kernels();
    for (const std::size_t n : {0, 1, 2, 3, 4, 5, 8, 9, 64}) {
      std::vector<cplx> a = random_vector(n, InputDistribution::kNormal, 830);
      std::vector<cplx> c = a;
      EXPECT_EQ(k.first_mismatch(a.data(), c.data(), n), n);
      for (std::size_t i = 0; i < n; ++i) {
        // -0 == +0 in either slot: no mismatch.
        auto z = a;
        auto zc = a;
        z[i] = cplx{-0.0, 0.0};
        zc[i] = cplx{0.0, -0.0};
        EXPECT_EQ(k.first_mismatch(z.data(), zc.data(), n), n)
            << "n=" << n << " i=" << i << " " << simd::backend_name(b);
        // A NaN never equals itself, in either slot.
        for (const cplx bad : {cplx{nan, 0.0}, cplx{0.0, nan}}) {
          auto x = a;
          auto y = a;
          x[i] = bad;
          y[i] = bad;
          EXPECT_EQ(k.first_mismatch(x.data(), y.data(), n), i)
              << "n=" << n << " i=" << i << " " << simd::backend_name(b);
        }
        // An ordinary difference in the imaginary slot only.
        auto d = a;
        d[i] += cplx{0.0, 1e-300};
        EXPECT_EQ(k.first_mismatch(a.data(), d.data(), n),
                  d[i] == a[i] ? n : i);
      }
    }
  }
}

// ------------------------------------------------------------------ FFT

double fft_tolerance(std::size_t n, double scale) {
  return 1e-12 * (std::log2(static_cast<double>(n) + 2.0) + 1.0) *
         (scale + 1.0);
}

TEST(SimdFft, InplaceForwardAgreesAcrossBackendsUpTo64k) {
  BackendGuard guard;
  for (std::size_t n = 1; n <= (1u << 16); n *= 2) {
    auto x = random_vector(n, InputDistribution::kUniform, 707);
    const auto plan = fft::InplaceRadix2Plan::get(n);
    ASSERT_TRUE(simd::set_backend(Backend::kScalar));
    auto ref = x;
    plan->forward(ref.data());
    const double scale = inf_norm(ref.data(), n);
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      auto y = x;
      plan->forward(y.data());
      EXPECT_LT(inf_diff(y.data(), ref.data(), n), fft_tolerance(n, scale))
          << "n=" << n << " backend=" << simd::backend_name(b);
      // Round trip through the same backend's inverse.
      plan->inverse(y.data());
      EXPECT_LT(inf_diff(y.data(), x.data(), n),
                fft_tolerance(n, inf_norm(x.data(), n)))
          << "n=" << n << " backend=" << simd::backend_name(b);
    }
  }
}

TEST(SimdFft, InplaceMatchesReferenceDftOnEveryBackend) {
  BackendGuard guard;
  for (std::size_t n : {1ul, 2ul, 4ul, 8ul, 16ul, 64ul, 256ul, 1024ul}) {
    auto x = random_vector(n, InputDistribution::kNormal, 808);
    std::vector<cplx> want(n);
    dft::reference_dft(x.data(), want.data(), n);
    const auto plan = fft::InplaceRadix2Plan::get(n);
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      auto y = x;
      plan->forward(y.data());
      EXPECT_LT(inf_diff(y.data(), want.data(), n),
                1e-9 * (1.0 + inf_norm(want.data(), n)))
          << "n=" << n << " backend=" << simd::backend_name(b);
    }
  }
}

TEST(SimdFft, OutOfPlaceExecutorAgreesAcrossBackends) {
  BackendGuard guard;
  // Power-of-two sizes above 16 run the in-place engine; the planner sizes
  // cover vectorized combines (r = 2/4/8/16 at 14/60/24/48), scalar
  // combines (r = 3/5), leaf codelets, generic codelets, and Bluestein.
  for (std::size_t n : {4ul, 8ul, 14ul, 16ul, 24ul, 30ul, 48ul, 60ul, 100ul,
                        240ul, 1024ul, 4096ul, 4099ul, 65536ul}) {
    auto x = random_vector(n, InputDistribution::kUniform, 909);
    fft::Fft engine(n);
    ASSERT_TRUE(simd::set_backend(Backend::kScalar));
    std::vector<cplx> ref(n);
    engine.execute(x.data(), ref.data());
    const double scale = inf_norm(ref.data(), n);
    for (Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_backend(b));
      std::vector<cplx> out(n);
      engine.execute(x.data(), out.data());
      EXPECT_LT(inf_diff(out.data(), ref.data(), n), fft_tolerance(n, scale))
          << "n=" << n << " backend=" << simd::backend_name(b);
    }
  }
}

TEST(SimdFft, StridedCodeletsAgreeWithGenericOnEveryBackend) {
  BackendGuard guard;
  for (std::size_t n : {4ul, 8ul, 16ul}) {
    for (std::size_t is : {1ul, 3ul, 257ul}) {
      auto x = random_vector(n * is, InputDistribution::kNormal, 111);
      std::vector<cplx> want(n);
      dft::generic_dft(n, x.data(), is, want.data(), 1);
      for (Backend b : available_backends()) {
        ASSERT_TRUE(simd::set_backend(b));
        std::vector<cplx> got(n);
        dft::codelet_dft(n, x.data(), is, got.data(), 1);
        EXPECT_LT(inf_diff(got.data(), want.data(), n),
                  1e-11 * (1.0 + inf_norm(want.data(), n)))
            << "n=" << n << " is=" << is
            << " backend=" << simd::backend_name(b);
        // Strided output bypasses the vector leaf and must still match.
        std::vector<cplx> strided(2 * n);
        dft::codelet_dft(n, x.data(), is, strided.data(), 2);
        for (std::size_t k = 0; k < n; ++k) {
          EXPECT_LT(std::abs(strided[2 * k] - want[k]),
                    1e-11 * (1.0 + inf_norm(want.data(), n)));
        }
      }
    }
  }
}

// --------------------------------------------------------------- dispatch

TEST(SimdDispatch, ParseBackendRecognizesExactlyTheThreeNames) {
  Backend b = Backend::kScalar;
  EXPECT_TRUE(simd::detail::parse_backend("scalar", b));
  EXPECT_EQ(b, Backend::kScalar);
  EXPECT_TRUE(simd::detail::parse_backend("avx2", b));
  EXPECT_EQ(b, Backend::kAvx2);
  EXPECT_TRUE(simd::detail::parse_backend("neon", b));
  EXPECT_EQ(b, Backend::kNeon);
  EXPECT_FALSE(simd::detail::parse_backend("auto", b));
  EXPECT_FALSE(simd::detail::parse_backend("AVX2", b));
  EXPECT_FALSE(simd::detail::parse_backend("", b));
  EXPECT_FALSE(simd::detail::parse_backend(nullptr, b));
}

TEST(SimdDispatch, EnvOverrideResolvesAndFallsBackGracefully) {
  BackendGuard guard;
  ASSERT_EQ(setenv("FTFFT_SIMD", "scalar", 1), 0);
  EXPECT_EQ(simd::detail::resolve_from_env(), Backend::kScalar);
  ASSERT_EQ(setenv("FTFFT_SIMD", "definitely-not-a-backend", 1), 0);
  EXPECT_EQ(simd::detail::resolve_from_env(), simd::detected_backend());
  // Requesting a backend that is not available must fall back to detection
  // instead of crashing. At least one of avx2/neon is absent everywhere.
  const char* missing =
      simd::backend_available(Backend::kAvx2) ? "neon" : "avx2";
  ASSERT_EQ(setenv("FTFFT_SIMD", missing, 1), 0);
  EXPECT_EQ(simd::detail::resolve_from_env(), simd::detected_backend());
  ASSERT_EQ(unsetenv("FTFFT_SIMD"), 0);
  EXPECT_EQ(simd::detail::resolve_from_env(), simd::detected_backend());
}

TEST(SimdDispatch, SetBackendForcesEveryAvailableBackend) {
  BackendGuard guard;
  for (Backend b : available_backends()) {
    EXPECT_TRUE(simd::set_backend(b));
    EXPECT_EQ(simd::active_backend(), b);
    EXPECT_STREQ(simd::simd_backend_name(), simd::backend_name(b));
  }
  for (Backend b : {Backend::kAvx2, Backend::kNeon}) {
    if (simd::backend_available(b)) continue;
    const Backend before = simd::active_backend();
    EXPECT_FALSE(simd::set_backend(b));
    EXPECT_EQ(simd::active_backend(), before);
  }
}

// ------------------------------------------------- fault campaigns (table 1)

struct CampaignOutcome {
  bool threw = false;
  bool correct = false;
  std::size_t detected = 0;   // comp + mem detections
  std::size_t corrected = 0;  // mem corrections
  std::size_t retries = 0;    // sub-FFT re-executions

  bool operator==(const CampaignOutcome&) const = default;
};

CampaignOutcome run_one_campaign(int seed, bool inplace) {
  constexpr std::size_t kN = 1024;
  Rng rng(91000 + seed);
  auto x = random_vector(kN, InputDistribution::kUniform, 92000 + seed);
  const auto want = fft::fft(x);
  const fault::Phase phases[] = {
      fault::Phase::kInputAfterChecksum, fault::Phase::kMFftOutput,
      fault::Phase::kIntermediate, fault::Phase::kKFftOutput,
      fault::Phase::kFinalOutput};
  const fault::Phase phase = phases[rng.below(5)];
  const bool unit_scoped = phase == fault::Phase::kMFftOutput ||
                           phase == fault::Phase::kKFftOutput;
  const std::size_t unit = unit_scoped ? rng.below(32) : 0;
  const std::size_t element = rng.below(unit_scoped ? 32 : kN);
  fault::Injector inj;
  inj.schedule(fault::FaultSpec::computational(
      phase, unit, element,
      {rng.uniform(0.5, 100.0), rng.uniform(-100.0, -0.5)}));
  abft::Options opts = abft::Options::online_opt(true);
  opts.injector = &inj;
  abft::Stats stats;
  CampaignOutcome out;
  try {
    if (inplace) {
      abft::inplace_online_transform(x.data(), kN, opts, stats);
      out.correct = inf_diff(x.data(), want.data(), kN) < 1e-8;
    } else {
      std::vector<cplx> y(kN);
      abft::online_transform(x.data(), y.data(), kN, opts, stats);
      out.correct = inf_diff(y.data(), want.data(), kN) < 1e-8;
    }
  } catch (const UncorrectableError&) {
    out.threw = true;
  }
  out.detected = stats.comp_errors_detected + stats.mem_errors_detected;
  out.corrected = stats.mem_errors_corrected;
  out.retries = stats.sub_fft_retries;
  return out;
}

TEST(SimdFaultCampaigns, DetectionAndCorrectionIdenticalOnEveryBackend) {
  BackendGuard guard;
  // Table-1 style campaign: random single computational faults across
  // phases. Every backend must produce the exact same per-seed outcome
  // (survived/threw, detected and corrected counters) as the scalar
  // reference — vectorization must not change what the scheme catches.
  constexpr int kSeeds = 20;
  std::vector<CampaignOutcome> ref;
  std::size_t total_detected = 0;
  ASSERT_TRUE(simd::set_backend(Backend::kScalar));
  for (int s = 0; s < kSeeds; ++s) {
    ref.push_back(run_one_campaign(s, (s % 2) == 0));
    EXPECT_TRUE(ref.back().threw || ref.back().correct) << "seed " << s;
    total_detected += ref.back().detected;
  }
  // The campaign injects real faults; a healthy run detects most of them.
  EXPECT_GE(total_detected, static_cast<std::size_t>(kSeeds) / 2);
  for (Backend b : available_backends()) {
    if (b == Backend::kScalar) continue;
    ASSERT_TRUE(simd::set_backend(b));
    for (int s = 0; s < kSeeds; ++s) {
      const CampaignOutcome got = run_one_campaign(s, (s % 2) == 0);
      EXPECT_EQ(got, ref[s])
          << "seed " << s << " backend=" << simd::backend_name(b)
          << " (threw=" << got.threw << " correct=" << got.correct
          << " detected=" << got.detected << " corrected=" << got.corrected
          << ")";
    }
  }
}

TEST(SimdFaultCampaigns, FaultFreeRunsStayCleanOnEveryBackend) {
  BackendGuard guard;
  constexpr std::size_t kN = 4096;
  auto x = random_vector(kN, InputDistribution::kNormal, 333);
  const auto want = fft::fft(x);
  for (Backend b : available_backends()) {
    ASSERT_TRUE(simd::set_backend(b));
    std::vector<cplx> y(kN);
    abft::Stats stats;
    abft::online_transform(x.data(), y.data(), kN,
                           abft::Options::online_opt(true), stats);
    EXPECT_LT(inf_diff(y.data(), want.data(), kN), 1e-8)
        << simd::backend_name(b);
    EXPECT_EQ(stats.comp_errors_detected, 0u) << simd::backend_name(b);
    EXPECT_EQ(stats.mem_errors_detected, 0u) << simd::backend_name(b);
  }
}

}  // namespace
}  // namespace ftfft
