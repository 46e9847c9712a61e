// Reproduces Fig. 7: overhead of the ABFT-FFT schemes with no faults.
//
//  (a) computational FT only:  Offline / Opt-Offline / CFTO-Online /
//      Opt-Online  (paper: 2^25..2^28 on Tianhe-2; here 2^16..2^19 by
//      default, shiftable with FTFFT_BENCH_SCALE).
//  (b) computational + memory FT: Offline / Opt-Offline / Online /
//      Opt-Online.
//
// Expected shape (paper section 9.2.1): the naive offline scheme is the
// most expensive (per-element trig generation of rA); the optimized online
// scheme undercuts the optimized offline scheme in (a) and stays comparable
// in (b). After each table the bench prints PASS/FAIL lines computed from
// the table's own times, per size:
//   - Offline highest          (naive offline costs the most);
//   - Opt-Online < Opt-Offline (panel (a), memory-bound sizes >= 2^21);
//   - Opt-Online ~ Opt-Offline (panel (b), memory-bound sizes: overheads
//                               within kComparablePoints of each other);
//   - Fused <= Opt-Online      (within kPairNoise of the interleaved pair).
// The overheads are taken against Options::none(), the plain fft::Fft on
// the in-place engine. A FAIL is reported, not hidden; the exit status
// stays 0.
#include <algorithm>
#include <cmath>
#include <vector>

#include "abft/options.hpp"
#include "abft/protected_fft.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"

namespace {

using namespace ftfft;
using bench::size_label;

/// Sizes from which the transform streams from DRAM on the reference host
/// (2^25+ in the paper): the Opt-Online vs Opt-Offline rules apply there.
constexpr std::size_t kMemoryBound = std::size_t{1} << 21;
/// Panel (b)'s "comparable": overhead percentages at most this many points
/// apart.
constexpr double kComparablePoints = 10.0;
/// Fused vs Opt-Online is timed as an interleaved pair; differences below
/// this fraction are noise (the A/A floor of the pairing is about 1%).
constexpr double kPairNoise = 0.02;

/// One table row: best times (s) of the unprotected baseline and each scheme.
struct Row {
  std::size_t n;
  double base, off_naive, off_opt, on_naive, on_opt, on_fused;
};

double run_scheme(std::size_t n, const abft::Options& opts, int reps) {
  auto x = random_vector(n, InputDistribution::kUniform, 42 + n);
  std::vector<cplx> out(n);
  abft::Stats stats;
  // Warm plan caches so planning time is not billed to the scheme.
  abft::protected_transform(x.data(), out.data(), n, opts, stats);
  return bench::time_best(reps, [&] {
    abft::Stats s;
    abft::protected_transform(x.data(), out.data(), n, opts, s);
  });
}

// Times two option sets with their repetitions interleaved (A,B,A,B,...)
// and min-reduced per side. The Opt-Online vs Fused-Online comparison is
// within a couple percent at the largest sizes, which is smaller than the
// slow clock/cache drift between two back-to-back timing blocks — pairing
// the reps cancels that drift out of exactly the delta this figure is
// read for.
std::pair<double, double> run_scheme_pair(std::size_t n,
                                          const abft::Options& a,
                                          const abft::Options& b, int reps) {
  auto x = random_vector(n, InputDistribution::kUniform, 42 + n);
  std::vector<cplx> out(n);
  abft::Stats stats;
  abft::protected_transform(x.data(), out.data(), n, a, stats);
  abft::protected_transform(x.data(), out.data(), n, b, stats);
  double ta = 1e300, tb = 1e300;
  for (int r = 0; r < reps; ++r) {
    {
      abft::Stats s;
      WallTimer timer;
      abft::protected_transform(x.data(), out.data(), n, a, s);
      ta = std::min(ta, timer.elapsed());
    }
    {
      abft::Stats s;
      WallTimer timer;
      abft::protected_transform(x.data(), out.data(), n, b, s);
      tb = std::min(tb, timer.elapsed());
    }
  }
  return {ta, tb};
}

/// Prints one PASS/FAIL line per (size, shape rule) and returns the number of
/// failures.
int print_shape_checks(const char* tag, bool memory_ft,
                       const std::vector<Row>& rows) {
  int failures = 0;
  auto check = [&](const Row& r, const char* rule, bool ok, double a,
                   double b) {
    failures += ok ? 0 : 1;
    std::printf("shape check %s n=%-5s %-26s %s (%.1f%% vs %.1f%%)\n", tag,
                size_label(r.n).c_str(), rule, ok ? "PASS" : "FAIL", a, b);
  };
  for (const Row& r : rows) {
    auto pct = [&](double t) { return bench::overhead_pct(t, r.base); };
    const double others =
        std::max({r.off_opt, r.on_naive, r.on_opt, r.on_fused});
    check(r, "Offline highest", r.off_naive > others, pct(r.off_naive),
          pct(others));
    if (r.n >= kMemoryBound) {
      if (memory_ft) {
        check(r, "Opt-Online ~ Opt-Offline",
              std::abs(pct(r.on_opt) - pct(r.off_opt)) <= kComparablePoints,
              pct(r.on_opt), pct(r.off_opt));
      } else {
        check(r, "Opt-Online < Opt-Offline", r.on_opt < r.off_opt,
              pct(r.on_opt), pct(r.off_opt));
      }
    }
    check(r, "Fused <= Opt-Online", r.on_fused <= r.on_opt * (1 + kPairNoise),
          pct(r.on_fused), pct(r.on_opt));
  }
  return failures;
}

/// Runs and prints one panel; returns its shape-check failures.
int run_panel(const char* title, const char* tag, bool memory_ft,
              const std::vector<std::size_t>& sizes, int reps) {
  std::printf("--- %s ---\n", title);
  // "Fused-Online" is Opt-Online plus the PR-6 kernel fusion: the checksum
  // dots accumulate inside the butterfly passes (TurboFFT-style) instead of
  // separate sweeps; the separate-pass column stays as the reference.
  TablePrinter table({"Problem Size", "Offline", "Opt-Offline",
                      memory_ft ? "Online" : "CFTO-Online", "Opt-Online",
                      "Fused-Online"});
  std::vector<Row> rows;
  for (std::size_t n : sizes) {
    const double t0 = run_scheme(n, abft::Options::none(), reps);
    const double t_off_naive =
        run_scheme(n, abft::Options::offline_naive(memory_ft), reps);
    const double t_off_opt =
        run_scheme(n, abft::Options::offline_opt(memory_ft), reps);
    const double t_on_naive =
        run_scheme(n, abft::Options::online_naive(memory_ft), reps);
    abft::Options opt_online = abft::Options::online_opt(memory_ft);
    opt_online.fused_checksums = false;
    abft::Options fused_online = abft::Options::online_opt(memory_ft);
    fused_online.fused_checksums = true;
    const auto [t_on_opt, t_on_fused] =
        run_scheme_pair(n, opt_online, fused_online, reps);
    table.add_row(
        {size_label(n),
         TablePrinter::percent(bench::overhead_pct(t_off_naive, t0) / 100.0),
         TablePrinter::percent(bench::overhead_pct(t_off_opt, t0) / 100.0),
         TablePrinter::percent(bench::overhead_pct(t_on_naive, t0) / 100.0),
         TablePrinter::percent(bench::overhead_pct(t_on_opt, t0) / 100.0),
         TablePrinter::percent(bench::overhead_pct(t_on_fused, t0) / 100.0)});
    rows.push_back(
        {n, t0, t_off_naive, t_off_opt, t_on_naive, t_on_opt, t_on_fused});
  }
  table.print();
  std::printf("\n");
  const int failures = print_shape_checks(tag, memory_ft, rows);
  std::printf("\n");
  return failures;
}

}  // namespace

int main() {
  bench::banner("Sequential fault-tolerance overhead (no faults)",
                "Fig. 7(a)/(b), SC'17 Liang et al.");
  std::vector<std::size_t> sizes;
  for (std::size_t base : {std::size_t{1} << 19, std::size_t{1} << 20,
                           std::size_t{1} << 21, std::size_t{1} << 22}) {
    sizes.push_back(scaled_size(base));
  }
  const int reps = static_cast<int>(scaled_runs(2));
  int failures = run_panel("(a) computational FT", "(a)", false, sizes, reps);
  failures +=
      run_panel("(b) computational + memory FT", "(b)", true, sizes, reps);
  std::size_t checks = 0;
  for (std::size_t n : sizes) checks += 2 * (n >= kMemoryBound ? 3 : 2);
  std::printf("shape check summary: %d of %zu checks FAIL\n", failures,
              checks);
  return 0;
}
