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
// in (b).
#include <vector>

#include "abft/options.hpp"
#include "abft/protected_fft.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"

namespace {

using namespace ftfft;
using bench::size_label;

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

void run_panel(const char* title, bool memory_ft,
               const std::vector<std::size_t>& sizes, int reps) {
  std::printf("--- %s ---\n", title);
  // "Fused-Online" is Opt-Online plus the PR-6 kernel fusion: the checksum
  // dots accumulate inside the butterfly passes (TurboFFT-style) instead of
  // separate sweeps; the separate-pass column stays as the reference.
  TablePrinter table({"Problem Size", "Offline", "Opt-Offline",
                      memory_ft ? "Online" : "CFTO-Online", "Opt-Online",
                      "Fused-Online"});
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
  }
  table.print();
  std::printf("\n");
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
  run_panel("(a) computational FT", false, sizes, reps);
  run_panel("(b) computational + memory FT", true, sizes, reps);
  std::printf(
      "shape check: Offline (naive) highest everywhere. At memory-bound sizes "
      "(>= 2^21 here, 2^25+ in the paper) Opt-Online undercuts Opt-Offline in\n(a) and stays comparable in (b); at compute-bound sizes the explicit\ndecomposition is visible as structural overhead.\nFused-Online undercuts Opt-Online wherever a sub-size passes the\nfused_profitable gate (>= 512, != 2048): the input dot rides the sub-FFT\nstaging copy and the output dot the final streaming stage. Sub-sizes the\ngate rejects run the identical separate-pass code in both columns, so\nthose rows read as 'even within noise' — e.g. 2^22 = 2048 x 2048 sits\nentirely at the gated L1-edge size. Expect Fused-Online at or below\nOpt-Online on every row, clearly below at 2^19/2^20.\n");
  return 0;
}
