// Reproduces Table 3: weak-scaling execution time of opt-FT-FFTW when
// faults strike (0 / 2m / 2c / 2m+2c), fixed rank count, growing N.
//
// Expected shape (paper section 9.3.2): per-column times identical across
// fault loads; time grows ~linearly in N (N log N work on p ranks). After
// the table the bench prints PASS/FAIL lines computed from it:
//   - per (fault load, N): the faulted makespan lies within kCoincide of
//     the fault-free one;
//   - per doubling of N: the fault-free makespan grows by a factor in
//     [kGrowthLo, kGrowthHi].
// Each cell is the best of interleaved rounds over the four loads
// (FTFFT_BENCH_RUNS scales the round count). A FAIL is reported, not
// hidden; the exit status stays 0 so CI's smoke run keeps the bench from
// rotting without gating on host timing.
#include <cmath>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "parallel/parallel_fft.hpp"

namespace {

using namespace ftfft;
using bench::size_label;
using parallel::ParallelOptions;
using parallel::ParallelReport;

enum class Load { kNone, kTwoMem, kTwoComp, kTwoMemTwoComp };

// "Coincide": a few sub-FFT re-runs are a vanishing share of a transform,
// so a faulted row may differ from the fault-free one by CPU-time noise
// only (best-of-rounds makespans move by a few percent between runs).
constexpr double kCoincide = 0.10;
// Doubling N doubles the N log N / p work (x2.1 at these sizes); the band
// leaves room for fixed per-message costs and cache effects either way.
constexpr double kGrowthLo = 1.5;
constexpr double kGrowthHi = 3.0;

std::function<void(std::size_t, fault::Injector&)> make_arm(Load load) {
  return [load](std::size_t rank, fault::Injector& inj) {
    using fault::FaultSpec;
    using fault::Phase;
    const bool mem = load == Load::kTwoMem || load == Load::kTwoMemTwoComp;
    const bool comp = load == Load::kTwoComp || load == Load::kTwoMemTwoComp;
    if (mem && rank == 1) {
      inj.schedule(FaultSpec::memory_set(Phase::kCommBlock, 0, 5,
                                         {33.0, 2.0}));
    }
    if (mem && rank == 3) {
      inj.schedule(FaultSpec::memory_set(Phase::kFinalOutput, 0, 14,
                                         {-9.0, 12.0}));
    }
    if (comp && rank == 2) {
      inj.schedule(FaultSpec::computational(Phase::kRankFft1Output, 0, 2,
                                            {6.0, -6.0}));
    }
    if (comp && rank == 5) {
      inj.schedule(FaultSpec::computational(Phase::kMFftOutput, 3, 1,
                                            {2.0, 9.0}));
    }
  };
}

}  // namespace

int main() {
  bench::banner("Parallel weak scaling with faults (opt-FT-FFTW)",
                "Table 3, SC'17 Liang et al.");
  const std::size_t p = 8;
  std::vector<std::size_t> sizes;
  for (std::size_t base : {std::size_t{1} << 17, std::size_t{1} << 18,
                           std::size_t{1} << 19, std::size_t{1} << 20}) {
    sizes.push_back(scaled_size(base));
  }
  std::printf("p = %zu, simulated makespan\n\n", p);

  TablePrinter table({"Load", size_label(sizes[0]), size_label(sizes[1]),
                      size_label(sizes[2]), size_label(sizes[3])});
  const char* const rows[] = {"opt-FT-FFTW (0)", "opt-FT-FFTW (2m)",
                              "opt-FT-FFTW (2c)", "opt-FT-FFTW (2m+2c)"};
  constexpr Load kLoads[] = {Load::kNone, Load::kTwoMem, Load::kTwoComp,
                             Load::kTwoMemTwoComp};
  std::vector<std::vector<double>> ms(4);  // [load][size]
  for (std::size_t n : sizes) {
    auto x = random_vector(n, InputDistribution::kUniform, 9 + n);
    ParallelReport report;
    // Warm-up, then interleaved rounds over the four loads.
    (void)parallel::parallel_fft(p, x, ParallelOptions::opt_ft_fftw(),
                                 &report);
    const auto col =
        bench::interleaved_best(scaled_runs(8), 4, [&](std::size_t l) {
          (void)parallel::parallel_fft(p, x, ParallelOptions::opt_ft_fftw(),
                                       &report, make_arm(kLoads[l]));
          return report.makespan * 1e3;
        });
    for (std::size_t l = 0; l < 4; ++l) ms[l].push_back(col[l]);
  }
  for (std::size_t l = 0; l < 4; ++l) {
    std::vector<std::string> row{rows[l]};
    for (double t : ms[l]) row.push_back(TablePrinter::fixed(t, 3) + " ms");
    table.add_row(row);
  }
  table.print();
  std::printf("\n");
  int failures = 0, checks = 0;
  auto report = [&](bool ok) {
    failures += ok ? 0 : 1;
    ++checks;
    return ok ? "PASS" : "FAIL";
  };
  for (std::size_t r = 1; r < ms.size(); ++r) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const double dev = (ms[r][i] - ms[0][i]) / ms[0][i];
      std::printf("shape check N=%-5s %-20s ~ fault-free  %s (%+.1f%%)\n",
                  size_label(sizes[i]).c_str(), rows[r],
                  report(std::abs(dev) <= kCoincide), dev * 100.0);
    }
  }
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    const double growth = ms[0][i] / ms[0][i - 1];
    std::printf("shape check N=%-5s fault-free grows x%.1f-x%.1f  %s (x%.2f)\n",
                size_label(sizes[i]).c_str(), kGrowthLo, kGrowthHi,
                report(growth >= kGrowthLo && growth <= kGrowthHi), growth);
  }
  std::printf("shape check summary: %d of %d checks FAIL\n", failures,
              checks);
  return 0;
}
