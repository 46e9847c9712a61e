// Reproduces Table 2: strong-scaling execution time of opt-FT-FFTW when
// faults strike (0 / 2m / 2c / 2m+2c), fixed N, growing rank count.
//
// Expected shape (paper section 9.3.2): all rows essentially identical —
// each fault only re-runs one p-point or sqrt(n_loc)-point sub-FFT, so
// recovery cost vanishes in the simulated makespan. After the table the
// bench prints one PASS/FAIL line per (fault load, p), computed from the
// table: the faulted makespan lies within kCoincide of the fault-free one.
// Each cell is the best of interleaved rounds over the four loads
// (FTFFT_BENCH_RUNS scales the round count).
// A FAIL is reported, not hidden; the exit status stays 0 so CI's smoke run
// keeps the bench from rotting without gating on host timing.
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

// "Coincide": four sub-FFT re-runs are a vanishing share of a transform, so
// a faulted row may differ from the fault-free one by CPU-time noise only;
// best-of-rounds makespans move by a few percent between runs.
constexpr double kCoincide = 0.10;

// Injects the load spread over ranks, as in the paper ("faults are injected
// in each processor").
std::function<void(std::size_t, fault::Injector&)> make_arm(Load load) {
  return [load](std::size_t rank, fault::Injector& inj) {
    using fault::FaultSpec;
    using fault::Phase;
    const bool mem = load == Load::kTwoMem || load == Load::kTwoMemTwoComp;
    const bool comp = load == Load::kTwoComp || load == Load::kTwoMemTwoComp;
    if (mem && rank == 0) {
      inj.schedule(FaultSpec::memory_set(Phase::kCommBlock, 1, 3,
                                         {21.0, -4.0}));
    }
    if (mem && rank == 1) {
      inj.schedule(FaultSpec::memory_set(Phase::kFinalOutput, 0, 9,
                                         {-17.0, 8.0}));
    }
    if (comp && rank == 0) {
      inj.schedule(FaultSpec::computational(Phase::kRankFft1Output, 1, 1,
                                            {5.0, 5.0}));
    }
    if (comp && rank == 2 % 4) {
      inj.schedule(FaultSpec::computational(Phase::kKFftOutput, 2, 2,
                                            {-3.0, 7.0}));
    }
  };
}

constexpr Load kLoads[] = {Load::kNone, Load::kTwoMem, Load::kTwoComp,
                           Load::kTwoMemTwoComp};

// Best makespan (ms) of every fault load at one rank count: a warm-up, then
// interleaved rounds over the four loads.
std::vector<double> run_column(std::size_t p, std::size_t n) {
  auto x = random_vector(n, InputDistribution::kUniform, 3 + n + p);
  ParallelReport report;
  (void)parallel::parallel_fft(p, x, ParallelOptions::opt_ft_fftw(), &report);
  return bench::interleaved_best(scaled_runs(8), 4, [&](std::size_t l) {
    (void)parallel::parallel_fft(p, x, ParallelOptions::opt_ft_fftw(),
                                 &report, make_arm(kLoads[l]));
    return report.makespan * 1e3;
  });
}

}  // namespace

int main() {
  bench::banner("Parallel strong scaling with faults (opt-FT-FFTW)",
                "Table 2, SC'17 Liang et al.");
  const std::size_t n = scaled_size(std::size_t{1} << 20);
  std::printf("N = %s, simulated makespan\n\n", size_label(n).c_str());

  const std::vector<std::size_t> ps = {4, 8, 16, 32};
  TablePrinter table({"Load", "p=4", "p=8", "p=16", "p=32"});
  const char* const rows[] = {"opt-FT-FFTW (0)", "opt-FT-FFTW (2m)",
                              "opt-FT-FFTW (2c)", "opt-FT-FFTW (2m+2c)"};
  std::vector<std::vector<double>> ms(4);  // [load][p]
  for (std::size_t p : ps) {
    const auto col = run_column(p, n);
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
  for (std::size_t r = 1; r < ms.size(); ++r) {
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const double dev = (ms[r][i] - ms[0][i]) / ms[0][i];
      const bool ok = std::abs(dev) <= kCoincide;
      failures += ok ? 0 : 1;
      ++checks;
      std::printf("shape check p=%-3zu %-20s ~ fault-free  %s (%+.1f%%)\n",
                  ps[i], rows[r], ok ? "PASS" : "FAIL", dev * 100.0);
    }
  }
  std::printf("shape check summary: %d of %d checks FAIL\n", failures,
              checks);
  return 0;
}
