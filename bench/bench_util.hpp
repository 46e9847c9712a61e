// Shared plumbing for the paper-reproduction benchmark harnesses.
//
// Every binary in bench/ regenerates one table or figure of the SC'17 paper
// and prints it in the same row/column structure. Problem sizes default to
// laptop scale and honor FTFFT_BENCH_SCALE (log2 shift on sizes) and
// FTFFT_BENCH_RUNS (percentage on repetition counts) so bigger machines can
// approach the paper's original sizes without code edits.
#pragma once

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/table_printer.hpp"
#include "common/timer.hpp"

namespace ftfft::bench {

/// Runs `fn` `reps` times and returns the minimum wall time in seconds
/// (minimum, not mean: scheduling noise only ever adds time).
inline double time_best(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.elapsed());
  }
  return best;
}

/// Minimum over `rounds` measurements of each of `count` cases, taken in
/// interleaved rounds with the case order rotating every round, so drift of
/// a shared host hits every case alike instead of whichever ran last.
inline std::vector<double> interleaved_best(
    std::size_t rounds, std::size_t count,
    const std::function<double(std::size_t)>& measure) {
  std::vector<double> best(count, 1e300);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t c = (j + r) % count;
      best[c] = std::min(best[c], measure(c));
    }
  }
  return best;
}

/// Percentage overhead of `t` over baseline `t0`.
inline double overhead_pct(double t, double t0) {
  return t0 > 0.0 ? (t - t0) / t0 * 100.0 : 0.0;
}

/// Prints the standard bench banner.
inline void banner(const char* title, const char* paper_ref) {
  std::printf("=== %s ===\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("scale shift: %+ld (FTFFT_BENCH_SCALE), runs: %zu%% "
              "(FTFFT_BENCH_RUNS)\n\n",
              bench_scale_shift(), bench_runs_percent());
}

/// "2^k" label for power-of-two sizes, otherwise plain digits.
inline std::string size_label(std::size_t n) {
  if ((n & (n - 1)) == 0 && n > 0) {
    unsigned b = 0;
    std::size_t v = n;
    while (v >>= 1) ++b;
    return "2^" + std::to_string(b);
  }
  return std::to_string(n);
}

}  // namespace ftfft::bench
