// Open-loop arrival schedule and its lag accounting.
//
// In an open loop requests are sent on a schedule regardless of how the
// system keeps up, so a stall delays every request queued behind it. Each
// request is therefore timed from when it was *due*, not from when the
// generator got round to sending it, and the generator's own lateness is
// reported separately so a slow generator cannot hide as a fast system.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace ftbench {

/// Poisson arrivals at `rate` per second over [0, duration): due times in
/// seconds from the phase start, increasing. Deterministic in `seed`.
inline std::vector<double> poisson_schedule(double rate, double duration,
                                            std::uint64_t seed) {
  std::vector<double> due;
  if (rate <= 0.0) return due;
  std::mt19937_64 gen(seed);
  double t = 0.0;
  for (;;) {
    // Inverse-CDF exponential gap from a 53-bit uniform in (0, 1].
    const double u = (static_cast<double>(gen() >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / rate;
    if (t >= duration) break;
    due.push_back(t);
  }
  return due;
}

/// Timeline of one open-loop request, all on the same clock (seconds).
struct ArrivalRecord {
  double due = 0.0;   ///< scheduled send time
  double sent = 0.0;  ///< when the generator actually submitted it
  double done = 0.0;  ///< when its result became available
};

/// How late the generator sent the request (never negative).
inline double generator_lag(const ArrivalRecord& r) {
  return std::max(0.0, r.sent - r.due);
}

/// Latency as the open-loop rule defines it: from due time to completion,
/// so generator lag and queueing behind a stall both count.
inline double open_loop_latency(const ArrivalRecord& r) { return r.done - r.due; }

}  // namespace ftbench
