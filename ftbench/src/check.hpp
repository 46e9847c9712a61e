// Output checks and per-operation outcome classification.
//
// Every timed operation's output is compared against an independent
// unprotected path (precomputed before the clock starts). Two tolerances,
// both derived from the library's round-off model (roundoff/model.hpp):
//
//  * clean_tolerance: an operation no fault touched must agree with the
//    reference to within the FFT round-off noise model (relative L2 noise
//    sqrt(2 log2 n) * sigma_eps) times a generous 1024x margin.
//  * detect_tolerance: an operation a fault did touch must agree to within
//    the detectability bound — the relative size of the largest
//    single-element error the practical threshold may legitimately miss,
//    practical_eta(n, 1) / n. Anything above it that the library returned
//    as a success is a silent corruption.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <limits>

#include "roundoff/model.hpp"

namespace ftbench {

using cplx = std::complex<double>;

/// ||got - want||_2 / ||want||_2; +inf when `got` holds a non-finite value.
inline double rel_l2(const cplx* got, const cplx* want, std::size_t n) {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    num += std::norm(got[i] - want[i]);
    den += std::norm(want[i]);
  }
  if (!std::isfinite(num)) return std::numeric_limits<double>::infinity();
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

inline double clean_tolerance(std::size_t n) {
  const double log2n = std::log2(static_cast<double>(n < 2 ? 2 : n));
  return 1024.0 * std::sqrt(2.0 * log2n) * ftfft::roundoff::sigma_eps();
}

inline double detect_tolerance(std::size_t n) {
  return ftfft::roundoff::practical_eta(n, 1.0) / static_cast<double>(n);
}

/// What happened to one operation (one lane, one transform).
enum class Outcome {
  kClean,          ///< no fault fired, no error, output correct
  kCorrected,      ///< a fault fired, no error, output correct
  kUncorrectable,  ///< a fault fired and the library reported an error
  kFalseAlarm,     ///< no fault fired but the library reported an error
  kSilent,         ///< the library reported success with a wrong output
};
inline constexpr std::size_t kNumOutcomes = 5;

inline const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kClean: return "clean";
    case Outcome::kCorrected: return "corrected";
    case Outcome::kUncorrectable: return "uncorrectable";
    case Outcome::kFalseAlarm: return "false_alarm";
    case Outcome::kSilent: return "silent";
  }
  return "?";
}

/// `output_ok` is only consulted when the call returned normally.
inline Outcome classify(bool fault_fired, bool threw, bool output_ok) {
  if (threw) return fault_fired ? Outcome::kUncorrectable : Outcome::kFalseAlarm;
  if (!output_ok) return Outcome::kSilent;
  return fault_fired ? Outcome::kCorrected : Outcome::kClean;
}

/// Checks `got` against `want` with the tolerance the outcome rules above
/// assign, then classifies.
inline Outcome check_output(const cplx* got, const cplx* want, std::size_t n,
                            bool fault_fired, bool threw) {
  if (threw) return classify(fault_fired, true, false);
  const double tol = fault_fired ? detect_tolerance(n) : clean_tolerance(n);
  return classify(fault_fired, false, rel_l2(got, want, n) <= tol);
}

inline bool is_failure(Outcome o) {
  return o == Outcome::kUncorrectable || o == Outcome::kFalseAlarm ||
         o == Outcome::kSilent;
}

}  // namespace ftbench
