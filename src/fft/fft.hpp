// User-facing FFT engine: one engine per size class + per-instance workspace.
//
//   * power-of-two n > 16: the in-place radix-4/16 + COBRA engine
//     (InplaceRadix2Plan) behind every entry point. Out-of-place runs its
//     copy-permute forward_copy; strided input is gathered into the output
//     (or a staging buffer when os != 1) and transformed in place; the
//     inverse runs the engine's inverse(), which fuses the 1/n scale.
//   * n <= 16 with an unrolled codelet, and every non-power-of-two n: the
//     mixed-radix planner (fft/plan.hpp), Bluestein included.
//
// The engine handle (or plan tree) is resolved once, in the constructor, so
// the execute calls touch no registry. An `Fft` object owns the scratch its
// size class needs, so execute allocates nothing (except that the first
// power-of-two call with os != 1 sizes its staging buffer). One instance is
// not safe for concurrent calls (the scratch is shared state); create one
// per thread — engines and plans are shared through the process-wide
// caches, so extra instances are cheap.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/complex.hpp"
#include "fft/inplace_radix2.hpp"
#include "fft/plan.hpp"

namespace ftfft::fft {

/// Transform direction. Inverse applies the 1/n normalization.
enum class Direction { kForward, kInverse };

/// Reusable n-point transform engine.
class Fft {
 public:
  explicit Fft(std::size_t n, Direction dir = Direction::kForward);

  /// Out-of-place, unit stride. in and out must not overlap and must hold n
  /// elements each.
  void execute(const cplx* in, cplx* out);

  /// Out-of-place with arbitrary strides.
  void execute_strided(const cplx* in, std::size_t is, cplx* out,
                       std::size_t os);

  /// In place. Power-of-two sizes above 16 run the engine with O(1)
  /// auxiliary space; planner sizes stage through the instance scratch
  /// (documented deviation: true in-place mixed-radix is out of scope, and
  /// every size the paper's schemes protect in place is 2^b).
  void execute_inplace(cplx* data);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] Direction direction() const noexcept { return dir_; }

 private:
  std::size_t n_;
  Direction dir_;
  // Exactly one is set: engine_ for power-of-two n > 16, plan_ otherwise.
  std::shared_ptr<const InplaceRadix2Plan> engine_;
  std::shared_ptr<const PlanNode> plan_;
  std::vector<cplx> scratch_;  // Bluestein workspace (often empty)
  std::vector<cplx> stage_;    // planner inverse/in-place, engine os != 1
};

/// One-shot convenience transforms (allocate internally).
std::vector<cplx> fft(const std::vector<cplx>& in);
std::vector<cplx> ifft(const std::vector<cplx>& in);

}  // namespace ftfft::fft
