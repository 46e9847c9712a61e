#include "fft/fft.hpp"

#include <algorithm>

#include "common/math_util.hpp"
#include "dft/codelets.hpp"
#include "fft/executor.hpp"

namespace ftfft::fft {

Fft::Fft(std::size_t n, Direction dir) : n_(n), dir_(dir) {
  // The unrolled codelets measured 2x faster than the engine at 8 and 16,
  // so those sizes stay single planner leaves.
  if (is_pow2(n) && !dft::has_unrolled_codelet(n)) {
    engine_ = InplaceRadix2Plan::get(n);
    return;
  }
  plan_ = make_plan(n);
  scratch_.resize(plan_->scratch_need);
  stage_.resize(n_);
}

void Fft::execute(const cplx* in, cplx* out) {
  execute_strided(in, 1, out, 1);
}

void Fft::execute_strided(const cplx* in, std::size_t is, cplx* out,
                          std::size_t os) {
  if (engine_) {
    if (is == 1 && os == 1 && dir_ == Direction::kForward) {
      engine_->forward_copy(in, out);
      return;
    }
    if (os != 1 && stage_.size() < n_) stage_.resize(n_);
    cplx* buf = os == 1 ? out : stage_.data();
    if (is == 1) {
      std::copy(in, in + n_, buf);
    } else {
      for (std::size_t t = 0; t < n_; ++t) buf[t] = in[t * is];
    }
    execute_inplace(buf);
    if (os != 1) {
      for (std::size_t t = 0; t < n_; ++t) out[t * os] = buf[t];
    }
    return;
  }
  if (dir_ == Direction::kForward) {
    execute_plan(*plan_, in, is, out, os, scratch_.data());
    return;
  }
  // Inverse via conjugation: idft(x) = conj(dft(conj(x))) / n.
  for (std::size_t t = 0; t < n_; ++t) stage_[t] = std::conj(in[t * is]);
  execute_plan(*plan_, stage_.data(), 1, out, os, scratch_.data());
  const double inv_n = 1.0 / static_cast<double>(n_);
  for (std::size_t t = 0; t < n_; ++t)
    out[t * os] = std::conj(out[t * os]) * inv_n;
}

void Fft::execute_inplace(cplx* data) {
  if (engine_) {
    if (dir_ == Direction::kForward) {
      engine_->forward(data);
    } else {
      engine_->inverse(data);
    }
    return;
  }
  std::copy(data, data + n_, stage_.begin());
  if (dir_ == Direction::kForward) {
    execute_plan(*plan_, stage_.data(), 1, data, 1, scratch_.data());
    return;
  }
  for (std::size_t t = 0; t < n_; ++t) stage_[t] = std::conj(stage_[t]);
  execute_plan(*plan_, stage_.data(), 1, data, 1, scratch_.data());
  const double inv_n = 1.0 / static_cast<double>(n_);
  for (std::size_t t = 0; t < n_; ++t) data[t] = std::conj(data[t]) * inv_n;
}

std::vector<cplx> fft(const std::vector<cplx>& in) {
  std::vector<cplx> out(in.size());
  Fft engine(in.size(), Direction::kForward);
  engine.execute(in.data(), out.data());
  return out;
}

std::vector<cplx> ifft(const std::vector<cplx>& in) {
  std::vector<cplx> out(in.size());
  Fft engine(in.size(), Direction::kInverse);
  engine.execute(in.data(), out.data());
  return out;
}

}  // namespace ftfft::fft
