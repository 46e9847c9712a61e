#include "abft/online.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "abft/dmr.hpp"
#include "abft/protection_plan.hpp"
#include "checksum/dot.hpp"
#include "checksum/memory_checksum.hpp"
#include "checksum/multi_error.hpp"
#include "checksum/weights.hpp"
#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "fft/fft.hpp"
#include "fft/inplace_radix2.hpp"
#include "roundoff/model.hpp"
#include "simd/dispatch.hpp"

namespace ftfft::abft {
namespace {

using checksum::DualSum;
using fault::Phase;

double sigma_from_energy(double energy, std::size_t n) {
  return std::sqrt(energy / (2.0 * static_cast<double>(n)) + 1e-300);
}

/// Per-thread buffers reused by every call on this thread: grown on demand,
/// never shrunk. kBackup parks the intermediate for the postponed MCV;
/// kStaging holds the layer-1 gather block (the in-place window stash on
/// the window schedule), the layer-2 column stages and finalize's recompute
/// buffers, one phase at a time. Per-call vectors
/// page-faulted their zero-filled pages on every large transform.
enum class Scratch { kBackup, kStaging };

template <Scratch S>
cplx* scratch(std::size_t elems) {
  // Cache-line aligned, so the window schedule's backup copy can use
  // streaming stores. Growing drops the old contents; no caller keeps them
  // across calls.
  thread_local AlignedBuffer<cplx> store;
  if (store.size() < elems) store = AlignedBuffer<cplx>(elems);
  return store.data();
}

/// Adapts the fault injector to forward_fused's pre-final-stage hook: the
/// injected corruption lands on the intermediate data and propagates
/// linearly through the final stage into the outputs AND the fused output
/// checksum consistently, so the verify against the independently derived
/// CCG still detects it — same contract as injecting after a separate-pass
/// execute, just inside the guarded window of the in-kernel checksum.
struct InjectorHook {
  fault::Injector* inj;
  Phase phase;
  std::size_t unit;
  static void call(void* self, cplx* data, std::size_t n) {
    auto* h = static_cast<InjectorHook*>(self);
    h->inj->apply(h->phase, h->unit, data, n);
  }
};

/// All state of one protected online transform run. The immutable
/// per-size setup (split, checksum vectors, threshold coefficients,
/// staging layout) comes from the shared ProtectionPlan; this class holds
/// only the per-call mutable state.
class OnlineRun {
 public:
  OnlineRun(cplx* in, cplx* out, const ProtectionPlan& plan,
            const Options& opts, Stats& stats)
      : x_(in),
        out_(out),
        inplace_(in == out),
        plan_(plan),
        n_(plan.n()),
        m_(plan.m()),
        k_(plan.k()),
        cm_(plan.weights_m()),
        ck_(plan.weights_k()),
        opts_(opts),
        stats_(stats) {
    // Postponing the first-layer MCV into the CCV is only sound when the
    // memory checksum *is* the computational one (section 4.1 + 4.2).
    postpone1_ = opts_.postpone_mcv && opts_.combined_checksums;
    windowed_ = plan_.window_log2() != 0 && window_schedule_covers(opts_);
    detail::require(windowed_ || !inplace_,
                    "online_transform: in == out needs the window schedule");
  }

  void run() {
    setup();
    if (windowed_) {
      window_layers();
      window_finalize();
      return;
    }
    first_layer();
    between_layers();
    second_layer();
    finalize();
  }

 private:
  // ---------------------------------------------------------------- setup
  void setup() {
    if (inj() != nullptr) inj()->apply(Phase::kInputBeforeChecksum, 0, x_, n_);

    if (opts_.memory_ft) {
      // CMCG: one contiguous pass over the input builds the per-sub-FFT
      // dual checksums (slot i covers elements x[t*k + i]) and, with a
      // multi-error budget (t > 1), the slots' 2t syndrome moments.
      // The window schedule's copy of the input into out_ rides on it.
      checksum::input_cmcg(x_, m_, k_,
                           opts_.combined_checksums ? cm_ : nullptr,
                           plan_.syndrome_moments(), s1_, s2_, e_in_, syn1_,
                           windowed_ && !inplace_ ? out_ : nullptr);
    } else {
      e_in_.assign(k_, 0.0);
    }
    if (inj() != nullptr &&
        inj()->apply(Phase::kInputAfterChecksum, 0, x_, n_) > 0 &&
        windowed_ && !inplace_) {
      // The transform must read the corrupted input, as it would without
      // the fused copy.
      std::memcpy(static_cast<void*>(out_), x_, n_ * sizeof(cplx));
    }
  }

  // ------------------------------------------------------- window schedule
  //
  // Opt-Online on the engine's own passes (plan_.window_log2() != 0). After
  // the bit-reversal permutation of the shared InplaceRadix2Plan::get(n),
  // window W (2^w = m elements at W*m) holds slot i = bitrev(W)'s input
  // x[i], x[i + k], ... in bit-reversed order, and the engine's stages of
  // len <= m make it slot i's m-point DFT: the paper's first layer, checked
  // while the window is in cache. The same visit folds the window into the
  // second layer's per-column CCG, the intermediate's column duals and
  // energies (its MCV and eta_k's sigma) and the backup. The engine's
  // remaining passes are the k-point second layer with its twiddles inside
  // the butterflies; the final sweep checks every column. Fault-free, the
  // output equals fft::Fft(n).execute bit for bit.
  //
  // In place (x_ == out_) the permutation overwrites the only copy of the
  // input, so each window is stashed before its stages run: the stash is
  // slot i's input in bit-reversed order, from which a failed window is
  // repaired and rerun. The opener then runs per window (plain COBRA), so
  // the stash holds the input itself rather than the opener's output.
  void window_layers() {
    engine_ = fft::InplaceRadix2Plan::get(n_);
    const fft::InplaceRadix2Plan& eng = *engine_;
    const unsigned w = plan_.window_log2();
    const unsigned kbits = log2_floor(k_);
    const bool opener_fused = !inplace_ && eng.cobra_enabled();
    if (opener_fused) {
      eng.permute_cobra_fused_opener(out_);
    } else {
      eng.permute_cobra(out_);  // the pair-swap walk below the COBRA size
    }
    stash_ = inplace_ ? scratch<Scratch::kStaging>(m_) : nullptr;
    // The four column arrays the epilogue updates: the CCG, the column
    // duals of the intermediate and their energies (both slots).
    const std::size_t stride = m_ + kColumnPad;
    cols_.assign(4 * stride, cplx{0, 0});
    acc_ = cols_.data();
    o1w_ = acc_ + stride;
    o2w_ = o1w_ + stride;
    cplx* const e2 = o2w_ + stride;
    backup_ = scratch<Scratch::kBackup>(n_);
    const auto& kernels = simd::fft_kernels();
    for (std::size_t win = 0; win < k_; ++win) {
      const std::size_t i = fft::reverse_bits(win, kbits);
      cplx* y = out_ + win * m_;
      if (inplace_) {
        std::memcpy(static_cast<void*>(stash_), y, m_ * sizeof(cplx));
      }
      eng.forward_window(y, w, /*include_opener=*/!opener_fused);
      verify_window(i, y);
      // CCG of the second layer, acc[c] += ck[i] * omega_n^(i*c) * y[c],
      // with the weights of the twiddle_multiply recurrence, never the
      // engine's stage tables (a corrupted stage twiddle of the tail then
      // shows up as a column mismatch); the column duals and energies of
      // the intermediate; and its backup.
      kernels.window_epilogue(y, m_, n_, i, ck_[i], static_cast<double>(win),
                              acc_, o1w_, o2w_, e2, backup_ + win * m_);
    }
    e_mid_.resize(m_);
    for (std::size_t c = 0; c < m_; ++c) e_mid_[c] = e2[c].real();
  }

  // Layer-1 check of window y (slot i). A mismatch re-verifies the input
  // slot (repairing a memory error), regathers the window from x_ (in
  // place: restores it from the stash) and reruns its stages; the clean
  // path copies nothing.
  void verify_window(std::size_t i, cplx* y) {
    const double eta =
        opts_.eta_override > 0.0
            ? opts_.eta_override
            : roundoff::eta_from_coeff(plan_.eta_m().comp,
                                       sigma_from_energy(e_in_[i], m_));
    stats_.eta_m = std::max(stats_.eta_m, eta);
    const unsigned w = plan_.window_log2();
    for (int attempt = 0;; ++attempt) {
      if (inj() != nullptr) inj()->apply(Phase::kMFftOutput, i, y, m_);
      const double r =
          std::abs(checksum::omega3_weighted_sum(y, m_) - s1_[i]);
      ++stats_.verifications;
      if (r <= eta) {
        stats_.margin_m = std::max(stats_.margin_m, r / eta);
        return;
      }
      if (attempt >= opts_.max_retries) {
        throw UncorrectableError(
            "online ABFT: m-point sub-FFT kept failing verification");
      }
      ++stats_.sub_fft_retries;
      if (inplace_) {
        if (!repair_stash(i)) ++stats_.comp_errors_detected;
        std::memcpy(static_cast<void*>(y), stash_, m_ * sizeof(cplx));
      } else {
        if (!verify_and_repair_input(i, x_ + i, k_)) {
          ++stats_.comp_errors_detected;
        }
        for (std::size_t u = 0; u < m_; ++u) {
          y[u] = x_[fft::reverse_bits(u, w) * k_ + i];
        }
      }
      engine_->forward_window(y, w, /*include_opener=*/true);
    }
  }

  // Verifies slot i's stashed input against its duals (or 2t syndromes),
  // which index it in natural order: the stash is un-bit-reversed into a
  // natural-order buffer, repaired there and permuted back. Returns true if
  // a corruption was found and fixed.
  bool repair_stash(std::size_t i) {
    const unsigned w = plan_.window_log2();
    std::vector<cplx> slot(m_);
    for (std::size_t t = 0; t < m_; ++t) {
      slot[t] = stash_[fft::reverse_bits(t, w)];
    }
    if (!verify_and_repair_input(i, slot.data(), 1)) return false;
    for (std::size_t u = 0; u < m_; ++u) {
      stash_[u] = slot[fft::reverse_bits(u, w)];
    }
    return true;
  }

  void window_finalize() {
    if (inj() != nullptr) {
      // Unit 0: the intermediate in place; unit 1: its parked backup.
      inj()->apply(Phase::kIntermediate, 0, out_, n_);
      inj()->apply(Phase::kIntermediate, 1, backup_, n_);
    }
    const unsigned w = plan_.window_log2();
    engine_->forward_tail_from(out_, w);
    if (inj() != nullptr) {
      if (inj()->pending(Phase::kKFftOutput)) {
        for (std::size_t c = 0; c < m_; ++c) {
          inj()->apply(Phase::kKFftOutput, c, out_ + c, k_, m_);
        }
      }
      inj()->apply(Phase::kFinalOutput, 0, out_, n_);
    }
    const std::size_t failed = count_failing_columns();
    if (failed == 0) return;

    // Recovery: repair the backup's columns with their duals, restore the
    // intermediate from it and rerun the tail. With the backup intact the
    // result equals a clean run bit for bit.
    stats_.mem_errors_detected += failed;
    repair_backup_columns();
    std::memcpy(static_cast<void*>(out_), backup_, n_ * sizeof(cplx));
    engine_->forward_tail_from(out_, w);
    ++stats_.sub_fft_retries;
    if (count_failing_columns() != 0) {
      throw UncorrectableError(
          "online ABFT: column recomputation failed verification");
    }
    stats_.mem_errors_corrected += failed;
  }

  // Per-column omega_3-weighted sums of the output,
  // sums[c] = sum_j omega_3^j out[c + m*j], in one contiguous sweep with the
  // bucket-by-(j mod 3) trick; `sums` holds 3*m entries of workspace.
  void column_omega3_sums(cplx* sums) const {
    cplx* const b1 = sums + m_;
    cplx* const b2 = b1 + m_;
    std::fill(sums, b2 + m_, cplx{0, 0});
    for (std::size_t j = 0; j < k_; ++j) {
      const cplx* row = out_ + j * m_;
      cplx* bucket = (j % 3 == 0) ? sums : (j % 3 == 1) ? b1 : b2;
      for (std::size_t c = 0; c < m_; ++c) bucket[c] += row[c];
    }
    const cplx w1 = omega3_pow(1);
    const cplx w2 = omega3_pow(2);
    for (std::size_t c = 0; c < m_; ++c) {
      sums[c] = sums[c] + cmul(w1, b1[c]) + cmul(w2, b2[c]);
    }
  }

  // Final check of the window schedule: the output's column sums against
  // the CCG of each column. Returns the number of failing columns.
  std::size_t count_failing_columns() {
    cplx* const rx = scratch<Scratch::kStaging>(3 * m_);
    column_omega3_sums(rx);
    std::size_t failed = 0;
    for (std::size_t c = 0; c < m_; ++c) {
      const double eta = column_eta(plan_.eta_k().comp, c);
      stats_.eta_k = std::max(stats_.eta_k, eta);
      const double r = std::abs(rx[c] - acc_[c]);
      ++stats_.verifications;
      if (r <= eta) {
        stats_.margin_k = std::max(stats_.margin_k, r / eta);
      } else {
        ++failed;
      }
    }
    return failed;
  }

  // Verifies every backup column against the duals the window pass folded
  // from the verified intermediate and repairs a single corrupted element.
  void repair_backup_columns() {
    std::vector<cplx> b1(m_, cplx{0, 0}), b2(m_, cplx{0, 0});
    std::vector<double> be(m_, 0.0);
    checksum::accumulate_column_checksums(backup_, k_, m_, 0, nullptr,
                                          b1.data(), b2.data(), be.data());
    for (std::size_t c = 0; c < m_; ++c) {
      const double eta = column_eta(plan_.eta_k().mem, c);
      stats_.eta_mem = std::max(stats_.eta_mem, eta);
      ++stats_.verifications;
      const DualSum stored{o1w_[c], o2w_[c]};
      if (std::abs(b1[c] - stored.plain) <= eta) continue;
      ++stats_.mem_errors_detected;
      const auto rep = checksum::repair_single_error(
          stored, backup_ + c, m_, nullptr, k_, eta,
          opts_.max_retries);
      if (!rep.corrected) {
        throw UncorrectableError(
            "online ABFT: backup memory error not localizable");
      }
      ++stats_.mem_errors_corrected;
    }
  }

  double column_eta(double coeff, std::size_t c) const {
    return opts_.eta_override > 0.0
               ? opts_.eta_override
               : roundoff::eta_from_coeff(coeff,
                                          sigma_from_energy(e_mid_[c], k_));
  }

  // ---------------------------------------------------------- first layer
  void first_layer() {
    fft::Fft fftm(m_);
    if (opts_.memory_ft && opts_.incremental_mcg) {
      o1_.assign(m_, cplx{0, 0});
      o2_.assign(m_, cplx{0, 0});
      e_mid_.assign(m_, 0.0);
    } else if (opts_.memory_ft) {
      r1_.assign(k_, DualSum{});
    }

    // Section 4.4 staging: gather a batch of sub-FFT inputs with a tiled
    // transpose — the input is read row-wise (contiguous runs of `batch`),
    // and the batch keeps only `batch` destination cache lines live — then
    // every checksum/FFT pass runs over contiguous buffers. The width was
    // resolved once at plan build (1 = unbuffered).
    const std::size_t batch = plan_.layer1_batch();
    cplx* const bufblock = opts_.contiguous_buffering
                               ? scratch<Scratch::kStaging>(batch * m_)
                               : nullptr;

    for (std::size_t i0 = 0; i0 < k_; i0 += batch) {
      const std::size_t bw = std::min(batch, k_ - i0);
      if (opts_.contiguous_buffering) {
        for (std::size_t t = 0; t < m_; ++t) {
          const cplx* row = x_ + t * k_ + i0;
          for (std::size_t i = 0; i < bw; ++i) bufblock[i * m_ + t] = row[i];
        }
      }
      for (std::size_t il = 0; il < bw; ++il) {
        run_sub_fft(i0 + il,
                    opts_.contiguous_buffering ? bufblock + il * m_ : nullptr,
                    fftm);
      }
      if (opts_.memory_ft && opts_.incremental_mcg) {
        // Section 4.3: fold the batch's verified outputs (rows i0.. of the
        // intermediate) into the column checksums and column energies of
        // the second layer while they are still cache-hot.
        checksum::accumulate_column_checksums(out_ + i0 * m_, bw, m_, i0,
                                              nullptr, o1_.data(), o2_.data(),
                                              e_mid_.data());
      }
    }
  }

  // One protected m-point sub-FFT. `buf` is the staged contiguous input
  // (nullptr = unbuffered strided execution straight off x_).
  void run_sub_fft(std::size_t i, cplx* buf, fft::Fft& fftm) {
    cplx ccg{0.0, 0.0};  // reference value the CCV compares against
    const bool have_cmcg = opts_.memory_ft;
    // Fused-checksum execution (PR 6): staged contiguous inputs run through
    // the in-place engine's forward_fused, which accumulates the input rA
    // dot on its copy pass and the omega3 output checksum inside the
    // streaming passes. Unbuffered strided sub-FFTs (and non-pow2 m) keep
    // the separate-pass reference, as do the sub-sizes where fusion
    // measures slower on hot staged inputs
    // (fused_profitable; tests override with fused_ignore_profitability).
    const bool combined_ccg = have_cmcg && opts_.combined_checksums;
    const fft::InplaceRadix2Plan* fused =
        opts_.fused_checksums && buf != nullptr &&
                (opts_.fused_ignore_profitability || fused_profitable(m_))
            ? plan_.fused_plan_m()
            : nullptr;

    if (have_cmcg && !postpone1_) {
      // Naive hierarchy (Fig. 2): verify the input slot before use.
      if (verify_and_repair_input(i, x_ + i, k_) && buf != nullptr) {
        regather(i, buf);
      }
    }

    bool have_ccg = false;
    if (combined_ccg) {
      // Section 4.1: the stored combined checksum IS the CCG product.
      ccg = s1_[i];
      have_ccg = true;
    } else if (fused != nullptr) {
      // ccg (and, without CMCG, the energy estimate) ride on the first
      // fused pass below instead of a standalone sweep.
    } else if (buf != nullptr) {
      const auto se = checksum::weighted_sum_energy(cm_, buf, m_);
      ccg = se.sum;
      have_ccg = true;
      if (!have_cmcg) e_in_[i] = se.energy;
    } else {
      // Strided CCG straight off the input: the expensive second strided
      // read the buffering optimization removes.
      const auto se = checksum::weighted_sum_energy(cm_, x_ + i, m_, k_);
      ccg = se.sum;
      have_ccg = true;
      if (!have_cmcg) e_in_[i] = se.energy;
    }

    double eta = -1.0;  // resolved once the energy estimate is in hand
    cplx* yi = out_ + i * m_;
    for (int attempt = 0;; ++attempt) {
      cplx rx;
      if (fused != nullptr) {
        fft::InplaceRadix2Plan::FusedDots dots;
        InjectorHook hook{inj(), Phase::kMFftOutput, i};
        fused->forward_fused(buf, yi, have_ccg ? nullptr : cm_,
                             plan_.weights_omega3_m(), dots,
                             inj() != nullptr ? &InjectorHook::call : nullptr,
                             &hook);
        if (!have_ccg) {
          ccg = dots.in_sum;
          if (!have_cmcg) e_in_[i] = dots.in_energy;
          have_ccg = true;
        }
        rx = dots.out_sum;
      } else {
        if (buf != nullptr) {
          fftm.execute(buf, yi);
        } else {
          fftm.execute_strided(x_ + i, k_, yi, 1);
        }
        if (inj() != nullptr) inj()->apply(Phase::kMFftOutput, i, yi, m_);
        rx = checksum::omega3_weighted_sum(yi, m_);
      }
      if (eta < 0.0) {
        const double sigma_i = sigma_from_energy(e_in_[i], m_);
        eta = opts_.eta_override > 0.0
                  ? opts_.eta_override
                  : roundoff::eta_from_coeff(plan_.eta_m().comp, sigma_i);
        stats_.eta_m = std::max(stats_.eta_m, eta);
      }
      ++stats_.verifications;
      const double r = std::abs(rx - ccg);
      if (r <= eta) {
        stats_.margin_m = std::max(stats_.margin_m, r / eta);
        break;
      }
      if (attempt >= opts_.max_retries) {
        throw UncorrectableError(
            "online ABFT: m-point sub-FFT kept failing verification");
      }
      ++stats_.sub_fft_retries;
      if (opts_.memory_ft) {
        // Postponed discrimination: is the input slot itself corrupted?
        const bool repaired = verify_and_repair_input(i, x_ + i, k_);
        if (repaired) {
          if (buf != nullptr) regather(i, buf);
          if (!opts_.combined_checksums) {
            // Classic checksums: the CCG product must be rebuilt from the
            // repaired input (the next fused pass re-derives it in flight).
            if (fused != nullptr) {
              have_ccg = false;
            } else {
              ccg = buf != nullptr
                        ? checksum::weighted_sum(cm_, buf, m_)
                        : checksum::weighted_sum(cm_, x_ + i, m_, k_);
            }
          }
          continue;
        }
      }
      ++stats_.comp_errors_detected;
    }

    if (opts_.memory_ft && !opts_.incremental_mcg) {
      // Naive hierarchy: row checksums over this sub-FFT's output; the
      // column checksums are regenerated in a separate pass later.
      r1_[i] = checksum::dual_weighted_sum(nullptr, yi, m_);
    }
  }

  // Refreshes the staged copy of sub-FFT i's input (rare repair path).
  void regather(std::size_t i, cplx* buf) {
    for (std::size_t t = 0; t < m_; ++t) buf[t] = x_[t * k_ + i];
  }

  /// Recomputes the stored input checksums of sub-FFT slot i over its m
  /// input elements slot[0], slot[stride], ... (natural order) and repairs
  /// a localized memory error (iterating until the residual clears the
  /// threshold). Returns true if a corruption was found and fixed.
  bool verify_and_repair_input(std::size_t i, cplx* slot,
                               std::size_t stride) {
    const cplx* weights = opts_.combined_checksums ? cm_ : nullptr;
    const double sigma_i = sigma_from_energy(e_in_[i], m_);
    const double eta_mem =
        opts_.eta_override > 0.0
            ? opts_.eta_override
            : roundoff::eta_from_coeff(opts_.combined_checksums
                                           ? plan_.eta_m().comp
                                           : plan_.eta_m().mem,
                                       sigma_i);
    stats_.eta_mem = std::max(stats_.eta_mem, eta_mem);
    bool mismatch, corrected;
    if (!syn1_.empty()) {
      // Multi-error budget (PR 9): decode the slot's 2t-moment syndromes
      // instead of the dual-only repair. The duals carry two values, so a
      // multi-error burst whose residual ratio lands near an integer can be
      // "explained" by one wrong-index write the dual repair accepts; the
      // syndrome decoder checks every hypothesis against all 2t moments and
      // decodes the burst at its true count.
      const auto mrep = checksum::repair_errors(
          syn1_[i], slot, stride, weights, m_, eta_mem, plan_.max_errors(),
          /*max_iters=*/6, plan_.syndrome_nodes_m());
      mismatch = mrep.mismatch;
      corrected = mrep.corrected;
      if (mrep.corrected && mrep.errors >= 2) {
        stats_.multi_errors_corrected += static_cast<std::size_t>(mrep.errors);
      }
    } else {
      const auto rep = checksum::repair_single_error(
          checksum::DualSum{s1_[i], s2_[i]}, slot, stride, weights, m_,
          eta_mem, opts_.max_retries);
      mismatch = rep.mismatch;
      corrected = rep.corrected;
    }
    ++stats_.verifications;
    if (!mismatch) return false;
    ++stats_.mem_errors_detected;
    if (!corrected) {
      throw UncorrectableError(
          "online ABFT: input memory error detected but not localizable");
    }
    ++stats_.mem_errors_corrected;
    return true;
  }

  // ------------------------------------------------------- between layers
  void between_layers() {
    if (inj() != nullptr) inj()->apply(Phase::kIntermediate, 0, out_, n_);
    if (!opts_.memory_ft) return;

    if (!opts_.incremental_mcg) {
      // Fig. 2 regeneration pass: verify every row checksum, then build the
      // column checksums the second layer verifies against. This touches
      // every element a second time — the cost section 4.3 eliminates.
      o1_.assign(m_, cplx{0, 0});
      o2_.assign(m_, cplx{0, 0});
      e_mid_.assign(m_, 0.0);
      for (std::size_t i = 0; i < k_; ++i) {
        cplx* yi = out_ + i * m_;
        // The row may hold the very corruption being hunted: use the
        // outlier-robust energy so eta is not inflated by it.
        const double sigma =
            sigma_from_energy(checksum::robust_energy(yi, m_), m_);
        const double eta_mem =
            opts_.eta_override > 0.0
                ? opts_.eta_override
                : roundoff::eta_from_coeff(plan_.eta_m().mem, sigma);
        const auto rep = checksum::repair_single_error(
            r1_[i], yi, 1, nullptr, m_, eta_mem, opts_.max_retries);
        ++stats_.verifications;
        if (rep.mismatch) {
          ++stats_.mem_errors_detected;
          if (!rep.corrected) {
            throw UncorrectableError(
                "online ABFT: intermediate memory error not localizable");
          }
          ++stats_.mem_errors_corrected;
        }
        checksum::accumulate_column_checksums(yi, 1, m_, i, nullptr,
                                              o1_.data(), o2_.data(),
                                              e_mid_.data());
      }
    }

    if (opts_.postpone_mcv) {
      // Section 4.2: the per-column output verification is postponed to one
      // final pass; recovery then needs the pre-second-layer state. Park it
      // in the caller's input (paper's choice) or internal scratch.
      if (opts_.backup_in_input) {
        backup_ = x_;
      } else {
        backup_ = scratch<Scratch::kBackup>(n_);
      }
      std::memcpy(backup_, out_, n_ * sizeof(cplx));
    }
  }

  // ---------------------------------------------------------- second layer
  void second_layer() {
    fft::Fft fftk(k_);
    col_ccv_.assign(m_, cplx{0, 0});
    if (opts_.memory_ft && !opts_.postpone_mcv) f1_.assign(m_, DualSum{});

    // Stage `s` columns at a time (section 4.4 on the second layer, the
    // paper's "s k-FFTs"): the strided intermediate is loaded row-wise into
    // a column-major block, every per-column pass then runs contiguous, and
    // the verified results are written back row-wise in one batched pass.
    const std::size_t s = plan_.layer2_cols();
    cplx* const tw = scratch<Scratch::kStaging>(2 * (s + 1) * k_);
    cplx* const res = tw + k_;
    cplx* const stage = res + k_;
    cplx* const ostage = stage + s * k_;

    for (std::size_t c0 = 0; c0 < m_; c0 += s) {
      const std::size_t sc = std::min(s, m_ - c0);
      if (opts_.contiguous_buffering) {
        // Row-wise load into column-major staging.
        for (std::size_t i = 0; i < k_; ++i) {
          const cplx* row = out_ + i * m_ + c0;
          for (std::size_t c = 0; c < sc; ++c) stage[c * k_ + i] = row[c];
        }
        for (std::size_t c = 0; c < sc; ++c) {
          process_column(c0 + c, stage + c * k_, 1, fftk, tw, ostage + c * k_);
        }
        // Row-wise write-back of the verified results: out[j*m + c] gets
        // result element j of column c.
        for (std::size_t j = 0; j < k_; ++j) {
          cplx* row = out_ + j * m_ + c0;
          for (std::size_t c = 0; c < sc; ++c) row[c] = ostage[c * k_ + j];
        }
      } else {
        for (std::size_t c = 0; c < sc; ++c) {
          process_column(c0 + c, out_ + c0 + c, m_, fftk, tw, res);
          // Unstaged: scatter the result column directly.
          for (std::size_t j = 0; j < k_; ++j) {
            out_[(c0 + c) + m_ * j] = res[j];
          }
        }
      }
    }
  }

  // Processes column c: MCV, DMR twiddle with the CCG on its first copy,
  // protected k-point FFT. The verified result lands in `res` (contiguous);
  // the caller writes it back.
  void process_column(std::size_t c, cplx* col, std::size_t stride,
                      fft::Fft& fftk, cplx* tw, cplx* res) {
    double sigma_col = 0.0;
    if (opts_.memory_ft) {
      // Column MCV against the (incrementally or regenerated) checksums.
      // The threshold scales with the column energy layer 1 folded from its
      // verified outputs, which a corruption of the column since then cannot
      // inflate; so one plain dual sum of the column is all this check reads.
      sigma_col = sigma_from_energy(e_mid_[c], k_);
      const double eta_mem =
          opts_.eta_override > 0.0
              ? opts_.eta_override
              : roundoff::eta_from_coeff(plan_.eta_k().mem, sigma_col);
      stats_.eta_mem = std::max(stats_.eta_mem, eta_mem);
      const DualSum stored{o1_[c], o2_[c]};
      const cplx cur =
          checksum::dual_weighted_sum(nullptr, col, k_, stride).plain;
      ++stats_.verifications;
      if (std::abs(cur - stored.plain) > eta_mem) {
        // Mismatch: repair the authoritative intermediate iteratively, then
        // refresh the staged copy. Derived checksums (these column duals
        // are accumulated from sub-FFT outputs, not generated over stored
        // data) deliberately stay single-error: a multi-error burst in the
        // short-lived intermediate is already caught by the postponed final
        // MCV, whose recovery recomputes the column from the backup.
        ++stats_.mem_errors_detected;
        const auto rep = checksum::repair_single_error(
            stored, out_ + c, m_, nullptr, k_, eta_mem, opts_.max_retries);
        if (!rep.corrected) {
          throw UncorrectableError(
              "online ABFT: column memory error not localizable");
        }
        ++stats_.mem_errors_corrected;
        // The backup was parked after the corruption: repair it too, or a
        // later final-output fault in this column is recomputed from it.
        for (std::size_t i = 0; i < k_; ++i) {
          const cplx v = out_[i * m_ + c];
          col[i * stride] = v;
          if (backup_ != nullptr) backup_[i * m_ + c] = v;
        }
      }
    }

    // Twiddle (DMR), tw[i] = col[i] * omega_n^(i*c); its first copy also
    // yields the CCG sum_i ck[i] * tw[i] and the energy of tw.
    checksum::SumEnergy se;
    stats_.dmr_mismatches += dmr_twiddle_multiply(
        col, stride, tw, k_, n_, c, c, inj(), cplx{1.0, 0.0}, ck_, &se);
    const cplx ccg = se.sum;
    if (!opts_.memory_ft) sigma_col = sigma_from_energy(se.energy, k_);
    // tw is always contiguous, so the fused engine applies to both staged
    // and unstaged columns — at the sub-sizes where it profits on the
    // DMR-hot data (same gate as the rows, and as the recompute below).
    const fft::InplaceRadix2Plan* fused = fused_plan_k();
    const double eta =
        opts_.eta_override > 0.0
            ? opts_.eta_override
            : roundoff::eta_from_coeff(plan_.eta_k().comp, sigma_col);
    stats_.eta_k = std::max(stats_.eta_k, eta);

    for (int attempt = 0;; ++attempt) {
      cplx rx;
      if (fused != nullptr) {
        fft::InplaceRadix2Plan::FusedDots dots;
        InjectorHook hook{inj(), Phase::kKFftOutput, c};
        fused->forward_fused(tw, res, nullptr, plan_.weights_omega3_k(), dots,
                             inj() != nullptr ? &InjectorHook::call : nullptr,
                             &hook);
        rx = dots.out_sum;
      } else {
        fftk.execute(tw, res);
        if (inj() != nullptr) inj()->apply(Phase::kKFftOutput, c, res, k_);
        rx = checksum::omega3_weighted_sum(res, k_);
      }
      ++stats_.verifications;
      const double r = std::abs(rx - ccg);
      if (r <= eta) {
        stats_.margin_k = std::max(stats_.margin_k, r / eta);
        break;
      }
      if (attempt >= opts_.max_retries) {
        throw UncorrectableError(
            "online ABFT: k-point sub-FFT kept failing verification");
      }
      ++stats_.comp_errors_detected;
      ++stats_.sub_fft_retries;
    }

    // Remember the column checksum for the postponed final verification;
    // the caller scatters `res` to the natural-order positions {c + m*j}.
    col_ccv_[c] = ccg;
    if (opts_.memory_ft && !opts_.postpone_mcv) {
      f1_[c] = checksum::dual_weighted_sum(nullptr, res, k_);
    }
  }

  // The in-place engine that runs the k-point sub-FFTs with fused checksums,
  // or nullptr for the separate-pass reference.
  const fft::InplaceRadix2Plan* fused_plan_k() const {
    return opts_.fused_checksums &&
                   (opts_.fused_ignore_profitability || fused_profitable(k_))
               ? plan_.fused_plan_k()
               : nullptr;
  }

  // -------------------------------------------------------------- finalize
  void finalize() {
    if (inj() != nullptr) inj()->apply(Phase::kFinalOutput, 0, out_, n_);
    if (!opts_.memory_ft) return;

    // Final MCV against the per-column CCGs the second layer stored.
    cplx* const sums = scratch<Scratch::kStaging>(3 * m_ + 2 * k_);
    cplx* const tw = sums + 3 * m_;
    cplx* const res = tw + k_;
    column_omega3_sums(sums);
    fft::Fft fftk(k_);
    for (std::size_t c = 0; c < m_; ++c) {
      const cplx rx = sums[c];
      const double sigma = sigma_from_energy(e_mid_[c], k_);
      const double eta =
          opts_.eta_override > 0.0
              ? opts_.eta_override
              : roundoff::eta_from_coeff(plan_.eta_k().comp, sigma);
      ++stats_.verifications;
      const double r = std::abs(rx - col_ccv_[c]);
      if (r <= eta) {
        stats_.margin_k = std::max(stats_.margin_k, r / eta);
        continue;
      }
      ++stats_.mem_errors_detected;

      if (!opts_.postpone_mcv) {
        // Naive hierarchy: localize directly with the stored output duals.
        const auto rep = checksum::repair_single_error(
            f1_[c], out_ + c, m_, nullptr, k_,
            opts_.eta_override > 0.0
                ? opts_.eta_override
                : roundoff::eta_from_coeff(plan_.eta_k().mem, sigma),
            opts_.max_retries);
        if (!rep.corrected) {
          throw UncorrectableError(
              "online ABFT: final output memory error not localizable");
        }
        ++stats_.mem_errors_corrected;
        continue;
      }

      // Postponed hierarchy: recompute the column from the parked
      // intermediate backup (twiddle + k-FFT + verify + scatter). The
      // recomputation must run the same engine process_column used — in
      // fused mode that is the in-place plan — so a repaired column is
      // bit-identical to a never-corrupted run.
      checksum::SumEnergy se;
      stats_.dmr_mismatches +=
          dmr_twiddle_multiply(backup_ + c, m_, tw, k_, n_, c, c, nullptr,
                               cplx{1.0, 0.0}, ck_, &se);
      const fft::InplaceRadix2Plan* fused = fused_plan_k();
      cplx rx2;
      if (fused != nullptr) {
        fft::InplaceRadix2Plan::FusedDots dots;
        fused->forward_fused(tw, res, nullptr, plan_.weights_omega3_k(), dots);
        rx2 = dots.out_sum;
      } else {
        fftk.execute(tw, res);
        rx2 = checksum::omega3_weighted_sum(res, k_);
      }
      // The recomputed column must match its own CCG and the one the second
      // layer stored: a backup corrupted after it was parked passes the
      // first check but not the second.
      if (std::abs(rx2 - se.sum) > eta || std::abs(rx2 - col_ccv_[c]) > eta) {
        throw UncorrectableError(
            "online ABFT: column recomputation failed verification");
      }
      for (std::size_t j = 0; j < k_; ++j) out_[c + m_ * j] = res[j];
      ++stats_.mem_errors_corrected;
      ++stats_.sub_fft_retries;
    }
  }

  fault::Injector* inj() const { return opts_.injector; }

  cplx* x_;
  cplx* out_;                        // == x_ for an in-place window run
  bool inplace_;
  const ProtectionPlan& plan_;
  std::size_t n_, m_, k_;
  const cplx* cm_;                   // input checksum vectors (sizes m, k),
  const cplx* ck_;                   //   owned by the shared plan
  const Options& opts_;
  Stats& stats_;
  bool postpone1_ = false;
  bool windowed_ = false;            // runs the window schedule

  std::vector<cplx> s1_, s2_;        // CMCG slots per first-layer sub-FFT
  std::vector<checksum::SyndromeSet> syn1_;  // per-slot 2t moments (t > 1)
  std::vector<double> e_in_;         // per-sub-FFT input energy
  std::vector<DualSum> r1_;          // naive row checksums of Y_i
  std::vector<cplx> o1_, o2_;        // column checksums of the intermediate
  std::vector<double> e_mid_;        // per-column intermediate energy
  std::vector<cplx> col_ccv_;        // saved per-column CCG for final MCV
  std::vector<DualSum> f1_;          // naive output duals per column
  cplx* backup_ = nullptr;           // parked intermediate (postponed MCV)
  // Window schedule: the CCG, the two column duals and the column
  // energies, m_ each, in one allocation staggered by kColumnPad elements
  // so that no two arrays share an offset within a 4 KiB page. Loads that
  // 4K-alias the previous array's stores stall on x86: the epilogue over
  // 2^22 ran 16.4-16.7 ms staggered against 17.6-18.2 ms with four
  // separate vectors (8 of 8 alternating runs, AVX2).
  static constexpr std::size_t kColumnPad = 40;
  std::vector<cplx> cols_;
  cplx* acc_ = nullptr;              // per-column CCG
  cplx* o1w_ = nullptr;              // column duals of the intermediate
  cplx* o2w_ = nullptr;
  std::shared_ptr<const fft::InplaceRadix2Plan> engine_;  // window schedule
  cplx* stash_ = nullptr;  // in place: the current window's input (m_)
};

}  // namespace

void online_transform(cplx* in, cplx* out, const ProtectionPlan& plan,
                      const Options& opts, Stats& stats) {
  detail::require(plan.scheme() == Scheme::kOnline,
                  "online_transform: plan was built for another scheme");
  OnlineRun run(in, out, plan, opts, stats);
  run.run();
}

void online_transform(cplx* in, cplx* out, std::size_t n, const Options& opts,
                      Stats& stats) {
  detail::require(n >= 4, "online_transform: n must be >= 4 and composite");
  const auto plan = ProtectionPlan::get(n, Scheme::kOnline, opts);
  online_transform(in, out, *plan, opts, stats);
}

}  // namespace ftfft::abft
