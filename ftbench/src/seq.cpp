// seq_2p22: one 2^22-point complex transform at a time on one thread.
//
// Why: input plus output (128 MiB) exceed the last-level cache, so this is
// the DRAM-streaming regime where the fft kernels and the checksum sweeps do
// nearly all the work. Closed loop, uniform inputs, no faults; each
// iteration interleaves protected out-of-place (FtPlan::forward, default
// PlanConfig), protected in-place (FtPlan::forward_inplace, the k*r*k
// scheme) and unprotected (FtPlan with Protection::kNone), so slow drift of
// the host hits all three alike.
// Bypasses: engine scheduling, the parallel path and every
// locate/correct/retry branch.
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench.hpp"
#include "abft/protection_plan.hpp"
#include "core/ftfft.hpp"
#include "stats.hpp"

namespace ftbench {

namespace {

constexpr std::size_t kN = std::size_t{1} << 22;

enum Kind { kProtected, kInplace, kPlain, kKinds };  // ClosedLoop order
const char* const kSpanName[kKinds] = {"core.forward", "core.forward_inplace",
                                       "core.forward_plain"};

}  // namespace

void run_seq(Run& run) {
  Result& res = run.result;
  // Every iteration draws a fresh input; the reference comes from
  // fft::Fft::execute_inplace, independent of the paths under test.
  std::vector<cplx> x(kN);
  std::vector<cplx> ref(kN);
  ftfft::fft::Fft ref_fft(kN);
  auto next_input = [&](std::uint64_t it) {
    fill_uniform(x.data(), kN, iteration_seed(run.args.seed, it));
    std::memcpy(ref.data(), x.data(), kN * sizeof(cplx));
    ref_fft.execute_inplace(ref.data());
  };
  next_input(0);

  const double warm0 = now_s();
  // The first resolution of the out-of-place protection plan is a cold
  // cache miss in this process: time it on its own.
  ftfft::abft::ProtectionPlan::get(kN, ftfft::abft::Scheme::kOnline,
                                   ftfft::make_abft_options({}));
  res.set("plan_registry.protection_plan_build_ms", 1e3 * (now_s() - warm0), "ms");
  ftfft::PlanConfig plain_cfg;
  plain_cfg.protection = ftfft::Protection::kNone;
  ftfft::FtPlan prot(kN);
  ftfft::FtPlan plain(kN, plain_cfg);
  std::vector<cplx> out(kN);
  std::vector<cplx> work(kN);

  StatsSum sums;
  // One op: returns its wall time; checks and counts its outcome.
  auto op = [&](int kind, std::uint64_t req) {
    cplx* got = out.data();
    if (kind == kInplace) {
      auto s = run.tracer.scope("bench.copy_input", req);
      std::memcpy(work.data(), x.data(), kN * sizeof(cplx));
      got = work.data();
    } else {
      // Poison a few slots so an op that writes nothing cannot pass.
      const double nan = std::numeric_limits<double>::quiet_NaN();
      out[0] = out[kN / 2] = out[kN - 1] = cplx(nan, nan);
    }
    bool threw = false;
    const double t0 = now_s();
    try {
      auto s = run.tracer.scope(kSpanName[kind], req);
      switch (kind) {
        case kProtected: prot.forward(x.data(), out.data()); break;
        case kInplace: prot.forward_inplace(work.data()); break;
        default: plain.forward(x.data(), out.data()); break;
      }
    } catch (const std::exception&) {
      threw = true;
    }
    const double dt = now_s() - t0;
    if (kind != kPlain) sums.add(prot.last_stats());
    auto s = run.tracer.scope("bench.check", req);
    res.count(check_output(got, ref.data(), kN, false, threw),
              std::string("seq_2p22 ") + kSpanName[kind]);
    return dt;
  };

  // First calls resolve every plan and grow every scratch buffer.
  for (int k = 0; k < kKinds; ++k) op(k, 0);
  res.set("plan_registry.warm_ms", 1e3 * (now_s() - warm0), "ms");
  if (!run.setup_done()) return;

  res.reset_counts();
  sums = StatsSum{};

  const ClosedLoop loop = run_closed_loop(run, next_input, op);
  report_closed_loop(run, loop);
  report_counts(run, sums);
}

}  // namespace ftbench
