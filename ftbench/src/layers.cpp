// Per-layer unit-cost probes and the set-up reference cross-check.
//
// The traced run of every workload times the public functions of each
// module at the shapes the workloads use, so per-layer cost is attributed
// without instrumenting the library. Probes of different functions are
// interleaved rep by rep and reported as medians. Every bandwidth figure is
// a computed model: compulsory traffic (each array read once and written
// once) over measured time, set against the streaming-copy ceiling measured
// in the same run; it ignores cache misses.
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "abft/protection_plan.hpp"
#include "abft/real_protection.hpp"
#include "bench.hpp"
#include "checksum/dot.hpp"
#include "checksum/weights.hpp"
#include "core/ftfft.hpp"
#include "dft/reference_dft.hpp"
#include "stats.hpp"

namespace ftbench {

namespace fault = ftfft::fault;

namespace {

constexpr std::size_t kBig = std::size_t{1} << 22;
constexpr std::size_t kRealN = std::size_t{1} << 14;
constexpr std::size_t kRanks = 16;
constexpr std::size_t kShardedN = std::size_t{1} << 21;  // sharded_2p21's N
constexpr int kReps = 3;

volatile double g_sink = 0.0;  // keeps reductions from being optimized out

double time_call(Run& run, const char* span, const std::function<void()>& f) {
  auto s = run.tracer.scope(span);
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

/// Faulted-minus-clean time of one protected 2^14 transform.
struct RecoveryProbe {
  fault::FaultSpec spec;
  const char* metric;
};

}  // namespace

void cross_check_reference(Run& run) {
  constexpr std::size_t n = 1024;
  const std::vector<cplx> x = uniform_signal(n, run.args.seed ^ 0x5eedc0deULL);
  std::vector<cplx> want(n);
  ftfft::dft::reference_dft(x.data(), want.data(), n);
  const double tol = clean_tolerance(n);
  auto expect = [&](const std::vector<cplx>& got, std::size_t len,
                    const std::vector<cplx>& ref, const char* what) {
    if (!(rel_l2(got.data(), ref.data(), len) <= tol)) {
      run.result.problem(std::string("reference cross-check failed: ") + what);
    }
  };

  std::vector<cplx> y(n);
  ftfft::fft::Fft f(n);
  f.execute(x.data(), y.data());
  expect(y, n, want, "fft::Fft::execute");
  y = x;
  f.execute_inplace(y.data());
  expect(y, n, want, "fft::Fft::execute_inplace");
  ftfft::PlanConfig plain_cfg;
  plain_cfg.protection = ftfft::Protection::kNone;
  expect(ftfft::FtPlan(n, plain_cfg).forward(x), n, want,
         "FtPlan(Protection::kNone)");

  // Real input: the half-spectrum of the real parts.
  std::vector<double> re(n);
  std::vector<cplx> xr(n);
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = x[i].real();
    xr[i] = cplx(x[i].real(), 0.0);
  }
  std::vector<cplx> want_r(n);
  ftfft::dft::reference_dft(xr.data(), want_r.data(), n);
  std::vector<cplx> half(n / 2 + 1);
  ftfft::fft::RealFftPlan::get(n)->r2c(re.data(), half.data());
  expect(half, n / 2 + 1, want_r, "fft::RealFftPlan::r2c");
}

void run_layer_probes(Run& run) {
  namespace abft = ftfft::abft;
  Result& res = run.result;
  const std::vector<cplx> x = uniform_signal(kBig, run.args.seed ^ 0x9e3779b9ULL);
  std::vector<cplx> buf(kBig);
  std::vector<cplx> out(kBig);

  ftfft::fft::Fft big(kBig);
  // Cold unless the workload already resolved this plan (seq_2p22 times its
  // own cold resolution during set-up).
  const double build0 = now_s();
  const auto pplan =
      abft::ProtectionPlan::get(kBig, abft::Scheme::kOnline, abft::Options::online_opt(true));
  if (!res.has("plan_registry.protection_plan_build_ms")) {
    res.set("plan_registry.protection_plan_build_ms", 1e3 * (now_s() - build0), "ms");
  }
  const std::size_t m = pplan->m();
  const std::size_t k = pplan->k();
  ftfft::fft::Fft fm(m);
  ftfft::fft::Fft fk(k);
  const std::vector<cplx> w = ftfft::checksum::comp_weights(kBig);

  // Streaming-copy ceiling: each array 4x (L2 + L3), touched before timing.
  const std::size_t copy_bytes = copy_probe_bytes();
  std::vector<char> csrc(copy_bytes, 1);
  std::vector<char> cdst(copy_bytes, 0);

  abft::Options fused = abft::Options::online_opt(true);
  fused.fused_checksums = true;
  const std::pair<const char*, abft::Options> presets[] = {
      {"abft.none_ms", abft::Options::none()},
      {"abft.offline_ms", abft::Options::offline_opt(true)},
      {"abft.online_comp_ms", abft::Options::online_opt(false)},
      {"abft.online_mem_ms", abft::Options::online_opt(true)},
      {"abft.fused_ms", fused},
  };

  constexpr std::size_t kSmall[] = {1024, 4096, 16384};
  const char* const kSmallName[] = {"fft.small_us.2p10", "fft.small_us.2p12",
                                    "fft.small_us.2p14"};
  constexpr int kSmallCalls = 64;
  std::vector<cplx> sx = uniform_signal(kRealN, run.args.seed ^ 0x51ULL);
  std::vector<cplx> sy(kRealN);
  std::vector<double> sre(kRealN);
  for (std::size_t i = 0; i < kRealN; ++i) sre[i] = sx[i].real();
  std::vector<cplx> shalf(kRealN / 2 + 1);
  const auto rplan = ftfft::fft::RealFftPlan::get(kRealN);
  const abft::Options real_opts = ftfft::make_abft_options({});

  const abft::Options rec_opts = abft::Options::online_opt(true);
  const RecoveryProbe recovery[] = {
      {fault::FaultSpec::computational(fault::Phase::kMFftOutput, 0, 5,
                                       cplx(1e3, -1e3)),
       "abft.recovery_us.comp"},
      {fault::FaultSpec::memory_set(fault::Phase::kInputAfterChecksum, 0, 7,
                                    cplx(1e3, 1e3)),
       "abft.recovery_us.mem"},
      {fault::FaultSpec::bit_flip(fault::Phase::kInputAfterChecksum, 0, 11, 58,
                                  false),
       "abft.recovery_us.bitflip"},
  };
  constexpr int kRecCalls = 16;
  std::vector<cplx> rin(kRealN);

  std::map<std::string, std::vector<double>> t;
  abft::Stats stats;
  for (int rep = 0; rep < kReps + 1; ++rep) {
    // Rep 0 warms every plan and page; only later reps are recorded.
    auto rec = [&](const std::string& name, double v) {
      if (rep > 0) t[name].push_back(v);
    };
    rec("copy", time_call(run, "simd.copy", [&] {
          std::memcpy(cdst.data(), csrc.data(), copy_bytes);
        }));
    g_sink = g_sink + cdst[copy_bytes / 2];

    std::memcpy(buf.data(), x.data(), kBig * sizeof(cplx));
    rec("fft.inplace_ms",
        time_call(run, "fft.execute_inplace", [&] { big.execute_inplace(buf.data()); }));
    rec("fft.outofplace_ms",
        time_call(run, "fft.execute", [&] { big.execute(x.data(), out.data()); }));
    rec("fft.sub_m_ms", time_call(run, "fft.sub_m_batch", [&] {
          for (std::size_t b = 0; b < k; ++b) fm.execute(x.data() + b * m, out.data() + b * m);
        }));
    rec("fft.sub_k_ms", time_call(run, "fft.sub_k_batch", [&] {
          for (std::size_t b = 0; b < m; ++b) fk.execute(x.data() + b * k, out.data() + b * k);
        }));
    rec("checksum.weighted_sum_ms", time_call(run, "checksum.weighted_sum", [&] {
          g_sink = g_sink + ftfft::checksum::weighted_sum(w.data(), x.data(), kBig).real();
        }));
    rec("checksum.dual_sum_ms", time_call(run, "checksum.dual_weighted_sum", [&] {
          g_sink = g_sink +
                   ftfft::checksum::dual_weighted_sum(w.data(), x.data(), kBig).plain.real();
        }));
    // One rank's block set at sharded_2p21's N and p: p blocks of N / p^2.
    rec("checksum.copy_dual_ms", time_call(run, "checksum.copy_dual_sum", [&] {
          const std::size_t bsz = kShardedN / (kRanks * kRanks);
          for (std::size_t b = 0; b < kRanks; ++b) {
            g_sink = g_sink + ftfft::checksum::copy_dual_sum(out.data() + b * bsz,
                                                             x.data() + b * bsz, bsz)
                                  .plain.real();
          }
        }));
    rec("checksum.ra_gen_ms", time_call(run, "checksum.input_checksum_vector", [&] {
          g_sink = g_sink + ftfft::checksum::input_checksum_vector(
                                kBig, ftfft::checksum::RaGenMethod::kClosedForm)[1]
                                .real();
        }));
    for (const auto& [name, opts] : presets) {
      std::memcpy(buf.data(), x.data(), kBig * sizeof(cplx));
      rec(name, time_call(run, "abft.protected_transform", [&] {
            abft::protected_transform(buf.data(), out.data(), kBig, opts, stats);
          }));
    }

    for (int i = 0; i < 3; ++i) {
      ftfft::fft::Fft f(kSmall[i]);
      rec(kSmallName[i], time_call(run, "fft.execute_small", [&] {
                           for (int c = 0; c < kSmallCalls; ++c) f.execute(sx.data(), sy.data());
                         }) / kSmallCalls);
    }
    rec("fft.r2c_us", time_call(run, "fft.r2c", [&] {
                        for (int c = 0; c < kSmallCalls; ++c) rplan->r2c(sre.data(), shalf.data());
                      }) / kSmallCalls);
    rec("abft.r2c_protected_us", time_call(run, "abft.protected_r2c", [&] {
                                   for (int c = 0; c < kSmallCalls; ++c) {
                                     abft::protected_r2c(sre.data(), shalf.data(), kRealN,
                                                         real_opts, stats);
                                   }
                                 }) / kSmallCalls);

    // Recovery: the same transform clean and with one fault, interleaved
    // call by call so every variant sees the same cache state.
    const fault::FaultSpec* specs[4] = {nullptr, &recovery[0].spec, &recovery[1].spec,
                                        &recovery[2].spec};
    const char* const names[4] = {"recovery.clean", recovery[0].metric,
                                  recovery[1].metric, recovery[2].metric};
    double total[4] = {0.0, 0.0, 0.0, 0.0};
    for (int c = 0; c < kRecCalls; ++c) {
      for (int v = 0; v < 4; ++v) {
        std::memcpy(rin.data(), sx.data(), kRealN * sizeof(cplx));
        fault::Injector inj;
        abft::Options o = rec_opts;
        if (specs[v] != nullptr) {
          inj.schedule(*specs[v]);
          o.injector = &inj;
        }
        auto s = run.tracer.scope("abft.protected_transform_faulted");
        const double t0 = now_s();
        try {
          abft::protected_transform(rin.data(), sy.data(), kRealN, o, stats);
        } catch (const std::exception&) {
          // Counted in the time all the same: reporting is recovery work.
        }
        total[v] += now_s() - t0;
      }
    }
    for (int v = 0; v < 4; ++v) rec(names[v], total[v] / kRecCalls);
  }

  auto med = [&](const std::string& name) { return median(t[name]); };
  const double copy_s = med("copy");
  res.set("simd.copy_gbps", copy_s > 0 ? 2.0 * static_cast<double>(copy_bytes) / copy_s / 1e9 : 0.0,
          "GB/s");
  const double bytes_big = 2.0 * static_cast<double>(kBig * sizeof(cplx));
  for (const char* name : {"fft.inplace_ms", "fft.outofplace_ms", "fft.sub_m_ms",
                           "fft.sub_k_ms", "checksum.weighted_sum_ms",
                           "checksum.dual_sum_ms", "checksum.copy_dual_ms",
                           "checksum.ra_gen_ms"}) {
    res.set(name, 1e3 * med(name), "ms");
  }
  for (const auto& [name, opts] : presets) res.set(name, 1e3 * med(name), "ms");
  for (const char* name : kSmallName) res.set(name, 1e6 * med(name), "us");
  res.set("fft.r2c_us", 1e6 * med("fft.r2c_us"), "us");
  res.set("abft.r2c_protected_us", 1e6 * med("abft.r2c_protected_us"), "us");
  const double clean = med("recovery.clean");
  for (const auto& r : recovery) res.set(r.metric, 1e6 * (med(r.metric) - clean), "us");

  const double inplace = med("fft.inplace_ms");
  res.set("fft.inplace_gbps_model", inplace > 0 ? bytes_big / inplace / 1e9 : 0.0, "GB/s");
  // Base of the ratio: fft::Fft::execute_inplace, the fastest unprotected path.
  res.set("abft.overhead_ratio", inplace > 0 ? med("abft.online_mem_ms") / inplace : 0.0,
          "ratio");
  const double sweep = med("checksum.weighted_sum_ms");
  res.set("checksum.sweep_equiv",
          sweep > 0 ? (med("abft.online_mem_ms") - med("abft.none_ms")) / sweep : 0.0,
          "sweeps");
}

}  // namespace ftbench
