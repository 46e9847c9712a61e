// sharded_2p21: parallel::submit_parallel at N = 2^21 on p = 16 simulated
// ranks, on a BatchEngine with one worker per CPU passed through the API, no
// faults.
//
// Why: the only workload that runs the parallel transposes, the message
// checksums (checksum::copy_dual_sum), the DMR twiddle and the k*r*k FFT2
// through BatchEngine::submit_tasks. p exceeds the core count, so it reports
// wall time and counts, not scaling.
// Each iteration interleaves three closed-loop requests:
//  * protected: opt_ft_fftw where the caller keeps its input, so the call
//    takes a copy (what parallel_fft_sharded does for a const input);
//  * protected in place: opt_ft_fftw on an input moved into the call — the
//    spectrum comes back in the same storage;
//  * plain: opt_fftw, caller keeps its input.
//
// N is 2^21, not the 2^22 of Fig. 8 panel (c): at 2^22 the protected
// requests throw "sub-FFT kept failing verification" on about one uniform
// input in five with no fault injected, and every timed request must end
// correct. The traced run still sends kDefectInputs seeded uniform 2^22
// inputs through opt_ft_fftw once each, after the workload phase, and
// reports those without a correct output as parallel.failures_2p22.
#include <cstring>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/ftfft.hpp"
#include "parallel/parallel_plan.hpp"
#include "stats.hpp"

namespace ftbench {

namespace {

constexpr std::size_t kN = std::size_t{1} << 21;
constexpr std::size_t kRanks = 16;
constexpr std::size_t kDefectN = std::size_t{1} << 22;
constexpr std::uint64_t kDefectInputs = 8;

enum Kind { kProtected, kInplace, kPlain, kKinds };  // ClosedLoop order
const char* const kSpanName[kKinds] = {"parallel.submit_protected",
                                       "parallel.submit_protected_moved",
                                       "parallel.submit_plain"};

}  // namespace

void run_sharded(Run& run) {
  namespace par = ftfft::parallel;
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

  ftfft::engine::BatchEngine engine(run.cpus);
  const double warm0 = now_s();
  const auto plan_prot = par::warm_plans(kRanks, kN, true);
  const auto plan_plain = par::warm_plans(kRanks, kN, false);
  const par::ParallelOptions opts[kKinds] = {par::ParallelOptions::opt_ft_fftw(),
                                             par::ParallelOptions::opt_ft_fftw(),
                                             par::ParallelOptions::opt_fftw()};
  std::vector<cplx> moved(kN);

  StatsSum sums;
  std::vector<par::ParallelReport> reports;
  auto op = [&](int kind, std::uint64_t req) {
    if (kind == kInplace) {
      auto s = run.tracer.scope("bench.copy_input", req);
      moved.resize(kN);  // emptied when the last moved-in request threw
      std::memcpy(moved.data(), x.data(), kN * sizeof(cplx));
    }
    par::ParallelReport rep;
    std::vector<cplx> y;
    bool threw = false;
    std::uint64_t op_span = 0;
    const double t0 = now_s();
    try {
      auto s = run.tracer.scope(kSpanName[kind], req);
      op_span = s.id();
      if (kind == kInplace) {
        y = par::submit_parallel(kRanks, std::move(moved), opts[kind], {},
                                 &engine)
                .get(&rep);
      } else {
        auto c = run.tracer.scope("bench.copy_input", req);
        std::vector<cplx> copy(x);
        y = par::submit_parallel(kRanks, std::move(copy), opts[kind], {},
                                 &engine)
                .get(&rep);
      }
    } catch (const std::exception&) {
      threw = true;
    }
    const double dt = now_s() - t0;
    if (!threw && op_span != 0) {
      // The phases run back to back inside the call; lay their measured
      // wall times out from its start so self time attributes them.
      double at = t0;
      static const char* const kPhase[3] = {"parallel.phase1",
                                            "parallel.phase2",
                                            "parallel.phase3"};
      for (int ph = 0; ph < 3; ++ph) {
        const double w = rep.phases[ph].wall_seconds;
        run.tracer.add(kPhase[ph], op_span, req, at, at + w);
        at += w;
      }
    }
    if (kind != kPlain) sums.add(rep.stats);
    if (kind == kProtected && !threw) reports.push_back(rep);
    {
      auto s = run.tracer.scope("bench.check", req);
      const bool sized = y.size() == kN;
      res.count(check_output(sized ? y.data() : ref.data(), ref.data(), kN,
                             false, threw || !sized),
                std::string("sharded_2p21 ") + kSpanName[kind]);
    }
    if (kind == kInplace) moved = std::move(y);
    return dt;
  };

  for (int k = 0; k < kKinds; ++k) op(k, 0);
  res.set("plan_registry.warm_ms", 1e3 * (now_s() - warm0), "ms");
  if (!run.setup_done()) return;

  res.reset_counts();
  sums = StatsSum{};
  reports.clear();
  engine.reset_scheduler_stats();

  const ClosedLoop loop = run_closed_loop(run, next_input, op);
  report_closed_loop(run, loop);

  // Per-layer: medians over the protected (caller-keeps-input) requests.
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const auto& r : reports) v.push_back(field(r));
    return median(v);
  };
  const char* const wall[3] = {"parallel.phase1_wall_ms",
                               "parallel.phase2_wall_ms",
                               "parallel.phase3_wall_ms"};
  const char* const cpu[3] = {"parallel.phase1_cpu_ms", "parallel.phase2_cpu_ms",
                              "parallel.phase3_cpu_ms"};
  double phase_wall = 0.0;
  for (int ph = 0; ph < 3; ++ph) {
    const double w =
        med([ph](const par::ParallelReport& r) { return r.phases[ph].wall_seconds; });
    phase_wall += w;
    res.set(wall[ph], 1e3 * w, "ms");
    res.set(cpu[ph],
            1e3 * med([ph](const par::ParallelReport& r) {
              return r.phases[ph].max_cpu_seconds;
            }),
            "ms");
  }
  res.set("parallel.modeled_comm_ms",
          1e3 * med([](const par::ParallelReport& r) { return r.max_comm; }), "ms");
  res.set("parallel.makespan_model_ms",
          1e3 * med([](const par::ParallelReport& r) { return r.makespan; }), "ms");
  res.set("parallel.bytes_per_rank",
          med([](const par::ParallelReport& r) {
            return static_cast<double>(r.bytes_per_rank);
          }),
          "bytes");
  res.set("parallel.messages",
          med([](const par::ParallelReport& r) {
            return static_cast<double>(r.comm_stats.messages_received);
          }),
          "count");
  // Computed model: each of the three transposes reads and writes the whole
  // N-point array once (compulsory traffic; cache misses ignored), over the
  // wall time of the phases that contain them.
  const double transpose_bytes = 3.0 * 2.0 * static_cast<double>(kN * sizeof(cplx));
  res.set("parallel.transpose_gbps_model",
          phase_wall > 0.0 ? transpose_bytes / phase_wall / 1e9 : 0.0, "GB/s");

  // Engine view of the rank tasks (submit_tasks jobs), per class.
  const auto st = engine.scheduler_stats();
  const char* const cls[3] = {"high", "normal", "low"};
  std::size_t busiest = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    const auto& pc = st.classes[c];
    res.set(std::string("engine.queue_wait_ms_p50.") + cls[c],
            1e3 * pc.queue_wait.p50, "ms");
    res.set(std::string("engine.queue_wait_ms_p99.") + cls[c],
            1e3 * pc.queue_wait.p99, "ms");
    if (pc.jobs_completed > st.classes[busiest].jobs_completed) busiest = c;
  }
  res.set("engine.run_ms_p50", 1e3 * st.classes[busiest].run.p50, "ms");
  res.set("engine.run_ms_p99", 1e3 * st.classes[busiest].run.p99, "ms");

  report_counts(run, sums);

  if (run.args.trace) {
    // Not timed and not counted as operations: see the header comment.
    const auto opt = par::ParallelOptions::opt_ft_fftw();
    std::vector<cplx> want(kDefectN);
    ftfft::fft::Fft want_fft(kDefectN);
    std::size_t failures = 0;
    for (std::uint64_t i = 0; i < kDefectInputs; ++i) {
      std::vector<cplx> in = uniform_signal(kDefectN, iteration_seed(~run.args.seed, i));
      std::memcpy(want.data(), in.data(), kDefectN * sizeof(cplx));
      want_fft.execute_inplace(want.data());
      std::vector<cplx> y;
      bool threw = false;
      try {
        y = par::submit_parallel(kRanks, std::move(in), opt, {}, &engine).get();
      } catch (const std::exception&) {
        threw = true;
      }
      const bool sized = y.size() == kDefectN;
      if (is_failure(check_output(sized ? y.data() : want.data(), want.data(), kDefectN,
                                  false, threw || !sized))) {
        ++failures;
      }
    }
    res.set("parallel.failures_2p22", static_cast<double>(failures), "count");
  }
}

}  // namespace ftbench
