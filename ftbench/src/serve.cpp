// serve_mixed: one BatchEngine with (CPUs - 1) workers fed by a single
// generator thread, so the process never runs more threads than CPUs.
//
// Why: the lane sizes are cache-resident, so the time goes to engine
// admission and queueing, plan-registry lookups, per-lane checksum set-up,
// the real-transform post-pass and the abft correction paths — everything
// seq_2p22 bypasses. A fixed share of lanes carries one injected fault, so
// the correction paths run; clean lanes never reach them.
//
// Job mix (seeded): small high-class jobs (1-2 lanes at 2^10 / 2^12),
// normal jobs (1-8 lanes at any size) and large cancellable low-class
// batches (8-16 lanes at 2^14, complex or r2c). Input families: uniform,
// gaussian and tones. Faults: one per faulted lane — a computational add, a
// memory overwrite or a high-bit flip — at one of the online hooks of
// fault/fault.hpp.
//
// Two high-dynamic-range regimes are left out of the timed mix, because the
// default protected paths fail on them and every timed lane must end
// correct:
//  * impulse-over-noise inputs (a 1e6 spike): false alarms on most of them;
//  * bit flips above bit 59, which can scale an input element by 2^256 or
//    more: "input memory error detected but not localizable" on some.
// The traced run sends each pooled input of both regimes through the
// protected lane path once, after the workload phase, and reports the lanes
// without a correct output as abft.impulse_failures and
// abft.huge_flip_failures.
//
// Phases:
//  * closed-loop saturation: rounds of a fixed 64-job set, submitted at once
//    and waited for; rounds cycle protected / protected in place (complex
//    lanes transformed over their input) / unprotected. The round times and
//    the latencies of the jobs of each protected burst are the end-to-end
//    metrics;
//  * open loop: Poisson arrivals at a fixed absolute rate, each job timed
//    from when it was due; its latencies are per-layer metrics.
// Bypasses: the 2^22 DRAM-streaming regime and the parallel path.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numbers>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/ftfft.hpp"
#include "openloop.hpp"
#include "stats.hpp"

namespace ftbench {

namespace {

namespace eng = ftfft::engine;
namespace fault = ftfft::fault;

constexpr std::size_t kShapeN[4] = {1u << 10, 1u << 12, 1u << 14, 1u << 14};
constexpr int kRealShape = 3;  // r2c at 2^14; shapes 0..2 are complex
constexpr int kFamilies = 4;
constexpr int kGaussian = 1;  // family indices
constexpr int kImpulse = 3;
constexpr int kPoolPerFamily = 4;
constexpr double kFaultShare = 0.10;
constexpr std::size_t kRoundJobs = 64;
constexpr double kSaturationShare = 0.3;  // of the workload phase
constexpr std::size_t kWindows = 7;       // open-loop arrival windows

double unit(std::mt19937_64& g) {
  return static_cast<double>(g() >> 11) * 0x1.0p-53;
}
std::size_t below(std::mt19937_64& g, std::size_t n) {
  return static_cast<std::size_t>(unit(g) * static_cast<double>(n));
}

std::vector<cplx> make_family(int family, std::size_t n, std::mt19937_64& g) {
  std::vector<cplx> x(n);
  auto u = [&] { return 2.0 * unit(g) - 1.0; };
  switch (family) {
    case 0:  // uniform
      for (auto& v : x) {
        const double re = u();
        v = cplx(re, u());
      }
      break;
    case 1:  // gaussian (Box-Muller)
      for (auto& v : x) {
        const double r = std::sqrt(-2.0 * std::log(unit(g) + 0x1.0p-60));
        const double th = 2.0 * std::numbers::pi * unit(g);
        v = cplx(r * std::cos(th), r * std::sin(th));
      }
      break;
    case 2: {  // three tones plus a little noise
      for (auto& v : x) {
        const double re = u();
        v = 0.01 * cplx(re, u());
      }
      for (int tone = 0; tone < 3; ++tone) {
        const double amp = 0.5 + 1.5 * unit(g);
        const double bin = static_cast<double>(below(g, n));
        const double ph = 2.0 * std::numbers::pi * unit(g);
        for (std::size_t t = 0; t < n; ++t) {
          const double a = 2.0 * std::numbers::pi * bin * static_cast<double>(t) /
                               static_cast<double>(n) + ph;
          x[t] += amp * cplx(std::cos(a), std::sin(a));
        }
      }
      break;
    }
    default:  // impulse over unit uniform noise
      for (auto& v : x) {
        const double re = u();
        v = cplx(re, u());
      }
      x[below(g, n)] += cplx(1e6, 0.0);
      break;
  }
  return x;
}

struct LaneSpec {
  int family = 0;
  int entry = 0;
  bool faulted = false;
  fault::FaultSpec fault{};
};

struct JobSpec {
  eng::Priority cls = eng::Priority::kNormal;
  int shape = 0;
  std::vector<LaneSpec> lanes;
};

struct PoolEntry {
  std::vector<cplx> x;     // complex input
  std::vector<double> re;  // real input (real shape)
  std::vector<cplx> ref;   // unprotected spectrum of the clean input
};

/// Seeded inputs and their reference spectra, computed with
/// fft::Fft::execute_inplace (independent of the protected lane paths).
class Pool {
 public:
  explicit Pool(std::uint64_t seed) {
    std::mt19937_64 g(seed);
    for (int s = 0; s < 4; ++s) {
      const std::size_t n = kShapeN[s];
      ftfft::fft::Fft f(n);
      for (int fam = 0; fam < kFamilies; ++fam) {
        for (int e = 0; e < kPoolPerFamily; ++e) {
          PoolEntry p;
          p.x = make_family(fam, n, g);
          if (s == kRealShape) {
            p.re.resize(n);
            for (std::size_t i = 0; i < n; ++i) {
              p.re[i] = p.x[i].real();
              p.x[i] = cplx(p.re[i], 0.0);
            }
          }
          p.ref = p.x;
          f.execute_inplace(p.ref.data());
          if (s == kRealShape) p.ref.resize(n / 2 + 1);
          entries_.push_back(std::move(p));
        }
      }
    }
  }
  const PoolEntry& at(int shape, int family, int entry) const {
    return entries_[(shape * kFamilies + family) * kPoolPerFamily + entry];
  }
  // Lane descriptors take mutable pointers; the engine never writes
  // through them for the lanes that read the pool (see Serve::prepare).
  cplx* input(int shape, const LaneSpec& l);
  double* input_re(int shape, const LaneSpec& l);

 private:
  std::vector<PoolEntry> entries_;
};

/// Draws jobs in blocks whose composition is fixed by construction — class
/// counts, (size, lane-count) combinations and the fault share and kinds
/// are the same for every seed — so that two seeds differ
/// only in data values, fault positions and order, not in how much work a
/// block holds. The seed shuffles the order and picks the data.
class JobMaker {
 public:
  explicit JobMaker(std::uint64_t seed) : g_(seed) {}

  std::vector<JobSpec> block() {
    // Per 64 jobs: 32 high, 22 normal, 10 low.
    std::vector<JobSpec> jobs;
    for (std::size_t i = 0; i < kRoundJobs; ++i) {
      JobSpec j;
      std::size_t lanes = 1;
      if (i < 32) {
        const std::size_t c = high_++;
        j.cls = eng::Priority::kHigh;
        j.shape = static_cast<int>(c % 2);
        lanes = 1 + (c / 2) % 2;
      } else if (i < 54) {
        const std::size_t c = normal_++;
        j.cls = eng::Priority::kNormal;
        j.shape = static_cast<int>(c % 4);
        lanes = 1 + (c / 4 + c) % 8;
      } else {
        const std::size_t c = low_++;
        j.cls = eng::Priority::kLow;
        j.shape = 2 + static_cast<int>(c % 2);
        lanes = 8 + (c / 2 + c) % 9;
      }
      j.lanes.resize(lanes);
      jobs.push_back(std::move(j));
    }
    std::shuffle(jobs.begin(), jobs.end(), g_);

    // Lane attributes: exact fault share per lane shape, at seeded
    // positions, fault kinds in rotation.
    for (int shape = 0; shape < 4; ++shape) {
      std::vector<LaneSpec*> lanes;
      for (auto& j : jobs) {
        if (j.shape != shape) continue;
        for (auto& l : j.lanes) lanes.push_back(&l);
      }
      std::shuffle(lanes.begin(), lanes.end(), g_);
      const double count = static_cast<double>(lanes.size());
      const std::size_t faults = static_cast<std::size_t>(kFaultShare * count + 0.5);
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        LaneSpec& l = *lanes[i];
        l.family = static_cast<int>(i % 3);
        l.entry = static_cast<int>(below(g_, kPoolPerFamily));
        l.faulted = i < faults;
        if (l.faulted) {
          l.fault = draw_fault(fault_kind_[shape]++, kShapeN[shape], shape == kRealShape);
        }
      }
    }
    return jobs;
  }

 private:
  fault::FaultSpec draw_fault(std::size_t kind, std::size_t n, bool real) {
    const std::size_t element = below(g_, n);
    const cplx value = std::polar(std::pow(10.0, 2.0 + 2.0 * unit(g_)),
                                  2.0 * std::numbers::pi * unit(g_));
    const std::size_t variant = kind / 3;
    switch (kind % 3) {
      case 0: {  // computational: add to a sub-FFT (or post-pass) output
        const fault::Phase phases[] = {fault::Phase::kMFftOutput,
                                       fault::Phase::kKFftOutput,
                                       fault::Phase::kRealPostPass};
        return fault::FaultSpec::computational(phases[variant % (real ? 3 : 2)],
                                               below(g_, 4), element, value);
      }
      case 1: {  // memory: overwrite a stored element
        const fault::Phase phases[] = {fault::Phase::kInputAfterChecksum,
                                       fault::Phase::kIntermediate,
                                       fault::Phase::kFinalOutput};
        return fault::FaultSpec::memory_set(phases[variant % 3], 0, element, value);
      }
      default: {  // memory: flip one high bit, 40..59 (see the header comment)
        const fault::Phase ph = variant % 2 ? fault::Phase::kInputAfterChecksum
                                            : fault::Phase::kFinalOutput;
        return fault::FaultSpec::bit_flip(ph, 0, element,
                                          40 + static_cast<unsigned>(below(g_, 20)),
                                          below(g_, 2) == 1);
      }
    }
  }

  std::mt19937_64 g_;
  std::size_t high_ = 0;
  std::size_t normal_ = 0;
  std::size_t low_ = 0;
  std::size_t fault_kind_[4] = {0, 0, 0, 0};
};

cplx* Pool::input(int shape, const LaneSpec& l) {
  return entries_[(shape * kFamilies + l.family) * kPoolPerFamily + l.entry].x.data();
}
double* Pool::input_re(int shape, const LaneSpec& l) {
  return entries_[(shape * kFamilies + l.family) * kPoolPerFamily + l.entry].re.data();
}

enum class Variant { kProtected, kInplace, kPlain };

/// Buffers of one job in flight.
struct Slot {
  std::vector<cplx> in;  // in-place lanes only
  std::vector<cplx> out;
  std::vector<cplx> spec;
  std::vector<fault::Injector> inj;

  /// Sized (and touched) for the largest job, so reusing slots keeps the
  /// resident set independent of which jobs a seed happened to draw.
  static std::unique_ptr<Slot> largest() {
    constexpr std::size_t kMaxLanes = 16;
    constexpr std::size_t n = kShapeN[2];
    auto s = std::make_unique<Slot>();
    s->out.resize(kMaxLanes * n);
    s->spec.resize(kMaxLanes * (n / 2 + 1));
    return s;
  }
};
constexpr std::size_t kOpenSlots = 12;  // well above the open loop's concurrency

class Serve {
 public:
  explicit Serve(Run& run)
      : run_(run),
        res_(run.result),
        engine_(std::max(1u, run.cpus - 1)),
        pool_(run.args.seed ^ 0x9001ULL) {
    ftfft::PlanConfig plain;
    plain.protection = ftfft::Protection::kNone;
    prot_abft_ = ftfft::make_abft_options({});
    plain_abft_ = ftfft::make_abft_options(plain);
  }

  void run();

 private:
  static bool real(const JobSpec& j) { return j.shape == kRealShape; }

  /// Readies a slot for a job: output sentinels, in-place input copies and
  /// armed injectors. Other lanes read their input straight from the pool:
  /// real lanes never write their input, and out-of-place complex lanes are
  /// submitted with BatchOptions::preserve_inputs, as a server that must
  /// not mutate request buffers would.
  void prepare(Slot& s, const JobSpec& j, Variant v) const {
    const std::size_t n = kShapeN[j.shape];
    const std::size_t L = j.lanes.size();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    if (real(j)) {
      const std::size_t h = n / 2 + 1;
      s.spec.resize(L * h);
      for (std::size_t l = 0; l < L; ++l) s.spec[l * h] = cplx(nan, nan);
    } else if (v == Variant::kInplace) {
      s.in.resize(L * n);
      for (std::size_t l = 0; l < L; ++l) {
        const auto& e = pool_.at(j.shape, j.lanes[l].family, j.lanes[l].entry);
        std::memcpy(s.in.data() + l * n, e.x.data(), n * sizeof(cplx));
      }
    } else {
      s.out.resize(L * n);
      for (std::size_t l = 0; l < L; ++l) s.out[l * n] = cplx(nan, nan);
    }
    s.inj.resize(L);
    for (std::size_t l = 0; l < L; ++l) {
      s.inj[l].clear();
      if (v != Variant::kPlain && j.lanes[l].faulted) s.inj[l].schedule(j.lanes[l].fault);
    }
  }

  eng::BatchFuture submit(Slot& s, const JobSpec& j, Variant v) {
    const std::size_t n = kShapeN[j.shape];
    eng::BatchOptions o;
    o.abft = v == Variant::kPlain ? plain_abft_ : prot_abft_;
    o.submit.priority = j.cls;
    o.submit.deadline = std::chrono::nanoseconds(-1);  // explicitly none
    o.submit.cancellable = j.cls == eng::Priority::kLow;
    o.preserve_inputs = !real(j) && v != Variant::kInplace;
    auto inj = [&](std::size_t l) {
      return j.lanes[l].faulted && v != Variant::kPlain ? &s.inj[l] : nullptr;
    };
    if (real(j)) {
      const std::size_t h = n / 2 + 1;
      std::vector<eng::RealLane> lanes(j.lanes.size());
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        lanes[l] = {pool_.input_re(j.shape, j.lanes[l]), s.spec.data() + l * h, inj(l)};
      }
      return engine_.submit_real_batch(lanes, n, eng::RealDirection::kForward, o);
    }
    std::vector<eng::Lane> lanes(j.lanes.size());
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      lanes[l] = {v == Variant::kInplace ? s.in.data() + l * n
                                         : pool_.input(j.shape, j.lanes[l]),
                  v == Variant::kInplace ? nullptr : s.out.data() + l * n, inj(l)};
    }
    return engine_.submit_batch(lanes, n, o);
  }

  /// Checks every lane of a finished job; returns the lanes with a correct
  /// output.
  std::size_t check(const Slot& s, const JobSpec& j, Variant v,
                    const eng::BatchReport& rep) {
    const std::size_t n = kShapeN[j.shape];
    std::size_t good = 0;
    for (std::size_t l = 0; l < j.lanes.size(); ++l) {
      bool threw = false;
      if (l < rep.exceptions.size() && rep.exceptions[l]) {
        try {
          std::rethrow_exception(rep.exceptions[l]);
        } catch (const ftfft::CancelledError&) {
          res_.count_not_run();
          continue;
        } catch (const ftfft::DeadlineExceededError&) {
          res_.count_not_run();
          continue;
        } catch (...) {
          threw = true;
        }
      }
      const bool fired = s.inj[l].fired_count() > 0;
      const auto& e = pool_.at(j.shape, j.lanes[l].family, j.lanes[l].entry);
      const cplx* got = real(j) ? s.spec.data() + l * (n / 2 + 1)
                                : (v == Variant::kInplace ? s.in.data() : s.out.data()) + l * n;
      const std::size_t len = real(j) ? n / 2 + 1 : n;
      const Outcome o = check_output(got, e.ref.data(), len, fired, threw);
      res_.count(o, "serve_mixed lane n=" + std::to_string(n) + " family=" +
                        std::to_string(j.lanes[l].family));
      if (!is_failure(o)) ++good;
      if (v != Variant::kPlain && l < rep.per_lane.size()) sums_.add(rep.per_lane[l]);
    }
    return good;
  }

  /// Sends a one-lane job through the protected lane path outside the
  /// timed phases; true when the lane ends without a correct output.
  bool probe_fails(Slot& s, const JobSpec& j) {
    prepare(s, j, Variant::kProtected);
    const eng::BatchReport rep = submit(s, j, Variant::kProtected).get();
    const bool threw = !rep.exceptions.empty() && rep.exceptions[0];
    const std::size_t n = kShapeN[j.shape];
    const cplx* got = real(j) ? s.spec.data() : s.out.data();
    const std::size_t len = real(j) ? n / 2 + 1 : n;
    const LaneSpec& l = j.lanes[0];
    const auto& ref = pool_.at(j.shape, l.family, l.entry).ref;
    return is_failure(
        check_output(got, ref.data(), len, s.inj[0].fired_count() > 0, threw));
  }

  /// The regimes the timed mix leaves out (see the header comment): every
  /// pooled impulse input, unfaulted, and every pooled gaussian complex
  /// input with bit 61 of its first component of magnitude >= 2 flipped
  /// after checksum generation (a 2^512 scale-up).
  void report_range_probes(Slot& s) {
    std::size_t impulse = 0;
    std::size_t huge = 0;
    for (int shape = 0; shape < 4; ++shape) {
      for (int e = 0; e < kPoolPerFamily; ++e) {
        JobSpec j;
        j.shape = shape;
        j.lanes.push_back(LaneSpec{kImpulse, e, false, {}});
        if (probe_fails(s, j)) ++impulse;
        if (shape == kRealShape) continue;
        const std::vector<cplx>& x = pool_.at(shape, kGaussian, e).x;
        const auto big = std::find_if(x.begin(), x.end(),
                                      [](cplx v) { return std::abs(v.real()) >= 2.0; });
        if (big == x.end()) continue;
        j.lanes[0] = LaneSpec{kGaussian, e, true,
                              fault::FaultSpec::bit_flip(
                                  fault::Phase::kInputAfterChecksum, 0,
                                  static_cast<std::size_t>(big - x.begin()), 61, false)};
        if (probe_fails(s, j)) ++huge;
      }
    }
    res_.set("abft.impulse_failures", static_cast<double>(impulse), "count");
    res_.set("abft.huge_flip_failures", static_cast<double>(huge), "count");
  }

  /// One closed-loop round over the fixed job set; returns its wall time.
  /// With `lat`, measures each job's latency, from the start of the round
  /// (when the whole burst is due) to the job's completion: appends their
  /// mean to lat[0] and each high-class job's latency to lat[1]. (The median
  /// job of a round sits where the high-class jobs end, so it jumps with
  /// the order the seed draws; the mean does not.)
  double round(Variant v, std::size_t* good_lanes, std::vector<double>* lat = nullptr) {
    std::vector<eng::BatchFuture> futs(round_jobs_.size());
    std::vector<double> sub_t(round_jobs_.size());
    std::vector<double> done(round_jobs_.size());
    for (std::size_t i = 0; i < round_jobs_.size(); ++i) {
      prepare(round_slots_[i], round_jobs_[i], v);
    }
    auto rs = run_.tracer.scope("bench.round", ++req_);
    const std::uint64_t req0 = req_;
    const double t0 = now_s();
    for (std::size_t i = 0; i < round_jobs_.size(); ++i) {
      auto s = run_.tracer.scope("engine.submit", req0);
      sub_t[i] = now_s();
      futs[i] = submit(round_slots_[i], round_jobs_[i], v);
      if (lat) futs[i].then([&done, i](eng::BatchReport&) { done[i] = now_s(); });
    }
    std::vector<eng::BatchReport> reps(futs.size());
    for (std::size_t i = 0; i < futs.size(); ++i) reps[i] = futs[i].get();
    const double dt = now_s() - t0;
    if (lat) {
      double sum = 0.0;
      for (std::size_t i = 0; i < futs.size(); ++i) {
        sum += done[i] - t0;
        if (round_jobs_[i].cls == eng::Priority::kHigh) lat[1].push_back(done[i] - t0);
      }
      lat[0].push_back(sum / static_cast<double>(futs.size()));
    }
    auto cs = run_.tracer.scope("bench.check", req0);
    std::size_t good = 0;
    for (std::size_t i = 0; i < futs.size(); ++i) {
      const double q = reps[i].queue_wait_seconds;
      run_.tracer.add("engine.queue", rs.id(), req0, sub_t[i], sub_t[i] + q);
      run_.tracer.add("engine.run", rs.id(), req0, sub_t[i] + q,
                      sub_t[i] + q + reps[i].run_seconds);
      good += check(round_slots_[i], round_jobs_[i], v, reps[i]);
    }
    if (good_lanes) *good_lanes = good;
    return dt;
  }

  Run& run_;
  Result& res_;
  eng::BatchEngine engine_;
  Pool pool_;
  ftfft::abft::Options prot_abft_;
  ftfft::abft::Options plain_abft_;
  std::vector<JobSpec> round_jobs_;
  std::vector<Slot> round_slots_;
  std::vector<std::unique_ptr<Slot>> open_slots_;
  StatsSum sums_;
  std::uint64_t req_ = 0;
};

void Serve::run() {
  round_jobs_ = JobMaker(run_.args.seed ^ 0x7a11ULL).block();
  round_slots_.resize(kRoundJobs);

  const double warm0 = now_s();
  const std::size_t sizes[] = {kShapeN[0], kShapeN[1], kShapeN[2]};
  const std::size_t real_sizes[] = {kShapeN[kRealShape]};
  ftfft::PlanConfig plain;
  plain.protection = ftfft::Protection::kNone;
  for (const ftfft::PlanConfig& cfg : {ftfft::PlanConfig{}, plain}) {
    ftfft::warm_plans(sizes, cfg);
    ftfft::warm_real_plans(real_sizes, cfg);
  }
  res_.set("plan_registry.warm_ms", 1e3 * (now_s() - warm0), "ms");
  for (std::size_t i = 0; i < kOpenSlots; ++i) open_slots_.push_back(Slot::largest());
  // First round of each variant: worker start-up, arenas, first calls.
  for (Variant v : {Variant::kProtected, Variant::kInplace, Variant::kPlain}) {
    round(v, nullptr);
  }
  if (!run_.setup_done()) return;
  res_.reset_counts();
  sums_ = StatsSum{};
  engine_.reset_scheduler_stats();

  const bool trace = run_.args.trace;
  const double phase = trace ? 0.6 * run_.args.seconds : run_.args.seconds;
  const double begin = now_s();

  // ---- closed-loop saturation
  std::vector<double> rt[3];
  std::vector<double> burst_lat[2];  // protected rounds: mean per round, high class
  std::vector<double> traced_prot;
  std::vector<double> untraced_prot;
  double prot_busy = 0.0;
  std::size_t prot_good = 0;
  for (std::size_t it = 0; now_s() - begin < kSaturationShare * phase; ++it) {
    const bool traced = trace && (it % 2 == 1);
    run_.tracer.set_recording(traced);
    for (int v = 0; v < 3; ++v) {
      std::size_t good = 0;
      const double dt = round(static_cast<Variant>(v), &good, v == 0 ? burst_lat : nullptr);
      rt[v].push_back(dt);
      if (v == 0) {
        prot_busy += dt;
        prot_good += good;
        (traced ? traced_prot : untraced_prot).push_back(dt);
      }
    }
  }
  run_.tracer.set_recording(true);

  // ---- open loop at a fixed absolute rate
  const double open_s = phase - (now_s() - begin);
  const std::vector<double> due = poisson_schedule(
      run_.args.rate, std::max(open_s, 0.0), run_.args.seed ^ 0x0be1ULL);
  JobMaker open_jobs(run_.args.seed ^ 0x0be2ULL);
  std::vector<JobSpec> jobs;
  while (jobs.size() < due.size()) {
    for (auto& j : open_jobs.block()) jobs.push_back(std::move(j));
  }
  jobs.resize(due.size());
  std::vector<ArrivalRecord> recs(due.size());
  std::vector<double> submit_end(due.size());

  struct InFlight {
    std::size_t idx;
    std::unique_ptr<Slot> slot;
    eng::BatchFuture fut;
    eng::BatchReport rep;
  };
  std::vector<InFlight> inflight;  // submitted, not finished
  std::vector<InFlight> finished;  // finished, output not checked yet
  std::vector<std::unique_ptr<Slot>> free_slots = std::move(open_slots_);
  std::vector<double> qwait[3];
  std::vector<double> runs;
  // Latencies by arrival window: the metrics are medians over windows, so a
  // transient stall of the host moves one window, not the result.
  std::vector<double> lat_all[kWindows];
  std::vector<double> lat_high[kWindows];
  const double window_s = std::max(open_s, 1e-9) / kWindows;
  std::vector<double> submit_us;

  // Collecting a finished job is cheap (its completion time was stamped by
  // a callback on the worker); checking its output is not, so checks run
  // only when the next send is far enough away or a slot is needed.
  auto collect = [&] {
    for (std::size_t k = 0; k < inflight.size();) {
      if (!inflight[k].fut.ready()) {
        ++k;
        continue;
      }
      InFlight f = std::move(inflight[k]);
      inflight[k] = std::move(inflight.back());
      inflight.pop_back();
      f.rep = f.fut.get();
      const ArrivalRecord& r = recs[f.idx];
      const std::size_t cls = static_cast<std::size_t>(f.rep.priority);
      if (cls < 3) qwait[cls].push_back(f.rep.queue_wait_seconds);
      runs.push_back(f.rep.run_seconds);
      const std::size_t w = std::min<std::size_t>(
          kWindows - 1, static_cast<std::size_t>(due[f.idx] / window_s));
      lat_all[w].push_back(open_loop_latency(r));
      if (jobs[f.idx].cls == eng::Priority::kHigh) lat_high[w].push_back(open_loop_latency(r));
      finished.push_back(std::move(f));
    }
  };
  auto check_one = [&] {
    InFlight f = std::move(finished.back());
    finished.pop_back();
    const ArrivalRecord& r = recs[f.idx];
    const double c0 = now_s();
    check(*f.slot, jobs[f.idx], Variant::kProtected, f.rep);
    const double c1 = now_s();
    if (run_.tracer.enabled()) {
      const std::uint64_t req = 1'000'000'000ULL + f.idx;
      const std::uint64_t id = run_.tracer.add("bench.request", 0, req, r.due, r.done);
      const double q = f.rep.queue_wait_seconds;
      run_.tracer.add("engine.submit", id, req, r.sent, submit_end[f.idx]);
      run_.tracer.add("engine.queue", id, req, r.sent, r.sent + q);
      run_.tracer.add("engine.run", id, req, r.sent + q, r.sent + q + f.rep.run_seconds);
      run_.tracer.add("bench.check", 0, req, c0, c1);
    }
    free_slots.push_back(std::move(f.slot));
  };

  const double open0 = now_s();
  for (std::size_t i = 0; i < due.size(); ++i) {
    while (free_slots.empty()) {  // every slot is in flight or unchecked
      collect();
      if (!finished.empty()) {
        check_one();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    std::unique_ptr<Slot> slot = std::move(free_slots.back());
    free_slots.pop_back();
    prepare(*slot, jobs[i], Variant::kProtected);
    const double due_t = open0 + due[i];
    for (;;) {
      collect();
      const double now = now_s();
      if (now >= due_t) break;
      const double left = due_t - now;
      if (!finished.empty() && left > 1e-3) {
        check_one();
      } else if (left > 400e-6) {
        // Sleep most of the gap; spin the rest for a punctual send.
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::min(left - 250e-6, 1e-3)));
      }
    }
    ArrivalRecord& r = recs[i];
    r.due = due_t;
    r.sent = now_s();
    eng::BatchFuture fut = submit(*slot, jobs[i], Variant::kProtected);
    submit_end[i] = now_s();
    submit_us.push_back(submit_end[i] - r.sent);
    fut.then([&r](eng::BatchReport&) { r.done = now_s(); });
    inflight.push_back(InFlight{i, std::move(slot), std::move(fut), {}});
  }
  const double backlog_end = static_cast<double>(inflight.size());
  while (!inflight.empty() || !finished.empty()) {
    collect();
    if (!finished.empty()) {
      check_one();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  const double end = now_s();

  // ---- end-to-end
  res_.set("protected_ms_p50", 1e3 * median(rt[0]), "ms");
  res_.set("protected_inplace_ms_p50", 1e3 * median(rt[1]), "ms");
  res_.set("plain_ms_p50", 1e3 * median(rt[2]), "ms");
  res_.set("throughput_tps",
           prot_busy > 0.0 ? static_cast<double>(prot_good) / prot_busy : 0.0,
           "transforms/s");
  // The gated latencies come from the saturation bursts, where every job is
  // due at the start of its round: like the round times they follow the
  // speed of the host. The open-loop latencies also follow episodes of CPU
  // steal, which stretch vCPU wake-ups (on a 4-vCPU KVM guest, between two
  // sets of ten runs minutes apart, the interquartile range of the open-loop
  // median went from 10% to 40% of the median), so they are reported per
  // layer only.
  res_.set("latency_ms_p50", 1e3 * median(burst_lat[0]), "ms");
  res_.set("high_latency_ms_p50", 1e3 * median(burst_lat[1]), "ms");
  std::vector<double> p50s;
  std::vector<double> high_p50s;
  std::vector<double> p90s;
  std::vector<double> p99s;
  std::size_t high_samples = 0;
  for (std::size_t w = 0; w < kWindows; ++w) {
    p50s.push_back(median(lat_all[w]));
    high_p50s.push_back(median(lat_high[w]));
    p90s.push_back(percentile(lat_high[w], 90.0));
    p99s.push_back(percentile(lat_high[w], 99.0));
    high_samples += lat_high[w].size();
  }

  // ---- per layer
  res_.set("engine.open_latency_ms_p50", 1e3 * median(p50s), "ms");
  res_.set("engine.high_latency_ms_p50", 1e3 * median(high_p50s), "ms");
  res_.set("engine.high_latency_samples", static_cast<double>(high_samples), "count");
  res_.set("engine.high_latency_ms_p90", 1e3 * median(p90s), "ms");
  res_.set("engine.high_latency_ms_p99", 1e3 * median(p99s), "ms");
  const char* const cls[3] = {"high", "normal", "low"};
  for (int c = 0; c < 3; ++c) {
    res_.set(std::string("engine.queue_wait_ms_p50.") + cls[c],
             1e3 * percentile(qwait[c], 50.0), "ms");
    res_.set(std::string("engine.queue_wait_ms_p99.") + cls[c],
             1e3 * percentile(qwait[c], 99.0), "ms");
  }
  res_.set("engine.run_ms_p50", 1e3 * percentile(runs, 50.0), "ms");
  res_.set("engine.run_ms_p99", 1e3 * percentile(runs, 99.0), "ms");
  res_.set("engine.submit_us_p50", 1e6 * median(submit_us), "us");
  std::vector<double> lag;
  for (const auto& r : recs) lag.push_back(generator_lag(r));
  res_.set("engine.generator_lag_ms_p99", 1e3 * percentile(lag, 99.0), "ms");
  res_.set("engine.backlog_end", backlog_end, "count");
  const auto st = engine_.scheduler_stats();
  double shed = 0, expired = 0, rejected = 0;
  for (const auto& c : st.classes) {
    shed += static_cast<double>(c.shed_lanes);
    expired += static_cast<double>(c.deadline_expired_lanes);
    rejected += static_cast<double>(c.jobs_rejected);
  }
  res_.set("engine.shed_lanes", shed, "count");
  res_.set("engine.expired_lanes", expired, "count");
  res_.set("engine.rejected_jobs", rejected, "count");
  report_counts(run_, sums_);
  if (trace) {
    res_.set("trace.overhead_pct", trace_overhead_pct(traced_prot, untraced_prot), "%");
    report_self_pct(run_, begin, end);
    report_range_probes(*free_slots.back());
  }
}

}  // namespace

void run_serve(Run& run) {
  Serve s(run);
  s.run();
}

}  // namespace ftbench
