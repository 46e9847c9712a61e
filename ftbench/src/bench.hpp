// Shared state of one benchmark run: arguments, result sink, tracer.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "abft/options.hpp"
#include "check.hpp"
#include "trace.hpp"

namespace ftbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;  ///< stop right after set-up (setup_s sampling)
  double rate = 0.0;        ///< serve_mixed open-loop arrivals per second
};

/// Collects metrics, operation counts and check failures; prints the final
/// JSON line.
class Result {
 public:
  void set(const std::string& name, double value, const char* unit);
  [[nodiscard]] bool has(const std::string& name) const {
    return metrics_.count(name) != 0;
  }

  /// Counts one checked operation under its outcome.
  void count(Outcome o, const std::string& what);
  /// Counts an operation that never ran (shed, expired, rejected).
  void count_not_run() {
    ++attempted_;
    ++failed_;
  }
  /// Forgets the operation counts (set-up operations are checked but not
  /// counted); metrics and problems stay.
  void reset_counts() {
    attempted_ = failed_ = 0;
    outcomes_ = {};
  }
  /// A check failed: the run is not correct and will exit nonzero.
  void problem(const std::string& what);

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return problems_.empty(); }
  [[nodiscard]] std::size_t outcome(Outcome o) const {
    return outcomes_[static_cast<std::size_t>(o)];
  }
  [[nodiscard]] const std::vector<std::string>& problems() const {
    return problems_;
  }

  /// The result line: counts, correctness and the named metrics.
  [[nodiscard]] std::string json(const std::vector<std::string>& names) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::array<std::size_t, kNumOutcomes> outcomes_{};
  std::vector<std::string> problems_;
};

struct Run {
  explicit Run(const Args& a);

  Args args;
  Tracer tracer;
  Result result;
  unsigned cpus = 1;  ///< CPUs this process may run on (what `nproc` prints)
  double setup_s = 0.0;

  /// Ends set-up: records setup_s and snapshots the plan-cache miss count.
  /// Returns false in --setup-only mode, where the caller stops.
  bool setup_done();
  /// Plan-cache misses since setup_done() — must stay 0 in a timed phase.
  [[nodiscard]] std::uint64_t misses_since_setup() const;

 private:
  std::uint64_t misses_at_setup_ = 0;
};

/// Total misses across every named plan cache.
std::uint64_t plan_cache_misses();
/// CPUs in this process's affinity mask.
unsigned available_cpus();
/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// abft::Stats counters summed over a phase; reported as the abft.* sums
/// and the retries-per-verification waste ratio.
struct StatsSum {
  std::size_t verifications = 0;
  std::size_t sub_fft_retries = 0;
  std::size_t mem_errors_corrected = 0;
  std::size_t comp_errors_detected = 0;

  void add(const ftfft::abft::Stats& s);
};

/// Reports the counts every workload ends with: the abft::Stats sums, the
/// outcome classes (abft.outcome.*) and plan_registry.misses_timed.
void report_counts(Run& run, const StatsSum& sums);

/// Reports trace.self_pct.<layer>: each layer's share of the self time of
/// the spans that started in [from, to).
void report_self_pct(Run& run, double from, double to);

/// (traced - untraced) / untraced, in percent, from the two samples' medians.
double trace_overhead_pct(const std::vector<double>& traced,
                          const std::vector<double>& untraced);

/// A closed loop of three interleaved request kinds (protected, protected
/// in place, unprotected), as seq_2p22 and sharded_2p21 run it.
struct ClosedLoop {
  static constexpr int kKinds = 3;
  std::vector<double> t[kKinds];  ///< wall times of correct requests, per kind
  std::vector<double> traced;     ///< protected requests, traced iterations
  std::vector<double> untraced;   ///< protected requests, untraced iterations
  double busy = 0.0;              ///< summed time of all requests
  double begin = 0.0;
  double end = 0.0;
};

/// Runs iterations until the phase (--seconds; 60% of it in the traced
/// run) ends. Each iteration calls next_input(i) (untimed: a fresh input
/// and its reference for iteration i >= 1), then op(kind, request id) for
/// kinds 0, 1, 2; op returns the request's wall time and counts its
/// outcome. Only requests with a correct output enter the timing samples —
/// failures are counted, not timed. In the traced run every other
/// iteration is traced, so tracing overhead is measured against
/// interleaved untraced iterations.
ClosedLoop run_closed_loop(Run& run,
                           const std::function<void(std::uint64_t)>& next_input,
                           const std::function<double(int, std::uint64_t)>& op);

/// Reports the end-to-end metrics of a closed loop: medians per kind,
/// correct transforms per busy second, the median over all requests;
/// and, when traced, trace.overhead_pct and trace.self_pct.*.
void report_closed_loop(Run& run, const ClosedLoop& loop);

/// Deterministic inputs (independent of the library's own RNG): components
/// uniform in [-1, 1).
void fill_uniform(cplx* x, std::size_t n, std::uint64_t seed);
std::vector<cplx> uniform_signal(std::size_t n, std::uint64_t seed);
/// Seed of the input of closed-loop iteration `i` of a run with `seed`.
std::uint64_t iteration_seed(std::uint64_t seed, std::uint64_t i);

/// One JSON object describing the host and build; results with different
/// fingerprints are never compared.
std::string fingerprint_json();
/// Size of each array of the streaming-copy probe: 4 x (L2 + L3) of CPU 0.
std::size_t copy_probe_bytes();

/// Per-layer metric table: every name the traced run prints, with its unit.
/// A layer a workload does not exercise reports 0 time/count for it.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

/// Small-size cross-check of the unprotected paths against
/// dft::reference_dft, run during every workload's set-up.
void cross_check_reference(Run& run);

/// Unit-cost probes of each module's public functions at the shapes the
/// workloads use; the traced run of every workload runs them after its
/// workload phase.
void run_layer_probes(Run& run);

void run_seq(Run& run);
void run_serve(Run& run);
void run_sharded(Run& run);

}  // namespace ftbench
