#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

#include "common/plan_registry.hpp"
#include "simd/dispatch.hpp"
#include "stats.hpp"

#ifndef FTBENCH_COMPILER
#define FTBENCH_COMPILER "unknown"
#endif
#ifndef FTBENCH_BUILD_TYPE
#define FTBENCH_BUILD_TYPE "unknown"
#endif
#ifndef FTBENCH_CXX_FLAGS
#define FTBENCH_CXX_FLAGS "unknown"
#endif

namespace ftbench {

void Result::set(const std::string& name, double value, const char* unit) {
  metrics_[name] = Value{value, unit};
}

void Result::count(Outcome o, const std::string& what) {
  ++outcomes_[static_cast<std::size_t>(o)];
  ++attempted_;
  if (is_failure(o)) ++failed_;
  if (o == Outcome::kSilent) problem("silent corruption: " + what);
}

void Result::problem(const std::string& what) { problems_.push_back(what); }

std::string Result::json(const std::vector<std::string>& names) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const std::string& name : names) {
    const Value& v = metrics_.at(name);
    // %.17g keeps every digit; non-finite values are not valid JSON.
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(v.value) ? v.value : -1.0);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << num
       << ", \"unit\": \"" << v.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

Run::Run(const Args& a) : args(a), tracer(a.trace), cpus(available_cpus()) {}

bool Run::setup_done() {
  setup_s = now_s();  // the clock starts at process entry
  misses_at_setup_ = plan_cache_misses();
  return !args.setup_only;
}

std::uint64_t Run::misses_since_setup() const {
  return plan_cache_misses() - misses_at_setup_;
}

std::uint64_t plan_cache_misses() {
  std::uint64_t m = 0;
  for (const auto& s : ftfft::plan_cache_stats()) m += s.misses;
  return m;
}

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return 1;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void fill_uniform(cplx* x, std::size_t n, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  auto u = [&] { return static_cast<double>(gen() >> 11) * 0x1.0p-52 - 1.0; };
  for (std::size_t i = 0; i < n; ++i) {
    const double re = u();
    x[i] = cplx(re, u());
  }
}

std::vector<cplx> uniform_signal(std::size_t n, std::uint64_t seed) {
  std::vector<cplx> x(n);
  fill_uniform(x.data(), n, seed);
  return x;
}

std::uint64_t iteration_seed(std::uint64_t seed, std::uint64_t i) {
  return seed * 0x9E3779B97F4A7C15ULL + i;
}

namespace {

std::string read_line(const std::string& path) {
  std::ifstream f(path);
  std::string s;
  std::getline(f, s);
  return s;
}

/// Size in bytes of the cache at `level` (unified or data) seen by CPU 0,
/// from sysfs ("2048K"); 0 when unknown.
std::size_t cache_bytes(int level) {
  for (int idx = 0; idx < 8; ++idx) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    const std::string lvl = read_line(base + "level");
    if (lvl.empty()) break;
    if (std::stoi(lvl) != level || read_line(base + "type") == "Instruction") {
      continue;
    }
    const std::string size = read_line(base + "size");
    std::size_t v = std::stoul(size);
    if (size.find('K') != std::string::npos) v <<= 10;
    if (size.find('M') != std::string::npos) v <<= 20;
    return v;
  }
  return 0;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::size_t copy_probe_bytes() {
  const std::size_t l2 = cache_bytes(2);
  const std::size_t l3 = cache_bytes(3);
  const std::size_t total = l2 + l3 > 0 ? l2 + l3 : (std::size_t{64} << 20);
  return 4 * total;
}

std::string fingerprint_json() {
  std::ostringstream os;
  os << "{\"cpu_model\": \"" << json_escape(cpu_model()) << "\""
     << ", \"nproc\": " << available_cpus()
     << ", \"l2_bytes\": " << cache_bytes(2)
     << ", \"l3_bytes\": " << cache_bytes(3)
     << ", \"compiler\": \"" << json_escape(FTBENCH_COMPILER) << "\""
     << ", \"cxx_flags\": \"" << json_escape(FTBENCH_CXX_FLAGS) << "\""
     << ", \"build_type\": \"" << json_escape(FTBENCH_BUILD_TYPE) << "\""
     << ", \"simd_backend\": \"" << ftfft::simd::simd_backend_name() << "\""
     << ", \"copy_probe_array_bytes\": " << copy_probe_bytes() << "}";
  return os.str();
}

void StatsSum::add(const ftfft::abft::Stats& s) {
  verifications += s.verifications;
  sub_fft_retries += s.sub_fft_retries;
  mem_errors_corrected += s.mem_errors_corrected;
  comp_errors_detected += s.comp_errors_detected;
}

void report_counts(Run& run, const StatsSum& sums) {
  Result& r = run.result;
  r.set("abft.verifications", static_cast<double>(sums.verifications), "count");
  r.set("abft.sub_fft_retries", static_cast<double>(sums.sub_fft_retries), "count");
  r.set("abft.mem_errors_corrected", static_cast<double>(sums.mem_errors_corrected),
        "count");
  r.set("abft.comp_errors_detected", static_cast<double>(sums.comp_errors_detected),
        "count");
  r.set("abft.waste_ratio",
        sums.verifications ? static_cast<double>(sums.sub_fft_retries) /
                                 static_cast<double>(sums.verifications)
                           : 0.0,
        "ratio");
  for (std::size_t i = 0; i < kNumOutcomes; ++i) {
    const auto o = static_cast<Outcome>(i);
    r.set(std::string("abft.outcome.") + outcome_name(o),
          static_cast<double>(r.outcome(o)), "count");
  }
  r.set("plan_registry.misses_timed", static_cast<double>(run.misses_since_setup()),
        "count");
}

void report_self_pct(Run& run, double from, double to) {
  const auto by_layer =
      self_time_by_layer(run.tracer.spans(), from, to);
  double total = 0.0;
  for (const auto& [layer, t] : by_layer) total += t;
  for (const char* layer : {"core", "engine", "parallel", "bench"}) {
    const auto it = by_layer.find(layer);
    const double t = it == by_layer.end() ? 0.0 : it->second;
    run.result.set(std::string("trace.self_pct.") + layer,
                   total > 0.0 ? 100.0 * t / total : 0.0, "%");
  }
}

double trace_overhead_pct(const std::vector<double>& traced,
                          const std::vector<double>& untraced) {
  const double base = median(untraced);
  return base > 0.0 ? 100.0 * (median(traced) - base) / base : 0.0;
}

ClosedLoop run_closed_loop(Run& run,
                           const std::function<void(std::uint64_t)>& next_input,
                           const std::function<double(int, std::uint64_t)>& op) {
  ClosedLoop loop;
  const double phase = run.args.trace ? 0.6 * run.args.seconds : run.args.seconds;
  loop.begin = now_s();
  std::uint64_t req = 0;
  for (std::uint64_t it = 1; now_s() - loop.begin < phase; ++it) {
    const bool traced = run.args.trace && (it % 2 == 0);
    run.tracer.set_recording(traced);
    {
      auto s = run.tracer.scope("bench.next_input", req + 1);
      next_input(it);
    }
    for (int k = 0; k < ClosedLoop::kKinds; ++k) {
      const std::size_t failed0 = run.result.failed();
      double dt = 0.0;
      {
        auto s = run.tracer.scope("bench.request", ++req);
        dt = op(k, req);
      }
      loop.busy += dt;
      if (run.result.failed() != failed0) continue;
      loop.t[k].push_back(dt);
      if (k == 0) (traced ? loop.traced : loop.untraced).push_back(dt);
    }
  }
  run.tracer.set_recording(true);
  loop.end = now_s();
  return loop;
}

void report_closed_loop(Run& run, const ClosedLoop& loop) {
  Result& res = run.result;
  std::vector<double> all;
  for (const auto& t : loop.t) all.insert(all.end(), t.begin(), t.end());
  const double correct = static_cast<double>(res.attempted() - res.failed());
  res.set("protected_ms_p50", 1e3 * median(loop.t[0]), "ms");
  res.set("protected_inplace_ms_p50", 1e3 * median(loop.t[1]), "ms");
  res.set("plain_ms_p50", 1e3 * median(loop.t[2]), "ms");
  res.set("throughput_tps", loop.busy > 0.0 ? correct / loop.busy : 0.0,
          "transforms/s");
  res.set("latency_ms_p50", 1e3 * median(all), "ms");
  // A closed loop has no priority classes: every request is "high".
  res.set("high_latency_ms_p50", 1e3 * median(all), "ms");
  if (run.args.trace) {
    res.set("trace.overhead_pct", trace_overhead_pct(loop.traced, loop.untraced), "%");
    report_self_pct(run, loop.begin, loop.end);
  }
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> table = {
      {"simd.copy_gbps", "GB/s"},
      {"fft.inplace_ms", "ms"},
      {"fft.outofplace_ms", "ms"},
      {"fft.sub_m_ms", "ms"},
      {"fft.sub_k_ms", "ms"},
      {"fft.small_us.2p10", "us"},
      {"fft.small_us.2p12", "us"},
      {"fft.small_us.2p14", "us"},
      {"fft.r2c_us", "us"},
      {"fft.inplace_gbps_model", "GB/s"},
      {"checksum.weighted_sum_ms", "ms"},
      {"checksum.dual_sum_ms", "ms"},
      {"checksum.sweep_equiv", "sweeps"},
      {"checksum.copy_dual_ms", "ms"},
      {"checksum.ra_gen_ms", "ms"},
      {"abft.none_ms", "ms"},
      {"abft.offline_ms", "ms"},
      {"abft.online_comp_ms", "ms"},
      {"abft.online_mem_ms", "ms"},
      {"abft.fused_ms", "ms"},
      {"abft.overhead_ratio", "ratio"},
      {"abft.r2c_protected_us", "us"},
      {"abft.recovery_us.comp", "us"},
      {"abft.recovery_us.mem", "us"},
      {"abft.recovery_us.bitflip", "us"},
      {"abft.outcome.clean", "count"},
      {"abft.outcome.corrected", "count"},
      {"abft.outcome.uncorrectable", "count"},
      {"abft.outcome.false_alarm", "count"},
      {"abft.outcome.silent", "count"},
      {"abft.impulse_failures", "count"},
      {"abft.huge_flip_failures", "count"},
      {"abft.verifications", "count"},
      {"abft.sub_fft_retries", "count"},
      {"abft.mem_errors_corrected", "count"},
      {"abft.comp_errors_detected", "count"},
      {"abft.waste_ratio", "ratio"},
      {"engine.queue_wait_ms_p50.high", "ms"},
      {"engine.queue_wait_ms_p50.normal", "ms"},
      {"engine.queue_wait_ms_p50.low", "ms"},
      {"engine.queue_wait_ms_p99.high", "ms"},
      {"engine.queue_wait_ms_p99.normal", "ms"},
      {"engine.queue_wait_ms_p99.low", "ms"},
      {"engine.run_ms_p50", "ms"},
      {"engine.run_ms_p99", "ms"},
      {"engine.submit_us_p50", "us"},
      {"engine.shed_lanes", "count"},
      {"engine.expired_lanes", "count"},
      {"engine.rejected_jobs", "count"},
      {"engine.generator_lag_ms_p99", "ms"},
      {"engine.backlog_end", "count"},
      {"engine.open_latency_ms_p50", "ms"},
      {"engine.high_latency_ms_p50", "ms"},
      {"engine.high_latency_samples", "count"},
      {"engine.high_latency_ms_p90", "ms"},
      {"engine.high_latency_ms_p99", "ms"},
      {"parallel.phase1_wall_ms", "ms"},
      {"parallel.phase2_wall_ms", "ms"},
      {"parallel.phase3_wall_ms", "ms"},
      {"parallel.phase1_cpu_ms", "ms"},
      {"parallel.phase2_cpu_ms", "ms"},
      {"parallel.phase3_cpu_ms", "ms"},
      {"parallel.modeled_comm_ms", "ms"},
      {"parallel.makespan_model_ms", "ms"},
      {"parallel.bytes_per_rank", "bytes"},
      {"parallel.messages", "count"},
      {"parallel.failures_2p22", "count"},
      {"parallel.transpose_gbps_model", "GB/s"},
      {"plan_registry.warm_ms", "ms"},
      {"plan_registry.protection_plan_build_ms", "ms"},
      {"plan_registry.misses_timed", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.self_pct.core", "%"},
      {"trace.self_pct.engine", "%"},
      {"trace.self_pct.parallel", "%"},
      {"trace.self_pct.bench", "%"},
  };
  return table;
}

}  // namespace ftbench
