// ftbench: the end-to-end benchmark binary (see ../README.md).
//
//   ftbench --workload <seq_2p22|serve_mixed|sharded_2p21> --seed <n>
//           --seconds <s> --trace <0|1> [--rate <jobs/s>] [--setup-only]
//
// Prints a fingerprint line, then — as the last line of stdout — one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1 when
// an output check fails, 2 on bad usage or an FTFFT_* variable in the
// environment.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"

extern char** environ;

namespace {

using namespace ftbench;

constexpr const char* kResultsDir = ".bench_results";  // next to run.py's copies

const std::vector<std::string> kEndToEnd = {
    "setup_s",      "protected_ms_p50", "protected_inplace_ms_p50",
    "plain_ms_p50", "throughput_tps",   "latency_ms_p50",
    "high_latency_ms_p50", "peak_rss_mib"};

int usage(const char* why) {
  std::fprintf(stderr,
               "ftbench: %s\nusage: ftbench --workload <seq_2p22|serve_mixed|"
               "sharded_2p21> --seed <n> --seconds <s> --trace <0|1> "
               "[--rate <jobs/s>] [--setup-only]\n",
               why);
  return 2;
}

/// The library reads FTFFT_* variables (SIMD backend, fused checksums,
/// engine threads, queue caps, ...); the benchmark measures its defaults.
bool environment_clean() {
  bool clean = true;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "FTFFT_", 6) == 0) {
      std::fprintf(stderr, "ftbench: refusing to run with %s set\n", *e);
      clean = false;
    }
  }
  return clean;
}

}  // namespace

int main(int argc, char** argv) {
  now_s();  // start the clock: setup_s counts from here
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--setup-only") {
      args.setup_only = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      args.workload = argv[++i];
    } else if (a == "--seed") {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--rate") {
      args.rate = std::strtod(argv[++i], nullptr);
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!environment_clean()) return 2;
  void (*workload)(Run&) = nullptr;
  if (args.workload == "seq_2p22") workload = run_seq;
  if (args.workload == "serve_mixed") workload = run_serve;
  if (args.workload == "sharded_2p21") workload = run_sharded;
  if (workload == nullptr) return usage("unknown workload");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");
  if (args.workload == "serve_mixed" && !(args.rate > 0.0)) {
    return usage("serve_mixed needs --rate > 0");
  }

  std::printf("{\"fingerprint\": %s}\n", fingerprint_json().c_str());
  std::fflush(stdout);

  Run run(args);
  cross_check_reference(run);
  workload(run);
  if (args.setup_only) {
    std::printf("{\"setup_s\": %.9f}\n", run.setup_s);
    return run.result.correct() ? 0 : 1;
  }

  Result& res = run.result;
  res.set("setup_s", run.setup_s, "s");
  res.set("peak_rss_mib", peak_rss_mib(), "MiB");
  std::vector<std::string> names = kEndToEnd;
  if (args.trace) {
    run_layer_probes(run);
    names.clear();
    for (const auto& m : layer_metrics()) {
      // A layer this workload does not exercise spends no time in it.
      if (!res.has(m.name)) res.set(m.name, 0.0, m.unit);
      names.emplace_back(m.name);
    }
    std::error_code ec;
    std::filesystem::create_directories(kResultsDir, ec);
    const std::string path = std::string(kResultsDir) + "/spans_" + args.workload + "_" +
                             std::to_string(args.seed) + ".jsonl";
    if (!run.tracer.write(path)) {
      std::fprintf(stderr, "ftbench: could not write %s\n", path.c_str());
    }
  }

  for (const auto& name : names) {
    if (!res.has(name)) {
      std::fprintf(stderr, "ftbench: metric %s was not measured\n", name.c_str());
      return 3;
    }
  }
  for (const auto& p : res.problems()) std::fprintf(stderr, "ftbench: %s\n", p.c_str());
  std::printf("%s\n", res.json(names).c_str());
  return res.correct() ? 0 : 1;
}
