// In-memory span recorder for the traced run.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into each library module (and, for engine jobs, synthesized from the
// queue-wait/run split the BatchReport carries). Nothing inside the library
// is instrumented. Spans stay in memory and are written out once, at the
// end of the run; with tracing off every call below is a single branch.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ftbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

struct Span {
  std::string name;         ///< "<layer>.<call>", e.g. "engine.submit"
  std::uint64_t id = 0;     ///< unique, > 0
  std::uint64_t parent = 0; ///< enclosing span id, 0 = root
  std::uint64_t request = 0;  ///< shared by all spans of one job; 0 = none
  double t0 = 0.0;
  double t1 = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Recording can be paused so a traced run can interleave untraced
  /// iterations (to measure the tracing overhead). Single-threaded use:
  /// only the thread driving the workload opens spans.
  void set_recording(bool on) { recording_ = on; }
  [[nodiscard]] bool recording() const { return enabled_ && recording_; }

  /// RAII span: opens on construction (parent = the calling thread's
  /// innermost open span), closes on destruction.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    std::size_t slot_ = 0;
    std::uint64_t id_ = 0;
    std::uint64_t saved_parent_ = 0;
  };

  [[nodiscard]] Scope scope(const char* name, std::uint64_t request = 0) {
    return Scope(*this, name, request);
  }

  /// Records a finished span whose times were measured elsewhere (e.g. the
  /// engine's queue-wait and run split). Returns its id (0 when disabled).
  std::uint64_t add(const char* name, std::uint64_t parent,
                    std::uint64_t request, double t0, double t1);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Writes one JSON object per span, one per line.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  bool recording_ = true;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Self time of each span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Self time summed by layer (the span-name prefix before the first '.'),
/// over spans whose t0 lies in [from, to).
std::map<std::string, double> self_time_by_layer(const std::vector<Span>& spans,
                                                 double from, double to);

}  // namespace ftbench
