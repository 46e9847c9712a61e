// Tests of the benchmark's own arithmetic and bookkeeping (not of the
// library): percentiles, outcome classification, open-loop lag accounting
// and span self time. The quartile math of the spread rule lives in
// compare.py and is tested in test_compare.py. Build and run:
//   cmake -S ftbench -B .bench_build && cmake --build .bench_build
//   ctest --test-dir .bench_build
#include <cmath>
#include <cstdio>
#include <vector>

#include "check.hpp"
#include "openloop.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * (1.0 + std::fabs(b)); }

using namespace ftbench;

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(percentile(v, 50) == 50, "nearest-rank p50 of 1..100 is 50");
  expect(percentile(v, 99) == 99, "nearest-rank p99 of 1..100 is 99");
  expect(percentile(v, 100) == 100, "p100 is the maximum");
  expect(percentile({5, 1, 4, 2, 3}, 90) == 5, "p90 of five samples is the maximum");
  expect(percentile({}, 50) == 0.0, "empty sample gives 0");
  expect(median({3, 1, 2}) == 2, "odd median");
  expect(median({4, 1, 3, 2}) == 2.5, "even median averages the middle pair");
}

void test_classification() {
  // A forged silent corruption: the call succeeded, then one output element
  // was overwritten — the check must read it as silent, not clean.
  const std::size_t n = 1024;
  std::vector<cplx> want(n);
  for (std::size_t i = 0; i < n; ++i) want[i] = cplx(std::sin(i * 0.1), std::cos(i * 0.3));
  std::vector<cplx> got = want;
  expect(check_output(got.data(), want.data(), n, false, false) == Outcome::kClean,
         "untouched output is clean");
  got[17] += cplx(1e-3, 0.0);
  expect(check_output(got.data(), want.data(), n, false, false) == Outcome::kSilent,
         "overwritten output after a successful call is silent");
  expect(check_output(got.data(), want.data(), n, true, false) == Outcome::kSilent,
         "a fault the library missed is silent");
  got[17] = want[17] + cplx(1e-14, 0.0);
  expect(check_output(got.data(), want.data(), n, true, false) == Outcome::kCorrected,
         "a fired fault with a correct output is corrected");
  got[3] = cplx(NAN, 0.0);
  expect(check_output(got.data(), want.data(), n, false, false) == Outcome::kSilent,
         "a NaN output is silent");
  expect(classify(true, true, false) == Outcome::kUncorrectable, "reported fault");
  expect(classify(false, true, false) == Outcome::kFalseAlarm, "false alarm");
  expect(is_failure(Outcome::kFalseAlarm) && is_failure(Outcome::kSilent) &&
             !is_failure(Outcome::kCorrected),
         "failure taxonomy");
  expect(clean_tolerance(n) < detect_tolerance(n), "clean tolerance is tighter");
}

void test_open_loop_lag() {
  // Requests due every 1 ms; the generator stalls 5 ms on the second one,
  // so it and the next two go out late. Latency counts from the due time.
  std::vector<ArrivalRecord> r = {{0.000, 0.000, 0.0005},
                                  {0.001, 0.006, 0.0065},
                                  {0.002, 0.006, 0.0070},
                                  {0.003, 0.006, 0.0075}};
  expect(near(generator_lag(r[0]), 0.0), "on-time request has no lag");
  expect(near(generator_lag(r[1]), 0.005), "stalled request lag");
  expect(near(open_loop_latency(r[1]), 0.0055),
         "latency counts from due, including the stall");
  expect(near(open_loop_latency(r[3]), 0.0045),
         "requests queued behind a stall carry it");
  expect(generator_lag(ArrivalRecord{0.01, 0.005, 0.02}) == 0.0,
         "an early send is not negative lag");
  const std::vector<double> due = poisson_schedule(1000.0, 2.0, 7);
  expect(due.size() > 1800 && due.size() < 2200, "Poisson count near rate * duration");
  bool increasing = true;
  for (std::size_t i = 1; i < due.size(); ++i) increasing &= due[i] > due[i - 1];
  expect(increasing, "due times increase");
  expect(poisson_schedule(1000.0, 2.0, 7) == due, "schedule is deterministic in the seed");
}

void test_self_time() {
  // parent [0, 10] with children [1, 4] and [3, 6] (overlapping) and a
  // grandchild inside the first: parent self = 10 - 5 = 5.
  std::vector<Span> s = {{"bench.request", 1, 0, 7, 0.0, 10.0},
                         {"core.forward", 2, 1, 7, 1.0, 4.0},
                         {"bench.check", 3, 1, 7, 3.0, 6.0},
                         {"fft.x", 4, 2, 7, 1.5, 2.5}};
  const std::vector<double> self = self_times(s);
  expect(near(self[0], 5.0), "parent self time subtracts the union of children");
  expect(near(self[1], 2.0), "child self time subtracts its own child");
  expect(near(self[3], 1.0), "leaf self time is its duration");
  const auto by_layer = self_time_by_layer(s, 0.0, 100.0);
  expect(near(by_layer.at("bench"), 8.0) && near(by_layer.at("core"), 2.0) &&
             near(by_layer.at("fft"), 1.0),
         "self time by layer sums to the root span");
}

}  // namespace

int main() {
  test_percentiles();
  test_classification();
  test_open_loop_lag();
  test_self_time();
  if (failures == 0) std::printf("ftbench selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
