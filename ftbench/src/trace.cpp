#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace ftbench {

namespace {
thread_local std::uint64_t tl_open_span = 0;  // innermost open Scope
}  // namespace

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

Tracer::Scope::Scope(Tracer& t, const char* name, std::uint64_t request)
    : tracer_(t) {
  if (!t.recording()) return;
  const double t0 = now_s();
  std::lock_guard<std::mutex> lock(t.mu_);
  id_ = t.next_id_++;
  slot_ = t.spans_.size();
  t.spans_.push_back(Span{name, id_, tl_open_span, request, t0, t0});
  saved_parent_ = tl_open_span;
  tl_open_span = id_;
}

Tracer::Scope::~Scope() {
  if (id_ == 0) return;
  const double t1 = now_s();
  std::lock_guard<std::mutex> lock(tracer_.mu_);
  tracer_.spans_[slot_].t1 = t1;
  tl_open_span = saved_parent_;
}

std::uint64_t Tracer::add(const char* name, std::uint64_t parent,
                          std::uint64_t request, double t0, double t1) {
  if (!recording()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  spans_.push_back(Span{name, id, parent, request, t0, t1});
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_s\":%.9f,\"end_s\":%.9f}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.t0, s.t1);
  }
  return std::fclose(f) == 0;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      children[it->second].emplace_back(s.t0, s.t1);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double p0 = spans[i].t0;
    const double p1 = spans[i].t1;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cur0 = 0.0;
    double cur1 = -1.0;  // empty interval
    for (const auto& [c0raw, c1raw] : kids) {
      const double c0 = std::max(c0raw, p0);
      const double c1 = std::min(c1raw, p1);
      if (c1 <= c0) continue;
      if (c0 > cur1) {
        if (cur1 > cur0) covered += cur1 - cur0;
        cur0 = c0;
        cur1 = c1;
      } else {
        cur1 = std::max(cur1, c1);
      }
    }
    if (cur1 > cur0) covered += cur1 - cur0;
    self[i] = (p1 - p0) - covered;
  }
  return self;
}

std::map<std::string, double> self_time_by_layer(const std::vector<Span>& spans,
                                                 double from, double to) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].t0 < from || spans[i].t0 >= to) continue;
    const std::string& n = spans[i].name;
    out[n.substr(0, n.find('.'))] += self[i];
  }
  return out;
}

}  // namespace ftbench
