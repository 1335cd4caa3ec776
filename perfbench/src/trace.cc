#include "perfbench/src/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "perfbench/src/common.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct OpenSpan {
  uint64_t id;
  uint64_t request;
};
thread_local std::vector<OpenSpan> t_open;

const Clock::time_point kEpoch = Clock::now();

}  // namespace

Tracer::Tracer() = default;

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
      .count();
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = false;
  spans_.clear();
  counts_.clear();
}

uint64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(const std::string& name, double start_us, double end_us,
                    uint64_t parent, uint64_t request) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord span;
  span.name = name;
  span.id = next_id_++;
  span.parent = parent;
  span.request = request;
  span.start_us = start_us;
  span.end_us = end_us;
  spans_.push_back(std::move(span));
}

void Tracer::Add(SpanRecord span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void Tracer::Count(const std::string& name, double delta) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  counts_[name] += delta;
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::Counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu, \"start_us\": %.3f, \"end_us\": %.3f}",
                 i == 0 ? "" : ",\n", s.name.c_str(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.start_us,
                 s.end_us);
  }
  std::fprintf(f, "\n], \"counts\": {");
  bool first = true;
  for (const auto& [name, value] : counts_) {
    std::fprintf(f, "%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request) : name_(name) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  id_ = tracer.NewId();
  if (!t_open.empty()) {
    parent_ = t_open.back().id;
    request_ = request != 0 ? request : t_open.back().request;
  } else {
    request_ = request;
  }
  t_open.push_back({id_, request_});
  start_us_ = tracer.NowUs();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  Tracer& tracer = Tracer::Get();
  const double end_us = tracer.NowUs();
  t_open.pop_back();
  // Record under the id handed out at open, so children that finished first
  // already point at it.
  SpanRecord span;
  span.name = name_;
  span.id = id_;
  span.parent = parent_;
  span.request = request_;
  span.start_us = start_us_;
  span.end_us = end_us;
  tracer.Add(std::move(span));
}

std::vector<double> SelfTimesUs(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_us, s.end_us});
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_begin = 0, cur_end = -1;
      bool open = false;
      for (auto [b, e] : iv) {
        b = std::max(b, s.start_us);
        e = std::min(e, s.end_us);
        if (e <= b) continue;
        if (open && b <= cur_end) {
          cur_end = std::max(cur_end, e);
        } else {
          if (open) covered += cur_end - cur_begin;
          cur_begin = b;
          cur_end = e;
          open = true;
        }
      }
      if (open) covered += cur_end - cur_begin;
    }
    self[i] = s.duration_us() - covered;
  }
  return self;
}

double MedianSpanUs(const std::vector<SpanRecord>& spans,
                    const std::vector<double>& self_us, const std::string& name,
                    bool self) {
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) {
      out.push_back(self ? self_us[i] : spans[i].duration_us());
    }
  }
  return Median(std::move(out));
}

}  // namespace perfbench
