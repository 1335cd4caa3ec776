// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around its calls into each library layer; nothing
// inside the library is instrumented. Each span has a name, start, end, a
// parent span (the innermost open span on the same thread, or an explicit
// one) and a request id that all spans of one request share. Counts are
// recorded at the same boundaries. Everything is kept in memory and written
// out once, when the run ends. With tracing disabled every call is a no-op.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // 0 = not part of a request
  double start_us = 0;   // steady clock, relative to the tracer's epoch
  double end_us = 0;
  double duration_us() const { return end_us - start_us; }
};

class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_ = on; }
  /// Drops every span and count and disables recording.
  void Reset();
  bool enabled() const { return enabled_; }

  /// Microseconds since the tracer's epoch.
  double NowUs() const;

  /// Records a finished span under a fresh id.
  void Record(const std::string& name, double start_us, double end_us,
                  uint64_t parent, uint64_t request);
  uint64_t NewId();
  /// Records a finished span whose id came from NewId().
  void Add(SpanRecord span);
  void Count(const std::string& name, double delta);

  std::vector<SpanRecord> Spans() const;
  std::map<std::string, double> Counts() const;

  /// Writes every span and count as JSON to `path`.
  bool WriteJson(const std::string& path) const;

 private:
  Tracer();
  bool enabled_ = false;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
  std::map<std::string, double> counts_;
};

/// RAII span on the calling thread. Nested ScopedSpans on one thread become
/// parent and child; the request id is inherited from the parent unless
/// given.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t request_ = 0;
  double start_us_ = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Returned in the order of `spans`.
std::vector<double> SelfTimesUs(const std::vector<SpanRecord>& spans);

/// Median duration in microseconds (self time when `self`) of the spans
/// named `name`.
double MedianSpanUs(const std::vector<SpanRecord>& spans,
                    const std::vector<double>& self_us, const std::string& name,
                    bool self = false);

/// Runs `fn` `reps` times, each call inside its own span named `name`: how
/// a layer is timed from outside at a workload's shapes.
template <typename Fn>
void Probe(const char* name, int reps, Fn fn) {
  for (int r = 0; r < reps; ++r) {
    ScopedSpan span(name);
    fn();
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
