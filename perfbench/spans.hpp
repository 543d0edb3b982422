// Benchmark-side spans: recorded around the public calls the benchmark makes
// into each layer, kept in memory, checked for nesting and written out once
// the run ends (through the repository's Chrome trace-event encoder).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

struct BenchSpan {
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = root
  std::string name;
  std::int64_t task_id = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Thread-safe append-only span log.  Disabled logs record nothing, so the
/// untraced runs pay only a branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Reserve an id for a span whose interval is recorded later (add()).
  std::int64_t reserve();
  void add(BenchSpan span);

  std::vector<BenchSpan> spans() const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::int64_t next_id_ = 1;
  std::vector<BenchSpan> spans_;
};

/// RAII span over a scope: [construction, destruction).
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::int64_t parent = 0,
        std::int64_t task_id = -1);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int64_t id() const { return id_; }

 private:
  SpanLog& log_;
  const char* name_;
  std::int64_t id_ = 0;
  std::int64_t parent_;
  std::int64_t task_id_;
  std::int64_t start_ns_ = 0;
};

/// Nesting check: every child lies inside its parent and no self time is
/// negative.  Returns the violations (empty when the trace is well formed).
std::vector<std::string> check_nesting(const std::vector<BenchSpan>& spans);

/// Self time per span name: each span's duration minus the part of it its
/// children cover, summed over spans of that name (seconds).
std::map<std::string, double> self_seconds(const std::vector<BenchSpan>& spans);

/// Benchmark spans converted for obs::write_chrome_trace (one row per root
/// name, parent ids kept as an argument).
std::vector<pico::obs::SpanRecord> to_records(
    const std::vector<BenchSpan>& spans);

}  // namespace perfbench
