#include "spans.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::int64_t SpanLog::reserve() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanLog::add(BenchSpan span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<BenchSpan> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

Scope::Scope(SpanLog& log, const char* name, std::int64_t parent,
             std::int64_t task_id)
    : log_(log), name_(name), parent_(parent), task_id_(task_id) {
  if (!log_.enabled()) return;
  id_ = log_.reserve();
  start_ns_ = pico::obs::Tracer::now_ns();
}

Scope::~Scope() {
  if (!log_.enabled()) return;
  log_.add({id_, parent_, name_, task_id_, start_ns_,
            pico::obs::Tracer::now_ns()});
}

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Length of the union of `intervals` (sorted in place).
std::int64_t covered(std::vector<Interval>& intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t open = 0, close = 0;
  bool have = false;
  for (const auto& [begin, end] : intervals) {
    if (have && begin <= close) {
      close = std::max(close, end);
      continue;
    }
    if (have) total += close - open;
    open = begin;
    close = end;
    have = true;
  }
  if (have) total += close - open;
  return total;
}

std::unordered_map<std::int64_t, std::vector<Interval>> children_by_parent(
    const std::vector<BenchSpan>& spans) {
  std::unordered_map<std::int64_t, std::vector<Interval>> out;
  for (const BenchSpan& span : spans) {
    if (span.parent != 0) {
      out[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> check_nesting(const std::vector<BenchSpan>& spans) {
  std::vector<std::string> problems;
  std::unordered_map<std::int64_t, const BenchSpan*> by_id;
  for (const BenchSpan& span : spans) by_id[span.id] = &span;
  for (const BenchSpan& span : spans) {
    if (span.end_ns < span.start_ns) {
      problems.push_back(span.name + " ends before it starts");
    }
    if (span.parent == 0) continue;
    const auto it = by_id.find(span.parent);
    if (it == by_id.end()) {
      problems.push_back(span.name + " has no recorded parent");
      continue;
    }
    const BenchSpan& parent = *it->second;
    if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns) {
      problems.push_back(span.name + " lies outside its parent " +
                         parent.name);
    }
  }
  auto children = children_by_parent(spans);
  for (const BenchSpan& span : spans) {
    auto it = children.find(span.id);
    if (it == children.end()) continue;
    if (span.end_ns - span.start_ns - covered(it->second) < 0) {
      problems.push_back(span.name + " has negative self time");
    }
  }
  return problems;
}

std::map<std::string, double> self_seconds(
    const std::vector<BenchSpan>& spans) {
  auto children = children_by_parent(spans);
  std::map<std::string, double> out;
  for (const BenchSpan& span : spans) {
    std::int64_t self = span.end_ns - span.start_ns;
    auto it = children.find(span.id);
    if (it != children.end()) {
      // Clip children to the parent so a malformed child cannot make the
      // parent's self time negative (check_nesting reports it instead).
      for (auto& [begin, end] : it->second) {
        begin = std::clamp(begin, span.start_ns, span.end_ns);
        end = std::clamp(end, span.start_ns, span.end_ns);
      }
      self -= covered(it->second);
    }
    out[span.name] += static_cast<double>(self) / 1e9;
  }
  return out;
}

std::vector<pico::obs::SpanRecord> to_records(
    const std::vector<BenchSpan>& spans) {
  std::unordered_map<std::int64_t, const BenchSpan*> by_id;
  for (const BenchSpan& span : spans) by_id[span.id] = &span;
  std::map<std::string, std::int64_t> root_rows;
  std::vector<pico::obs::SpanRecord> out;
  out.reserve(spans.size());
  for (const BenchSpan& span : spans) {
    const BenchSpan* root = &span;
    while (root->parent != 0 && by_id.count(root->parent)) {
      root = by_id.at(root->parent);
    }
    const auto row = root_rows.emplace(
        root->name, 5001 + static_cast<std::int64_t>(root_rows.size()));
    pico::obs::SpanRecord record;
    record.name = span.name;
    record.category = "bench";
    record.track = row.first->second;
    record.start_ns = span.start_ns;
    record.duration_ns = span.end_ns - span.start_ns;
    record.task_id = span.task_id;
    record.args = {{"span", std::to_string(span.id)},
                   {"parent", std::to_string(span.parent)}};
    out.push_back(std::move(record));
  }
  return out;
}

}  // namespace perfbench
