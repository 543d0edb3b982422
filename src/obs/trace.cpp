#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/flight_recorder.hpp"

namespace pico::obs {

Tracer& Tracer::global() {
  static Tracer* instance = [] {
    auto* tracer = new Tracer();  // never destroyed: worker threads may
    const char* env = std::getenv("PICO_TRACE");  // outlive static teardown
    if (env != nullptr && env[0] != '\0') tracer->set_enabled(true);
    return tracer;
  }();
  return *instance;
}

std::int64_t Tracer::now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                              epoch)
      .count();
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  // One buffer per thread, registered with (and kept alive by) the tracer so
  // snapshot() still sees spans from threads that have exited.
  thread_local std::shared_ptr<ThreadBuffer> buffer = [this] {
    auto created = std::make_shared<ThreadBuffer>();
    MutexLock lock(mutex_);
    buffers_.push_back(created);
    return created;
  }();
  return *buffer;
}

void Tracer::record(SpanRecord span) {
  if (!enabled()) return;
  ThreadBuffer& buffer = local_buffer();
  MutexLock lock(buffer.mutex);  // uncontended except during snapshot()
  if (buffer.spans.size() >= kMaxSpansPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer.spans.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::snapshot() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    MutexLock lock(mutex_);
    buffers = buffers_;
  }
  std::vector<SpanRecord> merged;
  for (const auto& buffer : buffers) {
    MutexLock lock(buffer->mutex);
    merged.insert(merged.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return merged;
}

void Tracer::clear() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    MutexLock lock(mutex_);
    buffers = buffers_;
  }
  for (const auto& buffer : buffers) {
    MutexLock lock(buffer->mutex);
    buffer->spans.clear();
  }
  dropped_.store(0, std::memory_order_relaxed);
}

Span::Span(const char* name, const char* category, std::int64_t track,
           std::int64_t task_id)
    : active_(Tracer::global().enabled()),
      name_(name),
      category_(category),
      track_(track),
      task_id_(task_id) {
  if (!active_) return;
  start_ns_ = Tracer::now_ns();
  // Publish the open span so a crash postmortem can dump what was
  // in flight.  Claim failure (table full) just leaves it untracked.
  PendingSpanTable::Entry entry;
  std::strncpy(entry.name, name_, sizeof(entry.name) - 1);
  entry.start_ns = start_ns_;
  entry.track = track_;
  entry.task_id = task_id_;
  entry.tid = FlightRecorder::global().current_tid();
  pending_slot_ = PendingSpanTable::global().claim(entry);
}

Span::~Span() {
  if (!active_) return;
  if (pending_slot_ >= 0) PendingSpanTable::global().release(pending_slot_);
  SpanRecord record;
  record.name = name_;
  record.category = category_;
  record.track = track_;
  record.task_id = task_id_;
  record.start_ns = start_ns_;
  record.duration_ns = Tracer::now_ns() - start_ns_;
  record.args = std::move(args_);
  Tracer::global().record(std::move(record));
}

void Span::arg(std::string key, std::string value) {
  if (!active_) return;
  args_.emplace_back(std::move(key), std::move(value));
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON
// ---------------------------------------------------------------------------

namespace {

double to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

void write_chrome_trace(
    std::ostream& os, const std::vector<SpanRecord>& spans,
    const std::map<std::int64_t, std::string>& track_names) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& [track, name] : track_names) {
    if (!first) os << ',';
    first = false;
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << track
       << ",\"name\":\"thread_name\",\"args\":{\"name\":";
    write_json_string(os, name);
    os << "}}";
  }
  const auto previous_precision = os.precision(15);
  for (const SpanRecord& span : spans) {
    if (!first) os << ',';
    first = false;
    os << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << span.track << ",\"name\":";
    write_json_string(os, span.name);
    os << ",\"cat\":";
    write_json_string(os, span.category);
    os << ",\"ts\":" << to_us(span.start_ns)
       << ",\"dur\":" << to_us(span.duration_ns);
    if (span.task_id >= 0 || !span.args.empty()) {
      os << ",\"args\":{";
      bool first_arg = true;
      if (span.task_id >= 0) {
        os << "\"task\":" << span.task_id;
        first_arg = false;
      }
      for (const auto& [key, value] : span.args) {
        if (!first_arg) os << ',';
        first_arg = false;
        write_json_string(os, key);
        os << ':';
        write_json_string(os, value);
      }
      os << '}';
    }
    os << '}';
  }
  os.precision(previous_precision);
  os << "]}\n";
}

void write_chrome_trace_file(
    const std::string& path, const std::vector<SpanRecord>& spans,
    const std::map<std::int64_t, std::string>& track_names) {
  std::ofstream file(path, std::ios::trunc);
  PICO_CHECK_MSG(file.good(), "cannot open for writing: " << path);
  write_chrome_trace(file, spans, track_names);
  PICO_CHECK_MSG(file.good(), "write failed: " << path);
}

}  // namespace pico::obs
