#include "obs/remote.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace pico::obs {

void SpanBuffer::flush_to_tracer() {
  std::vector<SpanRecord> spans = drain();
  Tracer& tracer = Tracer::global();
  for (SpanRecord& span : spans) tracer.record(std::move(span));
}

// ---------------------------------------------------------------------------
// Span wire codec (TraceDump payload)
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kSpanMagic = 0x50535032;  // "PSP2"

template <typename T>
void put(std::vector<std::uint8_t>& out, T value) {
  const auto offset = out.size();
  out.resize(offset + sizeof(T));
  std::memcpy(out.data() + offset, &value, sizeof(T));
}

void put_string(std::vector<std::uint8_t>& out, const std::string& text) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(text.size()));
  const auto offset = out.size();
  out.resize(offset + text.size());
  if (!text.empty()) std::memcpy(out.data() + offset, text.data(), text.size());
}

template <typename T>
T take(const std::uint8_t*& cursor, const std::uint8_t* end) {
  if (cursor + sizeof(T) > end) {
    throw TransportError("span buffer truncated");
  }
  T value;
  std::memcpy(&value, cursor, sizeof(T));
  cursor += sizeof(T);
  return value;
}

std::string take_string(const std::uint8_t*& cursor, const std::uint8_t* end) {
  const auto size = take<std::uint32_t>(cursor, end);
  if (cursor + size > end) throw TransportError("span buffer truncated");
  std::string text(reinterpret_cast<const char*>(cursor), size);
  cursor += size;
  return text;
}

}  // namespace

std::vector<std::uint8_t> encode_spans(const std::vector<SpanRecord>& spans) {
  std::vector<std::uint8_t> out;
  put<std::uint32_t>(out, kSpanMagic);
  put<std::uint64_t>(out, spans.size());
  for (const SpanRecord& span : spans) {
    put_string(out, span.name);
    put_string(out, span.category);
    put<std::int64_t>(out, span.track);
    put<std::int64_t>(out, span.start_ns);
    put<std::int64_t>(out, span.duration_ns);
    put<std::int64_t>(out, span.task_id);
    put<std::int64_t>(out, span.seq);
    put<std::uint32_t>(out, static_cast<std::uint32_t>(span.args.size()));
    for (const auto& [key, value] : span.args) {
      put_string(out, key);
      put_string(out, value);
    }
  }
  return out;
}

std::vector<SpanRecord> decode_spans(const std::uint8_t* data,
                                     std::size_t size) {
  const std::uint8_t* cursor = data;
  const std::uint8_t* end = data + size;
  const auto magic = take<std::uint32_t>(cursor, end);
  if (magic != kSpanMagic) throw TransportError("bad span buffer magic");
  const auto count = take<std::uint64_t>(cursor, end);
  // Each span costs at least the fixed fields; cheap sanity bound so a
  // corrupt count cannot drive a huge allocation.
  if (count > size) throw TransportError("span buffer count implausible");
  std::vector<SpanRecord> spans;
  spans.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    SpanRecord span;
    span.name = take_string(cursor, end);
    span.category = take_string(cursor, end);
    span.track = take<std::int64_t>(cursor, end);
    span.start_ns = take<std::int64_t>(cursor, end);
    span.duration_ns = take<std::int64_t>(cursor, end);
    span.task_id = take<std::int64_t>(cursor, end);
    span.seq = take<std::int64_t>(cursor, end);
    const auto args = take<std::uint32_t>(cursor, end);
    // Decoded count: each arg costs at least two length-prefixed strings
    // (8 bytes), so bound it by the bytes actually left in the buffer.
    if (args > static_cast<std::size_t>(end - cursor) / 8) {
      throw TransportError("span arg count implausible");
    }
    span.args.reserve(args);
    for (std::uint32_t a = 0; a < args; ++a) {
      std::string key = take_string(cursor, end);
      std::string value = take_string(cursor, end);
      span.args.emplace_back(std::move(key), std::move(value));
    }
    spans.push_back(std::move(span));
  }
  if (cursor != end) throw TransportError("span buffer trailing bytes");
  return spans;
}

// ---------------------------------------------------------------------------
// Harvest
// ---------------------------------------------------------------------------

WorkerTelemetry harvest_worker(const HarvestEndpoint& endpoint,
                               int clock_pings) {
  WorkerTelemetry out;
  out.device = endpoint.device;
  out.next_cursor = endpoint.trace_cursor;
  out.next_event_cursor = endpoint.event_cursor;
  out.rounds = 1;
  ClockOffsetEstimator local_clock;
  ClockOffsetEstimator* clock =
      endpoint.clock != nullptr ? endpoint.clock : &local_clock;
  try {
    if (endpoint.ping) {
      for (int i = 0; i < clock_pings; ++i) clock->update(endpoint.ping());
    }
    // Trace before metrics: when the worker dies mid-round, spans already
    // on this side of the wire are kept (rebased below, after the catch)
    // rather than lost to the exception.
    if (endpoint.fetch_trace_chunk) {
      TraceChunk chunk = endpoint.fetch_trace_chunk(endpoint.trace_cursor);
      out.spans = std::move(chunk.spans);
      out.next_cursor = chunk.next;
    }
    // Black box right after the trace, same rationale: the last EventDump
    // to succeed before a death is exactly the retained flight recording.
    if (endpoint.fetch_event_chunk) {
      EventChunk chunk = endpoint.fetch_event_chunk(endpoint.event_cursor);
      out.events = std::move(chunk.events);
      out.next_event_cursor = chunk.next;
    }
    if (endpoint.fetch_metrics) out.metrics_text = endpoint.fetch_metrics();
    out.reachable = true;
  } catch (const Error&) {
    // Worker gone mid-harvest: report what we have, flagged unreachable.
    out.reachable = false;
  }
  // At-least-once delivery: a chunk may re-send spans the coordinator
  // already merged (reply lost after the worker buffered past the cursor).
  // Anything below the request cursor is a duplicate by definition.
  if (endpoint.trace_cursor > 0) {
    std::vector<SpanRecord> fresh;
    fresh.reserve(out.spans.size());
    for (SpanRecord& span : out.spans) {
      if (span.seq >= 0 &&
          static_cast<std::uint64_t>(span.seq) < endpoint.trace_cursor) {
        continue;
      }
      fresh.push_back(std::move(span));
    }
    out.spans.swap(fresh);
  }
  // The EventDump chunk never re-delivers below the request cursor (the
  // worker filters by seq), but a gap is possible: drop defensively anyway.
  if (endpoint.event_cursor > 0 && !out.events.empty()) {
    std::vector<EventRecord> fresh;
    fresh.reserve(out.events.size());
    for (EventRecord& event : out.events) {
      if (event.seq <= endpoint.event_cursor) continue;
      fresh.push_back(event);
    }
    out.events.swap(fresh);
  }
  out.offset_ns = clock->valid() ? clock->offset_ns() : 0;
  out.rtt_ns = clock->rtt_ns();
  out.error_bound_ns = clock->error_bound_ns();
  out.clock_samples = clock->accepted();
  for (SpanRecord& span : out.spans) {
    span.start_ns -= out.offset_ns;  // durations need no correction
  }
  for (EventRecord& event : out.events) {
    event.t_ns -= out.offset_ns;  // same rebase as spans
  }
  return out;
}

// ---------------------------------------------------------------------------
// ClusterTelemetry
// ---------------------------------------------------------------------------

namespace {

/// Continuous harvest folds many rounds per device into one entry: spans
/// accumulate (the cursor protocol already deduplicated them), everything
/// scalar — clock estimate, reachability, the worker's *cumulative* metrics
/// text, the next cursor — refreshes to the latest round's view.
void merge_into(WorkerTelemetry& into, WorkerTelemetry&& round) {
  into.reachable = round.reachable;
  into.offset_ns = round.offset_ns;
  into.rtt_ns = round.rtt_ns;
  into.error_bound_ns = round.error_bound_ns;
  into.clock_samples = round.clock_samples;
  if (!round.metrics_text.empty()) {
    into.metrics_text = std::move(round.metrics_text);
  }
  into.spans.insert(into.spans.end(),
                    std::make_move_iterator(round.spans.begin()),
                    std::make_move_iterator(round.spans.end()));
  into.next_cursor = std::max(into.next_cursor, round.next_cursor);
  into.events.insert(into.events.end(),
                     std::make_move_iterator(round.events.begin()),
                     std::make_move_iterator(round.events.end()));
  into.next_event_cursor =
      std::max(into.next_event_cursor, round.next_event_cursor);
  into.rounds += round.rounds;
}

}  // namespace

void ClusterTelemetry::add(WorkerTelemetry telemetry) {
  MutexLock lock(mutex_);
  for (WorkerTelemetry& existing : workers_) {
    if (existing.device == telemetry.device) {
      merge_into(existing, std::move(telemetry));
      return;
    }
  }
  workers_.push_back(std::move(telemetry));
}

void ClusterTelemetry::merge_from(ClusterTelemetry&& other) {
  std::vector<WorkerTelemetry> theirs;
  {
    MutexLock lock(other.mutex_);
    theirs.swap(other.workers_);
  }
  for (WorkerTelemetry& w : theirs) add(std::move(w));
}

std::vector<WorkerTelemetry> ClusterTelemetry::workers() const {
  MutexLock lock(mutex_);
  return workers_;
}

std::vector<SpanRecord> ClusterTelemetry::worker_spans() const {
  MutexLock lock(mutex_);
  std::vector<SpanRecord> out;
  for (const WorkerTelemetry& worker : workers_) {
    out.insert(out.end(), worker.spans.begin(), worker.spans.end());
  }
  return out;
}

std::string ClusterTelemetry::merged_prometheus(
    const std::string& local_text) const {
  MutexLock lock(mutex_);
  std::ostringstream os;
  os << "# ---- coordinator ----\n" << local_text;
  for (const WorkerTelemetry& worker : workers_) {
    os << "# ---- worker device=" << worker.device
       << " reachable=" << (worker.reachable ? 1 : 0)
       << " clock_offset_ns=" << worker.offset_ns
       << " clock_rtt_ns=" << worker.rtt_ns
       << " clock_samples=" << worker.clock_samples << " ----\n"
       << worker.metrics_text;
    if (!worker.metrics_text.empty() && worker.metrics_text.back() != '\n') {
      os << '\n';
    }
  }
  return os.str();
}

}  // namespace pico::obs
