// Remote telemetry harvest: pull worker-side metrics and trace buffers over
// the transport and merge them — clock-offset corrected — into one
// cluster-wide view.
//
// The transport itself lives above this module (runtime depends on obs, not
// the reverse), so the harvester talks through closures per worker
// endpoint: `ping` performs one lightweight round trip and returns the
// timestamp quadruple, `fetch_metrics` pulls the worker's Prometheus text
// (MetricsDump), and `fetch_trace_chunk` pulls the worker's span buffer
// (TraceDump) from a sequence cursor.  harvest_worker() sends a burst of
// pings to converge the ClockOffsetEstimator, pulls both dumps, and rebases
// every harvested span onto the local (coordinator) timeline.
// ClusterTelemetry accumulates the per-worker results and produces the
// merged artifacts: one aggregated Prometheus dump and one Chrome-trace
// span list in which worker compute sits — monotonic and correctly nested —
// under the coordinator's task spans.
//
// Cursor protocol (continuous harvest).  SpanBuffer stamps every recorded
// span with a monotonically increasing sequence number.  A TraceDump
// request carries the coordinator's cursor C: it acknowledges every span
// with seq < C (the worker prunes them) and asks for everything from C on.
// The reply carries the remaining spans plus [base, next): base is the seq
// of the first span included, next the cursor to present on the following
// round.  Spans are therefore delivered at-least-once — a reply lost to a
// dead coordinator is re-sent on the next round — and the coordinator
// drops any span below its cursor, so repeated mid-run harvests never
// double-count.  The final Shutdown message carries the last cursor as an
// ack, so the worker's graceful-shutdown flush into the process-global
// Tracer only covers spans no harvest round ever delivered.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "obs/clock.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"

namespace pico::obs {

/// One cursor-delimited slice of a worker's span stream (TraceDump reply).
struct TraceChunk {
  std::uint64_t base = 0;  ///< seq of the first span included
  std::uint64_t next = 0;  ///< cursor to request (and ack) next round
  std::vector<SpanRecord> spans;
};

/// Worker-side span store.  record() is called by the serve thread;
/// chunk()/ack() by the same thread when answering TraceDump — but the
/// annotation-enforced locking keeps it safe if a future worker grows
/// internal parallelism (ROADMAP: no bare shared state in the runtime).
///
/// record() stamps each span with the next sequence number; spans stay in
/// the buffer until acknowledged (ack / the cursor of the next chunk()
/// call), giving the harvest loop at-least-once delivery.
class SpanBuffer {
 public:
  void record(SpanRecord span) {
    MutexLock lock(mutex_);
    span.seq = static_cast<std::int64_t>(next_seq_++);
    spans_.push_back(std::move(span));
  }

  /// Prune every span with seq < cursor (coordinator acknowledged them).
  /// The cursor typically arrives off the wire: the prune count is clamped
  /// to what the buffer actually holds, so a corrupt or hostile cursor can
  /// at worst over-acknowledge — it can never drive the erase out of range.
  void ack(std::uint64_t cursor) {
    MutexLock lock(mutex_);
    ack_locked(cursor);
  }

  /// Answer one TraceDump: ack everything below `cursor`, then copy the
  /// remaining (unacknowledged) spans.  The copies stay buffered until the
  /// next round's cursor acknowledges them.
  TraceChunk chunk(std::uint64_t cursor) {
    MutexLock lock(mutex_);
    ack_locked(cursor);
    TraceChunk out;
    out.base = base_seq_;
    out.next = next_seq_;
    out.spans = spans_;
    return out;
  }

  /// Move out everything still buffered, acknowledged or not (the
  /// shutdown flush path).
  std::vector<SpanRecord> drain() {
    MutexLock lock(mutex_);
    std::vector<SpanRecord> out;
    out.swap(spans_);
    base_seq_ = next_seq_;
    return out;
  }

  std::size_t size() const {
    MutexLock lock(mutex_);
    return spans_.size();
  }

  /// Sequence number the next recorded span will get.
  std::uint64_t next_seq() const {
    MutexLock lock(mutex_);
    return next_seq_;
  }

  /// Graceful-shutdown drain: move any unharvested spans into the global
  /// Tracer so they survive the serve loop (correct timebase whenever the
  /// worker shares the coordinator's process/clock; a remote process keeps
  /// them visible in its own tracer for local dumping).  Spans a harvest
  /// round already delivered are acknowledged by the Shutdown message's
  /// cursor first, so they are not flushed twice.
  void flush_to_tracer();

 private:
  void ack_locked(std::uint64_t cursor) PICO_REQUIRES(mutex_) {
    if (cursor <= base_seq_) return;
    const std::uint64_t prune =
        std::min<std::uint64_t>(cursor - base_seq_, spans_.size());
    spans_.erase(spans_.begin(),
                 spans_.begin() + static_cast<std::ptrdiff_t>(prune));
    base_seq_ += prune;
  }

  mutable Mutex mutex_;
  std::vector<SpanRecord> spans_ PICO_GUARDED_BY(mutex_);
  std::uint64_t next_seq_ PICO_GUARDED_BY(mutex_) = 0;
  /// seq of spans_.front() (== next_seq_ when empty).
  std::uint64_t base_seq_ PICO_GUARDED_BY(mutex_) = 0;
};

/// Binary encoding of a span list — the TraceDump wire payload ("PSP2",
/// each span carrying its sequence number).  decode_spans throws
/// TransportError on a malformed buffer or any other magic.
std::vector<std::uint8_t> encode_spans(const std::vector<SpanRecord>& spans);
std::vector<SpanRecord> decode_spans(const std::uint8_t* data,
                                     std::size_t size);

/// Everything harvested from one worker, spans already rebased onto the
/// local timeline (span.start_ns -= estimated offset).
struct WorkerTelemetry {
  int device = -1;
  bool reachable = false;       ///< harvest round trips succeeded
  std::int64_t offset_ns = 0;   ///< remote-minus-local clock offset
  std::int64_t rtt_ns = 0;      ///< smoothed ping RTT
  std::int64_t error_bound_ns = 0;
  int clock_samples = 0;        ///< accepted quadruples behind offset_ns
  std::string metrics_text;     ///< worker registry, Prometheus exposition
  std::vector<SpanRecord> spans;  ///< rebased worker spans
  /// Cursor to present on the next harvest round (acks `spans`); equals the
  /// request cursor when the trace fetch failed.
  std::uint64_t next_cursor = 0;
  /// Flight-recorder events pulled this round (EventDump), timestamps
  /// rebased like spans.  The continuously refreshed copy is the black box
  /// the harvester retains for a device that later dies.
  std::vector<EventRecord> events;
  /// Event cursor for the next round; request cursor when the fetch failed
  /// or the endpoint has no EventDump pull.
  std::uint64_t next_event_cursor = 0;
  int rounds = 0;  ///< harvest rounds folded into this entry (see add())
};

/// One worker endpoint, expressed transport-agnostically.  Any closure may
/// throw (e.g. TransportError when the worker died); harvest_worker then
/// returns a WorkerTelemetry flagged reachable = false that still carries
/// everything pulled before the failure, rebased.
struct HarvestEndpoint {
  int device = -1;
  std::function<ClockSample()> ping;
  std::function<std::string()> fetch_metrics;
  /// Cursor-aware trace pull: send a TraceDump carrying the given cursor,
  /// return the decoded chunk.
  std::function<TraceChunk(std::uint64_t cursor)> fetch_trace_chunk;
  /// Cursor-aware black-box pull: send an EventDump carrying the cursor,
  /// return the decoded chunk.  Unset = peer without the verb (no events).
  std::function<EventChunk(std::uint64_t cursor)> fetch_event_chunk;
  /// Estimator to refine and use for rebasing.  Usually pre-warmed by the
  /// piggybacked quadruples of ordinary WorkResults; null = local-only.
  ClockOffsetEstimator* clock = nullptr;
  /// First span sequence wanted (and ack of everything below).
  std::uint64_t trace_cursor = 0;
  /// First event sequence wanted (events below are already harvested).
  std::uint64_t event_cursor = 0;
};

/// One harvest round: ping `clock_pings` times, pull the trace chunk, pull
/// the metrics, rebase the spans.  The trace is pulled *before* the metrics
/// so spans already delivered survive a worker dying mid-round — they are
/// rebased and returned (reachable = false) instead of dropped.  Spans
/// below the request cursor (re-delivered after a lost reply) are filtered
/// out here, so callers may merge `spans` blindly.
WorkerTelemetry harvest_worker(const HarvestEndpoint& endpoint,
                               int clock_pings = 4);

/// Accumulates WorkerTelemetry across harvest rounds, workers and (for the
/// epoch runtime) plan switches.  Guarded: the harvester thread adds
/// while report/teardown threads read snapshots.
class ClusterTelemetry {
 public:
  /// Fold one round's result in.  Results for a device already present are
  /// merged: spans append, scalar fields (reachability, clocks, cursor,
  /// metrics text — cumulative on the worker, so latest wins) refresh.
  void add(WorkerTelemetry telemetry);
  void merge_from(ClusterTelemetry&& other);

  std::vector<WorkerTelemetry> workers() const;

  /// Harvested worker spans (already rebased) from every worker.
  std::vector<SpanRecord> worker_spans() const;

  /// One cluster-wide Prometheus dump: the local (coordinator) exposition
  /// followed by each worker's, delimited by comment headers carrying the
  /// device id and the offset used for rebasing.
  std::string merged_prometheus(const std::string& local_text) const;

 private:
  mutable Mutex mutex_;
  std::vector<WorkerTelemetry> workers_ PICO_GUARDED_BY(mutex_);
};

}  // namespace pico::obs
