// Wire messages between stage coordinators and device workers.
//
// A WorkRequest carries the input piece a device needs (tensor + its region
// in the segment-input map) and the output region it must produce; a
// WorkResult carries the produced piece back.
//
// Wire format "PIC4".  A frame is [fixed header][blob][shape][payload],
// behind the stream transports' 8-byte length prefix; the payload is the
// tensor's elements in CHW order.  One codec serves two paths:
// serialize/deserialize run it over one contiguous buffer (tests, the
// replay benchmark), and the TCP transport runs the same encode_header /
// decode_header / decode_shape steps over the socket, so a payload moves
// between the wire and tensor storage with no buffer in between.  The
// in-process transport moves Messages directly.
//
// Besides the data-plane fields a frame carries the
// distributed-observability fields: a propagated trace context (trace_id +
// parent span) so workers can open real spans under the coordinator's
// trace, NTP-style timestamps (t1..t3 on the wire, t4 taken by the
// receiver) so per-device clock offsets can be estimated from ordinary
// request/response traffic, worker-side compute start/end instants, the
// continuous-harvest span cursors (span_cursor / span_cursor_base, see
// obs/remote.hpp) and an opaque blob used by the control-plane messages
// (MetricsDump / TraceDump / EventDump payloads).
//
// Version gating: exactly one version is spoken.  Any other leading magic
// is rejected with a TransportError naming both the received and the
// supported version, so a version-skewed peer ends a serve loop gracefully
// instead of tearing the process down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/region.hpp"
#include "tensor/tensor.hpp"

namespace pico::runtime {

enum class MessageType : std::uint32_t {
  WorkRequest = 1,
  WorkResult = 2,
  Shutdown = 3,
  // Control plane.  Each *Dump type doubles as request (empty blob,
  // coordinator -> worker) and reply (filled blob, worker -> coordinator).
  Ping = 4,         ///< clock probe: carries t1 (sender clock)
  Pong = 5,         ///< clock reply: echoes t1, adds t2/t3 (worker clock)
  MetricsDump = 6,  ///< reply blob: worker registry, Prometheus text
  TraceDump = 7,    ///< reply blob: worker span buffer (encode_spans)
  EventDump = 8,    ///< reply blob: worker flight recorder (encode_events)
};

struct Message {
  MessageType type = MessageType::Shutdown;
  std::int64_t task_id = 0;
  std::int32_t stage_index = 0;
  std::int32_t first_node = 0;  ///< segment to run (WorkRequest)
  std::int32_t last_node = 0;
  /// WorkResult: wall-clock seconds the device spent in execute_segment,
  /// timed worker-side and carried back so the coordinator can attribute
  /// compute time per device (the paper's Eq. 5/6 measured counterpart).
  /// A duration, not an instant — meaningful without any clock sync.
  double compute_seconds = 0.0;

  // --- distributed trace context -------------------------------------------
  /// 0 = no trace context (tracing disabled at the sender).  Nonzero on a
  /// WorkRequest asks the worker to record real spans under this trace.
  std::uint64_t trace_id = 0;
  /// Span id of the coordinator-side stage span this request runs under
  /// (see pipeline.cpp: derived from task id + stage).  Echoed in replies.
  std::uint64_t parent_span = 0;

  // --- clock-offset timestamps ---------------------------------------------
  // NTP-style quadruple: t1 = origin send instant (origin clock), t2 = peer
  // receive instant, t3 = peer reply-send instant (both peer clock); the
  // origin takes t4 locally when the reply lands.  Requests carry t1;
  // replies echo t1 and fill t2/t3.  All obs::Tracer::now_ns() timebases.
  std::int64_t t_origin_ns = 0;  ///< t1 (echoed back in the reply)
  std::int64_t t_recv_ns = 0;    ///< t2: worker clock at request receipt
  std::int64_t t_send_ns = 0;    ///< t3: worker clock just before reply send
  /// Worker-side compute window (worker clock) for WorkResults; the
  /// coordinator rebases these onto its own timeline via obs::rebase.
  std::int64_t t_compute_start_ns = 0;
  std::int64_t t_compute_end_ns = 0;

  // --- span cursors (continuous harvest) ----------------------------------
  /// TraceDump request: first span sequence wanted — and an ack: the worker
  /// prunes every buffered span with seq below it.  TraceDump reply: the
  /// cursor to present next round (seq one past the last span included).
  /// Shutdown: final ack, so the worker's tracer flush skips everything a
  /// harvest round already delivered.  0 = from the first span.
  /// EventDump reuses the pair as *event* cursors: the request carries
  /// the last seen event seq, the reply the chunk's `next` cursor.
  std::uint64_t span_cursor = 0;
  /// TraceDump reply: sequence of the first span included (lets the
  /// coordinator detect a gap — spans lost to an overrun worker buffer).
  /// EventDump reply: the chunk's `base` (gap = ring overwrote history).
  std::uint64_t span_cursor_base = 0;

  /// Control-plane payload (MetricsDump: Prometheus text bytes; TraceDump:
  /// obs::encode_spans bytes).  Empty for data-plane messages.
  std::vector<std::uint8_t> blob;

  Region in_region;   ///< where `tensor` sits in the segment-input map
  Region out_region;  ///< region of the segment output to produce / produced
  Tensor tensor;      ///< input piece (request) or result piece (result)
};

/// The stream transports' length prefix in front of every frame.
inline constexpr std::size_t kLengthPrefixBytes = sizeof(std::uint64_t);
/// Fixed header: magic, type, task id, stage/first/last, compute seconds,
/// trace context (2 × 8), five timestamps, two span cursors, two regions
/// (2 × 16) and the blob length.
inline constexpr std::size_t kFixedHeaderBytes =
    4 + 4 + 8 + 3 * 4 + 8 + 2 * 8 + 5 * 8 + 2 * 8 + 2 * 16 + 8;
/// Tensor shape (three int32 extents) between the blob and the payload.
inline constexpr std::size_t kShapeBytes = 3 * 4;

/// Binary encoding (no framing — the transport adds the length prefix).
std::vector<std::uint8_t> serialize(const Message& message);
/// Bytes one message occupies on a stream transport: the 8-byte length
/// prefix plus serialize()'s output, computed without serializing.  Both
/// transports count ConnectionStats bytes with it.
std::int64_t frame_bytes(const Message& message);
/// frame_bytes of `header` carrying a tensor of `shape` in place of its own.
std::int64_t frame_bytes(const Message& header, const Shape& shape);
/// Decodes a PIC4 frame.  Throws TransportError for any other version magic
/// and InvariantError for a truncated/corrupt frame.
Message deserialize(const std::uint8_t* data, std::size_t size);

/// Appends everything a frame carries before its payload — fixed header,
/// blob and `shape` — to `out`.  `header.tensor` is not read: `shape`
/// stands for the tensor whose elements follow.
void encode_header(const Message& header, const Shape& shape,
                   std::vector<std::uint8_t>& out);
/// Decodes the fixed header in the first `size` bytes at `data` into `out`
/// (blob and tensor untouched) and returns the blob length it announces,
/// unchecked.  Throws TransportError for any other version magic and
/// InvariantError when `size` < kFixedHeaderBytes.
std::uint64_t decode_header(const std::uint8_t* data, std::size_t size,
                            Message& out);
/// Decodes the kShapeBytes shape bytes at `data`.  Before anything is
/// allocated from it, throws InvariantError unless every extent is
/// non-negative and the `payload_bytes` that follow hold exactly
/// elements() × 4 bytes.
Shape decode_shape(const std::uint8_t* data, std::uint64_t payload_bytes);

}  // namespace pico::runtime
