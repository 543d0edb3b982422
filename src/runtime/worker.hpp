// Device worker: one thread owning one end of a Connection, emulating one
// edge device.  Serves WorkRequests by running the requested fused segment
// over its input piece (real tensor arithmetic via execute_segment) and
// returning the produced output piece.  Exits on Shutdown or peer close.
//
// Besides the data plane, the serve loop answers the control plane:
// Ping (clock-offset probe: replies with the worker-clock t2/t3 pair),
// MetricsDump (ships the worker's metrics registry as Prometheus text) and
// TraceDump (drains the worker-side span buffer).  WorkRequests carrying a
// trace context make the worker record real compute/serve spans under that
// context — harvested over the transport by obs::harvest_worker, or flushed
// into the process-global tracer on graceful shutdown so short-lived runs
// don't lose worker telemetry.
//
// Both entry points (the in-process Worker thread and the standalone
// serve_blocking loop a real device's main() calls) share one serve loop
// with identical error handling: TransportError means the peer closed or
// spoke an unsupported protocol version (both end the loop cleanly) and any
// other pico::Error — e.g. a malformed request — is logged and ends the
// loop cleanly instead of unwinding into the caller or taking down a
// standalone worker process.
#pragma once

#include <atomic>
#include <memory>
#include <thread>

#include "common/types.hpp"
#include "nn/graph.hpp"
#include "nn/kernels.hpp"
#include "runtime/transport.hpp"
#include "sched/hooks.hpp"

namespace pico::runtime {

/// Blocking worker loop for standalone device processes: serve WorkRequests
/// on `connection` until Shutdown, peer close, or a malformed request (which
/// is logged, never thrown).  This is what a real edge device's main() calls
/// after connecting to the coordinator.  `device` labels this worker's
/// pico_worker_requests_total metric series; `options` bounds the
/// intra-device threads execute_segment may use.
void serve_blocking(const nn::Graph& graph, Connection& connection,
                    DeviceId device = -1,
                    const nn::ExecOptions& options = {});

/// Test/chaos hook (like obs::set_debug_clock_skew_ns): every WorkRequest
/// served for `device` is artificially slowed by `delay_ms` inside the
/// timed compute window, so the delay shows up in compute_seconds, in the
/// worker's compute spans and — through the windowed views — in the
/// straggler detector.  0 clears the injection.  Process-global: in-process
/// loopback clusters share one worker binary.
void set_debug_compute_delay_ms(DeviceId device, double delay_ms);
double debug_compute_delay_ms(DeviceId device);
void clear_debug_compute_delays();

/// Chaos hook — crash simulation: the worker for `device` drops its
/// connection (close, no reply, loop exit) on receipt of its `requests`-th
/// subsequent WorkRequest, exactly like a process that died mid-task.
/// requests <= 0 clears the injection.  Process-global, like the delay hook.
void set_debug_worker_kill_after(DeviceId device, long long requests);

/// Chaos hook — hang simulation: while set, the worker for `device` wedges
/// its reply leg (computes, then sleeps in 1 ms slices before sending), so
/// the coordinator observes silence rather than EOF.  The stall breaks when
/// the flag clears, the worker's own connection is closed (stop()), or a
/// 60 s hard cap expires.
void set_debug_worker_stall(DeviceId device, bool stalled);

/// Chaos hook — real crash: the worker for `device` raises SIGSEGV on
/// receipt of its `requests`-th subsequent WorkRequest (after journaling the
/// accept), exercising the postmortem capture path end to end.  Only
/// meaningful when the worker runs in its own process (multiprocess
/// clusters); in-process it would take the whole test down.  requests <= 0
/// clears the injection.
void set_debug_worker_segv_after(DeviceId device, long long requests);

/// Clears every kill/stall/segv injection (the delay hook has its own clear).
void clear_debug_worker_faults();

class Worker {
 public:
  /// The worker holds a reference to the (immutable, finalized) graph — in a
  /// real deployment each device owns a copy of its model segment; sharing
  /// the weights here changes nothing observable.  `device` is an optional
  /// label the owner uses to attribute this worker's counters (-1 = none).
  Worker(const nn::Graph& graph, std::unique_ptr<Connection> connection,
         DeviceId device = -1, const nn::ExecOptions& options = {});
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void start();
  /// Close the connection and join the thread (idempotent).
  void stop();

  /// Requests this worker computed, counted at serve time: a request whose
  /// reply leg fails is still served work and still shows up here (and in
  /// the pico_worker_requests_total metric).
  long long requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

  DeviceId device() const { return device_; }

 private:
  void run();

  const nn::Graph& graph_;
  // sched-exempt: set in the constructor; afterwards close() (the only
  // mutation) is itself thread-safe on every Connection.
  std::unique_ptr<Connection> connection_;
  // sched-exempt: immutable after construction.
  DeviceId device_ = -1;
  // sched-exempt: immutable after construction.
  nn::ExecOptions options_;
  // sched-exempt: written by start(), joined by stop(); the owner
  // serializes both (documented single-owner API).
  SchedThread thread_;
  std::atomic<long long> requests_{0};
};

}  // namespace pico::runtime
