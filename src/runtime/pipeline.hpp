// Pipeline runtime — the paper's Fig. 6 workflow, executable.
//
// One worker thread per device in the plan.  For pipelined plans each stage
// gets its own coordinator thread: it pops a feature map from its input
// queue, splits it into the per-device input pieces (with halo, via
// receptive-field propagation), scatters them to the stage's devices,
// gathers and stitches the produced pieces, and pushes the stage output to
// the next stage's queue.  Sequential plans (LW/EFL/OFL) use a single
// coordinator that walks the stages in order — the same devices may then
// appear in several stages.
//
// This runtime computes real convolutions; tests assert that its output is
// bit-identical to single-device execution for every scheme and model.
#pragma once

#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "nn/graph.hpp"
#include "obs/harvester.hpp"
#include "obs/health.hpp"
#include "obs/remote.hpp"
#include "partition/plan.hpp"
#include "runtime/transport.hpp"
#include "tensor/tensor.hpp"

namespace pico::runtime {

/// A device's connection failed (timeout, EOF, socket error) while the
/// runtime was using it.  Carries the device so a recovery layer can replan
/// around it; the first DeviceFailure poisons the runtime — every
/// subsequent task fails fast with this exception until the owner rebuilds
/// over the survivors (see EpochRuntime).
class DeviceFailure : public TransportError {
 public:
  DeviceFailure(DeviceId device, const std::string& what)
      : TransportError(what), device_(device) {}
  DeviceId device() const { return device_; }

 private:
  const DeviceId device_;
};

struct RuntimeOptions {
  TransportKind transport = TransportKind::InProcess;
  /// Inter-stage queue capacity (back-pressure).
  std::size_t queue_capacity = 8;
  /// Pull worker metrics/trace buffers (MetricsDump/TraceDump, preceded by
  /// a Ping burst that refreshes the per-device clock offset) at least once
  /// per run: continuously when harvest_ms > 0, and always one final round
  /// during shutdown, before the Shutdown message — see cluster_telemetry().
  bool harvest_telemetry = true;
  /// Pings per worker per harvest round (tight clock probes on top of the
  /// quadruples piggybacked on every WorkResult).
  int harvest_pings = 4;
  /// Continuous-harvest period in milliseconds: > 0 starts a background
  /// thread that pulls every worker's metrics/trace deltas mid-run (span
  /// cursors prevent double-counting) and feeds the health engine.  0 keeps
  /// the legacy shutdown-only harvest.
  int harvest_ms = 0;
  /// Harvest rounds per rolling metric window (window duration ≈
  /// window_rounds × harvest period).
  int window_rounds = 8;
  /// Per-operation transport deadline applied to every device connection:
  /// past it, a blocked send/recv (coordinator scatter/gather, harvester
  /// round trips) throws TimeoutError instead of hanging on a dead or
  /// wedged worker.  0 (the default) blocks forever — hang detection then
  /// rests entirely on the heartbeat's EOF-based signals.
  std::int64_t net_timeout_ms = 0;
  /// Heartbeat policy: consecutive failed harvest round trips before a
  /// device is declared dead (DeviceDown) — detection latency is bounded by
  /// heartbeat_missed_rounds × harvest period + net timeout.
  int heartbeat_missed_rounds = 2;
  /// Straggler-detector thresholds (robust z / peer-ratio fallback).
  obs::StragglerOptions straggler{};
  /// Online model-checker thresholds (residual EWMA, drift trip count).
  obs::ModelChecker::Options model{};
  /// Eq. 5–11 predictions for the online model checker, computed by the
  /// caller via partition::plan_cost (the obs layer cannot link partition).
  /// Leave invalid to skip predicted-vs-measured checks; the Thm. 2 M/D/1
  /// check then falls back to the measured stage period.
  obs::ModelPrediction prediction{};

  /// `base` with PICO_HARVEST_MS and PICO_NET_TIMEOUT_MS applied when set
  /// (clamped to 3600000; 0 or less disables; a non-number is ignored with
  /// a warning).  Runtimes never read the environment themselves: only
  /// command-line tools and examples call this.
  static RuntimeOptions from_env(RuntimeOptions base);
};

class PipelineRuntime {
 public:
  PipelineRuntime(const nn::Graph& graph, const partition::Plan& plan,
                  RuntimeOptions options = {});

  /// Bring-your-own-transport: the caller supplies one established
  /// Connection per device in the plan (e.g. TCP sockets to worker
  /// *processes* or remote hosts running runtime::serve_blocking).  No local
  /// workers are spawned; shutdown() sends Shutdown on every connection.
  PipelineRuntime(const nn::Graph& graph, const partition::Plan& plan,
                  std::map<DeviceId, std::unique_ptr<Connection>> connections,
                  RuntimeOptions options = {});

  ~PipelineRuntime();

  PipelineRuntime(const PipelineRuntime&) = delete;
  PipelineRuntime& operator=(const PipelineRuntime&) = delete;

  /// Enqueue one inference; the future resolves with the final feature map.
  std::future<Tensor> submit(Tensor input);

  /// Synchronous convenience wrapper around submit().
  Tensor infer(const Tensor& input);

  /// Drain and stop all threads (idempotent; also run by the destructor).
  /// With harvest_telemetry on, first pulls every worker's metrics and span
  /// buffer over the transport; harvested spans are rebased onto the
  /// coordinator clock and injected into the global tracer, so a subsequent
  /// Tracer::snapshot() is the merged cluster-wide trace.
  void shutdown();

  /// Telemetry harvested from the workers (accumulating across continuous
  /// harvest rounds; empty until the first round — which is the shutdown
  /// round when harvest_ms is 0 — or when harvest_telemetry is off).
  const obs::ClusterTelemetry& cluster_telemetry() const;

  /// Run one synchronous harvest round right now: every worker is pulled
  /// (metrics, span deltas, clock pings), the rolling windows advance and
  /// the straggler/model-drift detectors run.  Independent of the periodic
  /// thread — rounds are serialized internally.  Returns false once
  /// shutdown has begun (no round is attempted).
  bool harvest_now();

  /// Live cluster-health snapshot assembled by the harvest engine (empty —
  /// zero rounds — until the first harvest round).
  obs::HealthSnapshot health() const;

  long long tasks_completed() const;

  /// Devices whose connection failed mid-run (data-plane error or heartbeat
  /// DeviceDown promotion), ascending.  Non-empty means the runtime is
  /// poisoned: in-flight and future tasks fail fast with DeviceFailure and
  /// the owner should rebuild over the survivors.
  std::vector<DeviceId> failed_devices() const;

 private:
  struct Impl;
  // sched-exempt: set once by the constructor; the pointer itself is never
  // reseated.  Impl's own mutable state is guarded internally (pipeline.cpp).
  std::unique_ptr<Impl> impl_;
};

}  // namespace pico::runtime
