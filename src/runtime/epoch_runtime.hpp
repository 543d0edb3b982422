// Epoch runtime: APICO (§IV-C) scheme switching and worker-death recovery
// over one rebuild path.
//
// A PipelineRuntime runs one plan over one membership; it can neither
// change scheme nor shrink itself (DeviceFailure poisons it, see
// pipeline.hpp).  This layer runs a sequence of them — one per *epoch* —
// and owns everything that outlives an epoch: the accepted-task ledger
// (each task keeps a pristine copy of its input), the membership view, the
// candidate plans for that membership, and the Eq. 15 workload estimate λ̂.
//
// A completer thread resolves the ledger in order.  Every epoch change runs
// through one routine on that thread, whatever triggered it:
//   * a scheme switch — λ̂, refreshed on submit() and on the completer's
//     idle wakeup, makes another candidate the predicted-latency winner;
//   * a death — a task fails or the heartbeat reports a device down;
//   * rejoin() of a device declared dead.
// The routine drains the running epoch (tasks it resolves are delivered,
// the rest join a redo list), folds its telemetry and health events into
// the accumulators, replans every candidate over the survivors when the
// membership changed, builds the next epoch and resubmits every unfinished
// task in acceptance order.  λ̂ and the active scheme carry over a replan.
// No accepted inference is dropped while at least one device survives and
// the task stays under max_task_attempts.
//
// Exactly-once caveat: promise resolution is exactly-once, worker compute
// is at-least-once — a re-executed task may have computed on the retired
// epoch.  Inference is idempotent, so this is invisible in the outputs.
//
// Hang recovery (a wedged-but-connected worker) additionally needs
// RuntimeOptions::net_timeout_ms > 0; without a
// deadline only EOF-detectable deaths (crash, close) are recoverable.
#pragma once

#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "adaptive/selector.hpp"
#include "cluster/cluster.hpp"
#include "common/types.hpp"
#include "nn/graph.hpp"
#include "obs/health.hpp"
#include "obs/remote.hpp"
#include "partition/plan.hpp"
#include "runtime/pipeline.hpp"
#include "tensor/tensor.hpp"

namespace pico::runtime {

struct EpochOptions {
  /// Options for each inner PipelineRuntime epoch (transport, harvest
  /// cadence, net timeout, heartbeat policy...).
  RuntimeOptions runtime;
  /// Network model fed to the default plan hook and to the cost model that
  /// rates each candidate (adaptive::make_candidate).
  NetworkModel network;
  /// Candidate plans over one membership, index 0 first to run.  Called at
  /// construction and again over the survivors after every membership
  /// change; must return the same schemes in the same order each time, and
  /// throw if no feasible plan exists.  Default (unset): {partition::
  /// pico_plan} — with a single candidate the runtime never switches.
  /// APICO passes {OFL, PICO}.
  std::function<std::vector<partition::Plan>(const nn::Graph&,
                                             const Cluster&)>
      replan;
  double beta = 0.3;      ///< Eq. 15 EWMA weight of the newest window
  Seconds window = 10.0;  ///< wall-clock λ̂ re-evaluation interval
  /// Idle-completer wakeup period: probes the epoch for failures that strike
  /// *between* tasks (heartbeat DeviceDown with an empty ledger) and lets λ̂
  /// decay while no task arrives.  0 disables it (the completer then only
  /// reacts to task traffic and shutdown — what the sched models use to stay
  /// free of modeled-timeout spins).
  int liveness_poll_ms = 50;
  /// A task failing this many times (each on a freshly built epoch) gets
  /// its last failure delivered instead of another retry.
  int max_task_attempts = 4;
};

/// Thread-compatible like PipelineRuntime: one submitter thread; the
/// internal completer thread is invisible to callers.  Device ids in every
/// plan, health event and accessor are full-cluster ids.
class EpochRuntime {
 public:
  /// The graph must outlive the runtime.
  EpochRuntime(const nn::Graph& graph, const Cluster& cluster,
               EpochOptions options = {});
  ~EpochRuntime();

  EpochRuntime(const EpochRuntime&) = delete;
  EpochRuntime& operator=(const EpochRuntime&) = delete;

  /// Enqueue one inference.  The future resolves with the final feature map
  /// — possibly computed by a later epoch than the one that accepted it —
  /// or with the terminal error (cluster exhausted / attempts exceeded).
  std::future<Tensor> submit(Tensor input);

  /// Synchronous convenience wrapper around submit().
  Tensor infer(const Tensor& input);

  /// Drain every accepted task (recovering if needed), then stop
  /// (idempotent; also run by the destructor).
  void shutdown();

  /// Re-admit a device previously declared dead: membership is rebuilt and
  /// the candidates replanned at the next completer step (asynchronous).
  /// Unknown or live devices are ignored.
  void rejoin(DeviceId device);

  /// Health snapshot of the current epoch with the full retired-epoch event
  /// history (DeviceDown, Recovered, ...) prepended.
  obs::HealthSnapshot health() const;
  /// One synchronous harvest round on the current epoch (false once
  /// shutdown began, during a rebuild, or once the cluster is lost).
  bool harvest_now();

  /// Worker telemetry accumulated across all epochs so far (retired epochs
  /// folded in; the live epoch's telemetry joins on shutdown()).
  const obs::ClusterTelemetry& cluster_telemetry() const;

  long long tasks_completed() const;
  /// Rebuilds forced by a death, a task failure or rejoin().
  int replans() const;
  /// Rebuilds that changed the active scheme.
  int switches() const;
  double estimated_rate() const;
  std::string current_scheme() const;
  /// Scheme names in activation order (starts with the initial scheme).
  std::vector<std::string> scheme_history() const;
  /// The candidates over the current membership, in hook order.
  std::vector<adaptive::Candidate> candidates() const;
  /// Devices currently considered dead, ascending.
  std::vector<DeviceId> dead_devices() const;
  /// Current surviving-member view of the cluster.  Note: Cluster
  /// construction re-indexes positionally, so this cluster's own device ids
  /// are 0..size()-1, not full-cluster ids.
  Cluster survivors() const;
  /// The active epoch's plan.
  partition::Plan plan() const;

 private:
  struct Impl;
  // sched-exempt: set once by the constructor; the pointer itself is never
  // reseated.  Impl's own mutable state is guarded internally.
  std::unique_ptr<Impl> impl_;
};

}  // namespace pico::runtime
