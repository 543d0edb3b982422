#include "runtime/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/mutex.hpp"
#include "nn/receptive.hpp"
#include "obs/clock.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/harvester.hpp"
#include "obs/metrics.hpp"
#include "obs/remote.hpp"
#include "obs/trace.hpp"
#include "partition/branches.hpp"
#include "runtime/channel.hpp"
#include "runtime/worker.hpp"
#include "sched/hooks.hpp"
#include "tensor/region.hpp"

namespace pico::runtime {

namespace {

struct TaskItem {
  std::int64_t id = 0;
  Tensor tensor;
  std::shared_ptr<std::promise<Tensor>> promise;
  std::int64_t submit_ns = 0;   ///< when submit() accepted the task
  std::int64_t enqueue_ns = 0;  ///< when it entered its current queue
};

double to_seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

std::vector<obs::Label> stage_labels(std::size_t stage) {
  return {{"stage", std::to_string(stage)}};
}

/// Re-create a span from a duration measured elsewhere (worker-side compute,
/// queue waits): position it as ending now / at the given instant.
void record_interval(obs::Tracer& tracer, const char* name,
                     const char* category, std::int64_t track,
                     std::int64_t task_id, std::int64_t start_ns,
                     std::int64_t end_ns,
                     std::vector<std::pair<std::string, std::string>> args =
                         {}) {
  obs::SpanRecord span;
  span.name = name;
  span.category = category;
  span.track = track;
  span.task_id = task_id;
  span.start_ns = start_ns;
  span.duration_ns = end_ns - start_ns;
  span.args = std::move(args);
  tracer.record(std::move(span));
}

/// Nonzero trace id for one runtime instance (distinguishes the traces of
/// successive runtimes — e.g. across adaptive plan switches — in one dump).
std::uint64_t make_trace_id() {
  static std::atomic<std::uint64_t> counter{0};
  const auto id =
      (static_cast<std::uint64_t>(obs::Tracer::now_ns()) << 8) ^
      counter.fetch_add(1, std::memory_order_relaxed);
  return id | 1;
}

/// Span id of the coordinator-side stage-service span a WorkRequest runs
/// under; workers echo it so harvested spans name their parent.
std::uint64_t stage_span_id(std::int64_t task_id, std::size_t stage_index) {
  return (static_cast<std::uint64_t>(task_id + 1) << 16) |
         static_cast<std::uint64_t>(stage_index + 1);
}

}  // namespace

/// recv() skipping any stale data-plane messages (a coordinator that died
/// mid-task can leave WorkResults queued).  The drain is bounded by the
/// *stale-frame* count — a cap on junk, not on attempts, so a backlog of
/// queued WorkResults (a worker that died mid-gather can leave one per
/// in-flight task) never falsely reports a missing reply — and by the
/// connection's recv deadline when one is configured.  External linkage so
/// churn_test can exercise the drain paths directly.
Message expect_reply(Connection& connection, MessageType want) {
  // Far above any real backlog (bounded by queue capacity × stages), far
  // below a runaway peer flooding frames forever.
  constexpr int kMaxStale = 4096;
  int stale = 0;
  std::int64_t first_stale = 0;
  std::int64_t last_stale = 0;
  for (;;) {
    Message reply = connection.recv();
    if (reply.type == want) {
      if (stale > 0) {
        PICO_LOG(Warn) << "drained " << stale
                       << " stale WorkResult frame(s) (tasks " << first_stale
                       << ".." << last_stale
                       << ") while awaiting control-plane reply type "
                       << static_cast<std::uint32_t>(want);
      }
      return reply;
    }
    PICO_CHECK_MSG(reply.type == MessageType::WorkResult,
                   "unexpected control-plane reply type "
                       << static_cast<std::uint32_t>(reply.type));
    if (stale == 0) first_stale = reply.task_id;
    last_stale = reply.task_id;
    if (++stale >= kMaxStale) {
      throw TransportError(
          "control-plane reply never arrived (drained " +
          std::to_string(stale) + " stale data-plane frames)");
    }
  }
}

namespace {

/// Transport-ownership token for one device connection.  The Connection
/// contract allows one sender and one receiver thread per endpoint; with a
/// background harvester issuing control-plane round trips mid-run, the
/// coordinator and the harvester must alternate instead of interleaving
/// frames.  The gate is that token: a coordinator holds its stage's gates
/// from scatter through gather, the harvester holds exactly one gate for
/// one full round trip.  Deadlock-free by construction — coordinators
/// acquire gate sets in ascending device order (and, in pipelined plans,
/// stages own disjoint device sets), while the harvester never holds two
/// gates at once.
///
/// acquire()/release() pair across statements rather than scopes (the
/// holder performs full scatter/gather exchanges in between), which clang's
/// scope-based capability analysis cannot express — hence the explicit
/// opt-outs.  The tsan preset and the sched harvest model cover the
/// discipline dynamically, and the underlying Mutex still feeds lockdep.
struct ConnectionGate {
  Mutex mutex;
  void acquire() PICO_NO_THREAD_SAFETY_ANALYSIS { mutex.lock(); }
  void release() PICO_NO_THREAD_SAFETY_ANALYSIS { mutex.unlock(); }
};

/// RAII single-gate hold (the harvester's one-device round trip).
class GateLock {
 public:
  explicit GateLock(ConnectionGate& gate) : gate_(gate) { gate_.acquire(); }
  ~GateLock() { gate_.release(); }
  GateLock(const GateLock&) = delete;
  GateLock& operator=(const GateLock&) = delete;

 private:
  ConnectionGate& gate_;
};

/// RAII hold of every gate one stage's device set needs, acquired in
/// ascending device order (the global order that keeps multi-gate holders
/// cycle-free).
class GateSet {
 public:
  GateSet(const std::map<DeviceId, std::unique_ptr<ConnectionGate>>& gates,
          const partition::Stage& stage) {
    std::vector<DeviceId> devices;
    for (const partition::DeviceSlice& slice : stage.assignments) {
      devices.push_back(slice.device);
    }
    std::sort(devices.begin(), devices.end());
    devices.erase(std::unique(devices.begin(), devices.end()),
                  devices.end());
    held_.reserve(devices.size());
    for (const DeviceId device : devices) {
      ConnectionGate* gate = gates.at(device).get();
      gate->acquire();
      held_.push_back(gate);
    }
  }
  ~GateSet() {
    for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
      (*it)->release();
    }
  }
  GateSet(const GateSet&) = delete;
  GateSet& operator=(const GateSet&) = delete;

 private:
  std::vector<ConnectionGate*> held_;
};

/// Continuous-harvest period: the PICO_HARVEST_MS environment variable
/// overrides the option (0 or a non-number disables, like the default).
int resolved_harvest_ms(const RuntimeOptions& options) {
  if (const char* env = std::getenv("PICO_HARVEST_MS")) {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0') {
      return value > 0 ? static_cast<int>(std::min<long>(value, 3600000))
                       : 0;
    }
    PICO_LOG(Warn) << "ignoring non-numeric PICO_HARVEST_MS=\"" << env
                   << "\"";
  }
  return std::max(0, options.harvest_ms);
}

/// Per-operation transport deadline: the PICO_NET_TIMEOUT_MS environment
/// variable overrides the option (0 or a non-number disables, like the
/// default).
std::int64_t resolved_net_timeout_ms(const RuntimeOptions& options) {
  if (const char* env = std::getenv("PICO_NET_TIMEOUT_MS")) {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0') {
      return value > 0 ? static_cast<std::int64_t>(
                             std::min<long>(value, 3600000))
                       : 0;
    }
    PICO_LOG(Warn) << "ignoring non-numeric PICO_NET_TIMEOUT_MS=\"" << env
                   << "\"";
  }
  return std::max<std::int64_t>(0, options.net_timeout_ms);
}

obs::Harvester::Options harvester_options(const RuntimeOptions& options) {
  obs::Harvester::Options out;
  out.window_rounds = std::max(1, options.window_rounds);
  out.straggler = options.straggler;
  out.model = options.model;
  out.heartbeat_missed_rounds = std::max(1, options.heartbeat_missed_rounds);
  return out;
}

}  // namespace

struct PipelineRuntime::Impl {
  const nn::Graph& graph;
  partition::Plan plan;
  RuntimeOptions options;

  std::map<DeviceId, std::unique_ptr<Connection>> connections;
  std::vector<std::unique_ptr<Worker>> workers;

  std::vector<std::unique_ptr<BoundedQueue<TaskItem>>> queues;
  std::vector<SchedThread> coordinators;

  std::atomic<std::int64_t> next_task{0};
  std::atomic<long long> completed{0};
  std::atomic<bool> stopped{false};

  // Admission ledger for the QueueHighWater journal event: tasks accepted
  // by submit() and not yet resolved (value or exception).  The highwater
  // CAS loop records only on a new maximum, so a steady-state run journals
  // nothing here.
  std::atomic<std::int64_t> in_flight{0};
  std::atomic<std::int64_t> in_flight_highwater{0};

  void note_task_admitted() {
    const std::int64_t now = in_flight.fetch_add(1, std::memory_order_relaxed) + 1;
    std::int64_t high = in_flight_highwater.load(std::memory_order_relaxed);
    while (now > high) {
      if (in_flight_highwater.compare_exchange_weak(
              high, now, std::memory_order_relaxed)) {
        obs::record_event(obs::EventCode::QueueHighWater, now);
        break;
      }
    }
  }

  void note_task_resolved() {
    in_flight.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Resolved per-operation transport deadline (option + PICO_NET_TIMEOUT_MS
  /// override); applied to every connection before any thread starts, const
  /// afterwards.  0 = block forever.
  std::int64_t net_timeout_ms = 0;

  // Failure ledger: first device whose connection failed poisons the whole
  // runtime (any_failed) — coordinators fail tasks fast instead of touching
  // a half-dead cluster, and the owner (EpochRuntime) rebuilds over the
  // survivors.  The map keeps the first-failure reason per device.
  mutable Mutex failed_mutex;
  std::map<DeviceId, std::string> failed PICO_GUARDED_BY(failed_mutex);
  std::atomic<bool> any_failed{false};

  // Per-stage / per-queue metric handles, resolved once against the global
  // registry before the coordinator threads start (read-only afterwards, so
  // no synchronization is needed on the vectors themselves; the metrics are
  // internally atomic).
  struct StageMetrics {
    obs::Histogram* scatter = nullptr;
    obs::Histogram* gather = nullptr;
    obs::Histogram* service = nullptr;
    obs::Histogram* compute_critical = nullptr;
    std::map<DeviceId, obs::Histogram*> device_compute;
    // Timestamp-derived splits (v2): request/reply wire time (rebased
    // worker clocks vs coordinator clocks) and worker-side queueing
    // (request receipt -> compute start, a pure worker-clock duration).
    std::map<DeviceId, obs::Histogram*> device_wire_request;
    std::map<DeviceId, obs::Histogram*> device_wire_reply;
    std::map<DeviceId, obs::Histogram*> device_worker_queue;
  };
  struct QueueMetrics {
    obs::Histogram* wait = nullptr;
    obs::Histogram* handoff = nullptr;
  };
  std::vector<StageMetrics> stage_metrics;
  std::vector<QueueMetrics> queue_metrics;
  obs::Histogram* task_latency = nullptr;
  obs::Counter* tasks_total = nullptr;

  // Per-device clock-offset estimators, fed by the quadruple piggybacked on
  // every WorkResult and by the shutdown Ping burst.  The map is built
  // before any coordinator starts and const afterwards; the estimators are
  // internally locked (several coordinators may serve one device in
  // sequential plans).
  std::map<DeviceId, std::shared_ptr<obs::ClockOffsetEstimator>> clocks;
  /// Trace context propagated in every WorkRequest (0 when tracing is off
  /// at start; workers then skip span recording).
  const std::uint64_t trace_id =
      obs::Tracer::global().enabled() ? make_trace_id() : 0;
  /// Worker telemetry accumulated across harvest rounds (see
  /// harvest_round; merged by device).
  obs::ClusterTelemetry telemetry;

  /// Per-device transport-ownership gates (see ConnectionGate).  Built
  /// alongside `connections` before any thread starts; the map itself is
  /// const afterwards.
  std::map<DeviceId, std::unique_ptr<ConnectionGate>> gates;
  /// Continuous-harvest policy engine (windows, λ̂, detectors) — internally
  /// locked, fed under round_mutex.
  obs::Harvester harvester;
  /// Resolved harvest period (option + PICO_HARVEST_MS override); 0 = no
  /// background thread.  Set before any thread starts, const afterwards.
  int harvest_ms = 0;
  /// Serializes harvest rounds (periodic thread, harvest_now callers and
  /// the final shutdown round).  A gate, not a data lock: the holder spends
  /// the round in transport round trips.
  ConnectionGate round_gate;
  /// Per-device span cursors (next sequence to request / ack).  Touched
  /// only briefly, never across I/O.
  Mutex cursor_mutex;
  std::map<DeviceId, std::uint64_t> cursors PICO_GUARDED_BY(cursor_mutex);
  /// Per-device flight-recorder event cursors (EventDump protocol).
  std::map<DeviceId, std::uint64_t> event_cursors PICO_GUARDED_BY(cursor_mutex);
  // Background harvest thread lifecycle: the loop sleeps on harvest_cv
  // between rounds; shutdown sets harvest_stop under the mutex and
  // notifies, so the thread wakes immediately instead of finishing its nap.
  Mutex harvest_mutex;
  CondVar harvest_cv;
  bool harvest_stop PICO_GUARDED_BY(harvest_mutex) = false;
  // sched-exempt: written once by start_coordinators, joined by shutdown;
  // the owner serializes both (documented single-owner API).
  SchedThread harvest_thread;

  Impl(const nn::Graph& g, const partition::Plan& p, RuntimeOptions opts)
      : graph(g), plan(p), options(opts),
        harvester(harvester_options(options)) {}

  /// Record a device's connection failure (idempotent per device): flips
  /// the poison flag, feeds the health engine's liveness state, and logs.
  void note_device_failure(DeviceId device, const std::string& why) {
    {
      MutexLock lock(failed_mutex);
      if (!failed.emplace(device, why).second) return;
    }
    any_failed.store(true, std::memory_order_release);
    PICO_LOG(Error) << "device " << device << " failed: " << why;
    obs::record_event(obs::EventCode::DeviceFailure, device);
    // Idempotent per down episode on the harvester side, so a device the
    // heartbeat already declared down raises no duplicate event.
    harvester.note_device_down(static_cast<int>(device), why);
  }

  bool is_failed(DeviceId device) const {
    if (!any_failed.load(std::memory_order_acquire)) return false;
    MutexLock lock(failed_mutex);
    return failed.count(device) != 0;
  }

  std::vector<DeviceId> failed_devices() const {
    MutexLock lock(failed_mutex);
    std::vector<DeviceId> out;
    for (const auto& [device, why] : failed) out.push_back(device);
    return out;
  }

  /// Fail fast once the runtime is poisoned: touching the remaining
  /// connections would only queue frames a rebuild will orphan.
  void throw_if_degraded() {
    if (!any_failed.load(std::memory_order_acquire)) return;
    DeviceId device = -1;
    std::string why = "device failure pending recovery";
    {
      MutexLock lock(failed_mutex);
      if (!failed.empty()) {
        device = failed.begin()->first;
        why = failed.begin()->second;
      }
    }
    throw DeviceFailure(device, "cluster degraded (device " +
                                    std::to_string(device) + "): " + why);
  }

  /// send_piece() with failure attribution: any transport error condemns
  /// the device and resurfaces as DeviceFailure.
  void guarded_send(DeviceId device, const Message& header,
                    const Tensor& source, const Region& region) {
    if (is_failed(device)) {
      throw DeviceFailure(device, "send to failed device " +
                                      std::to_string(device));
    }
    try {
      connections.at(device)->send_piece(header, source, region);
    } catch (const TransportError& error) {
      note_device_failure(device, error.what());
      throw DeviceFailure(device, "send to device " +
                                      std::to_string(device) +
                                      " failed: " + error.what());
    }
  }

  /// Gather-side recv_result() with failure attribution and stale-frame
  /// skipping: a scatter aborted mid-gather by another device's death
  /// leaves queued WorkResults from earlier tasks; their payloads are
  /// dropped until this task's result lands in the slot.
  Message gather_result(DeviceId device, const ResultSlot& slot) {
    if (is_failed(device)) {
      throw DeviceFailure(device, "recv from failed device " +
                                      std::to_string(device));
    }
    try {
      for (;;) {
        Message result = connections.at(device)->recv_result(slot);
        if (result.task_id == slot.task_id) return result;
        PICO_LOG(Warn) << "dropping stale WorkResult for task "
                       << result.task_id << " from device " << device
                       << " while gathering task " << slot.task_id;
      }
    } catch (const TransportError& error) {
      note_device_failure(device, error.what());
      throw DeviceFailure(device, "recv from device " +
                                      std::to_string(device) +
                                      " failed: " + error.what());
    }
  }

  std::vector<DeviceId> plan_devices() const {
    std::vector<DeviceId> device_ids;
    for (const partition::Stage& stage : plan.stages) {
      for (const partition::DeviceSlice& slice : stage.assignments) {
        bool seen = false;
        for (const DeviceId id : device_ids) seen |= id == slice.device;
        if (!seen) device_ids.push_back(slice.device);
      }
    }
    return device_ids;
  }

  void init_metrics(std::size_t coordinator_count) {
    obs::Registry& registry = obs::Registry::global();
    for (std::size_t s = 0; s < plan.stages.size(); ++s) {
      StageMetrics metrics;
      metrics.scatter =
          &registry.histogram("pico_stage_scatter_seconds", stage_labels(s));
      metrics.gather =
          &registry.histogram("pico_stage_gather_seconds", stage_labels(s));
      metrics.service =
          &registry.histogram("pico_stage_service_seconds", stage_labels(s));
      metrics.compute_critical = &registry.histogram(
          "pico_stage_compute_critical_seconds", stage_labels(s));
      for (const partition::DeviceSlice& slice : plan.stages[s].assignments) {
        const std::vector<obs::Label> labels{
            {"stage", std::to_string(s)},
            {"device", std::to_string(slice.device)}};
        metrics.device_compute[slice.device] =
            &registry.histogram("pico_stage_compute_seconds", labels);
        metrics.device_wire_request[slice.device] =
            &registry.histogram("pico_wire_request_seconds", labels);
        metrics.device_wire_reply[slice.device] =
            &registry.histogram("pico_wire_reply_seconds", labels);
        metrics.device_worker_queue[slice.device] =
            &registry.histogram("pico_worker_queue_seconds", labels);
      }
      stage_metrics.push_back(std::move(metrics));
    }
    for (std::size_t q = 0; q < coordinator_count; ++q) {
      QueueMetrics metrics;
      metrics.wait = &registry.histogram("pico_stage_queue_wait_seconds",
                                         {{"queue", std::to_string(q)}});
      metrics.handoff = &registry.histogram("pico_stage_handoff_seconds",
                                            {{"queue", std::to_string(q)}});
      queue_metrics.push_back(metrics);
    }
    task_latency = &registry.histogram("pico_task_latency_seconds");
    tasks_total = &registry.counter("pico_tasks_completed_total");
  }

  /// External-transport mode: connections were supplied by the caller.
  void start_with_connections(
      std::map<DeviceId, std::unique_ptr<Connection>> supplied) {
    for (const DeviceId id : plan_devices()) {
      const auto it = supplied.find(id);
      PICO_CHECK_MSG(it != supplied.end() && it->second != nullptr,
                     "no connection supplied for device " << id);
      connections.emplace(id, std::move(it->second));
    }
    start_coordinators();
  }

  void start() {
    // One worker (+ dedicated connection) per distinct device in the plan.
    std::vector<DeviceId> device_ids = plan_devices();
    for (const DeviceId id : device_ids) connections.emplace(id, nullptr);

    if (options.transport == TransportKind::InProcess) {
      for (DeviceId id : device_ids) {
        auto [coordinator_end, worker_end] = make_inproc_pair();
        connections[id] = std::move(coordinator_end);
        workers.push_back(
            std::make_unique<Worker>(graph, std::move(worker_end), id));
        workers.back()->start();
      }
    } else {
      TcpListener listener;
      for (DeviceId id : device_ids) {
        // Serial connect/accept keeps the device <-> socket mapping exact.
        auto worker_end = tcp_connect(listener.port());
        connections[id] = listener.accept();
        workers.push_back(
            std::make_unique<Worker>(graph, std::move(worker_end), id));
        workers.back()->start();
      }
    }

    start_coordinators();
  }

  void start_coordinators() {
    // Deadline the coordinator side of every connection (worker ends stay
    // untimed: a worker's recv() idles legitimately between tasks and is
    // unblocked by close() on shutdown).
    net_timeout_ms = resolved_net_timeout_ms(options);
    for (const auto& [device, connection] : connections) {
      if (net_timeout_ms > 0) connection->set_timeout_ms(net_timeout_ms);
      clocks.emplace(device, std::make_shared<obs::ClockOffsetEstimator>());
      gates.emplace(device, std::make_unique<ConnectionGate>());
    }
    // Stage chain: pipelined -> one coordinator per stage; sequential ->
    // one coordinator walking all stages.
    const std::size_t coordinator_count =
        plan.pipelined ? plan.stages.size() : 1;
    init_metrics(coordinator_count);
    wire_harvester();
    for (std::size_t i = 0; i < coordinator_count; ++i) {
      queues.push_back(
          std::make_unique<BoundedQueue<TaskItem>>(options.queue_capacity));
    }
    for (std::size_t i = 0; i < coordinator_count; ++i) {
      coordinators.emplace_back([this, i, coordinator_count] {
        const std::string name = "pico-coord-" + std::to_string(i);
        obs::set_current_thread_name(name.c_str());
        coordinate(i, coordinator_count);
      });
    }
    harvest_ms = resolved_harvest_ms(options);
    if (harvest_ms > 0 && options.harvest_telemetry) {
      harvest_thread = SchedThread([this] {
        obs::set_current_thread_name("pico-harvest");
        harvest_loop();
      });
    }
  }

  /// Point the harvest engine at the metric handles init_metrics resolved
  /// and inject the plan's model predictions.  Runs before any coordinator
  /// or harvest thread starts.
  void wire_harvester() {
    for (std::size_t s = 0; s < plan.stages.size(); ++s) {
      const int stage = static_cast<int>(s);
      StageMetrics& metrics = stage_metrics[s];
      harvester.track_stage_compute_critical(stage, metrics.compute_critical);
      harvester.track_stage_service(stage, metrics.service);
      for (const auto& [device, histogram] : metrics.device_compute) {
        harvester.track_stage_compute(stage, device, histogram);
      }
      for (const auto& [device, request] : metrics.device_wire_request) {
        harvester.track_stage_wire(stage, device, request,
                                   metrics.device_wire_reply.at(device));
      }
    }
    harvester.track_entry_queue_wait(queue_metrics.front().wait);
    harvester.track_tasks_completed(tasks_total);
    if (options.prediction.valid) {
      harvester.set_prediction(options.prediction);
    }
  }

  /// Stamp the v2 trace context + NTP t1 on an outgoing WorkRequest.  Must
  /// run immediately before send() so t1 sits tight against the wire.
  void stamp_request(Message& request, std::int64_t task_id,
                     std::size_t stage_index) {
    request.trace_id = trace_id;
    request.parent_span = stage_span_id(task_id, stage_index);
    request.t_origin_ns = obs::Tracer::now_ns();
  }

  /// Per-WorkResult bookkeeping: feed the device's clock-offset estimator
  /// with the piggybacked quadruple, then attribute the timestamp-derived
  /// splits — request/reply wire time (rebased) and worker-side queueing.
  /// The compute span itself is recorded by the *worker* under the
  /// propagated trace context and harvested at shutdown; the coordinator no
  /// longer synthesizes it (it only falls back to the anchored-duration
  /// guess for a result without timestamps).
  void observe_result(std::size_t stage_index, DeviceId device,
                      const Message& result, std::int64_t t4_ns) {
    if (result.t_send_ns == 0) return;  // no v2 timestamps: nothing to do
    const auto clock_it = clocks.find(device);
    if (clock_it == clocks.end()) return;
    obs::ClockOffsetEstimator& clock = *clock_it->second;
    clock.update({result.t_origin_ns, result.t_recv_ns, result.t_send_ns,
                  t4_ns});
    if (!clock.valid()) return;
    StageMetrics& metrics = stage_metrics[stage_index];
    const std::int64_t t2_local = clock.rebase(result.t_recv_ns);
    const std::int64_t t3_local = clock.rebase(result.t_send_ns);
    // Offset error can push a short wire leg slightly negative; clamp.
    const double wire_request = std::max(
        0.0, to_seconds(t2_local - result.t_origin_ns));
    const double wire_reply = std::max(0.0, to_seconds(t4_ns - t3_local));
    const double worker_queue = std::max(
        0.0, to_seconds(result.t_compute_start_ns - result.t_recv_ns));
    if (auto it = metrics.device_wire_request.find(device);
        it != metrics.device_wire_request.end()) {
      it->second->observe(wire_request);
    }
    if (auto it = metrics.device_wire_reply.find(device);
        it != metrics.device_wire_reply.end()) {
      it->second->observe(wire_reply);
    }
    if (auto it = metrics.device_worker_queue.find(device);
        it != metrics.device_worker_queue.end()) {
      it->second->observe(worker_queue);
    }
    obs::Tracer& tracer = obs::Tracer::global();
    if (tracer.enabled()) {
      const std::vector<std::pair<std::string, std::string>> args{
          {"stage", std::to_string(stage_index)},
          {"device", std::to_string(device)}};
      record_interval(tracer, "wire_req", "net", obs::net_track(),
                      result.task_id, result.t_origin_ns,
                      std::max(result.t_origin_ns, t2_local), args);
      record_interval(tracer, "wire_rep", "net", obs::net_track(),
                      result.task_id, std::min(t3_local, t4_ns), t4_ns,
                      args);
    }
  }

  /// Observe one device's per-task compute time (histogram; `fallback_span`
  /// re-creates the old coordinator-synthesized span for results that
  /// carried no worker timestamps).
  void observe_compute(std::size_t stage_index, DeviceId device,
                       std::int64_t task_id, double compute_seconds,
                       bool fallback_span) {
    auto it = stage_metrics[stage_index].device_compute.find(device);
    if (it != stage_metrics[stage_index].device_compute.end()) {
      it->second->observe(compute_seconds);
    }
    obs::Tracer& tracer = obs::Tracer::global();
    if (fallback_span && tracer.enabled()) {
      // The worker only reported a duration; anchor the span so it ends at
      // the moment the result arrived.
      const std::int64_t end_ns = obs::Tracer::now_ns();
      const auto duration_ns =
          static_cast<std::int64_t>(compute_seconds * 1e9);
      record_interval(tracer, "compute", "compute", obs::device_track(device),
                      task_id, end_ns - duration_ns, end_ns,
                      {{"stage", std::to_string(stage_index)},
                       {"device", std::to_string(device)}});
    }
  }

  /// Branch-parallel stage: ship each device its branches' input pieces,
  /// collect full-map branch outputs, stack them channel-wise (the concat).
  Tensor run_branch_stage(std::size_t stage_index,
                          const partition::Stage& stage, const Tensor& input,
                          std::int64_t task_id) {
    const std::vector<partition::Branch> branches =
        partition::block_branches(graph, {stage.first, stage.last});
    PICO_CHECK(!branches.empty());
    const Shape out_shape = graph.node(stage.last).out_shape;
    StageMetrics& metrics = stage_metrics[stage_index];
    // Own this stage's connections for the whole scatter/gather exchange so
    // a concurrent harvest round cannot interleave control-plane frames.
    GateSet gate(gates, stage);
    const std::int64_t scatter_start = obs::Tracer::now_ns();

    struct Sent {
      DeviceId device;
      const partition::Branch* branch;
    };
    std::vector<Sent> sent;
    for (const partition::DeviceSlice& slice : stage.assignments) {
      for (const int index : slice.branches) {
        const partition::Branch& branch =
            branches[static_cast<std::size_t>(index)];
        const Region in_region = partition::branch_input_region(graph, branch);
        const Shape branch_out = graph.node(branch.last).out_shape;
        Message request;
        request.type = MessageType::WorkRequest;
        request.task_id = task_id;
        request.stage_index = static_cast<std::int32_t>(stage_index);
        request.first_node = branch.first;
        request.last_node = branch.last;
        request.in_region = in_region;
        request.out_region =
            Region::full(branch_out.height, branch_out.width);
        stamp_request(request, task_id, stage_index);
        guarded_send(slice.device, request, input, in_region);
        sent.push_back({slice.device, &branch});
      }
    }
    const std::int64_t gather_start = obs::Tracer::now_ns();
    metrics.scatter->observe(to_seconds(gather_start - scatter_start));

    // A device may serve several branches; its compute time per task is the
    // sum of its branch executions.
    std::map<DeviceId, double> device_seconds;
    std::map<DeviceId, bool> device_timestamped;
    Tensor out(out_shape);
    for (const Sent& entry : sent) {
      // Each branch's channels land in place in the concatenated map.
      const partition::Branch& branch = *entry.branch;
      ResultSlot slot;
      slot.task_id = task_id;
      slot.out_region = Region::full(out_shape.height, out_shape.width);
      slot.channels = branch.channels;
      slot.map = &out;
      slot.channel_offset = branch.channel_offset;
      const Message result = gather_result(entry.device, slot);
      const std::int64_t t4 = obs::Tracer::now_ns();
      observe_result(stage_index, entry.device, result, t4);
      device_seconds[entry.device] += result.compute_seconds;
      device_timestamped[entry.device] |= result.t_compute_end_ns != 0;
    }
    double critical = 0.0;
    for (const auto& [device, seconds] : device_seconds) {
      observe_compute(stage_index, device, task_id, seconds,
                      /*fallback_span=*/!device_timestamped[device]);
      critical = std::max(critical, seconds);
    }
    metrics.compute_critical->observe(critical);
    metrics.gather->observe(
        to_seconds(obs::Tracer::now_ns() - gather_start));
    return out;
  }

  /// Spatial stage: scatter (haloed) input pieces, gather them in place.
  Tensor run_spatial_stage(std::size_t stage_index,
                           const partition::Stage& stage, const Tensor& input,
                           std::int64_t task_id) {
    const Shape out_shape = graph.node(stage.last).out_shape;
    StageMetrics& metrics = stage_metrics[stage_index];
    obs::Tracer& tracer = obs::Tracer::global();
    // Own this stage's connections for the whole scatter/gather exchange so
    // a concurrent harvest round cannot interleave control-plane frames.
    GateSet gate(gates, stage);

    // Scatter: send each device its (haloed) input piece, straight from
    // the stage input.
    const std::int64_t scatter_start = obs::Tracer::now_ns();
    std::vector<const partition::DeviceSlice*> active;
    for (const partition::DeviceSlice& slice : stage.assignments) {
      if (slice.out_region.empty()) continue;
      const Region in_region = nn::segment_input_region(
          graph, stage.first, stage.last, slice.out_region);
      Message request;
      request.type = MessageType::WorkRequest;
      request.task_id = task_id;
      request.stage_index = static_cast<std::int32_t>(stage_index);
      request.first_node = stage.first;
      request.last_node = stage.last;
      request.in_region = in_region;
      request.out_region = slice.out_region;
      stamp_request(request, task_id, stage_index);
      guarded_send(slice.device, request, input, in_region);
      active.push_back(&slice);
    }
    const std::int64_t gather_start = obs::Tracer::now_ns();
    metrics.scatter->observe(to_seconds(gather_start - scatter_start));
    if (tracer.enabled()) {
      record_interval(tracer, "scatter", "phase",
                      obs::stage_track(static_cast<int>(stage_index)),
                      task_id, scatter_start, gather_start);
    }

    // Gather: each result lands in place in the stage output.  The slices
    // tile the map exactly, so every element is written before the map is
    // read and it can skip the zero fill; a gather that throws midway
    // discards it.
    std::vector<Region> regions;
    regions.reserve(active.size());
    for (const partition::DeviceSlice* slice : active) {
      regions.push_back(slice->out_region);
    }
    PICO_CHECK_MSG(
        tiles_exactly(Region::full(out_shape.height, out_shape.width), regions),
        "stage " << stage_index << " slices do not tile its output map");
    Tensor out = Tensor::uninitialized(out_shape);
    double critical = 0.0;
    for (const partition::DeviceSlice* slice : active) {
      ResultSlot slot;
      slot.task_id = task_id;
      slot.out_region = slice->out_region;
      slot.channels = out_shape.channels;
      slot.map = &out;
      const Message result = gather_result(slice->device, slot);
      const std::int64_t t4 = obs::Tracer::now_ns();
      observe_result(stage_index, slice->device, result, t4);
      observe_compute(stage_index, slice->device, task_id,
                      result.compute_seconds,
                      /*fallback_span=*/result.t_compute_end_ns == 0);
      critical = std::max(critical, result.compute_seconds);
    }
    metrics.compute_critical->observe(critical);
    const std::int64_t gather_end = obs::Tracer::now_ns();
    metrics.gather->observe(to_seconds(gather_end - gather_start));
    if (tracer.enabled()) {
      record_interval(tracer, "gather", "phase",
                      obs::stage_track(static_cast<int>(stage_index)),
                      task_id, gather_start, gather_end);
    }
    return out;
  }

  /// Run one stage of the plan for one feature map (scatter, then gather
  /// into the stitched map).
  Tensor run_stage(std::size_t stage_index, const partition::Stage& stage,
                   const Tensor& input, std::int64_t task_id) {
    const Shape in_shape = graph.node(stage.first).in_shape;
    PICO_CHECK_MSG(input.shape() == in_shape,
                   "stage input shape " << input.shape() << " != expected "
                                        << in_shape);
    const std::int64_t service_start = obs::Tracer::now_ns();
    Tensor out = stage.kind == partition::StageKind::Branch
                     ? run_branch_stage(stage_index, stage, input, task_id)
                     : run_spatial_stage(stage_index, stage, input, task_id);
    const std::int64_t service_end = obs::Tracer::now_ns();
    stage_metrics[stage_index].service->observe(
        to_seconds(service_end - service_start));
    obs::Tracer& tracer = obs::Tracer::global();
    if (tracer.enabled()) {
      record_interval(tracer, "stage", "stage",
                      obs::stage_track(static_cast<int>(stage_index)),
                      task_id, service_start, service_end,
                      {{"stage", std::to_string(stage_index)}});
    }
    return out;
  }

  void coordinate(std::size_t index, std::size_t coordinator_count) {
    obs::Tracer& tracer = obs::Tracer::global();
    for (;;) {
      std::optional<TaskItem> item = queues[index]->pop();
      if (!item) break;  // queue closed and drained
      // A task failure (device death, timeout) condemns that *task*, not
      // the pipeline: the exception lands in the task's future and the
      // loop keeps draining — with the runtime poisoned, every queued
      // task fails fast and the owner gets the whole accepted backlog
      // back as DeviceFailure futures it can re-execute after replanning.
      // Set while the task is rejected by a poisoned runtime rather than
      // failed by its own run.
      bool fail_fast = false;
      try {
        const std::int64_t popped_ns = obs::Tracer::now_ns();
        queue_metrics[index].wait->observe(
            to_seconds(popped_ns - item->enqueue_ns));
        if (tracer.enabled()) {
          record_interval(tracer, "queue_wait", "queue",
                          obs::stage_track(static_cast<int>(index)),
                          item->id, item->enqueue_ns, popped_ns);
        }
        fail_fast = true;
        throw_if_degraded();
        fail_fast = false;
        if (plan.pipelined) {
          item->tensor = run_stage(index, plan.stages[index],
                                   std::move(item->tensor), item->id);
        } else {
          for (std::size_t s = 0; s < plan.stages.size(); ++s) {
            item->tensor = run_stage(s, plan.stages[s],
                                     std::move(item->tensor), item->id);
          }
        }
        if (index + 1 < coordinator_count) {
          // Inter-stage transfer: the push blocks while the downstream
          // queue is full, so its duration is the back-pressure stall.
          const std::int64_t handoff_start = obs::Tracer::now_ns();
          item->enqueue_ns = handoff_start;
          const std::int64_t task_id = item->id;
          queues[index + 1]->push(std::move(*item));
          const std::int64_t handoff_end = obs::Tracer::now_ns();
          queue_metrics[index].handoff->observe(
              to_seconds(handoff_end - handoff_start));
          if (tracer.enabled()) {
            record_interval(tracer, "handoff", "phase",
                            obs::stage_track(static_cast<int>(index)),
                            task_id, handoff_start, handoff_end);
          }
        } else {
          const std::int64_t done_ns = obs::Tracer::now_ns();
          task_latency->observe(to_seconds(done_ns - item->submit_ns));
          tasks_total->add(1);
          if (tracer.enabled()) {
            record_interval(tracer, "task", "task", obs::task_track(),
                            item->id, item->submit_ns, done_ns);
          }
          // Count before fulfilling the promise: infer() returns the moment
          // the future resolves, and tasks_completed() must already cover
          // that task.
          completed.fetch_add(1, std::memory_order_relaxed);
          obs::record_event(obs::EventCode::TaskComplete, item->id);
          note_task_resolved();
          item->promise->set_value(std::move(item->tensor));
        }
      } catch (const std::exception& error) {
        // note_device_failure logged the death once; the fail-fast
        // rejections of the tasks queued behind it (which an EpochRuntime
        // owner re-executes) would repeat it once per task.
        if (fail_fast) {
          PICO_LOG(Debug) << "coordinator " << index << " rejected task "
                          << item->id << ": " << error.what();
        } else {
          PICO_LOG(Error) << "coordinator " << index << " failed task "
                          << item->id << ": " << error.what();
        }
        // A throwing downstream push() has already move-consumed the item;
        // its promise then travels with it (and the push only throws once
        // that queue is closed, i.e. during teardown).
        if (item->promise) {
          obs::record_event(obs::EventCode::TaskFail, item->id);
          note_task_resolved();
          item->promise->set_exception(std::current_exception());
        }
      }
    }
    if (index + 1 < coordinator_count) queues[index + 1]->close();
  }

  /// Fold per-worker request counts and per-connection transfer totals into
  /// the global registry (labelled by device).  Called once, after every
  /// coordinator and worker thread has been joined.
  void publish_device_totals() {
    obs::Registry& registry = obs::Registry::global();
    for (const auto& worker : workers) {
      if (worker->device() < 0) continue;
      registry
          .counter("pico_device_requests_total",
                   {{"device", std::to_string(worker->device())}})
          .add(worker->requests_served());
    }
    for (const auto& [device, connection] : connections) {
      const ConnectionStats stats = connection->stats();
      const std::vector<obs::Label> labels{
          {"device", std::to_string(device)}};
      // Coordinator-side view: "sent" flows coordinator -> device.
      registry.counter("pico_net_bytes_sent_total", labels)
          .add(stats.bytes_sent);
      registry.counter("pico_net_bytes_received_total", labels)
          .add(stats.bytes_received);
      registry.counter("pico_net_frames_sent_total", labels)
          .add(stats.frames_sent);
      registry.counter("pico_net_frames_received_total", labels)
          .add(stats.frames_received);
      registry.gauge("pico_net_send_seconds", labels)
          .set(stats.send_seconds);
      registry.gauge("pico_net_recv_seconds", labels)
          .set(stats.recv_seconds);
    }
  }

  /// One harvest round: pull metrics + span deltas + clock pings from every
  /// worker over the transport, feed the health engine, inject rebased
  /// spans into the global tracer (a subsequent Tracer::snapshot() is the
  /// merged cluster-wide trace so far) and fold the per-worker results into
  /// the cluster accumulator.  Safe mid-run: each worker's round trip runs
  /// under that device's ConnectionGate, so it alternates cleanly with the
  /// coordinators' scatter/gather exchanges; rounds themselves (periodic
  /// thread, harvest_now callers, the final shutdown round) are serialized
  /// by round_gate.  The span cursors carried in the TraceDump exchange
  /// keep repeated pulls from ever double-counting a span.
  void harvest_round() {
    GateLock round(round_gate);
    obs::Registry& registry = obs::Registry::global();
    obs::Tracer& tracer = obs::Tracer::global();
    for (auto& [device, connection] : connections) {
      // A condemned device gets no more round trips (they would only time
      // out again under the round gate); feed the health engine a synthetic
      // miss instead so its missed-round counter and snapshot stay live.
      if (is_failed(device)) {
        obs::WorkerTelemetry dead;
        dead.device = device;
        dead.reachable = false;
        harvester.note_worker(dead);
        continue;
      }
      Connection* conn = connection.get();
      obs::HarvestEndpoint endpoint;
      endpoint.device = device;
      endpoint.clock = clocks.at(device).get();
      {
        MutexLock lock(cursor_mutex);
        endpoint.trace_cursor = cursors[device];
        endpoint.event_cursor = event_cursors[device];
      }
      endpoint.ping = [conn] {
        Message ping;
        ping.type = MessageType::Ping;
        ping.t_origin_ns = obs::Tracer::now_ns();
        conn->send(ping);
        Message pong = expect_reply(*conn, MessageType::Pong);
        return obs::ClockSample{pong.t_origin_ns, pong.t_recv_ns,
                                pong.t_send_ns, obs::Tracer::now_ns()};
      };
      endpoint.fetch_metrics = [conn] {
        Message request;
        request.type = MessageType::MetricsDump;
        conn->send(request);
        Message reply = expect_reply(*conn, MessageType::MetricsDump);
        return std::string(reply.blob.begin(), reply.blob.end());
      };
      endpoint.fetch_trace_chunk = [conn](std::uint64_t cursor) {
        Message request;
        request.type = MessageType::TraceDump;
        request.span_cursor = cursor;
        conn->send(request);
        Message reply = expect_reply(*conn, MessageType::TraceDump);
        obs::TraceChunk chunk;
        chunk.base = reply.span_cursor_base;
        chunk.next = reply.span_cursor;
        chunk.spans = obs::decode_spans(reply.blob.data(),
                                        reply.blob.size());
        return chunk;
      };
      endpoint.fetch_event_chunk = [conn](std::uint64_t cursor) {
        Message request;
        request.type = MessageType::EventDump;
        request.span_cursor = cursor;  // event cursor rides the same field
        conn->send(request);
        Message reply = expect_reply(*conn, MessageType::EventDump);
        obs::EventChunk chunk =
            obs::decode_events(reply.blob.data(), reply.blob.size());
        // Trust the frame-level cursors over the blob header (same values
        // from a well-behaved worker; the frame is what the protocol acks).
        chunk.base = reply.span_cursor_base;
        chunk.next = reply.span_cursor;
        return chunk;
      };
      obs::WorkerTelemetry harvested = [&] {
        GateLock gate(*gates.at(device));
        return obs::harvest_worker(endpoint, options.harvest_pings);
      }();
      {
        MutexLock lock(cursor_mutex);
        cursors[device] = harvested.next_cursor;
        event_cursors[device] = harvested.next_event_cursor;
      }
      const std::vector<obs::Label> labels{
          {"device", std::to_string(device)}};
      registry.gauge("pico_clock_offset_ns", labels)
          .set(static_cast<double>(harvested.offset_ns));
      registry.gauge("pico_clock_rtt_ns", labels)
          .set(static_cast<double>(harvested.rtt_ns));
      registry.gauge("pico_clock_error_bound_ns", labels)
          .set(static_cast<double>(harvested.error_bound_ns));
      registry.gauge("pico_clock_samples", labels)
          .set(static_cast<double>(harvested.clock_samples));
      if (tracer.enabled()) {
        for (const obs::SpanRecord& span : harvested.spans) {
          tracer.record(span);
        }
      }
      harvester.note_worker(harvested);
      telemetry.add(std::move(harvested));
    }
    harvester.complete_round(obs::Tracer::now_ns());
    {
      // Journal the round: round number, how many devices answered, how
      // many the plan uses — a postmortem shows at a glance whether the
      // cluster was whole when it died.
      std::int64_t reachable = 0;
      for (const auto& [device, connection] : connections) {
        if (!is_failed(device)) ++reachable;
      }
      obs::record_event(obs::EventCode::HarvestRound, harvester.rounds(),
                        reachable,
                        static_cast<std::int64_t>(connections.size()));
    }
    // Heartbeat verdicts feed back into the data plane: a device the policy
    // just declared down (heartbeat_missed_rounds consecutive failed round
    // trips) poisons the runtime exactly like a mid-task transport error,
    // so a silently hung worker is caught even between submissions.
    for (const int device : harvester.down_devices()) {
      note_device_failure(static_cast<DeviceId>(device),
                          "declared down by heartbeat policy");
    }
  }

  /// Background periodic-harvest loop: nap for the period (or until
  /// shutdown pokes the condvar), then run a round.  The flag is re-checked
  /// after the wait so a shutdown signalled mid-nap skips the final
  /// loop-driven round — shutdown() runs its own, after the coordinators
  /// are drained.
  void harvest_loop() {
    const std::int64_t period_ns =
        static_cast<std::int64_t>(harvest_ms) * 1000000;
    for (;;) {
      {
        MutexLock lock(harvest_mutex);
        if (harvest_stop) return;
        harvest_cv.wait_for(harvest_mutex, period_ns);
        if (harvest_stop) return;
      }
      harvest_round();
    }
  }

  void shutdown() {
    if (stopped.exchange(true)) return;
    queues.front()->close();
    for (SchedThread& t : coordinators) {
      if (t.joinable()) t.join();
    }
    // Retire the periodic harvester before the final round so rounds and
    // the Shutdown sends below cannot interleave.
    {
      MutexLock lock(harvest_mutex);
      harvest_stop = true;
      harvest_cv.notify_all();
    }
    if (harvest_thread.joinable()) harvest_thread.join();
    if (options.harvest_telemetry) harvest_round();
    // The Shutdown message carries the final span cursor as an ack, so the
    // worker's graceful flush_to_tracer only covers spans no harvest round
    // ever delivered.
    std::map<DeviceId, std::uint64_t> final_cursors;
    {
      MutexLock lock(cursor_mutex);
      final_cursors = cursors;
    }
    for (auto& [id, connection] : connections) {
      // A failed device gets no goodbye: the send would at best time out
      // under the gate and at worst block a no-timeout shutdown forever.
      if (is_failed(id)) continue;
      Message bye;
      bye.type = MessageType::Shutdown;
      const auto it = final_cursors.find(id);
      if (it != final_cursors.end()) bye.span_cursor = it->second;
      // Hold the device's gate for the send: a harvest_now() round that
      // slipped past the stopped check finishes its gated round trip before
      // the Shutdown frame enters the connection (single gate, never a
      // second — no ordering constraint with the GateSet holders, which
      // have all been joined above).
      GateLock gate(*gates.at(id));
      try {
        connection->send(bye);
      } catch (const std::exception&) {
        // Worker already gone.
      }
    }
    for (auto& worker : workers) worker->stop();
    publish_device_totals();
  }
};

PipelineRuntime::PipelineRuntime(const nn::Graph& graph,
                                 const partition::Plan& plan,
                                 RuntimeOptions options)
    : impl_(std::make_unique<Impl>(graph, plan, options)) {
  PICO_CHECK_MSG(graph.finalized(), "graph not finalized");
  PICO_CHECK_MSG(!plan.stages.empty(), "plan has no stages");
  impl_->start();
}

PipelineRuntime::PipelineRuntime(
    const nn::Graph& graph, const partition::Plan& plan,
    std::map<DeviceId, std::unique_ptr<Connection>> connections,
    RuntimeOptions options)
    : impl_(std::make_unique<Impl>(graph, plan, options)) {
  PICO_CHECK_MSG(graph.finalized(), "graph not finalized");
  PICO_CHECK_MSG(!plan.stages.empty(), "plan has no stages");
  impl_->start_with_connections(std::move(connections));
}

PipelineRuntime::~PipelineRuntime() { shutdown(); }

std::future<Tensor> PipelineRuntime::submit(Tensor input) {
  PICO_CHECK_MSG(!impl_->stopped.load(), "submit after shutdown");
  TaskItem item;
  item.id = impl_->next_task.fetch_add(1);
  item.tensor = std::move(input);
  item.promise = std::make_shared<std::promise<Tensor>>();
  item.submit_ns = obs::Tracer::now_ns();
  item.enqueue_ns = item.submit_ns;
  std::future<Tensor> future = item.promise->get_future();
  obs::record_event(obs::EventCode::TaskAccept, item.id);
  impl_->note_task_admitted();
  impl_->queues.front()->push(std::move(item));
  return future;
}

Tensor PipelineRuntime::infer(const Tensor& input) {
  return submit(input).get();
}

void PipelineRuntime::shutdown() { impl_->shutdown(); }

const obs::ClusterTelemetry& PipelineRuntime::cluster_telemetry() const {
  return impl_->telemetry;
}

bool PipelineRuntime::harvest_now() {
  if (impl_->stopped.load()) return false;
  impl_->harvest_round();
  return true;
}

obs::HealthSnapshot PipelineRuntime::health() const {
  return impl_->harvester.snapshot();
}

long long PipelineRuntime::tasks_completed() const {
  return impl_->completed.load(std::memory_order_relaxed);
}

std::vector<DeviceId> PipelineRuntime::failed_devices() const {
  return impl_->failed_devices();
}

}  // namespace pico::runtime
