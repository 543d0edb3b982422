#include "runtime/epoch_runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <limits>
#include <utility>

#include "adaptive/workload.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/mutex.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/pico_dp.hpp"
#include "sched/hooks.hpp"
#ifdef PICO_SCHED
#include "sched/explorer.hpp"
#endif

namespace pico::runtime {

namespace {

/// future.get() that stays visible to the schedule explorer: std::future's
/// internal wait is uninstrumented, so under exploration a blocking get()
/// would stall the explorer.  Poll-with-yield instead.
Tensor wait_get(std::future<Tensor>& future) {
#ifdef PICO_SCHED
  if (sched::under_exploration()) {
    while (future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      sched::yield("epoch future poll");
    }
  }
#endif
  return future.get();
}

/// Cluster construction re-indexes device ids positionally, so a plan over
/// the survivor cluster speaks survivor-local ids.  Remap it back to
/// full-cluster ids before building the epoch: workers, chaos hooks,
/// telemetry labels, failure reports and health events then stay in one
/// stable id space across every epoch.  (PipelineRuntime only uses plan
/// device ids as map keys — it never indexes a Cluster — so gaps are fine.)
partition::Plan to_global_ids(partition::Plan plan,
                              const std::vector<DeviceId>& globals) {
  for (partition::Stage& stage : plan.stages) {
    for (partition::DeviceSlice& slice : stage.assignments) {
      slice.device = globals.at(static_cast<std::size_t>(slice.device));
    }
  }
  return plan;
}

std::int64_t intern(const std::string& text) {
  return obs::FlightRecorder::global().intern(text.c_str());
}

constexpr std::size_t kNoSwitch = std::numeric_limits<std::size_t>::max();

}  // namespace

struct EpochRuntime::Impl {
  /// One accepted inference.  `input` is a pristine copy so the task can be
  /// re-submitted to a fresh epoch after the one that held it retired.
  struct Pending {
    std::int64_t id = 0;
    Tensor input;
    std::shared_ptr<std::promise<Tensor>> outer;
    std::future<Tensor> inner;
    /// Epoch `inner` was submitted on; null when awaiting (re)submission.
    std::shared_ptr<PipelineRuntime> epoch;
    int attempts = 0;
  };

  Impl(const nn::Graph& g, const Cluster& cluster, EpochOptions opts)
      : graph(g), options(std::move(opts)), full_cluster(cluster) {
    PICO_CHECK(options.window > 0.0);
    obs::Registry& registry = obs::Registry::global();
    recovery_seconds = &registry.histogram("pico_recovery_seconds");
    replans_total = &registry.counter("pico_replans_total");
    switches_total = &registry.counter("pico_adaptive_switches_total");
    drain_seconds = &registry.histogram("pico_adaptive_drain_seconds");
    lambda_hat = &registry.gauge("pico_adaptive_lambda_hat");
    {
      MutexLock lock(mutex);
      survivors_ = full_cluster;
      for (const Device& device : full_cluster.devices()) {
        survivor_globals_.push_back(device.id);
      }
      candidates_ = plan_candidates(survivors_, survivor_globals_);
      epoch_ = std::make_shared<PipelineRuntime>(graph, candidates_[0].plan,
                                                 options.runtime);
      history_.push_back(candidates_[0].plan.scheme);
      window_start_ = std::chrono::steady_clock::now();
    }
    obs::record_event(obs::EventCode::EpochStart, /*epoch=*/0,
                      static_cast<std::int64_t>(full_cluster.size()));
    completer_ = SchedThread([this] { completer_loop(); });
  }

  /// Run the plan hook over one membership and rate each plan with the cost
  /// model; plans come back in full-cluster ids.
  std::vector<adaptive::Candidate> plan_candidates(
      const Cluster& cluster, const std::vector<DeviceId>& globals) const {
    std::vector<partition::Plan> plans =
        options.replan
            ? options.replan(graph, cluster)
            : std::vector<partition::Plan>{
                  partition::pico_plan(graph, cluster, options.network)};
    PICO_CHECK_MSG(!plans.empty(), "plan hook returned no candidate");
    std::vector<adaptive::Candidate> out;
    for (const partition::Plan& plan : plans) {
      adaptive::Candidate candidate =
          adaptive::make_candidate(graph, cluster, options.network, plan);
      candidate.plan = to_global_ids(std::move(candidate.plan), globals);
      out.push_back(std::move(candidate));
    }
    return out;
  }

  // --- workload estimate (Eq. 15) -----------------------------------------

  /// Fold every whole window elapsed since the last evaluation into λ̂ and
  /// mark a switch due when another candidate now predicts lower latency.
  /// The producer may have been blocked pushing into a full pipeline for
  /// several windows — that is sustained load, not idleness — so the
  /// arrivals are spread uniformly over the elapsed windows.
  void reevaluate_locked() PICO_REQUIRES(mutex) {
    const auto now = std::chrono::steady_clock::now();
    const Seconds elapsed =
        std::chrono::duration<double>(now - window_start_).count();
    if (elapsed < options.window || cluster_lost_) return;
    const double windows = std::floor(elapsed / options.window);
    estimator_.observe(
        static_cast<double>(window_arrivals_) / (windows * options.window),
        windows);
    window_arrivals_ = 0;
    window_start_ = now;
    lambda_hat->set(estimator_.rate());
    const std::size_t best =
        adaptive::select_scheme(candidates_, estimator_.rate());
    switch_to_ = best != active_ ? best : kNoSwitch;
    if (switch_to_ != kNoSwitch) cv.notify_all();
  }

  bool rebuild_due_locked() const PICO_REQUIRES(mutex) {
    // A switch left pending at shutdown is dropped: the last epoch drains
    // whatever is left.
    return membership_dirty_ || (switch_to_ != kNoSwitch && !stopping_);
  }

  // --- submission ---------------------------------------------------------

  std::future<Tensor> submit(Tensor input) {
    Pending task;
    task.input = std::move(input);  // the ledger keeps the pristine copy
    task.outer = std::make_shared<std::promise<Tensor>>();
    std::future<Tensor> result = task.outer->get_future();

    std::shared_ptr<PipelineRuntime> target;
    {
      MutexLock lock(mutex);
      PICO_CHECK_MSG(!stopping_, "submit() after shutdown()");
      if (cluster_lost_) {
        task.outer->set_exception(std::make_exception_ptr(DeviceFailure(
            -1, "cluster exhausted: no surviving devices to plan over")));
        return result;
      }
      task.id = next_id_++;
      ++window_arrivals_;
      reevaluate_locked();
      // While a rebuild is due or running the next epoch is not up yet: the
      // task enters the ledger unsubmitted and the rebuild submits it there.
      if (!rebuilding_ && !rebuild_due_locked()) target = epoch_;
    }
    if (target != nullptr) {
      try {
        task.inner = target->submit(task.input);
        task.epoch = target;
      } catch (const std::exception& e) {
        // Poisoned or retired epoch — the task waits in the ledger
        // unsubmitted and the completer places it.
        PICO_LOG(Warn) << "epoch submit deferred (task " << task.id
                       << "): " << e.what();
        task.epoch = nullptr;
      }
    }
    {
      MutexLock lock(mutex);
      ledger_.push_back(std::move(task));
      cv.notify_all();
    }
    return result;
  }

  // --- completer ----------------------------------------------------------

  void completer_loop() {
    obs::set_current_thread_name("pico-complete");
    for (;;) {
      Pending task;
      bool have_task = false;
      bool rebuild_due = false;
      std::shared_ptr<PipelineRuntime> current;
      {
        MutexLock lock(mutex);
        while (!stopping_ && ledger_.empty() && !rebuild_due_locked()) {
          if (options.liveness_poll_ms > 0) {
            cv.wait_for(mutex, static_cast<std::int64_t>(
                                   options.liveness_poll_ms) *
                                   1'000'000);
            // No submit() drives λ̂ while idle; let it decay here.
            reevaluate_locked();
            break;  // wake to probe the epoch for heartbeat deaths
          }
          cv.wait(mutex);
        }
        rebuild_due = rebuild_due_locked();
        if (!rebuild_due) {
          if (!ledger_.empty()) {
            task = std::move(ledger_.front());
            ledger_.pop_front();
            have_task = true;
          } else if (stopping_) {
            return;  // ledger drained — every accepted task is resolved
          }
        }
        current = epoch_;
      }

      if (rebuild_due) {
        rebuild({});
        continue;
      }
      if (!have_task) {
        // Idle poll: a heartbeat DeviceDown with no in-flight work still
        // needs a replan so the next submit lands on a healthy epoch.
        if (current != nullptr && !current->failed_devices().empty()) {
          rebuild({});
        }
        continue;
      }

      // Late submission for a task accepted while no epoch could take it.
      if (task.epoch == nullptr) {
        if (current == nullptr) {
          fail_task(task, std::make_exception_ptr(DeviceFailure(
                              -1, "cluster exhausted: no surviving devices")));
          continue;
        }
        if (!submit_to(current, task)) {
          retry(std::move(task));
          continue;
        }
      }

      try {
        Tensor output = wait_get(task.inner);
        completed_.fetch_add(1, std::memory_order_relaxed);
        task.outer->set_value(std::move(output));
      } catch (const std::exception& e) {
        PICO_LOG(Warn) << "epoch task " << task.id << " failed (attempt "
                       << task.attempts + 1 << "): " << e.what();
        retry(std::move(task));
      }
    }
  }

  bool submit_to(const std::shared_ptr<PipelineRuntime>& epoch,
                 Pending& task) {
    try {
      task.inner = epoch->submit(task.input);
      task.epoch = epoch;
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }

  /// Count a failed attempt and rebuild with the task on the redo list.
  void retry(Pending task) {
    note_failed_attempt(task);
    std::deque<Pending> redo;
    redo.push_back(std::move(task));
    rebuild(std::move(redo));
  }

  void note_failed_attempt(Pending& task) {
    task.attempts++;
    task.epoch = nullptr;
    obs::record_event(obs::EventCode::TaskRetry, task.id, task.attempts,
                      epoch_seq_.load(std::memory_order_relaxed));
  }

  void fail_task(Pending& task, std::exception_ptr error) {
    if (task.outer) task.outer->set_exception(std::move(error));
  }

  // --- the one rebuild path ------------------------------------------------

  /// Retire the running epoch and start the next: drain, fold telemetry and
  /// health events, take the new membership, replan if it changed, build,
  /// resubmit.  Triggered by a due switch, a death (`redo` holds the tasks
  /// whose failure triggered it, or the epoch reports failed devices) or
  /// rejoin().  Runs on the completer thread only; every blocking step
  /// happens outside the mutex.
  void rebuild(std::deque<Pending> redo) {
    const std::int64_t t0 = obs::Tracer::now_ns();
    std::shared_ptr<PipelineRuntime> old;
    std::deque<Pending> stolen;
    bool rejoined = false;
    std::size_t target = 0;
    std::string from_scheme;
    {
      MutexLock lock(mutex);
      rebuilding_ = true;
      rejoined = membership_dirty_;
      membership_dirty_ = false;
      target = switch_to_ != kNoSwitch ? switch_to_ : active_;
      switch_to_ = kNoSwitch;
      from_scheme = candidates_[active_].plan.scheme;
      old = epoch_;
      stolen.swap(ledger_);
    }
    bool recovery = rejoined || !redo.empty();

    // Drain: tasks the retiring epoch still resolves deliver normally, the
    // rest join the redo list.
    for (Pending& task : stolen) {
      if (task.epoch == nullptr || !task.inner.valid()) {
        redo.push_back(std::move(task));
        continue;
      }
      try {
        Tensor output = wait_get(task.inner);
        completed_.fetch_add(1, std::memory_order_relaxed);
        task.outer->set_value(std::move(output));
      } catch (const std::exception&) {
        note_failed_attempt(task);
        redo.push_back(std::move(task));
        recovery = true;
      }
    }
    std::vector<DeviceId> newly_dead;
    if (old != nullptr) {
      newly_dead = old->failed_devices();
      obs::record_event(
          obs::EventCode::EpochRetire,
          epoch_seq_.load(std::memory_order_relaxed),
          newly_dead.empty() ? -1 : static_cast<std::int64_t>(newly_dead[0]));
      const obs::HealthSnapshot history = retire(*old);
      MutexLock lock(mutex);
      past_events_.insert(past_events_.end(), history.events.begin(),
                          history.events.end());
    }
    const std::int64_t drained = obs::Tracer::now_ns();
    recovery |= !newly_dead.empty();

    // Tasks over the attempt budget get their terminal error now.
    std::deque<Pending> unsubmitted;
    for (Pending& task : redo) {
      if (task.attempts >= options.max_task_attempts) {
        PICO_LOG(Error) << "epoch task " << task.id << " dropped after "
                        << task.attempts << " attempts";
        fail_task(task,
                  std::make_exception_ptr(DeviceFailure(
                      -1, "task failed on " + std::to_string(task.attempts) +
                              " consecutive epochs")));
      } else {
        unsubmitted.push_back(std::move(task));
      }
    }

    // Membership: a rebuild with no new death and no rejoin keeps the view
    // (and the candidates planned for it).
    Cluster survivors;
    std::vector<DeviceId> globals;
    partition::Plan current_plan;
    bool membership_changed = rejoined;
    {
      MutexLock lock(mutex);
      for (const DeviceId device : newly_dead) {
        if (std::find(dead_.begin(), dead_.end(), device) == dead_.end()) {
          dead_.push_back(device);
          membership_changed = true;
        }
      }
      std::sort(dead_.begin(), dead_.end());
      if (membership_changed) {
        std::vector<Device> kept;
        std::vector<DeviceId> kept_globals;
        for (const Device& device : full_cluster.devices()) {
          if (std::find(dead_.begin(), dead_.end(), device.id) ==
              dead_.end()) {
            kept_globals.push_back(device.id);
            kept.push_back(device);
          }
        }
        survivors_ = Cluster(std::move(kept));
        survivor_globals_ = std::move(kept_globals);
      }
      survivors = survivors_;
      globals = survivor_globals_;
      current_plan = candidates_[target].plan;
    }

    // Replan + build over the survivors (blocking; outside the mutex).
    std::vector<adaptive::Candidate> replanned;
    std::shared_ptr<PipelineRuntime> fresh;
    std::exception_ptr planning_error;
    if (survivors.size() > 0) {
      try {
        if (membership_changed) {
          replanned = plan_candidates(survivors, globals);
          target = std::min(target, replanned.size() - 1);
          current_plan = replanned[target].plan;
        }
        fresh = std::make_shared<PipelineRuntime>(graph, current_plan,
                                                  options.runtime);
      } catch (const std::exception& e) {
        PICO_LOG(Error) << "replan over " << survivors.size()
                        << " survivor(s) failed: " << e.what();
        planning_error = std::current_exception();
      }
    }

    int epoch_seq = 0;
    bool switched = false;
    {
      MutexLock lock(mutex);
      if (fresh == nullptr) {
        cluster_lost_ = true;
        epoch_ = nullptr;
        rebuilding_ = false;
        for (Pending& task : unsubmitted) {
          fail_task(task, planning_error
                              ? planning_error
                              : std::make_exception_ptr(DeviceFailure(
                                    -1,
                                    "cluster exhausted: no surviving "
                                    "devices to plan over")));
        }
        // Tasks accepted during the rebuild fail on dequeue (the completer
        // sees epoch_ == nullptr).
        cv.notify_all();
        PICO_LOG(Error) << "cluster lost: epoch runtime is terminal";
        return;
      }
      if (!replanned.empty()) candidates_ = std::move(replanned);
      switched = target != active_;
      active_ = target;
      // A submit() during the rebuild may already have asked for this one.
      if (switch_to_ == active_) switch_to_ = kNoSwitch;
      epoch_ = fresh;
      cluster_lost_ = false;
      rebuilding_ = false;
      if (switched) {
        ++switches_;
        history_.push_back(current_plan.scheme);
      }
      if (recovery) replans_.fetch_add(1, std::memory_order_relaxed);
      epoch_seq = epoch_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
      // Tasks accepted while the rebuild ran follow the redo list.
      for (auto it = ledger_.begin(); it != ledger_.end();) {
        if (it->epoch == nullptr) {
          unsubmitted.push_back(std::move(*it));
          it = ledger_.erase(it);
        } else {
          ++it;
        }
      }
    }

    obs::record_event(obs::EventCode::EpochStart, epoch_seq,
                      static_cast<std::int64_t>(survivors.size()));
    if (switched) {
      const std::string& to_scheme = current_plan.scheme;
      obs::record_event(obs::EventCode::PlanSwitch, intern(from_scheme),
                        intern(to_scheme), epoch_seq);
      switches_total->add(1);
      drain_seconds->observe(static_cast<double>(drained - t0) / 1e9);
      obs::Tracer& tracer = obs::Tracer::global();
      if (tracer.enabled()) {
        obs::SpanRecord span;
        span.name = "switch";
        span.category = "adaptive";
        span.track = obs::adaptive_track();
        span.start_ns = t0;
        span.duration_ns = drained - t0;
        span.args = {{"from", from_scheme}, {"to", to_scheme}};
        tracer.record(std::move(span));
      }
    }
    if (recovery) {
      replans_total->add(1);
      recovery_seconds->observe(
          static_cast<double>(obs::Tracer::now_ns() - t0) / 1e9);
    }
    PICO_LOG(Info) << "epoch " << epoch_seq << " on " << current_plan.scheme
                   << " over " << survivors.size() << " device(s), "
                   << unsubmitted.size() << " task(s) resubmitted";

    // Resubmit in acceptance order, then hand the tasks back to the ledger
    // front: they were accepted before anything submit() queued meanwhile.
    for (Pending& task : unsubmitted) submit_to(fresh, task);
    MutexLock lock(mutex);
    for (auto it = unsubmitted.rbegin(); it != unsubmitted.rend(); ++it) {
      ledger_.push_front(std::move(*it));
    }
    cv.notify_all();
  }

  // --- teardown / read side ----------------------------------------------

  /// Stop an epoch (draining whatever it still runs) and fold its worker
  /// telemetry into the run-wide view; returns its last health snapshot.
  obs::HealthSnapshot retire(PipelineRuntime& epoch) {
    epoch.shutdown();
    for (obs::WorkerTelemetry& worker : epoch.cluster_telemetry().workers()) {
      telemetry_.add(std::move(worker));
    }
    return epoch.health();
  }

  void shutdown() {
    if (shutdown_done_.exchange(true)) return;
    {
      MutexLock lock(mutex);
      stopping_ = true;
      cv.notify_all();
    }
    if (completer_.joinable()) completer_.join();
    std::shared_ptr<PipelineRuntime> last;
    {
      MutexLock lock(mutex);
      last = epoch_;
      epoch_ = nullptr;
    }
    if (last != nullptr) {
      // Keep the final epoch's full snapshot (rounds, device rows, ...) so
      // health() stays meaningful after shutdown — callers read it for the
      // post-run report.  The accumulated history is merged in exactly once.
      obs::HealthSnapshot final_snapshot = retire(*last);
      MutexLock lock(mutex);
      final_snapshot.events.insert(final_snapshot.events.begin(),
                                   past_events_.begin(), past_events_.end());
      past_events_ = final_snapshot.events;
      final_health_ = std::move(final_snapshot);
      have_final_health_ = true;
    }
  }

  void rejoin(DeviceId device) {
    MutexLock lock(mutex);
    auto it = std::find(dead_.begin(), dead_.end(), device);
    if (it == dead_.end()) return;
    dead_.erase(it);
    obs::HealthEvent event;
    event.kind = obs::HealthEventKind::Recovered;
    event.device = device;
    event.detail = "device re-admitted via rejoin()";
    past_events_.push_back(event);
    membership_dirty_ = true;  // completer replans over the wider cluster
    cv.notify_all();
  }

  obs::HealthSnapshot health() const {
    std::shared_ptr<PipelineRuntime> current;
    std::vector<obs::HealthEvent> history;
    {
      MutexLock lock(mutex);
      if (have_final_health_) return final_health_;
      current = epoch_;
      history = past_events_;
    }
    obs::HealthSnapshot out;
    if (current != nullptr) out = current->health();
    out.events.insert(out.events.begin(), history.begin(), history.end());
    return out;
  }

  bool harvest_now() {
    std::shared_ptr<PipelineRuntime> current;
    {
      MutexLock lock(mutex);
      if (stopping_ || rebuilding_) return false;
      current = epoch_;
    }
    if (current == nullptr) return false;
    return current->harvest_now();
  }

  const nn::Graph& graph;
  const EpochOptions options;
  const Cluster full_cluster;

  mutable Mutex mutex;
  CondVar cv;
  Cluster survivors_ PICO_GUARDED_BY(mutex);
  /// survivors_ position -> full-cluster device id (see to_global_ids).
  std::vector<DeviceId> survivor_globals_ PICO_GUARDED_BY(mutex);
  std::vector<DeviceId> dead_ PICO_GUARDED_BY(mutex);
  /// Plans over the current membership (full-cluster ids), hook order.
  std::vector<adaptive::Candidate> candidates_ PICO_GUARDED_BY(mutex);
  std::size_t active_ PICO_GUARDED_BY(mutex) = 0;
  /// Candidate a due switch moves to; kNoSwitch when none is due.
  std::size_t switch_to_ PICO_GUARDED_BY(mutex) = kNoSwitch;
  adaptive::EwmaEstimator estimator_ PICO_GUARDED_BY(mutex){options.beta};
  std::chrono::steady_clock::time_point window_start_ PICO_GUARDED_BY(mutex);
  int window_arrivals_ PICO_GUARDED_BY(mutex) = 0;
  int switches_ PICO_GUARDED_BY(mutex) = 0;
  std::vector<std::string> history_ PICO_GUARDED_BY(mutex);
  std::shared_ptr<PipelineRuntime> epoch_ PICO_GUARDED_BY(mutex);
  std::deque<Pending> ledger_ PICO_GUARDED_BY(mutex);
  bool stopping_ PICO_GUARDED_BY(mutex) = false;
  bool rebuilding_ PICO_GUARDED_BY(mutex) = false;
  bool membership_dirty_ PICO_GUARDED_BY(mutex) = false;
  bool cluster_lost_ PICO_GUARDED_BY(mutex) = false;
  std::int64_t next_id_ PICO_GUARDED_BY(mutex) = 0;
  std::vector<obs::HealthEvent> past_events_ PICO_GUARDED_BY(mutex);
  /// The last epoch's health snapshot, captured at shutdown() with the full
  /// event history merged in; health() returns it once the epochs are gone.
  obs::HealthSnapshot final_health_ PICO_GUARDED_BY(mutex);
  bool have_final_health_ PICO_GUARDED_BY(mutex) = false;

  obs::ClusterTelemetry telemetry_;  // internally locked
  std::atomic<long long> completed_{0};
  std::atomic<int> replans_{0};
  std::atomic<int> epoch_seq_{0};
  std::atomic<bool> shutdown_done_{false};

  // Metric handles, set once in the ctor.
  obs::Histogram* recovery_seconds = nullptr;
  obs::Counter* replans_total = nullptr;
  obs::Counter* switches_total = nullptr;
  obs::Histogram* drain_seconds = nullptr;
  obs::Gauge* lambda_hat = nullptr;

  // sched-exempt: started by the constructor, joined exactly once by
  // shutdown(); no concurrent access to the handle itself.
  SchedThread completer_;
};

EpochRuntime::EpochRuntime(const nn::Graph& graph, const Cluster& cluster,
                           EpochOptions options)
    : impl_(std::make_unique<Impl>(graph, cluster, std::move(options))) {}

EpochRuntime::~EpochRuntime() { shutdown(); }

std::future<Tensor> EpochRuntime::submit(Tensor input) {
  return impl_->submit(std::move(input));
}

Tensor EpochRuntime::infer(const Tensor& input) {
  std::future<Tensor> result = impl_->submit(input);
  return wait_get(result);
}

void EpochRuntime::shutdown() { impl_->shutdown(); }

void EpochRuntime::rejoin(DeviceId device) { impl_->rejoin(device); }

obs::HealthSnapshot EpochRuntime::health() const { return impl_->health(); }

bool EpochRuntime::harvest_now() { return impl_->harvest_now(); }

const obs::ClusterTelemetry& EpochRuntime::cluster_telemetry() const {
  return impl_->telemetry_;
}

long long EpochRuntime::tasks_completed() const {
  return impl_->completed_.load(std::memory_order_relaxed);
}

int EpochRuntime::replans() const {
  return impl_->replans_.load(std::memory_order_relaxed);
}

int EpochRuntime::switches() const {
  MutexLock lock(impl_->mutex);
  return impl_->switches_;
}

double EpochRuntime::estimated_rate() const {
  MutexLock lock(impl_->mutex);
  return impl_->estimator_.rate();
}

std::string EpochRuntime::current_scheme() const {
  MutexLock lock(impl_->mutex);
  return impl_->candidates_[impl_->active_].plan.scheme;
}

std::vector<std::string> EpochRuntime::scheme_history() const {
  MutexLock lock(impl_->mutex);
  return impl_->history_;
}

std::vector<adaptive::Candidate> EpochRuntime::candidates() const {
  MutexLock lock(impl_->mutex);
  return impl_->candidates_;
}

std::vector<DeviceId> EpochRuntime::dead_devices() const {
  MutexLock lock(impl_->mutex);
  return impl_->dead_;
}

Cluster EpochRuntime::survivors() const {
  MutexLock lock(impl_->mutex);
  return impl_->survivors_;
}

partition::Plan EpochRuntime::plan() const {
  MutexLock lock(impl_->mutex);
  return impl_->candidates_[impl_->active_].plan;
}

}  // namespace pico::runtime
