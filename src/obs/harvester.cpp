#include "obs/harvester.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"

namespace pico::obs {

namespace {

std::string to_string_int(int v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

Harvester::Harvester() : Harvester(Options()) {}

Harvester::Harvester(Options options)
    : options_(options), checker_(options.model) {}

void Harvester::track_stage_compute(int stage, int device,
                                    const Histogram* histogram) {
  MutexLock lock(mutex_);
  compute_.push_back(
      {stage, device, WindowedSeries(histogram, options_.window_rounds)});
}

void Harvester::track_stage_compute_critical(int stage,
                                             const Histogram* histogram) {
  MutexLock lock(mutex_);
  compute_critical_.push_back(
      {stage, WindowedSeries(histogram, options_.window_rounds)});
}

void Harvester::track_stage_service(int stage, const Histogram* histogram) {
  MutexLock lock(mutex_);
  service_.push_back(
      {stage, WindowedSeries(histogram, options_.window_rounds)});
}

void Harvester::track_stage_wire(int stage, int device,
                                 const Histogram* request,
                                 const Histogram* reply) {
  MutexLock lock(mutex_);
  wire_.push_back({stage, device,
                   WindowedSeries(request, options_.window_rounds),
                   WindowedSeries(reply, options_.window_rounds)});
}

void Harvester::track_entry_queue_wait(const Histogram* histogram) {
  MutexLock lock(mutex_);
  entry_queue_.emplace_back(histogram, options_.window_rounds);
}

void Harvester::track_tasks_completed(const Counter* counter) {
  MutexLock lock(mutex_);
  tasks_.emplace_back(counter, options_.window_rounds);
}

void Harvester::set_prediction(const ModelPrediction& prediction) {
  MutexLock lock(mutex_);
  prediction_ = prediction;
}

void Harvester::push_event(HealthEvent event) {
  Registry::global()
      .counter("pico_health_events_total",
               {{"kind", health_event_kind_name(event.kind)}})
      .add(1);
  // Mirror every health verdict into the flight recorder so a postmortem —
  // or a harvested black box — carries the cluster's judgement inline with
  // the task and transport events it judged.
  switch (event.kind) {
    case HealthEventKind::Straggler:
      record_event(EventCode::HealthStraggler, event.device, event.stage);
      break;
    case HealthEventKind::Recovered:
      record_event(EventCode::HealthRecovered, event.device);
      break;
    case HealthEventKind::ModelDrift:
      record_event(EventCode::HealthModelDrift, event.stage);
      break;
    case HealthEventKind::Unreachable:
      record_event(EventCode::HealthUnreachable, event.device);
      break;
    case HealthEventKind::DeviceDown:
      record_event(EventCode::HealthDeviceDown, event.device, event.round);
      break;
  }
  events_.push_back(std::move(event));
  if (events_.size() > options_.max_events) {
    events_.erase(events_.begin(),
                  events_.begin() +
                      static_cast<std::ptrdiff_t>(events_.size() -
                                                  options_.max_events));
  }
}

void Harvester::note_worker(const WorkerTelemetry& round) {
  MutexLock lock(mutex_);
  DeviceStatus& status = devices_[round.device];
  if (!round.reachable && status.reachable) {
    HealthEvent event;
    event.kind = HealthEventKind::Unreachable;
    event.device = round.device;
    event.round = rounds_ + 1;
    event.detail = "harvest round trip failed";
    push_event(std::move(event));
  } else if (round.reachable && !status.reachable) {
    HealthEvent event;
    event.kind = HealthEventKind::Recovered;
    event.device = round.device;
    event.round = rounds_ + 1;
    event.detail = "worker reachable again";
    push_event(std::move(event));
  }
  if (round.reachable) {
    if (!status.alive) {
      HealthEvent event;
      event.kind = HealthEventKind::Recovered;
      event.device = round.device;
      event.round = rounds_ + 1;
      event.detail = "device rejoined after being declared down";
      push_event(std::move(event));
    }
    status.alive = true;
    status.missed_rounds = 0;
  } else {
    ++status.missed_rounds;
    if (status.alive &&
        status.missed_rounds >= options_.heartbeat_missed_rounds) {
      status.alive = false;
      HealthEvent event;
      event.kind = HealthEventKind::DeviceDown;
      event.device = round.device;
      event.value = static_cast<double>(status.missed_rounds);
      event.threshold = static_cast<double>(options_.heartbeat_missed_rounds);
      event.round = rounds_ + 1;
      std::ostringstream detail;
      detail << "heartbeat: " << status.missed_rounds
             << " consecutive harvest round trips failed";
      event.detail = detail.str();
      event.blackbox = status.blackbox;  // last known flight recording
      push_event(std::move(event));
    }
  }
  status.reachable = round.reachable;
  status.spans_total += static_cast<std::int64_t>(round.spans.size());
  status.cursor = std::max(status.cursor, round.next_cursor);
  status.offset_ns = round.offset_ns;
  status.rtt_ns = round.rtt_ns;
  // Retain the device's flight recording, bounded: keep the newest
  // kMaxBlackboxEvents — the tail is what explains a death.  Drop what
  // falls out before appending, so the buffer never outgrows the bound:
  // one round of a busy device can carry many times that many events.
  if (!round.events.empty()) {
    constexpr std::size_t kMaxBlackboxEvents = 1024;
    const std::size_t take = std::min(round.events.size(), kMaxBlackboxEvents);
    const std::size_t keep =
        std::min(status.blackbox.size(), kMaxBlackboxEvents - take);
    status.blackbox.erase(
        status.blackbox.begin(),
        status.blackbox.end() - static_cast<std::ptrdiff_t>(keep));
    status.blackbox.reserve(kMaxBlackboxEvents);
    status.blackbox.insert(
        status.blackbox.end(),
        round.events.end() - static_cast<std::ptrdiff_t>(take),
        round.events.end());
  }
}

void Harvester::note_device_down(int device, const std::string& detail) {
  MutexLock lock(mutex_);
  DeviceStatus& status = devices_[device];
  if (!status.alive) return;
  status.alive = false;
  status.reachable = false;
  HealthEvent event;
  event.kind = HealthEventKind::DeviceDown;
  event.device = device;
  event.round = rounds_ + 1;
  event.detail = detail;
  event.blackbox = status.blackbox;  // last known flight recording
  push_event(std::move(event));
}

std::vector<int> Harvester::down_devices() const {
  MutexLock lock(mutex_);
  std::vector<int> down;
  for (const auto& [device, status] : devices_) {
    if (!status.alive) down.push_back(device);
  }
  return down;
}

void Harvester::detect_stragglers_locked(std::int64_t round) {
  // Group the tracked (stage, device) windows by stage; only windows with
  // enough fresh observations vote.
  std::map<int, std::map<int, double>> stage_means;
  for (ComputeTrack& track : compute_) {
    const HistogramSnapshot& window = track.series.window();
    if (window.count < options_.straggler.min_window_count) continue;
    stage_means[track.stage][track.device] = window.mean();
  }

  std::map<int, StragglerVerdict> worst;  // per device, across its stages
  for (const auto& [stage, means] : stage_means) {
    for (const StragglerVerdict& verdict :
         detect_stragglers(means, options_.straggler)) {
      auto [it, inserted] = worst.emplace(verdict.device, verdict);
      if (!inserted) {
        it->second.straggler |= verdict.straggler;
        if (verdict.score > it->second.score) {
          it->second.score = verdict.score;
        }
        it->second.mean_seconds =
            std::max(it->second.mean_seconds, verdict.mean_seconds);
      }
    }
  }

  Registry& registry = Registry::global();
  for (const auto& [device, verdict] : worst) {
    DeviceStatus& status = devices_[device];
    status.score = verdict.score;
    status.window_mean = verdict.mean_seconds;
    if (verdict.straggler && !status.straggler) {
      HealthEvent event;
      event.kind = HealthEventKind::Straggler;
      event.device = device;
      event.value = verdict.score;
      event.threshold = options_.straggler.zscore_threshold;
      event.round = round;
      std::ostringstream detail;
      detail << "windowed compute mean " << verdict.mean_seconds
             << "s, score " << verdict.score;
      event.detail = detail.str();
      push_event(std::move(event));
    } else if (!verdict.straggler && status.straggler) {
      HealthEvent event;
      event.kind = HealthEventKind::Recovered;
      event.device = device;
      event.value = verdict.score;
      event.round = round;
      event.detail = "compute back within the stage envelope";
      push_event(std::move(event));
    }
    status.straggler = verdict.straggler;
    registry
        .gauge("pico_straggler_score",
               {{"device", to_string_int(device)}})
        .set(verdict.score);
    registry
        .gauge("pico_window_compute_seconds",
               {{"device", to_string_int(device)}})
        .set(verdict.mean_seconds);
  }
}

void Harvester::check_model_locked(std::int64_t round) {
  std::vector<StageResidual> measurements;

  if (prediction_.valid) {
    // Eq. 6: per-stage critical-path compute.
    for (StageTrack& track : compute_critical_) {
      if (track.stage < 0 ||
          static_cast<std::size_t>(track.stage) >=
              prediction_.stages.size()) {
        continue;
      }
      const HistogramSnapshot& window = track.series.window();
      if (window.count == 0) continue;
      StageResidual m;
      m.stage = track.stage;
      m.signal = "compute";
      m.predicted = prediction_.stages[static_cast<std::size_t>(track.stage)]
                        .compute_seconds;
      m.measured = window.mean();
      measurements.push_back(std::move(m));
    }
    // Eq. 8: per-stage transfer time, measured as the sum of the stage's
    // per-device request+reply wire means (an upper-bound approximation of
    // the shared-link serialization the model assumes).
    std::map<int, std::pair<double, std::int64_t>> stage_wire;
    for (WireTrack& track : wire_) {
      const HistogramSnapshot& request = track.request.window();
      const HistogramSnapshot& reply = track.reply.window();
      if (request.count == 0 && reply.count == 0) continue;
      auto& [sum, count] = stage_wire[track.stage];
      sum += request.mean() + reply.mean();
      count += request.count + reply.count;
    }
    for (const auto& [stage, wire] : stage_wire) {
      if (stage < 0 ||
          static_cast<std::size_t>(stage) >= prediction_.stages.size()) {
        continue;
      }
      StageResidual m;
      m.stage = stage;
      m.signal = "comm";
      m.predicted =
          prediction_.stages[static_cast<std::size_t>(stage)].comm_seconds;
      m.measured = wire.first;
      measurements.push_back(std::move(m));
    }
  }

  // Thm. 2: the entry queue as M/D/1 with the live λ̂.  Service period from
  // the prediction (Eq. 10) when available, else the measured bottleneck
  // stage service time.
  double period = prediction_.valid ? prediction_.period_seconds : 0.0;
  if (period <= 0.0) {
    for (StageTrack& track : service_) {
      const HistogramSnapshot& window = track.series.window();
      if (window.count > 0) period = std::max(period, window.mean());
    }
  }
  double queue_measured = 0.0;
  std::int64_t queue_count = 0;
  for (WindowedSeries& series : entry_queue_) {
    const HistogramSnapshot& window = series.window();
    queue_measured += window.sum;
    queue_count += window.count;
  }
  queue_wait_measured_ =
      queue_count > 0 ? queue_measured / static_cast<double>(queue_count)
                      : 0.0;
  md1_wait_predicted_ = md1_waiting_seconds(lambda_hat_, period);
  if (lambda_primed_ && period > 0.0 && queue_count > 0) {
    StageResidual m;
    m.stage = -1;
    m.signal = "md1_wait";
    m.predicted = md1_wait_predicted_;
    m.measured = queue_wait_measured_;
    measurements.push_back(std::move(m));
  }

  for (HealthEvent& event : checker_.check(round, measurements)) {
    push_event(std::move(event));
  }
  Registry& registry = Registry::global();
  for (const StageResidual& residual : checker_.residuals()) {
    registry
        .gauge("pico_model_residual",
               {{"signal", residual.signal},
                {"stage", to_string_int(residual.stage)}})
        .set(residual.residual_ewma);
  }
}

void Harvester::complete_round(std::int64_t now_ns) {
  MutexLock lock(mutex_);
  const std::int64_t round = ++rounds_;

  for (ComputeTrack& track : compute_) track.series.roll();
  for (StageTrack& track : compute_critical_) track.series.roll();
  for (StageTrack& track : service_) track.series.roll();
  for (WireTrack& track : wire_) {
    track.request.roll();
    track.reply.roll();
  }
  for (WindowedSeries& series : entry_queue_) series.roll();
  for (WindowedCounter& counter : tasks_) counter.roll();

  // λ̂: EWMA of the per-round completion rate.  (Completions, not arrivals:
  // in steady state they agree, and completions are what the coordinator
  // can observe without trusting producers.)
  if (last_round_ns_ > 0 && now_ns > last_round_ns_ && !tasks_.empty()) {
    const double dt =
        static_cast<double>(now_ns - last_round_ns_) / 1e9;
    std::int64_t delta = 0;
    for (WindowedCounter& counter : tasks_) delta += counter.last_delta();
    const double rate = static_cast<double>(delta) / dt;
    if (!lambda_primed_) {
      lambda_hat_ = rate;
      lambda_primed_ = true;
    } else {
      lambda_hat_ = options_.lambda_alpha * rate +
                    (1.0 - options_.lambda_alpha) * lambda_hat_;
    }
  }
  last_round_ns_ = now_ns;

  detect_stragglers_locked(round);
  check_model_locked(round);

  Registry& registry = Registry::global();
  registry.counter("pico_harvest_rounds_total").add(1);
  registry.gauge("pico_lambda_hat_live").set(lambda_hat_);
  std::int64_t window_tasks = 0;
  for (WindowedCounter& counter : tasks_) window_tasks += counter.window();
  registry.gauge("pico_window_tasks_completed")
      .set(static_cast<double>(window_tasks));
}

HealthSnapshot Harvester::snapshot() const {
  MutexLock lock(mutex_);
  HealthSnapshot out;
  out.rounds = rounds_;
  out.lambda_hat = lambda_hat_;
  out.md1_wait_predicted = md1_wait_predicted_;
  out.queue_wait_measured = queue_wait_measured_;
  for (const auto& [device, status] : devices_) {
    DeviceHealth health;
    health.device = device;
    health.reachable = status.reachable;
    health.alive = status.alive;
    health.missed_rounds = status.missed_rounds;
    health.window_compute_mean = status.window_mean;
    health.straggler_score = status.score;
    health.straggler = status.straggler;
    health.spans_harvested = status.spans_total;
    health.trace_cursor = status.cursor;
    health.clock_offset_ns = status.offset_ns;
    health.clock_rtt_ns = status.rtt_ns;
    out.devices.push_back(health);
  }
  out.residuals = checker_.residuals();
  out.events = events_;
  return out;
}

std::int64_t Harvester::rounds() const {
  MutexLock lock(mutex_);
  return rounds_;
}

double Harvester::lambda_hat() const {
  MutexLock lock(mutex_);
  return lambda_hat_;
}

}  // namespace pico::obs
