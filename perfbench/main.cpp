// Serving benchmark: real inferences through runtime::PipelineRuntime over
// loopback TCP on a 4-device modelled Raspberry-Pi cluster, every output
// checked bit for bit against single-device nn::execute.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics.  --trace 1 runs the workload
// twice for half the time each, first untraced and then with obs::Tracer on
// and the benchmark's own spans recorded, and reports the per-layer metrics
// from the second half, the registry the program exports and an idle-process
// layer replay.  The last stdout line is one JSON object; lines before it
// starting with '#' are the human-readable report.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/planner.hpp"
#include "models/zoo.hpp"
#include "nn/executor.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/plan_cost.hpp"
#include "replay.hpp"
#include "runtime/pipeline.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using pico::Tensor;
using Clock = std::chrono::steady_clock;
namespace nn = pico::nn;
namespace obs = pico::obs;
namespace partition = pico::partition;
namespace runtime = pico::runtime;
namespace models = pico::models;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  models::ModelId model;
  int input_size;
  pico::Scheme scheme;
  int outstanding;  ///< closed-loop requests in flight
  int harvest_ms;   ///< continuous harvest period, 0 = shutdown only
};

constexpr Workload kWorkloads[] = {
    {"yolov2-pico-saturate", models::ModelId::Yolov2, 64, pico::Scheme::Pico,
     4, 100},
    {"mobilenet-lw-serial", models::ModelId::MobileNetV1, 160,
     pico::Scheme::LayerWise, 1, 0},
};

/// Inputs per workload; requests cycle through them.
constexpr int kPoolSize = 4;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Warm-up inferences per outstanding slot (checked, not measured).
constexpr int kWarmupPerSlot = 1;
constexpr int kReplayReps = 3;
constexpr int kHarvestProbes = 5;

/// Options that silently change what runs when set in the environment.
constexpr const char* kPinnedEnv[] = {"PICO_THREADS", "PICO_HARVEST_MS",
                                      "PICO_NET_TIMEOUT_MS", "PICO_TRACE",
                                      "PICO_EVENTS"};

pico::Cluster bench_cluster() {
  return pico::Cluster::raspberry_pi({1.2, 1.2, 0.8, 0.6});
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

nn::Graph build_graph(models::ModelId id, int input_size,
                      std::uint64_t seed) {
  models::ZooOptions options;
  options.input_size = input_size;
  nn::Graph graph = models::build(id, options);
  pico::Rng rng(seed);
  graph.randomize_weights(rng);
  return graph;
}

/// Everything a run serves: graph with seeded weights, the seeded input
/// pool with its single-device references, and the plan.
struct Model {
  nn::Graph graph;
  std::vector<Tensor> inputs;
  std::vector<Tensor> references;
  partition::Plan plan;
  double plan_s = 0.0;
};

std::unique_ptr<Model> build_model(const Workload& workload,
                                   std::uint64_t seed, SpanLog& log) {
  auto model = std::make_unique<Model>();
  pico::Rng rng(seed);
  model->graph = build_graph(workload.model, workload.input_size,
                             rng.next_u64());
  pico::Rng input_rng = rng.fork();
  for (int i = 0; i < kPoolSize; ++i) {
    Tensor input(model->graph.input_shape());
    input.randomize(input_rng);
    model->references.push_back(nn::execute(model->graph, input));
    model->inputs.push_back(std::move(input));
  }
  const pico::Cluster cluster = bench_cluster();
  const Clock::time_point start = Clock::now();
  {
    Scope span(log, "plan");
    model->plan = pico::plan(model->graph, cluster, pico::NetworkModel{},
                             workload.scheme);
  }
  model->plan_s = seconds_between(start, Clock::now());
  partition::validate_plan(model->graph, cluster, model->plan);
  return model;
}

std::unique_ptr<runtime::PipelineRuntime> make_runtime(
    const Workload& workload, const Model& model) {
  runtime::RuntimeOptions options;
  options.transport = runtime::TransportKind::Tcp;
  options.harvest_ms = workload.harvest_ms;
  return std::make_unique<runtime::PipelineRuntime>(model.graph, model.plan,
                                                    options);
}

/// Runs warm-up inferences; returns how many came back wrong.
int warm_up(const Workload& workload, runtime::PipelineRuntime& rt,
            const Model& model) {
  std::vector<std::future<Tensor>> futures;
  const int count = workload.outstanding * kWarmupPerSlot;
  for (int i = 0; i < count; ++i) {
    futures.push_back(rt.submit(model.inputs[i % kPoolSize]));
  }
  int wrong = 0;
  for (int i = 0; i < count; ++i) {
    wrong += same_bits(futures[i].get(), model.references[i % kPoolSize])
                 ? 0
                 : 1;
  }
  return wrong;
}

// ---------------------------------------------------------------------------
// Statistics

/// Linear-interpolated quantile; 0 for an empty sample.
double quantile(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : pico::percentile(values, q);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// The p90 of the report: p90 once at least 100 samples exist, else the
/// highest quantile that still leaves 10 samples beyond it.
double tail_quantile(const std::vector<double>& values, double* q_used) {
  double q = 0.9;
  if (values.size() < 100) {
    q = values.size() > 11
            ? static_cast<double>(values.size() - 11) /
                  static_cast<double>(values.size() - 1)
            : 0.5;
  }
  *q_used = q;
  return quantile(values, q);
}

/// Throughput is measured per slice of this many seconds.
constexpr double kRateSlice = 2.0;

// ---------------------------------------------------------------------------
// Closed-loop load: one submitting thread (the caller) keeps `outstanding`
// requests in flight; one collecting thread resolves futures in order and
// checks each output.

struct Sample {
  double latency_s = 0.0;  ///< submit -> future ready
  double done_s = 0.0;     ///< completion, relative to the window start
  bool ok = false;
};

struct LoadResult {
  std::vector<Sample> samples;  ///< one per request sent in the window
  double window_s = 0.0;

  int sent() const { return static_cast<int>(samples.size()); }
  int failed() const {
    int n = 0;
    for (const Sample& s : samples) n += s.ok ? 0 : 1;
    return n;
  }
  /// Completion rate in each kRateSlice-second slice of the window:
  /// completions after the slice's first, over the time from its first to
  /// its last (a plain count per slice would be quantized).
  std::vector<double> slice_rates() const {
    std::vector<std::vector<double>> slices(
        static_cast<std::size_t>(std::max(1.0, window_s / kRateSlice)));
    for (const Sample& s : samples) {
      if (!s.ok || s.done_s > window_s) continue;
      const auto index = static_cast<std::size_t>(s.done_s / kRateSlice);
      slices[std::min(index, slices.size() - 1)].push_back(s.done_s);
    }
    std::vector<double> rates;
    for (const std::vector<double>& done : slices) {
      if (done.size() < 2) continue;
      const auto [first, last] = std::minmax_element(done.begin(), done.end());
      if (*last > *first) {
        rates.push_back(static_cast<double>(done.size() - 1) /
                        (*last - *first));
      }
    }
    return rates;
  }
  /// Median slice rate: a few slices disturbed by other load on the host do
  /// not move it.
  double throughput() const { return median(slice_rates()); }
  std::vector<double> latencies() const {
    std::vector<double> out;
    for (const Sample& s : samples) {
      if (s.ok) out.push_back(s.latency_s);
    }
    return out;
  }
};

LoadResult run_closed(runtime::PipelineRuntime& rt, const Model& model,
                      int outstanding, double seconds, SpanLog& log) {
  struct Pending {
    std::future<Tensor> future;
    int input = 0;
    std::int64_t task = 0;
    std::int64_t span = 0;
    std::int64_t start_ns = 0;
    Clock::time_point start;
  };
  std::mutex mutex;
  std::condition_variable changed;
  std::deque<Pending> pending;
  int in_flight = 0;
  bool closed = false;

  LoadResult result;
  result.window_s = seconds;
  const Clock::time_point window_start = Clock::now();
  const Clock::time_point window_end =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));

  std::thread collector([&] {
    for (;;) {
      Pending item;
      {
        std::unique_lock<std::mutex> lock(mutex);
        changed.wait(lock, [&] { return !pending.empty() || closed; });
        if (pending.empty()) return;
        item = std::move(pending.front());
        pending.pop_front();
      }
      bool ok = false;
      try {
        ok = same_bits(item.future.get(), model.references[item.input]);
      } catch (const std::exception& error) {
        std::cerr << "request " << item.task << " failed: " << error.what()
                  << "\n";
      }
      const Clock::time_point done = Clock::now();
      if (log.enabled()) {
        log.add({item.span, 0, "request", item.task, item.start_ns,
                 obs::Tracer::now_ns()});
      }
      result.samples.push_back({seconds_between(item.start, done),
                                seconds_between(window_start, done), ok});
      {
        std::lock_guard<std::mutex> lock(mutex);
        --in_flight;
      }
      changed.notify_all();
    }
  });

  auto close_and_join = [&] {
    {
      std::lock_guard<std::mutex> lock(mutex);
      closed = true;
    }
    changed.notify_all();
    collector.join();
  };
  try {
    for (std::int64_t task = 0;; ++task) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        changed.wait(lock, [&] { return in_flight < outstanding; });
      }
      if (Clock::now() >= window_end) break;
      Pending item;
      item.input = static_cast<int>(task % kPoolSize);
      item.task = task;
      item.span = log.enabled() ? log.reserve() : 0;
      item.start = Clock::now();
      item.start_ns = obs::Tracer::now_ns();
      {
        Scope span(log, "submit", item.span, task);
        item.future = rt.submit(model.inputs[item.input]);
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        pending.push_back(std::move(item));
        ++in_flight;
      }
      changed.notify_all();
    }
  } catch (...) {
    close_and_join();
    throw;
  }
  close_and_join();
  return result;
}

// ---------------------------------------------------------------------------
// Registry reads and reports

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string plan_hash(const nn::Graph& graph, const partition::Plan& plan) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a 64
  for (const unsigned char c : partition::describe_plan(graph, plan)) {
    hash = (hash ^ c) * 1099511628211ULL;
  }
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

obs::Histogram& histogram(const char* name,
                          std::vector<obs::Label> labels = {}) {
  return obs::Registry::global().histogram(name, labels);
}

std::vector<obs::Label> stage_label(int stage) {
  return {{"stage", std::to_string(stage)}};
}

std::vector<obs::Label> stage_device_label(int stage, pico::DeviceId device) {
  return {{"stage", std::to_string(stage)},
          {"device", std::to_string(device)}};
}

/// Sum of a per-(stage, device) histogram family's observations.
double stage_device_sum(const char* name, const partition::Plan& plan) {
  double total = 0.0;
  for (int s = 0; s < plan.stage_count(); ++s) {
    for (const partition::DeviceSlice& slice : plan.stages[s].assignments) {
      total += histogram(name, stage_device_label(s, slice.device)).sum();
    }
  }
  return total;
}

/// Sum of a per-stage histogram family's observations.
double stage_sum(const char* name, const partition::Plan& plan) {
  double total = 0.0;
  for (int s = 0; s < plan.stage_count(); ++s) {
    total += histogram(name, stage_label(s)).sum();
  }
  return total;
}

/// Coordinator queues: one per stage for pipelined plans, one otherwise.
int queue_count(const partition::Plan& plan) {
  return plan.pipelined ? plan.stage_count() : 1;
}

double queue_sum(const char* name, const partition::Plan& plan) {
  double total = 0.0;
  for (int q = 0; q < queue_count(plan); ++q) {
    total += histogram(name, {{"queue", std::to_string(q)}}).sum();
  }
  return total;
}

double queue_quantile_sum(const char* name, const partition::Plan& plan,
                          double q) {
  double total = 0.0;
  for (int i = 0; i < queue_count(plan); ++i) {
    total += histogram(name, {{"queue", std::to_string(i)}}).percentile(q);
  }
  return total;
}

double device_counter_sum(const char* name, const partition::Plan& plan) {
  std::set<pico::DeviceId> devices;
  for (const partition::Stage& stage : plan.stages) {
    for (const partition::DeviceSlice& slice : stage.assignments) {
      devices.insert(slice.device);
    }
  }
  double total = 0.0;
  for (const pico::DeviceId device : devices) {
    total += static_cast<double>(
        obs::Registry::global()
            .counter(name, {{"device", std::to_string(device)}})
            .value());
  }
  return total;
}

/// Per stage: Eq. 9 model cost beside the measured service-time median.
/// Returns max / min over stages of measured ÷ model.
double report_stages(const Model& model) {
  const partition::PlanCost cost = pico::evaluate(
      model.graph, bench_cluster(), pico::NetworkModel{}, model.plan);
  double lo = 0.0, hi = 0.0;
  std::cout << "# stage  model_eq9_s  measured_service_p50_s  ratio\n";
  for (int s = 0; s < model.plan.stage_count(); ++s) {
    const double predicted = cost.stages[s].total();
    const double measured =
        histogram("pico_stage_service_seconds", stage_label(s))
            .percentile(0.5);
    const double ratio = predicted > 0.0 ? measured / predicted : 0.0;
    std::cout << "#   " << s << "  " << predicted << "  " << measured << "  "
              << ratio << "\n";
    if (s == 0 || ratio < lo) lo = ratio;
    if (s == 0 || ratio > hi) hi = ratio;
  }
  return lo > 0.0 ? hi / lo : 0.0;
}

/// Per-slice rates, so host drift inside a run shows next to its totals.
void report_drift(const LoadResult& load) {
  std::cout << "# completions/s per " << kRateSlice << " s slice:";
  for (const double rate : load.slice_rates()) std::cout << " " << rate;
  std::cout << "\n";
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "# " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
         << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// Set up kSetupReps times (the last one is kept).  Returns the median
/// set-up seconds; `plan_times` gets every repetition's planning time.
double set_up(const Options& options, SpanLog& log,
              std::unique_ptr<Model>& model,
              std::unique_ptr<runtime::PipelineRuntime>& rt, int& warm_wrong,
              std::vector<double>& plan_times) {
  std::vector<double> times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rt.reset();
    model.reset();
    const Clock::time_point start = Clock::now();
    model = build_model(*options.workload, options.seed, log);
    rt = make_runtime(*options.workload, *model);
    warm_wrong += warm_up(*options.workload, *rt, *model);
    times.push_back(seconds_between(start, Clock::now()));
    plan_times.push_back(model->plan_s);
  }
  return median(times);
}

void write_registry(const std::string& path) {
  std::ofstream out(path);
  obs::Registry::global().write_prometheus(out);
}

int run(const Options& options) {
  const Workload& workload = *options.workload;
  SpanLog log(options.trace);
  std::unique_ptr<Model> model;
  std::unique_ptr<runtime::PipelineRuntime> rt;
  int warm_wrong = 0;
  std::vector<double> plan_times;
  const double setup_s =
      set_up(options, log, model, rt, warm_wrong, plan_times);

  std::cout << "# workload " << workload.name << " seed " << options.seed
            << " trace " << options.trace << "\n"
            << "# threads=" << pico::ThreadPool::default_parallelism()
            << " nproc=" << std::thread::hardware_concurrency()
            << " plan=" << model->plan.scheme << " stages="
            << model->plan.stage_count()
            << " plan_hash=" << plan_hash(model->graph, model->plan) << "\n";
  const std::string stem = options.out_dir + "/" + workload.name + "-s" +
                           std::to_string(options.seed);
  std::filesystem::create_directories(options.out_dir);

  if (!options.trace) {
    obs::Registry::global().reset_values();
    const LoadResult load = run_closed(*rt, *model, workload.outstanding,
                                       options.seconds, log);
    rt->shutdown();
    const std::vector<double> latencies = load.latencies();
    double q = 0.0;
    const double p90 = tail_quantile(latencies, &q);
    report_stages(*model);
    write_registry(stem + ".registry.prom");
    std::cout << "# sent=" << load.sent()
              << " succeeded=" << load.sent() - load.failed()
              << " failed=" << load.failed() << " error_ratio="
              << (load.sent() ? double(load.failed()) / load.sent() : 0.0)
              << " warmup_failed=" << warm_wrong << " latency_p90 uses q=" << q
              << " of " << latencies.size() << " samples\n";
    report_drift(load);
    print_result(load.failed() == 0 && warm_wrong == 0 && load.sent() > 0,
                 load.sent(), load.failed(),
                 {{"throughput_ips", load.throughput(), "1/s"},
                  {"latency_p50_s", quantile(latencies, 0.5), "s"},
                  {"latency_p90_s", p90, "s"},
                  {"setup_s", setup_s, "s"},
                  {"peak_rss_mb", peak_rss_mb(), "MB"}});
    return 0;
  }

  // Traced run.  First half untraced: the reference for the overhead ratio.
  SpanLog untraced(false);
  const double half = options.seconds / 2.0;
  const LoadResult reference =
      run_closed(*rt, *model, workload.outstanding, half, untraced);
  rt.reset();

  // Second half traced.  The runtime reads the tracer switch when it is
  // built, so it is rebuilt with tracing on.
  obs::Tracer::global().set_enabled(true);
  rt = make_runtime(workload, *model);
  const int warmup_tasks = workload.outstanding * kWarmupPerSlot;
  warm_wrong += warm_up(workload, *rt, *model);
  obs::Registry::global().reset_values();
  const std::uint64_t events_before = obs::FlightRecorder::global().next_seq();
  const LoadResult load =
      run_closed(*rt, *model, workload.outstanding, half, log);
  const std::uint64_t events_after = obs::FlightRecorder::global().next_seq();
  const double harvest_rounds = static_cast<double>(
      obs::Registry::global().counter("pico_harvest_rounds_total").value());
  std::vector<double> harvest_times;
  for (int i = 0; i < kHarvestProbes; ++i) {
    Scope span(log, "harvest_now");
    const Clock::time_point start = Clock::now();
    rt->harvest_now();
    harvest_times.push_back(seconds_between(start, Clock::now()));
  }
  rt->shutdown();  // publishes the per-connection byte and frame counters
  obs::Tracer::global().set_enabled(false);

  const partition::Plan& plan = model->plan;
  const double tasks = std::max<double>(
      1.0, static_cast<double>(obs::Registry::global()
                                   .counter("pico_tasks_completed_total")
                                   .value()));
  // Connection counters cover the connection's life, warm-up included.
  const double connection_tasks = tasks + warmup_tasks;
  const double throughput = load.throughput();
  // The bottleneck server: the slowest stage of a pipeline, or the one
  // coordinator that runs every stage of a sequential plan in turn.
  double bottleneck_compute = 0.0, bottleneck_service = 0.0;
  for (int s = 0; s < plan.stage_count(); ++s) {
    bottleneck_compute = std::max(
        bottleneck_compute,
        histogram("pico_stage_compute_critical_seconds", stage_label(s))
            .percentile(0.5));
    const double service =
        histogram("pico_stage_service_seconds", stage_label(s))
            .percentile(0.5);
    bottleneck_service = plan.pipelined
                             ? std::max(bottleneck_service, service)
                             : bottleneck_service + service;
  }
  const double stage_ratio_spread = report_stages(*model);

  // Idle-process replays: the workload's plan, then every layer class over
  // both benchmark models (so each class is measured on every workload).
  const std::vector<Tensor> activations =
      nn::execute_all(model->graph, model->inputs[0]);
  const PlanReplay plan_replay =
      replay_plan(model->graph, plan, activations, log, kReplayReps);
  std::map<std::string, double> class_flops;
  for (const Workload& other : kWorkloads) {
    if (other.model == workload.model) {
      replay_layers(model->graph, activations, log, kReplayReps, class_flops);
    } else {
      const nn::Graph graph =
          build_graph(other.model, other.input_size, options.seed);
      pico::Tensor input(graph.input_shape());
      pico::Rng rng(options.seed);
      input.randomize(rng);
      replay_layers(graph, nn::execute_all(graph, input), log, kReplayReps,
                    class_flops);
    }
  }

  const std::vector<BenchSpan> spans = log.spans();
  const std::vector<std::string> problems = check_nesting(spans);
  for (std::size_t i = 0; i < std::min<std::size_t>(problems.size(), 10); ++i) {
    std::cout << "# span nesting violated: " << problems[i] << "\n";
  }
  std::cout << "# spans: " << spans.size() << " checked, "
            << (problems.empty() ? "nested" : "NOT nested") << "\n";
  const std::map<std::string, double> self = self_seconds(spans);
  auto self_of = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };

  std::vector<Metric> metrics;
  double total_flops = 0.0, total_time = 0.0, fastest = 0.0, slowest = 0.0;
  std::vector<Metric> class_rates;
  for (const char* layer : kLayerClasses) {
    const double time =
        self_of(std::string("compute_node.") + layer) / kReplayReps;
    const double rate = time > 0.0 ? class_flops[layer] / time / 1e9 : 0.0;
    total_flops += class_flops[layer];
    total_time += time;
    if (fastest == 0.0 || rate > fastest) fastest = rate;
    if (slowest == 0.0 || rate < slowest) slowest = rate;
    class_rates.push_back({std::string("nn.") + layer + ".gflops", rate,
                           "GFLOP/s"});
  }
  const double single_rate = total_time > 0.0 ? total_flops / total_time / 1e9
                                              : 0.0;
  std::cout << "# layer class rates (cost:: FLOPs) vs one rate for all "
               "classes, as Eq. 5 assumes: "
            << single_rate << " GFLOP/s\n";
  for (const Metric& rate : class_rates) {
    std::cout << "#   " << rate.name << " " << rate.value << " GFLOP/s = "
              << (single_rate > 0.0 ? rate.value / single_rate : 0.0)
              << " x\n";
  }

  metrics.push_back({"nn.compute_s",
                     stage_device_sum("pico_stage_compute_seconds", plan) /
                         tasks,
                     "s"});
  metrics.push_back({"nn.bottleneck_compute_s", bottleneck_compute, "s"});
  metrics.insert(metrics.end(), class_rates.begin(), class_rates.end());
  metrics.push_back({"nn.class_rate_spread",
                     slowest > 0.0 ? fastest / slowest : 0.0, "ratio"});
  metrics.push_back(
      {"tensor.extract_s", self_of(kExtract) / kReplayReps, "s"});
  metrics.push_back({"tensor.stitch_s", self_of(kStitch) / kReplayReps, "s"});
  metrics.push_back({"tensor.bytes_copied", plan_replay.bytes_copied, "B"});
  metrics.push_back(
      {"runtime.serialize_s", self_of(kSerialize) / kReplayReps, "s"});
  metrics.push_back(
      {"runtime.deserialize_s", self_of(kDeserialize) / kReplayReps, "s"});
  metrics.push_back(
      {"runtime.wire_bytes",
       (device_counter_sum("pico_net_bytes_sent_total", plan) +
        device_counter_sum("pico_net_bytes_received_total", plan)) /
           connection_tasks,
       "B"});
  metrics.push_back(
      {"runtime.frames",
       (device_counter_sum("pico_net_frames_sent_total", plan) +
        device_counter_sum("pico_net_frames_received_total", plan)) /
           connection_tasks,
       "count"});
  metrics.push_back(
      {"runtime.scatter_s", stage_sum("pico_stage_scatter_seconds", plan) / tasks,
       "s"});
  metrics.push_back(
      {"runtime.gather_s", stage_sum("pico_stage_gather_seconds", plan) / tasks,
       "s"});
  metrics.push_back(
      {"runtime.wire_s",
       (stage_device_sum("pico_wire_request_seconds", plan) +
        stage_device_sum("pico_wire_reply_seconds", plan)) /
           tasks,
       "s"});
  metrics.push_back(
      {"runtime.worker_queue_s",
       stage_device_sum("pico_worker_queue_seconds", plan) / tasks, "s"});
  metrics.push_back(
      {"runtime.queue_wait_p50_s",
       queue_quantile_sum("pico_stage_queue_wait_seconds", plan, 0.5), "s"});
  metrics.push_back(
      {"runtime.queue_wait_p90_s",
       queue_quantile_sum("pico_stage_queue_wait_seconds", plan, 0.9), "s"});
  metrics.push_back(
      {"runtime.handoff_s", queue_sum("pico_stage_handoff_seconds", plan) / tasks,
       "s"});
  metrics.push_back({"runtime.bottleneck_busy_ratio",
                     bottleneck_service * throughput, "ratio"});
  metrics.push_back({"obs.harvest_rounds", harvest_rounds / tasks, "count"});
  metrics.push_back({"obs.harvest_round_s", median(harvest_times), "s"});
  metrics.push_back(
      {"obs.events_per_task",
       static_cast<double>(events_after - events_before) / tasks, "count"});
  const double untraced_p50 = quantile(reference.latencies(), 0.5);
  metrics.push_back({"obs.trace_overhead_ratio",
                     untraced_p50 > 0.0
                         ? quantile(load.latencies(), 0.5) / untraced_p50
                         : 0.0,
                     "ratio"});
  metrics.push_back({"partition.plan_s", median(plan_times), "s"});
  metrics.push_back({"partition.redundancy_ratio",
                     partition::plan_redundancy_ratio(model->graph, plan),
                     "ratio"});
  metrics.push_back({"cost.stage_ratio_spread", stage_ratio_spread, "ratio"});

  std::vector<obs::SpanRecord> records = obs::Tracer::global().snapshot();
  for (obs::SpanRecord& record : to_records(spans)) {
    records.push_back(std::move(record));
  }
  obs::write_chrome_trace_file(stem + ".trace.json", records);
  write_registry(stem + ".registry.prom");

  const int attempted = reference.sent() + load.sent();
  const int failed = reference.failed() + load.failed();
  std::cout << "# sent=" << attempted << " succeeded=" << attempted - failed
            << " failed=" << failed << " warmup_failed=" << warm_wrong
            << " replay_exact=" << plan_replay.exact << "\n";
  print_result(failed == 0 && warm_wrong == 0 && plan_replay.exact &&
                   problems.empty() && attempted > 0,
               attempted, failed, metrics);
  return 0;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) options.workload = &w;
      }
      if (options.workload == nullptr) {
        std::cerr << "unknown workload " << value << "\n";
        return false;
      }
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      std::cerr << "unknown option " << key << "\n";
      return false;
    }
  }
  if (argc % 2 == 0 || options.workload == nullptr || options.seconds <= 0) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s>"
                 " --trace <0|1> [--out-dir <dir>]\n";
    return false;
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  for (const char* name : perfbench::kPinnedEnv) {
    if (std::getenv(name) != nullptr) {
      std::cerr << "perfbench: refusing to run with " << name
                << " set: it overrides what the benchmark pins\n";
      return 2;
    }
  }
  perfbench::Options options;
  if (!perfbench::parse(argc, argv, options)) return 2;
  try {
    return perfbench::run(options);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
