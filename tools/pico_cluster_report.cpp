// pico_cluster_report — run a plan on the threaded runtime and report the
// *cluster-wide* observability view: per-device clock offsets estimated over
// the transport, true worker compute (worker-clock measured, harvested via
// TraceDump and rebased onto the coordinator timeline), true wire time
// (request and reply legs split apart using the estimated offset) and
// worker-side queueing (request receipt -> compute start).
//
// The run's merged Chrome trace — coordinator spans plus the harvested,
// offset-corrected worker spans — and the merged Prometheus dump
// (coordinator exposition followed by each worker's, harvested via
// MetricsDump) are written as artifacts.
//
// With --harvest-ms the run harvests *continuously*: a background thread
// pulls metric/span deltas from every worker mid-run (span cursors prevent
// double-counting), feeding rolling windows, a live λ̂, the per-device
// straggler detector and the online Eq. 5–11 / Thm. 2 model checker.
// --watch renders the resulting health view once per completed round;
// --slow-device injects an artificial compute delay on one device (chaos
// hook) so the straggler path can be demonstrated — and gated — on a
// loopback host.
//
// --skew-ns injects an artificial worker-clock offset (obs debug hook), so a
// loopback run on one host still exercises the estimator and the rebasing
// path end to end; --check then turns the report into a CI gate: exit
// status 2 unless every device was reachable, contributed worker compute
// spans, every harvested span lands (rebased) inside the local run window
// and nests under its serve span, and the final health snapshot holds (no
// unreachable device; with --expect-straggler, exactly the named device
// flagged).  Exit 1 is reserved for usage/runtime errors, so CI can tell
// "broken invocation" from "unhealthy cluster".
//
// --kill-device drops one worker's connection mid-run (chaos hook) and
// switches the run onto the epoch runtime: the death is detected,
// recovery replans over the survivors, and every accepted task is still
// delivered.  --expect-device-down gates that path the same way
// --expect-straggler gates the straggler detector: exit 2 unless exactly
// the named device was declared down, a DeviceDown event was recorded, and
// at least one replan happened.
//
// Examples:
//   pico_cluster_report --model configs/vgg16.cfg --input-size 64 --tasks 8
//   pico_cluster_report --model configs/vgg16.cfg --input-size 64
//       --transport tcp --skew-ns 50000000 --check --json
//   pico_cluster_report --model configs/vgg16.cfg --input-size 64 --tasks 32
//       --harvest-ms 20 --task-gap-ms 5 --slow-device 1:40 --watch
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "models/cfg.hpp"
#include "obs/clock.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/remote.hpp"
#include "obs/trace.hpp"
#include "partition/pico_dp.hpp"
#include "partition/schemes.hpp"
#include "runtime/epoch_runtime.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/worker.hpp"

namespace {

constexpr const char* kUsage =
    R"(usage: pico_cluster_report --model <model.cfg> [options]

plan:
  --scheme <name>        PICO (default), LW, EFL or OFL (case-insensitive)
  --cluster paper        the paper's 8-Pi heterogeneous testbed (default)
  --cluster homog:<n>x<ghz>   n identical Pi-class devices
  --bandwidth-mbps <b>   shared uplink bandwidth (default 50)

run:
  --tasks <n>            inferences to run (default 4)
  --input-size <n>       override the [net] height/width (toy inputs for CI)
  --transport <kind>     inproc (default) or tcp
  --skew-ns <ns>         inject an artificial worker-clock offset (debug
                         hook; proves the rebasing path on a loopback host)
  --pings <n>            clock probes per worker at harvest (default 4)

continuous harvest:
  --harvest-ms <n>       pull worker telemetry every n ms mid-run (span
                         cursors keep repeated pulls duplicate-free); 0 =
                         shutdown-only harvest (default; the PICO_HARVEST_MS
                         env var overrides either way)
  --task-gap-ms <n>      sleep n ms between submissions (spreads the run so
                         harvest rounds land mid-run; default 0)
  --slow-device <id>:<ms>  inject an artificial per-request compute delay on
                         one device (chaos hook; drives the straggler
                         detector on a loopback host)
  --watch                render the live health view (λ̂, windowed compute,
                         straggler scores, drift events) after each
                         completed harvest round, to stderr

churn:
  --kill-device <id>:<n>  drop device <id>'s connection on its n-th request
                         (chaos hook).  The run then uses the epoch
                         runtime: the death is detected, recovery replans
                         over the survivors and every accepted task is
                         re-executed — no inference is dropped
  --net-timeout-ms <n>   per-operation transport deadline on every device
                         connection (0 = block forever, default; the
                         PICO_NET_TIMEOUT_MS env var overrides)
  --expect-device-down <id>  with --check: require that exactly this device
                         was declared down (DeviceDown event + dead list),
                         that recovery replanned at least once, and that
                         the surviving devices stayed healthy

postmortem (standalone mode; --model not required):
  --postmortem <file>    load a pico_postmortem_<pid>.json crash artifact and
                         render it (text tables, or JSON with --json) instead
                         of running a cluster
  --expect-event <code>  with --postmortem: gate on the artifact containing
                         at least one event with this stable code name (e.g.
                         worker_serve, check_failed; repeatable — all must be
                         present).  Exit 2 when missing, 1 on a bad file, 0
                         when every expected event is found

output:
  --json                 emit a JSON report instead of the text tables
  --trace-out <file>     merged Chrome trace (default pico_cluster_trace.json)
  --metrics-out <file>   merged Prometheus dump (default empty = skip)
  --check                CI gate: exit 2 unless every device is reachable,
                         produced worker spans, all harvested spans are
                         rebased into the run window and nest under "serve",
                         and the final health snapshot holds
  --expect-straggler <id>  with --check: require that the health engine
                         flagged exactly this device as a straggler
)";

struct Args {
  std::string model;
  std::string scheme = "PICO";
  std::string cluster = "paper";
  double bandwidth_mbps = 50.0;
  int tasks = 4;
  int input_size = 0;
  std::string transport = "inproc";
  long long skew_ns = 0;
  int pings = 4;
  int harvest_ms = 0;
  int task_gap_ms = 0;
  pico::DeviceId slow_device = -1;
  double slow_ms = 0.0;
  pico::DeviceId kill_device = -1;
  int kill_after = 0;
  long long net_timeout_ms = 0;
  bool watch = false;
  bool json = false;
  bool check = false;
  pico::DeviceId expect_straggler = -1;
  pico::DeviceId expect_down = -1;
  std::string trace_out = "pico_cluster_trace.json";
  std::string metrics_out;
  std::string postmortem;
  std::vector<std::string> expect_events;
};

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "pico_cluster_report: " << message << "\n";
  std::exit(1);
}

double parse_double(const std::string& text, const std::string& flag) {
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    fail("bad numeric value '" + text + "' for " + flag);
  }
}

Args parse_args(int argc, char** argv) {
  Args args;
  std::vector<std::string> tokens(argv + 1, argv + argc);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& flag = tokens[i];
    auto value = [&]() -> const std::string& {
      if (i + 1 >= tokens.size()) fail("missing value for " + flag);
      return tokens[++i];
    };
    if (flag == "--model" || flag == "--cfg") {
      args.model = value();
    } else if (flag == "--scheme") {
      args.scheme = value();
      for (char& c : args.scheme) {
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
    } else if (flag == "--cluster") {
      args.cluster = value();
    } else if (flag == "--bandwidth-mbps") {
      args.bandwidth_mbps = parse_double(value(), flag);
    } else if (flag == "--tasks") {
      args.tasks = static_cast<int>(parse_double(value(), flag));
      if (args.tasks < 1) fail("--tasks must be >= 1");
    } else if (flag == "--input-size") {
      args.input_size = static_cast<int>(parse_double(value(), flag));
      if (args.input_size < 1) fail("--input-size must be >= 1");
    } else if (flag == "--transport") {
      args.transport = value();
      if (args.transport != "inproc" && args.transport != "tcp") {
        fail("--transport must be inproc or tcp");
      }
    } else if (flag == "--skew-ns") {
      args.skew_ns = static_cast<long long>(parse_double(value(), flag));
    } else if (flag == "--pings") {
      args.pings = static_cast<int>(parse_double(value(), flag));
      if (args.pings < 1) fail("--pings must be >= 1");
    } else if (flag == "--harvest-ms") {
      args.harvest_ms = static_cast<int>(parse_double(value(), flag));
      if (args.harvest_ms < 0) fail("--harvest-ms must be >= 0");
    } else if (flag == "--task-gap-ms") {
      args.task_gap_ms = static_cast<int>(parse_double(value(), flag));
      if (args.task_gap_ms < 0) fail("--task-gap-ms must be >= 0");
    } else if (flag == "--slow-device") {
      const std::string spec = value();
      const std::size_t colon = spec.find(':');
      if (colon == std::string::npos) fail("--slow-device <id>:<ms>");
      args.slow_device = static_cast<pico::DeviceId>(
          parse_double(spec.substr(0, colon), flag));
      args.slow_ms = parse_double(spec.substr(colon + 1), flag);
      if (args.slow_ms <= 0.0) fail("--slow-device delay must be > 0 ms");
    } else if (flag == "--kill-device") {
      const std::string spec = value();
      const std::size_t colon = spec.find(':');
      if (colon == std::string::npos) fail("--kill-device <id>:<after_tasks>");
      args.kill_device = static_cast<pico::DeviceId>(
          parse_double(spec.substr(0, colon), flag));
      args.kill_after =
          static_cast<int>(parse_double(spec.substr(colon + 1), flag));
      if (args.kill_after < 1) fail("--kill-device count must be >= 1");
    } else if (flag == "--net-timeout-ms") {
      args.net_timeout_ms =
          static_cast<long long>(parse_double(value(), flag));
      if (args.net_timeout_ms < 0) fail("--net-timeout-ms must be >= 0");
    } else if (flag == "--watch") {
      args.watch = true;
    } else if (flag == "--expect-device-down") {
      args.expect_down =
          static_cast<pico::DeviceId>(parse_double(value(), flag));
    } else if (flag == "--expect-straggler") {
      args.expect_straggler =
          static_cast<pico::DeviceId>(parse_double(value(), flag));
    } else if (flag == "--json") {
      args.json = true;
    } else if (flag == "--check") {
      args.check = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--metrics-out") {
      args.metrics_out = value();
    } else if (flag == "--postmortem") {
      args.postmortem = value();
    } else if (flag == "--expect-event") {
      const std::string name = value();
      if (pico::obs::event_code_from_name(name.c_str()) ==
          pico::obs::EventCode::None) {
        fail("--expect-event: unknown event code name '" + name + "'");
      }
      args.expect_events.push_back(name);
    } else if (flag == "--help" || flag == "-h") {
      std::cout << kUsage;
      std::exit(0);
    } else {
      fail("unknown flag '" + flag + "'\n" + kUsage);
    }
  }
  if (!args.expect_events.empty() && args.postmortem.empty()) {
    fail("--expect-event needs --postmortem");
  }
  if (args.model.empty() && args.postmortem.empty()) {
    fail(std::string("--model is required\n") + kUsage);
  }
  return args;
}

pico::Cluster parse_cluster(const std::string& spec) {
  using pico::Cluster;
  if (spec == "paper") return Cluster::paper_heterogeneous();
  if (spec.rfind("homog:", 0) == 0) {
    const std::string body = spec.substr(6);
    const std::size_t x = body.find('x');
    if (x == std::string::npos) fail("--cluster homog:<n>x<ghz>");
    const int count =
        static_cast<int>(parse_double(body.substr(0, x), "--cluster"));
    const double ghz = parse_double(body.substr(x + 1), "--cluster");
    if (count < 1) fail("cluster needs at least one device");
    return Cluster::paper_homogeneous(count, ghz);
  }
  fail("unknown cluster spec '" + spec + "'");
}

pico::nn::Graph load_model(const std::string& path, int input_size) {
  std::ifstream file(path);
  if (!file.good()) fail("cannot read " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  std::string text = buffer.str();
  if (input_size > 0) {
    std::istringstream in(text);
    std::ostringstream out;
    std::string line;
    bool in_net = false;
    while (std::getline(in, line)) {
      if (!line.empty() && line.front() == '[') {
        in_net = line.rfind("[net]", 0) == 0;
      }
      if (in_net && (line.rfind("height=", 0) == 0 ||
                     line.rfind("width=", 0) == 0)) {
        out << line.substr(0, line.find('=') + 1) << input_size << '\n';
      } else {
        out << line << '\n';
      }
    }
    text = out.str();
  }
  return pico::models::parse_cfg(text);
}

pico::partition::Plan make_plan(const Args& args,
                                const pico::nn::Graph& graph,
                                const pico::Cluster& cluster,
                                const pico::NetworkModel& network) {
  namespace partition = pico::partition;
  partition::SchemeOptions options;
  if (args.scheme == "PICO") {
    return partition::pico_plan(graph, cluster, network, options);
  }
  if (args.scheme == "LW") return partition::lw_plan(graph, cluster, options);
  if (args.scheme == "EFL") {
    return partition::efl_plan(graph, cluster, options);
  }
  if (args.scheme == "OFL") {
    return partition::ofl_plan(graph, cluster, network, options);
  }
  fail("unknown scheme '" + args.scheme + "' (PICO, LW, EFL, OFL)");
}

std::string num(double value) {
  if (!(value == value) || value > 1e308 || value < -1e308) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

std::string fmt_us(double seconds) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.1f", seconds * 1e6);
  return buffer;
}

/// Count + mean of one histogram series summed over every stage the device
/// appears in (weighted by per-stage observation counts).
struct SeriesStat {
  long long count = 0;
  double mean = 0.0;
};

SeriesStat device_series(const pico::partition::Plan& plan,
                         const std::string& name, pico::DeviceId device) {
  pico::obs::Registry& registry = pico::obs::Registry::global();
  long long count = 0;
  double sum = 0.0;
  for (std::size_t s = 0; s < plan.stages.size(); ++s) {
    bool present = false;
    for (const pico::partition::DeviceSlice& slice :
         plan.stages[s].assignments) {
      present |= slice.device == device;
    }
    if (!present) continue;
    const pico::obs::Histogram& hist = registry.histogram(
        name, {{"stage", std::to_string(s)},
               {"device", std::to_string(device)}});
    count += hist.count();
    sum += hist.sum();
  }
  return {count, count > 0 ? sum / static_cast<double>(count) : 0.0};
}

struct DeviceReport {
  pico::DeviceId device = -1;
  bool reachable = false;
  long long offset_ns = 0;
  long long rtt_ns = 0;
  long long error_bound_ns = 0;
  int clock_samples = 0;
  long long requests = 0;
  long long worker_spans = 0;  ///< harvested (rebased) spans from this device
  SeriesStat compute;          ///< true worker compute (worker clock)
  SeriesStat wire_request;     ///< coordinator send -> worker recv, rebased
  SeriesStat wire_reply;       ///< worker send -> coordinator recv, rebased
  SeriesStat worker_queue;     ///< worker recv -> compute start
};

/// Render one health snapshot as the text view --watch repeats per round
/// and the final report embeds.
void print_health(std::FILE* out, const pico::obs::HealthSnapshot& health) {
  std::fprintf(out,
               "cluster health: %lld round(s), lambda_hat %.3f/s, "
               "md1_wait_pred %sus, queue_wait_meas %sus — %s\n",
               static_cast<long long>(health.rounds), health.lambda_hat,
               fmt_us(health.md1_wait_predicted).c_str(),
               fmt_us(health.queue_wait_measured).c_str(),
               health.healthy() ? "healthy" : "UNHEALTHY");
  std::fprintf(out, "%8s %6s %15s %8s %10s %8s %8s\n", "device", "reach",
               "win_compute_us", "score", "straggler", "spans", "cursor");
  for (const pico::obs::DeviceHealth& device : health.devices) {
    std::fprintf(out, "%8d %6s %15s %8.2f %10s %8lld %8llu\n", device.device,
                 device.reachable ? "yes" : "NO",
                 fmt_us(device.window_compute_mean).c_str(),
                 device.straggler_score, device.straggler ? "YES" : "-",
                 static_cast<long long>(device.spans_harvested),
                 static_cast<unsigned long long>(device.trace_cursor));
  }
  for (const pico::obs::StageResidual& residual : health.residuals) {
    std::fprintf(out,
                 "  residual %-8s stage %2d: predicted %s, measured %s, "
                 "ewma %.3f\n",
                 residual.signal.c_str(), residual.stage,
                 fmt_us(residual.predicted).c_str(),
                 fmt_us(residual.measured).c_str(), residual.residual_ewma);
  }
  for (const pico::obs::HealthEvent& event : health.events) {
    std::fprintf(out, "  [round %lld] %s%s%s: %s%s\n",
                 static_cast<long long>(event.round),
                 pico::obs::health_event_kind_name(event.kind),
                 event.device >= 0
                     ? (" device " + std::to_string(event.device)).c_str()
                     : "",
                 event.stage >= 0
                     ? (" stage " + std::to_string(event.stage)).c_str()
                     : "",
                 event.detail.c_str(),
                 event.blackbox.empty()
                     ? ""
                     : (" [black box: " +
                        std::to_string(event.blackbox.size()) + " event(s)]")
                           .c_str());
  }
}

/// Standalone --postmortem mode: render a crash artifact and gate on the
/// expected event codes.  Exit 0 = rendered (and every --expect-event code
/// present), 2 = a gate failed, 1 = the file is unreadable or malformed.
int postmortem_mode(const Args& args) {
  namespace obs = pico::obs;
  obs::Postmortem pm;
  try {
    pm = obs::load_postmortem(args.postmortem);
  } catch (const std::exception& error) {
    std::cerr << "pico_cluster_report: " << error.what() << "\n";
    return 1;
  }

  if (args.json) {
    std::cout << "{\n  \"postmortem\": \"" << args.postmortem << "\",\n"
              << "  \"pid\": " << pm.pid << ",\n  \"reason\": \"" << pm.reason
              << "\",\n  \"signal\": " << pm.signal_number
              << ",\n  \"threads\": " << pm.threads.size()
              << ",\n  \"pending_spans\": " << pm.spans.size()
              << ",\n  \"metrics\": " << pm.metrics.size()
              << ",\n  \"events\": [";
    for (std::size_t i = 0; i < pm.events.size(); ++i) {
      const obs::PostmortemEvent& event = pm.events[i];
      std::cout << (i ? "," : "") << "\n    {\"seq\": " << event.seq
                << ", \"t_ns\": " << event.t_ns << ", \"tid\": " << event.tid
                << ", \"thread\": \"" << pm.thread_name(event.tid)
                << "\", \"name\": \"" << event.name << "\", \"args\": ["
                << event.args[0] << ", " << event.args[1] << ", "
                << event.args[2] << ", " << event.args[3] << "]}";
    }
    std::cout << "\n  ]\n}\n";
  } else {
    std::printf("postmortem %s: pid %d, reason %s", args.postmortem.c_str(),
                pm.pid, pm.reason.c_str());
    if (pm.signal_number != 0) std::printf(" (signal %d)", pm.signal_number);
    std::printf("\n%zu thread(s), %zu journal event(s), %zu open span(s), "
                "%zu metric(s)\n\n",
                pm.threads.size(), pm.events.size(), pm.spans.size(),
                pm.metrics.size());
    std::printf("%8s %14s %-14s %-18s args\n", "seq", "t_ns", "thread",
                "event");
    for (const obs::PostmortemEvent& event : pm.events) {
      const std::string thread = pm.thread_name(event.tid);
      std::printf("%8llu %14lld %-14s %-18s %lld %lld %lld %lld\n",
                  static_cast<unsigned long long>(event.seq),
                  static_cast<long long>(event.t_ns),
                  thread.empty() ? ("tid " + std::to_string(event.tid)).c_str()
                                 : thread.c_str(),
                  event.name.c_str(), static_cast<long long>(event.args[0]),
                  static_cast<long long>(event.args[1]),
                  static_cast<long long>(event.args[2]),
                  static_cast<long long>(event.args[3]));
    }
    if (!pm.spans.empty()) {
      std::printf("\nspans still open at dump time:\n");
      for (const obs::PostmortemSpan& span : pm.spans) {
        std::printf("  %-14s start %lld ns, track %lld, task %lld (%s)\n",
                    span.name.c_str(), static_cast<long long>(span.start_ns),
                    static_cast<long long>(span.track),
                    static_cast<long long>(span.task_id),
                    pm.thread_name(span.tid).c_str());
      }
    }
  }

  int failures = 0;
  for (const std::string& expected : args.expect_events) {
    bool found = false;
    for (const obs::PostmortemEvent& event : pm.events) {
      found |= event.name == expected;
    }
    if (!found) {
      std::cerr << "pico_cluster_report: CHECK FAILED: postmortem has no '"
                << expected << "' event\n";
      ++failures;
    }
  }
  if (failures > 0) return 2;
  if (!args.expect_events.empty()) {
    std::cerr << "all postmortem event checks passed\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!args.postmortem.empty()) return postmortem_mode(args);
  try {
    namespace obs = pico::obs;
    namespace runtime = pico::runtime;

    const pico::nn::Graph graph = load_model(args.model, args.input_size);
    const pico::Cluster cluster = parse_cluster(args.cluster);
    pico::NetworkModel network;
    network.bandwidth = args.bandwidth_mbps * 1e6 / 8.0;
    const pico::partition::Plan plan =
        make_plan(args, graph, cluster, network);

    obs::Registry& registry = obs::Registry::global();
    registry.reset_values();
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.clear();
    tracer.set_enabled(true);
    obs::set_debug_clock_skew_ns(args.skew_ns);

    runtime::RuntimeOptions options;
    options.transport = args.transport == "tcp"
                            ? runtime::TransportKind::Tcp
                            : runtime::TransportKind::InProcess;
    options.harvest_pings = args.pings;
    options.harvest_ms = args.harvest_ms;
    options.net_timeout_ms = args.net_timeout_ms;
    if (args.watch && args.harvest_ms == 0) options.harvest_ms = 50;
    if (args.slow_device >= 0) {
      runtime::set_debug_compute_delay_ms(args.slow_device, args.slow_ms);
    }

    const pico::Shape in_shape =
        graph.node(plan.stages.front().first).in_shape;
    pico::Tensor input(in_shape);
    pico::Rng rng(7);
    input.randomize(rng);

    const std::int64_t run_start_ns = obs::Tracer::now_ns();
    std::vector<obs::WorkerTelemetry> workers;
    obs::HealthSnapshot health;
    std::vector<pico::DeviceId> dead;
    int replans = 0;
    // Submit/await/shutdown loop shared by the plain and the epoch
    // runtimes (both expose submit/health/shutdown/cluster_telemetry).
    auto run_tasks = [&](auto& rt) {
      std::vector<std::future<pico::Tensor>> futures;
      futures.reserve(static_cast<std::size_t>(args.tasks));
      std::int64_t watched_rounds = 0;
      auto watch_tick = [&] {
        if (!args.watch) return;
        const obs::HealthSnapshot live = rt.health();
        if (live.rounds > watched_rounds) {
          watched_rounds = live.rounds;
          print_health(stderr, live);
        }
      };
      for (int i = 0; i < args.tasks; ++i) {
        futures.push_back(rt.submit(input));
        if (args.task_gap_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(args.task_gap_ms));
        }
        watch_tick();
      }
      for (auto& f : futures) {
        f.get();
        watch_tick();
      }
      rt.shutdown();  // stops the periodic thread, runs one final harvest
      workers = rt.cluster_telemetry().workers();
      health = rt.health();
    };
    if (args.kill_device >= 0) {
      // Churn mode: arm the chaos hook and run under the epoch runtime so
      // the death is detected, survivors replanned, and every accepted task
      // still completes.  Device ids stay in the full-cluster space.
      runtime::set_debug_worker_kill_after(args.kill_device, args.kill_after);
      runtime::EpochOptions epochs;
      epochs.runtime = options;
      epochs.network = network;
      epochs.replan = [&args, &network](const pico::nn::Graph& g,
                                        const pico::Cluster& survivors) {
        return std::vector<pico::partition::Plan>{
            make_plan(args, g, survivors, network)};
      };
      runtime::EpochRuntime rt(graph, cluster, epochs);
      run_tasks(rt);
      dead = rt.dead_devices();
      replans = rt.replans();
      runtime::clear_debug_worker_faults();
    } else {
      runtime::PipelineRuntime rt(graph, plan, options);
      run_tasks(rt);
    }
    runtime::clear_debug_compute_delays();
    const std::int64_t run_end_ns = obs::Tracer::now_ns();

    std::vector<pico::DeviceId> devices;
    for (const pico::partition::Stage& stage : plan.stages) {
      for (const pico::partition::DeviceSlice& slice : stage.assignments) {
        bool seen = false;
        for (const pico::DeviceId id : devices) seen |= id == slice.device;
        if (!seen) devices.push_back(slice.device);
      }
    }
    std::sort(devices.begin(), devices.end());

    std::vector<DeviceReport> report;
    for (const pico::DeviceId id : devices) {
      DeviceReport row;
      row.device = id;
      for (const obs::WorkerTelemetry& worker : workers) {
        if (worker.device != id) continue;
        row.reachable = worker.reachable;
        row.offset_ns = worker.offset_ns;
        row.rtt_ns = worker.rtt_ns;
        row.error_bound_ns = worker.error_bound_ns;
        row.clock_samples = worker.clock_samples;
        row.worker_spans = static_cast<long long>(worker.spans.size());
      }
      row.requests =
          registry
              .counter("pico_device_requests_total",
                       {{"device", std::to_string(id)}})
              .value();
      row.compute = device_series(plan, "pico_stage_compute_seconds", id);
      row.wire_request = device_series(plan, "pico_wire_request_seconds", id);
      row.wire_reply = device_series(plan, "pico_wire_reply_seconds", id);
      row.worker_queue = device_series(plan, "pico_worker_queue_seconds", id);
      report.push_back(row);
    }

    // Artifacts: merged Chrome trace (the global tracer already contains
    // the harvested, rebased worker spans) + merged Prometheus dump.
    const std::vector<obs::SpanRecord> spans = tracer.snapshot();
    std::map<std::int64_t, std::string> track_names;
    track_names[obs::task_track()] = "tasks";
    for (std::size_t s = 0; s < plan.stages.size(); ++s) {
      track_names[obs::stage_track(static_cast<int>(s))] =
          "stage " + std::to_string(s);
    }
    for (const pico::DeviceId id : devices) {
      track_names[obs::device_track(id)] = "device " + std::to_string(id);
    }
    track_names[obs::net_track()] = "net";
    obs::write_chrome_trace_file(args.trace_out, spans, track_names);
    if (!args.metrics_out.empty()) {
      obs::ClusterTelemetry merged;
      for (obs::WorkerTelemetry worker : workers) {
        merged.add(std::move(worker));
      }
      std::ofstream out(args.metrics_out, std::ios::trunc);
      if (!out.good()) fail("cannot write " + args.metrics_out);
      out << merged.merged_prometheus(registry.prometheus_text());
    }

    if (args.json) {
      std::cout << "{\n  \"model\": \"" << args.model << "\",\n";
      std::cout << "  \"scheme\": \"" << plan.scheme << "\",\n";
      std::cout << "  \"transport\": \"" << args.transport << "\",\n";
      std::cout << "  \"tasks\": " << args.tasks << ",\n";
      std::cout << "  \"injected_skew_ns\": " << args.skew_ns << ",\n";
      std::cout << "  \"devices\": [";
      for (std::size_t i = 0; i < report.size(); ++i) {
        const DeviceReport& row = report[i];
        std::cout << (i ? "," : "") << "\n    {\"device\": " << row.device
                  << ", \"reachable\": "
                  << (row.reachable ? "true" : "false")
                  << ", \"clock_offset_ns\": " << row.offset_ns
                  << ", \"clock_rtt_ns\": " << row.rtt_ns
                  << ", \"clock_error_bound_ns\": " << row.error_bound_ns
                  << ", \"clock_samples\": " << row.clock_samples
                  << ", \"requests\": " << row.requests
                  << ", \"worker_spans\": " << row.worker_spans
                  << ", \"compute_mean_s\": " << num(row.compute.mean)
                  << ", \"wire_request_mean_s\": "
                  << num(row.wire_request.mean)
                  << ", \"wire_reply_mean_s\": " << num(row.wire_reply.mean)
                  << ", \"worker_queue_mean_s\": "
                  << num(row.worker_queue.mean) << "}";
      }
      std::cout << "\n  ],\n  \"health\": {\n";
      std::cout << "    \"rounds\": " << health.rounds << ",\n";
      std::cout << "    \"lambda_hat\": " << num(health.lambda_hat) << ",\n";
      std::cout << "    \"md1_wait_predicted_s\": "
                << num(health.md1_wait_predicted) << ",\n";
      std::cout << "    \"queue_wait_measured_s\": "
                << num(health.queue_wait_measured) << ",\n";
      std::cout << "    \"healthy\": " << (health.healthy() ? "true" : "false")
                << ",\n    \"devices\": [";
      for (std::size_t i = 0; i < health.devices.size(); ++i) {
        const obs::DeviceHealth& device = health.devices[i];
        std::cout << (i ? "," : "") << "\n      {\"device\": "
                  << device.device << ", \"reachable\": "
                  << (device.reachable ? "true" : "false")
                  << ", \"window_compute_mean_s\": "
                  << num(device.window_compute_mean)
                  << ", \"straggler_score\": " << num(device.straggler_score)
                  << ", \"straggler\": "
                  << (device.straggler ? "true" : "false")
                  << ", \"spans_harvested\": " << device.spans_harvested
                  << ", \"trace_cursor\": " << device.trace_cursor << "}";
      }
      std::cout << "\n    ],\n    \"events\": [";
      for (std::size_t i = 0; i < health.events.size(); ++i) {
        const obs::HealthEvent& event = health.events[i];
        std::cout << (i ? "," : "") << "\n      {\"round\": " << event.round
                  << ", \"kind\": \""
                  << obs::health_event_kind_name(event.kind)
                  << "\", \"device\": " << event.device
                  << ", \"stage\": " << event.stage << ", \"value\": "
                  << num(event.value)
                  << ", \"blackbox_events\": " << event.blackbox.size() << "}";
      }
      std::cout << "\n    ]\n  },\n";
      std::cout << "  \"recovery\": {\"dead_devices\": [";
      for (std::size_t i = 0; i < dead.size(); ++i) {
        std::cout << (i ? ", " : "") << dead[i];
      }
      std::cout << "], \"replans\": " << replans << "},\n";
      std::cout << "  \"spans\": " << spans.size() << ",\n";
      std::cout << "  \"trace\": \"" << args.trace_out << "\"\n}\n";
    } else {
      std::printf(
          "pico_cluster_report: %s, scheme %s, %d tasks (%s transport",
          args.model.c_str(), plan.scheme.c_str(), args.tasks,
          args.transport.c_str());
      if (args.skew_ns != 0) {
        std::printf(", injected skew %lld ns", args.skew_ns);
      }
      std::printf(")\n\nper-device clock sync (estimated over the wire):\n");
      std::printf("%8s %6s %14s %12s %12s %8s\n", "device", "reach",
                  "offset_ns", "rtt_ns", "err_bound", "samples");
      for (const DeviceReport& row : report) {
        std::printf("%8d %6s %14lld %12lld %12lld %8d\n", row.device,
                    row.reachable ? "yes" : "NO", row.offset_ns, row.rtt_ns,
                    row.error_bound_ns, row.clock_samples);
      }
      std::printf(
          "\nper-device time split, means in microseconds (true worker "
          "compute vs wire vs queueing):\n");
      std::printf("%8s %9s %7s | %12s %12s %12s %12s\n", "device",
                  "requests", "spans", "compute_us", "wire_req_us",
                  "wire_rep_us", "queue_us");
      for (const DeviceReport& row : report) {
        std::printf("%8d %9lld %7lld | %12s %12s %12s %12s\n", row.device,
                    row.requests, row.worker_spans,
                    fmt_us(row.compute.mean).c_str(),
                    fmt_us(row.wire_request.mean).c_str(),
                    fmt_us(row.wire_reply.mean).c_str(),
                    fmt_us(row.worker_queue.mean).c_str());
      }
      std::printf("\n");
      print_health(stdout, health);
      if (args.kill_device >= 0) {
        std::printf("\nrecovery: %d replan(s), dead devices:", replans);
        if (dead.empty()) std::printf(" none");
        for (const pico::DeviceId id : dead) std::printf(" %d", id);
        std::printf("\n");
      }
      std::printf("\nwrote %zu spans (merged cluster trace) to %s\n",
                  spans.size(), args.trace_out.c_str());
      if (!args.metrics_out.empty()) {
        std::printf("wrote merged metrics dump to %s\n",
                    args.metrics_out.c_str());
      }
    }

    if (args.check) {
      int failures = 0;
      auto check = [&failures](bool ok, const std::string& what) {
        if (!ok) {
          std::cerr << "pico_cluster_report: CHECK FAILED: " << what << "\n";
          ++failures;
        }
      };
      // A deliberately killed device is exempt from the liveness rows (it
      // legitimately ends the run unreachable); its own gate is below.
      auto is_dead = [&dead](pico::DeviceId id) {
        return std::find(dead.begin(), dead.end(), id) != dead.end();
      };
      for (const DeviceReport& row : report) {
        if (is_dead(row.device)) continue;
        const std::string dev = "device " + std::to_string(row.device);
        check(row.reachable, dev + " unreachable at harvest");
        check(row.worker_spans > 0, dev + " produced no worker spans");
        check(row.clock_samples > 0, dev + " has no accepted clock samples");
      }
      // Health-engine gate: at least one completed round, every surviving
      // device reachable in the final snapshot, and — when a straggler was
      // deliberately injected — exactly the expected device flagged.
      check(health.rounds > 0, "no harvest round completed");
      for (const obs::DeviceHealth& device : health.devices) {
        if (is_dead(device.device)) continue;
        check(device.reachable, "device " + std::to_string(device.device) +
                                    " unreachable in the health snapshot");
      }
      // Death-recovery gate (mirror of the straggler gate): with an
      // injected kill the expectation is exact — the named device and no
      // other was declared down, the DeviceDown event survived the epoch
      // swap, and recovery actually replanned.
      if (args.expect_down >= 0) {
        check(args.kill_device >= 0,
              "--expect-device-down needs --kill-device to inject a death");
        check(is_dead(args.expect_down),
              "device " + std::to_string(args.expect_down) +
                  " was not declared down");
        check(dead.size() <= 1, "more than one device was declared down");
        check(replans >= 1, "the device death did not trigger a replan");
        bool down_event = false;
        bool other_down = false;
        for (const obs::HealthEvent& event : health.events) {
          if (event.kind != obs::HealthEventKind::DeviceDown) continue;
          if (event.device == args.expect_down) {
            down_event = true;
          } else {
            other_down = true;
          }
        }
        check(down_event, "no DeviceDown health event for device " +
                              std::to_string(args.expect_down));
        check(!other_down, "DeviceDown health event for an unexpected device");
      }
      // Straggler flags gate only on request: on a loopback host a
      // heterogeneous *modeled* cluster runs on identical real cores, so
      // per-device wall times legitimately diverge from the plan's
      // equal-time sizing — flags are advisory there.  With an injected
      // slowdown the expectation is exact: the named device and no other.
      if (args.expect_straggler >= 0) {
        for (const obs::DeviceHealth& device : health.devices) {
          const bool expected = device.device == args.expect_straggler;
          check(device.straggler == expected,
                "device " + std::to_string(device.device) +
                    (expected ? " was not flagged as the straggler"
                              : " falsely flagged as a straggler"));
        }
      }
      // Every harvested worker span must have been rebased into the local
      // run window (an unrebased span under injected skew lands far
      // outside) and every compute span must nest inside a serve span.
      const std::int64_t slack_ns =
          std::max<std::int64_t>(5'000'000, std::llabs(args.skew_ns) / 4);
      std::vector<const obs::SpanRecord*> serves;
      for (const obs::WorkerTelemetry& worker : workers) {
        for (const obs::SpanRecord& span : worker.spans) {
          if (span.name == "serve") serves.push_back(&span);
        }
      }
      for (const obs::WorkerTelemetry& worker : workers) {
        for (const obs::SpanRecord& span : worker.spans) {
          const std::string what = "span '" + span.name + "' of device " +
                                   std::to_string(worker.device);
          check(span.start_ns >= run_start_ns - slack_ns &&
                    span.start_ns + span.duration_ns <=
                        run_end_ns + slack_ns,
                what + " not rebased into the run window");
          check(span.duration_ns >= 0, what + " has negative duration");
          if (span.name == "compute") {
            bool nested = false;
            for (const obs::SpanRecord* serve : serves) {
              nested |= serve->track == span.track &&
                        serve->task_id == span.task_id &&
                        serve->start_ns <= span.start_ns &&
                        span.start_ns + span.duration_ns <=
                            serve->start_ns + serve->duration_ns;
            }
            check(nested, what + " does not nest inside its serve span");
          }
        }
      }
      if (failures > 0) {
        std::cerr << "pico_cluster_report: " << failures
                  << " check(s) failed\n";
        // Exit 2 = the cluster failed its health/observability gate (vs 1
        // for usage or runtime errors) — machine-readable for CI.
        return 2;
      }
      // stderr: --json callers own stdout for the report itself.
      std::cerr << "all cluster-observability checks passed\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "pico_cluster_report: " << error.what() << "\n";
    return 1;
  }
}
