// pico_report — check the paper's cost model and the cluster's health
// against real runs, read crash artifacts back, and audit plans.  One
// binary, three subcommands on one harness (flag parser, cluster spec, cfg
// load with --input-size, scheme -> plan, JSON writer):
//
//   run         plan a model, run N inferences on the threaded runtime with
//               tracing on, and report both views of the run:
//                 - the Eq. 5–11 stage table: predicted stage compute
//                   (Eq. 6), comm (Eq. 8) and total (Eq. 9), period (Eq. 10)
//                   and latency (Eq. 11) beside the runtime's histograms;
//                 - the cluster view: per-device clock offsets estimated
//                   over the transport, true worker compute (harvested and
//                   rebased onto the coordinator timeline), wire time split
//                   into request and reply legs, worker-side queueing, the
//                   health engine's snapshot and, under --kill-device, the
//                   recovery.
//               Writes the merged Chrome trace (coordinator + rebased
//               worker spans) and optionally the merged Prometheus dump.
//               --check turns the run into a CI gate (see kUsage).
//   postmortem  render a flight-recorder crash artifact
//               (pico_postmortem_<pid>.json) as a causal timeline, merge it
//               into a Chrome trace, and gate on expected event codes.
//   audit       statically audit a plan (analysis::audit_plan).
//
// Measured/predicted ratios far from 1 are expected on a development host:
// the cost model is calibrated for the paper's Raspberry-Pi cluster.  The
// *relative* shape across stages is what validates the model.
//
// Exit status, every subcommand: 0 = pass, 1 = usage or input error,
// 2 = a gate failed.  CI tells "broken invocation" from "unhealthy cluster"
// by it.
//
// Examples:
//   pico_report run --model configs/vgg16.cfg --input-size 64 --tasks 8
//   pico_report run --model configs/vgg16.cfg --input-size 64
//       --transport tcp --skew-ns 50000000 --check --json
//   pico_report postmortem pico_postmortem_12345.json
//       --expect-event worker_serve --trace pico_trace.json --out merged.json
//   pico_report audit --cfg configs/vgg16.cfg --scheme PICO --json
#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "analysis/audit.hpp"
#include "common/json.hpp"
#include "models/cfg.hpp"
#include "obs/clock.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/remote.hpp"
#include "obs/trace.hpp"
#include "partition/pico_dp.hpp"
#include "partition/plan_cost.hpp"
#include "partition/plan_io.hpp"
#include "partition/schemes.hpp"
#include "runtime/epoch_runtime.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/worker.hpp"

namespace {

namespace obs = pico::obs;
namespace partition = pico::partition;
namespace runtime = pico::runtime;

constexpr const char* kUsage =
    R"(usage: pico_report <run|postmortem|audit> [options]

pico_report run --model <model.cfg> [options]
pico_report audit --cfg <model.cfg> [options]
  --model, --cfg <file>  model cfg (the two names are one flag)
  --scheme <name>        PICO (default), LW, EFL or OFL (case-insensitive)
  --tlim <seconds>       pipeline latency bound T_lim (default: none)
  --cluster paper        2x1.2GHz + 2x0.8GHz + 4x0.6GHz Pis (default)
  --cluster homog:<n>x<ghz>   n identical Pi-class devices
  --cluster pi:<f1,f2,...>    Pi-class devices at the given GHz
  --bandwidth-mbps <b>   shared uplink bandwidth (default 50)
  --input-size <n>       override the [net] height/width (toy inputs for CI)
  --json                 JSON report on stdout instead of text

run only:
  --tasks <n>            inferences to run (default 4)
  --transport <kind>     inproc (default) or tcp
  --trace-out <file>     merged Chrome trace (default pico_trace.json)
  --metrics-out <file>   merged Prometheus dump (default: none)
  --skew-ns <ns>         inject a worker-clock offset (debug hook; proves
                         the rebasing path on a loopback host)
  --pings <n>            clock probes per worker per harvest (default 4)
  --harvest-ms <n>       pull worker telemetry every n ms mid-run; 0 =
                         shutdown-only harvest (default; overrides
                         PICO_HARVEST_MS)
  --task-gap-ms <n>      sleep n ms between submissions (default 0)
  --slow-device <id>:<ms>  add a per-request compute delay on one device
                         (chaos hook; drives the straggler detector)
  --watch                print the health view after each harvest round
                         (stderr; harvests every 50 ms unless set)
  --kill-device <id>:<n>  drop device <id>'s connection on its n-th request
                         (chaos hook); the run then uses the epoch runtime,
                         which replans over the survivors and re-executes
                         every accepted task
  --net-timeout-ms <n>   per-operation transport deadline (0 = block
                         forever, default; overrides PICO_NET_TIMEOUT_MS)
  --check                gate: exit 2 unless every surviving device was
                         reachable, sent worker spans and clock samples,
                         every harvested span was rebased into the run
                         window and nests under its serve span, and the
                         final health snapshot holds
  --expect-straggler <id>  with --check: exactly this device is flagged
  --expect-device-down <id>  with --check: exactly this device was
                         declared down (DeviceDown event) and recovery
                         replanned at least once

pico_report postmortem <pico_postmortem_<pid>.json> [options]
  --offset-ns <n>        subtract n from every timestamp (rebase a worker-
                         clock artifact onto the coordinator timeline)
  --trace <file>         merge the journal into this Chrome trace as
                         instant events on a "flight recorder" track
  --out <file>           merged trace (default pico_postmortem_trace.json)
  --expect-event <code>  gate: exit 2 unless an event with this code name
                         (e.g. worker_serve) is present; repeatable
  --json                 JSON timeline on stdout instead of text

audit only:
  --plan <file>          audit a saved pico-plan file instead of --scheme
  --memory-limit-mb <m>  per-device memory budget (default: none)
  --redundancy-warn <r>  stage redundancy warning threshold (default 0.75)
  --output <file>        write the report to a file instead of stdout

exit status: 0 = pass, 1 = usage or input error, 2 = a gate failed
)";

enum Command : unsigned { kRun = 1, kPostmortem = 2, kAudit = 4 };

struct Args {
  unsigned command = 0;
  std::string command_name;
  // Model + plan (run, audit).
  std::string model;
  std::string scheme = "PICO";
  std::string cluster = "paper";
  double bandwidth_mbps = 50.0;
  double tlim = 0.0;   // 0 = unset
  int input_size = 0;  // 0 = keep the cfg's native size
  bool json = false;
  // run
  int tasks = 4;
  std::string transport = "inproc";
  std::string trace_out = "pico_trace.json";
  std::string metrics_out;
  long long skew_ns = 0;
  int pings = 4;
  std::optional<int> harvest_ms;  // unset = RuntimeOptions::from_env's
  int task_gap_ms = 0;
  pico::DeviceId slow_device = -1;
  double slow_ms = 0.0;
  pico::DeviceId kill_device = -1;
  int kill_after = 0;
  std::optional<long long> net_timeout_ms;
  bool watch = false;
  bool check = false;
  pico::DeviceId expect_straggler = -1;
  pico::DeviceId expect_down = -1;
  // postmortem
  std::string postmortem;
  std::string trace;
  std::string out = "pico_postmortem_trace.json";
  long long offset_ns = 0;
  std::vector<std::string> expect_events;
  // audit
  std::string plan_file;
  double memory_limit_mb = 0.0;
  double redundancy_warn = 0.75;
  std::string output;
};

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "pico_report: " << message << "\n";
  std::exit(1);
}

constexpr long long kIntMax = std::numeric_limits<int>::max();
constexpr long long kLongMin = std::numeric_limits<long long>::min();
constexpr long long kLongMax = std::numeric_limits<long long>::max();

/// Whole-string integer in [lo, hi]; anything else ("2.7", "3e9", out of
/// range) is a usage error naming the flag.
long long parse_int(const std::string& text, const std::string& flag,
                    long long lo, long long hi) {
  long long value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || value < lo || value > hi) {
    fail("bad value '" + text + "' for " + flag + ": expected an integer in [" +
         std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return value;
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

/// Split "<a>:<b>" or fail with the flag's expected form.
std::pair<std::string, std::string> split_colon(const std::string& spec,
                                                const std::string& form) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos) fail("expected " + form);
  return {spec.substr(0, colon), spec.substr(colon + 1)};
}

Args parse_args(int argc, char** argv) {
  const std::vector<std::string> tokens(argv + 1, argv + argc);
  if (!tokens.empty() && (tokens[0] == "--help" || tokens[0] == "-h")) {
    std::cout << kUsage;
    std::exit(0);
  }
  if (tokens.empty()) fail(std::string("missing subcommand\n") + kUsage);
  Args args;
  args.command_name = tokens[0];
  if (tokens[0] == "run") {
    args.command = kRun;
  } else if (tokens[0] == "postmortem") {
    args.command = kPostmortem;
  } else if (tokens[0] == "audit") {
    args.command = kAudit;
  } else {
    fail("unknown subcommand '" + tokens[0] + "'\n" + kUsage);
  }
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& flag = tokens[i];
    auto value = [&]() -> const std::string& {
      if (i + 1 >= tokens.size()) fail("missing value for " + flag);
      return tokens[++i];
    };
    auto only = [&](unsigned commands) {
      if ((commands & args.command) == 0) {
        fail(flag + " does not apply to '" + args.command_name + "'");
      }
    };
    auto device = [&](const std::string& text) {
      return static_cast<pico::DeviceId>(parse_int(text, flag, 0, kIntMax));
    };
    if (flag == "--model" || flag == "--cfg") {
      only(kRun | kAudit);
      args.model = value();
    } else if (flag == "--scheme") {
      only(kRun | kAudit);
      args.scheme = value();
      for (char& c : args.scheme) {
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
    } else if (flag == "--cluster") {
      only(kRun | kAudit);
      args.cluster = value();
    } else if (flag == "--bandwidth-mbps") {
      only(kRun | kAudit);
      args.bandwidth_mbps = parse_double(value(), flag);
    } else if (flag == "--tlim") {
      only(kRun | kAudit);
      args.tlim = parse_double(value(), flag);
    } else if (flag == "--input-size") {
      only(kRun | kAudit);
      args.input_size = static_cast<int>(parse_int(value(), flag, 1, kIntMax));
    } else if (flag == "--json") {
      args.json = true;
    } else if (flag == "--tasks") {
      only(kRun);
      args.tasks = static_cast<int>(parse_int(value(), flag, 1, kIntMax));
    } else if (flag == "--transport") {
      only(kRun);
      args.transport = value();
      if (args.transport != "inproc" && args.transport != "tcp") {
        fail("--transport must be inproc or tcp");
      }
    } else if (flag == "--trace-out") {
      only(kRun);
      args.trace_out = value();
    } else if (flag == "--metrics-out") {
      only(kRun);
      args.metrics_out = value();
    } else if (flag == "--skew-ns") {
      only(kRun);
      args.skew_ns = parse_int(value(), flag, kLongMin, kLongMax);
    } else if (flag == "--pings") {
      only(kRun);
      args.pings = static_cast<int>(parse_int(value(), flag, 1, kIntMax));
    } else if (flag == "--harvest-ms") {
      only(kRun);
      args.harvest_ms = static_cast<int>(parse_int(value(), flag, 0, kIntMax));
    } else if (flag == "--task-gap-ms") {
      only(kRun);
      args.task_gap_ms = static_cast<int>(parse_int(value(), flag, 0, kIntMax));
    } else if (flag == "--slow-device") {
      only(kRun);
      const auto [id, ms] = split_colon(value(), "--slow-device <id>:<ms>");
      args.slow_device = device(id);
      args.slow_ms = parse_double(ms, flag);
      if (args.slow_ms <= 0.0) fail("--slow-device delay must be > 0 ms");
    } else if (flag == "--kill-device") {
      only(kRun);
      const auto [id, count] = split_colon(value(), "--kill-device <id>:<n>");
      args.kill_device = device(id);
      args.kill_after = static_cast<int>(parse_int(count, flag, 1, kIntMax));
    } else if (flag == "--net-timeout-ms") {
      only(kRun);
      args.net_timeout_ms = parse_int(value(), flag, 0, kIntMax);
    } else if (flag == "--watch") {
      only(kRun);
      args.watch = true;
    } else if (flag == "--check") {
      only(kRun);
      args.check = true;
    } else if (flag == "--expect-straggler") {
      only(kRun);
      args.expect_straggler = device(value());
    } else if (flag == "--expect-device-down") {
      only(kRun);
      args.expect_down = device(value());
    } else if (flag == "--offset-ns") {
      only(kPostmortem);
      args.offset_ns = parse_int(value(), flag, kLongMin, kLongMax);
    } else if (flag == "--trace") {
      only(kPostmortem);
      args.trace = value();
    } else if (flag == "--out") {
      only(kPostmortem);
      args.out = value();
    } else if (flag == "--expect-event") {
      only(kPostmortem);
      const std::string name = value();
      if (obs::event_code_from_name(name.c_str()) == obs::EventCode::None) {
        fail("--expect-event: unknown event code name '" + name + "'");
      }
      args.expect_events.push_back(name);
    } else if (flag == "--plan") {
      only(kAudit);
      args.plan_file = value();
    } else if (flag == "--memory-limit-mb") {
      only(kAudit);
      args.memory_limit_mb = parse_double(value(), flag);
    } else if (flag == "--redundancy-warn") {
      only(kAudit);
      args.redundancy_warn = parse_double(value(), flag);
    } else if (flag == "--output") {
      only(kAudit);
      args.output = value();
    } else if (flag == "--help" || flag == "-h") {
      std::cout << kUsage;
      std::exit(0);
    } else if (args.command == kPostmortem && !flag.empty() &&
               flag[0] != '-' && args.postmortem.empty()) {
      args.postmortem = flag;
    } else {
      fail("unknown argument '" + flag + "' for '" + args.command_name +
           "'\n" + kUsage);
    }
  }
  if (args.command == kPostmortem && args.postmortem.empty()) {
    fail(std::string("postmortem needs an artifact file\n") + kUsage);
  }
  if (args.command != kPostmortem && args.model.empty()) {
    fail(args.command_name + " needs --model\n" + kUsage);
  }
  return args;
}

// ---------------------------------------------------------------------------
// Harness shared by run and audit
// ---------------------------------------------------------------------------

pico::Cluster parse_cluster(const std::string& spec) {
  using pico::Cluster;
  if (spec == "paper") return Cluster::paper_heterogeneous();
  if (spec.rfind("homog:", 0) == 0) {
    const std::string body = spec.substr(6);
    const std::size_t x = body.find('x');
    if (x == std::string::npos) fail("--cluster homog:<n>x<ghz>");
    const int count =
        static_cast<int>(parse_int(body.substr(0, x), "--cluster", 1, kIntMax));
    return Cluster::paper_homogeneous(
        count, parse_double(body.substr(x + 1), "--cluster"));
  }
  if (spec.rfind("pi:", 0) == 0) {
    std::vector<double> freqs;
    std::stringstream body(spec.substr(3));
    std::string item;
    while (std::getline(body, item, ',')) {
      freqs.push_back(parse_double(item, "--cluster"));
    }
    if (freqs.empty()) fail("--cluster pi:<f1,f2,...>");
    return Cluster::raspberry_pi(freqs);
  }
  fail("unknown cluster spec '" + spec + "'");
}

/// Load the cfg, optionally rewriting the [net] height/width so CI can run
/// the full pipeline on a toy input without a separate config file.
pico::nn::Graph load_model(const Args& args) {
  std::ifstream file(args.model);
  if (!file.good()) fail("cannot read " + args.model);
  std::stringstream buffer;
  buffer << file.rdbuf();
  std::string text = buffer.str();
  if (args.input_size > 0) {
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
        out << line.substr(0, line.find('=') + 1) << args.input_size << '\n';
      } else {
        out << line << '\n';
      }
    }
    text = out.str();
  }
  return pico::models::parse_cfg(text);
}

pico::NetworkModel network_model(const Args& args) {
  pico::NetworkModel network;
  network.bandwidth = args.bandwidth_mbps * 1e6 / 8.0;
  return network;
}

partition::Plan make_plan(const Args& args, const pico::nn::Graph& graph,
                          const pico::Cluster& cluster,
                          const pico::NetworkModel& network) {
  if (!args.plan_file.empty()) return partition::load_plan(args.plan_file);
  partition::SchemeOptions options;
  if (args.tlim > 0.0) options.latency_limit = args.tlim;
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

/// Streaming JSON writer: tracks separators and indentation, and escapes
/// every string through pico::write_json_string.  A flat container keeps
/// its members on one line.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& open(char bracket, bool flat = false) {
    prefix();
    os_ << bracket;
    levels_.push_back({bracket == '{' ? '}' : ']', flat, true});
    return *this;
  }
  JsonWriter& close() {
    const Level level = levels_.back();
    levels_.pop_back();
    if (!level.flat && !level.empty) newline();
    os_ << level.closer;
    if (levels_.empty()) os_ << '\n';
    return *this;
  }
  JsonWriter& key(std::string_view name) {
    prefix();
    pico::write_json_string(os_, name);
    os_ << ": ";
    keyed_ = true;
    return *this;
  }
  template <typename T>
  JsonWriter& value(const T& v) {
    prefix();
    if constexpr (std::is_same_v<T, bool>) {
      os_ << (v ? "true" : "false");
    } else if constexpr (std::is_integral_v<T>) {
      os_ << v;
    } else if constexpr (std::is_floating_point_v<T>) {
      os_ << pico::json_number(v);
    } else {
      pico::write_json_string(os_, v);
    }
    return *this;
  }
  template <typename T>
  JsonWriter& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

 private:
  struct Level {
    char closer;
    bool flat;
    bool empty;
  };
  void prefix() {
    if (keyed_) {
      keyed_ = false;
      return;
    }
    if (levels_.empty()) return;
    Level& level = levels_.back();
    if (!level.empty) os_ << (level.flat ? ", " : ",");
    if (!level.flat) newline();
    level.empty = false;
  }
  void newline() { os_ << '\n' << std::string(2 * levels_.size(), ' '); }

  std::ostream& os_;
  std::vector<Level> levels_;
  bool keyed_ = false;
};

std::string fmt(double value, int decimals = 4) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

std::string fmt_us(double seconds) { return fmt(seconds * 1e6, 1); }

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

struct StageRow {
  std::size_t stage = 0;
  int devices = 0;
  double pred_compute = 0.0, pred_comm = 0.0, pred_total = 0.0;
  double meas_compute = 0.0;   ///< mean critical-path device compute
  double meas_transfer = 0.0;  ///< mean service time beyond that compute
  double meas_service = 0.0;   ///< mean end-to-end stage service
};

/// Count + mean of one histogram series summed over every stage the device
/// appears in (weighted by per-stage observation counts).
struct SeriesStat {
  long long count = 0;
  double mean = 0.0;
};

SeriesStat device_series(const partition::Plan& plan, const std::string& name,
                         pico::DeviceId device) {
  obs::Registry& registry = obs::Registry::global();
  long long count = 0;
  double sum = 0.0;
  for (std::size_t s = 0; s < plan.stages.size(); ++s) {
    bool present = false;
    for (const partition::DeviceSlice& slice : plan.stages[s].assignments) {
      present |= slice.device == device;
    }
    if (!present) continue;
    const obs::Histogram& hist = registry.histogram(
        name, {{"stage", std::to_string(s)},
               {"device", std::to_string(device)}});
    count += hist.count();
    sum += hist.sum();
  }
  return {count, count > 0 ? sum / static_cast<double>(count) : 0.0};
}

struct DeviceRow {
  pico::DeviceId device = -1;
  bool reachable = false;
  long long offset_ns = 0;
  long long rtt_ns = 0;
  long long error_bound_ns = 0;
  int clock_samples = 0;
  long long requests = 0;
  long long bytes_sent = 0;
  long long bytes_received = 0;
  long long worker_spans = 0;  ///< harvested (rebased) spans from this device
  SeriesStat compute;          ///< true worker compute (worker clock)
  SeriesStat wire_request;     ///< coordinator send -> worker recv, rebased
  SeriesStat wire_reply;       ///< worker send -> coordinator recv, rebased
  SeriesStat worker_queue;     ///< worker recv -> compute start
};

struct RunReport {
  std::string scheme;
  double pred_period = 0.0, pred_latency = 0.0;
  double meas_period = 0.0;
  double meas_latency_mean = 0.0, meas_latency_p95 = 0.0,
         meas_latency_p99 = 0.0;
  std::vector<StageRow> stages;
  std::vector<DeviceRow> devices;
  std::vector<obs::WorkerTelemetry> workers;
  obs::HealthSnapshot health;
  std::vector<pico::DeviceId> dead;
  int replans = 0;
  std::size_t spans = 0;
  std::int64_t start_ns = 0, end_ns = 0;  ///< local run window
};

/// The health view --watch repeats per round and the text report embeds.
void print_health(std::FILE* out, const obs::HealthSnapshot& health) {
  std::fprintf(out,
               "cluster health: %lld round(s), lambda_hat %.3f/s, "
               "md1_wait_pred %sus, queue_wait_meas %sus — %s\n",
               static_cast<long long>(health.rounds), health.lambda_hat,
               fmt_us(health.md1_wait_predicted).c_str(),
               fmt_us(health.queue_wait_measured).c_str(),
               health.healthy() ? "healthy" : "UNHEALTHY");
  std::fprintf(out, "%8s %6s %15s %8s %10s %8s %8s\n", "device", "reach",
               "win_compute_us", "score", "straggler", "spans", "cursor");
  for (const obs::DeviceHealth& device : health.devices) {
    std::fprintf(out, "%8d %6s %15s %8.2f %10s %8lld %8llu\n", device.device,
                 device.reachable ? "yes" : "NO",
                 fmt_us(device.window_compute_mean).c_str(),
                 device.straggler_score, device.straggler ? "YES" : "-",
                 static_cast<long long>(device.spans_harvested),
                 static_cast<unsigned long long>(device.trace_cursor));
  }
  for (const obs::StageResidual& residual : health.residuals) {
    std::fprintf(out,
                 "  residual %-8s stage %2d: predicted %s, measured %s, "
                 "ewma %.3f\n",
                 residual.signal.c_str(), residual.stage,
                 fmt_us(residual.predicted).c_str(),
                 fmt_us(residual.measured).c_str(), residual.residual_ewma);
  }
  for (const obs::HealthEvent& event : health.events) {
    std::fprintf(out, "  [round %lld] %s%s%s: %s%s\n",
                 static_cast<long long>(event.round),
                 obs::health_event_kind_name(event.kind),
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

void print_run_text(const Args& args, const RunReport& report) {
  std::printf("pico_report run: %s, scheme %s, cluster %s, %d tasks (%s "
              "transport",
              args.model.c_str(), report.scheme.c_str(), args.cluster.c_str(),
              args.tasks, args.transport.c_str());
  if (args.skew_ns != 0) std::printf(", injected skew %lld ns", args.skew_ns);
  std::printf(
      ")\n\npredicted (paper cost model, Pi-calibrated) vs measured (this "
      "host):\n");
  std::printf("%6s %5s | %12s %12s %12s | %12s %12s %12s | %8s\n", "stage",
              "devs", "pred comp", "pred comm", "pred total", "meas comp",
              "meas comm", "meas total", "ratio");
  for (const StageRow& row : report.stages) {
    const double ratio =
        row.pred_total > 0.0 ? row.meas_service / row.pred_total : 0.0;
    std::printf("%6zu %5d | %12s %12s %12s | %12s %12s %12s | %8s\n",
                row.stage, row.devices, fmt(row.pred_compute).c_str(),
                fmt(row.pred_comm).c_str(), fmt(row.pred_total).c_str(),
                fmt(row.meas_compute).c_str(), fmt(row.meas_transfer).c_str(),
                fmt(row.meas_service).c_str(), fmt(ratio, 3).c_str());
  }
  std::printf("\n%-34s %12s %12s\n", "", "predicted", "measured");
  std::printf("%-34s %12s %12s\n", "period (s/task, Eq. 10)",
              fmt(report.pred_period).c_str(),
              fmt(report.meas_period).c_str());
  std::printf("%-34s %12s %12s\n", "latency (s, Eq. 11 vs mean)",
              fmt(report.pred_latency).c_str(),
              fmt(report.meas_latency_mean).c_str());
  std::printf("%-34s %12s %12s\n", "latency p95 / p99 (s)",
              fmt(report.meas_latency_p95).c_str(),
              fmt(report.meas_latency_p99).c_str());

  std::printf("\nper-device clock sync (estimated over the wire):\n");
  std::printf("%8s %6s %14s %12s %12s %8s\n", "device", "reach", "offset_ns",
              "rtt_ns", "err_bound", "samples");
  for (const DeviceRow& row : report.devices) {
    std::printf("%8d %6s %14lld %12lld %12lld %8d\n", row.device,
                row.reachable ? "yes" : "NO", row.offset_ns, row.rtt_ns,
                row.error_bound_ns, row.clock_samples);
  }
  std::printf(
      "\nper-device traffic and time split, means in microseconds (true "
      "worker compute vs wire vs queueing):\n");
  std::printf("%8s %9s %12s %12s %7s | %12s %12s %12s %12s\n", "device",
              "requests", "bytes sent", "bytes recvd", "spans", "compute_us",
              "wire_req_us", "wire_rep_us", "queue_us");
  for (const DeviceRow& row : report.devices) {
    std::printf("%8d %9lld %12lld %12lld %7lld | %12s %12s %12s %12s\n",
                row.device, row.requests, row.bytes_sent, row.bytes_received,
                row.worker_spans, fmt_us(row.compute.mean).c_str(),
                fmt_us(row.wire_request.mean).c_str(),
                fmt_us(row.wire_reply.mean).c_str(),
                fmt_us(row.worker_queue.mean).c_str());
  }
  std::printf("\n");
  print_health(stdout, report.health);
  if (args.kill_device >= 0) {
    std::printf("\nrecovery: %d replan(s), dead devices:", report.replans);
    if (report.dead.empty()) std::printf(" none");
    for (const pico::DeviceId id : report.dead) std::printf(" %d", id);
    std::printf("\n");
  }
  std::printf("\nwrote %zu spans (merged cluster trace) to %s\n", report.spans,
              args.trace_out.c_str());
  if (!args.metrics_out.empty()) {
    std::printf("wrote merged metrics dump to %s\n", args.metrics_out.c_str());
  }
}

void print_run_json(const Args& args, const RunReport& report) {
  JsonWriter json(std::cout);
  json.open('{')
      .field("model", args.model)
      .field("scheme", report.scheme)
      .field("cluster", args.cluster)
      .field("transport", args.transport)
      .field("tasks", args.tasks)
      .field("injected_skew_ns", args.skew_ns);
  json.key("predicted")
      .open('{', true)
      .field("period_s", report.pred_period)
      .field("latency_s", report.pred_latency)
      .close();
  json.key("measured")
      .open('{', true)
      .field("period_s", report.meas_period)
      .field("latency_mean_s", report.meas_latency_mean)
      .field("latency_p95_s", report.meas_latency_p95)
      .field("latency_p99_s", report.meas_latency_p99)
      .close();
  json.key("stages").open('[');
  for (const StageRow& row : report.stages) {
    json.open('{', true)
        .field("stage", row.stage)
        .field("devices", row.devices)
        .field("predicted_compute_s", row.pred_compute)
        .field("predicted_comm_s", row.pred_comm)
        .field("predicted_total_s", row.pred_total)
        .field("measured_compute_s", row.meas_compute)
        .field("measured_transfer_s", row.meas_transfer)
        .field("measured_total_s", row.meas_service)
        .close();
  }
  json.close().key("devices").open('[');
  for (const DeviceRow& row : report.devices) {
    json.open('{', true)
        .field("device", row.device)
        .field("reachable", row.reachable)
        .field("clock_offset_ns", row.offset_ns)
        .field("clock_rtt_ns", row.rtt_ns)
        .field("clock_error_bound_ns", row.error_bound_ns)
        .field("clock_samples", row.clock_samples)
        .field("requests", row.requests)
        .field("bytes_sent", row.bytes_sent)
        .field("bytes_received", row.bytes_received)
        .field("worker_spans", row.worker_spans)
        .field("compute_mean_s", row.compute.mean)
        .field("wire_request_mean_s", row.wire_request.mean)
        .field("wire_reply_mean_s", row.wire_reply.mean)
        .field("worker_queue_mean_s", row.worker_queue.mean)
        .close();
  }
  const obs::HealthSnapshot& health = report.health;
  json.close().key("health").open('{');
  json.field("rounds", health.rounds)
      .field("lambda_hat", health.lambda_hat)
      .field("md1_wait_predicted_s", health.md1_wait_predicted)
      .field("queue_wait_measured_s", health.queue_wait_measured)
      .field("healthy", health.healthy());
  json.key("devices").open('[');
  for (const obs::DeviceHealth& device : health.devices) {
    json.open('{', true)
        .field("device", device.device)
        .field("reachable", device.reachable)
        .field("window_compute_mean_s", device.window_compute_mean)
        .field("straggler_score", device.straggler_score)
        .field("straggler", device.straggler)
        .field("spans_harvested", device.spans_harvested)
        .field("trace_cursor", device.trace_cursor)
        .close();
  }
  json.close().key("events").open('[');
  for (const obs::HealthEvent& event : health.events) {
    json.open('{', true)
        .field("round", event.round)
        .field("kind", obs::health_event_kind_name(event.kind))
        .field("device", event.device)
        .field("stage", event.stage)
        .field("value", event.value)
        .field("blackbox_events", event.blackbox.size())
        .close();
  }
  json.close().close().key("recovery").open('{', true);
  json.key("dead_devices").open('[', true);
  for (const pico::DeviceId id : report.dead) json.value(id);
  json.close().field("replans", report.replans).close();
  json.field("spans", report.spans).field("trace", args.trace_out).close();
}

/// The --check gate.  Returns the number of failed checks (each printed).
int check_run(const Args& args, const RunReport& report) {
  int failures = 0;
  auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "pico_report: CHECK FAILED: " << what << "\n";
      ++failures;
    }
  };
  // A deliberately killed device is exempt from the liveness rows (it
  // legitimately ends the run unreachable); its own gate is below.
  auto is_dead = [&report](pico::DeviceId id) {
    return std::find(report.dead.begin(), report.dead.end(), id) !=
           report.dead.end();
  };
  for (const DeviceRow& row : report.devices) {
    if (is_dead(row.device)) continue;
    const std::string dev = "device " + std::to_string(row.device);
    check(row.reachable, dev + " unreachable at harvest");
    check(row.worker_spans > 0, dev + " produced no worker spans");
    check(row.clock_samples > 0, dev + " has no accepted clock samples");
  }
  const obs::HealthSnapshot& health = report.health;
  check(health.rounds > 0, "no harvest round completed");
  for (const obs::DeviceHealth& device : health.devices) {
    if (is_dead(device.device)) continue;
    check(device.reachable, "device " + std::to_string(device.device) +
                                " unreachable in the health snapshot");
  }
  // Death-recovery gate: with an injected kill the expectation is exact —
  // the named device and no other was declared down, the DeviceDown event
  // survived the epoch swap, and recovery actually replanned.
  if (args.expect_down >= 0) {
    check(args.kill_device >= 0,
          "--expect-device-down needs --kill-device to inject a death");
    check(is_dead(args.expect_down), "device " +
                                         std::to_string(args.expect_down) +
                                         " was not declared down");
    check(report.dead.size() <= 1, "more than one device was declared down");
    check(report.replans >= 1, "the device death did not trigger a replan");
    bool down_event = false;
    bool other_down = false;
    for (const obs::HealthEvent& event : health.events) {
      if (event.kind != obs::HealthEventKind::DeviceDown) continue;
      (event.device == args.expect_down ? down_event : other_down) = true;
    }
    check(down_event, "no DeviceDown health event for device " +
                          std::to_string(args.expect_down));
    check(!other_down, "DeviceDown health event for an unexpected device");
  }
  // Straggler flags gate only on request: on a loopback host a
  // heterogeneous *modeled* cluster runs on identical real cores, so
  // per-device wall times legitimately diverge from the plan's equal-time
  // sizing.  With an injected slowdown the expectation is exact.
  if (args.expect_straggler >= 0) {
    for (const obs::DeviceHealth& device : health.devices) {
      const bool expected = device.device == args.expect_straggler;
      check(device.straggler == expected,
            "device " + std::to_string(device.device) +
                (expected ? " was not flagged as the straggler"
                          : " falsely flagged as a straggler"));
    }
  }
  // Every harvested worker span must have been rebased into the local run
  // window (an unrebased span under injected skew lands far outside) and
  // every compute span must nest inside a serve span.
  const std::int64_t slack_ns =
      std::max<std::int64_t>(5'000'000, std::llabs(args.skew_ns) / 4);
  std::vector<const obs::SpanRecord*> serves;
  for (const obs::WorkerTelemetry& worker : report.workers) {
    for (const obs::SpanRecord& span : worker.spans) {
      if (span.name == "serve") serves.push_back(&span);
    }
  }
  for (const obs::WorkerTelemetry& worker : report.workers) {
    for (const obs::SpanRecord& span : worker.spans) {
      const std::string what = "span '" + span.name + "' of device " +
                               std::to_string(worker.device);
      check(span.start_ns >= report.start_ns - slack_ns &&
                span.start_ns + span.duration_ns <= report.end_ns + slack_ns,
            what + " not rebased into the run window");
      check(span.duration_ns >= 0, what + " has negative duration");
      if (span.name != "compute") continue;
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
  return failures;
}

int run_command(const Args& args) {
  const pico::nn::Graph graph = load_model(args);
  const pico::Cluster cluster = parse_cluster(args.cluster);
  const pico::NetworkModel network = network_model(args);
  const partition::Plan plan = make_plan(args, graph, cluster, network);
  const partition::PlanCost predicted =
      partition::plan_cost(graph, cluster, network, plan);

  obs::Registry& registry = obs::Registry::global();
  registry.reset_values();
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  obs::set_debug_clock_skew_ns(args.skew_ns);

  // Flags override the environment.
  runtime::RuntimeOptions options = runtime::RuntimeOptions::from_env({});
  options.transport = args.transport == "tcp"
                          ? runtime::TransportKind::Tcp
                          : runtime::TransportKind::InProcess;
  options.harvest_pings = args.pings;
  if (args.harvest_ms) options.harvest_ms = *args.harvest_ms;
  if (args.net_timeout_ms) options.net_timeout_ms = *args.net_timeout_ms;
  if (args.watch && options.harvest_ms == 0) options.harvest_ms = 50;
  if (args.slow_device >= 0) {
    runtime::set_debug_compute_delay_ms(args.slow_device, args.slow_ms);
  }

  pico::Tensor input(graph.node(plan.stages.front().first).in_shape);
  pico::Rng rng(7);
  input.randomize(rng);

  RunReport report;
  report.scheme = plan.scheme;
  report.start_ns = obs::Tracer::now_ns();
  std::vector<double> completion_s;
  // Submit/await/shutdown loop shared by the plain and the epoch runtimes.
  auto run_tasks = [&](auto& rt) {
    std::vector<std::future<pico::Tensor>> futures;
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
    const auto epoch = std::chrono::steady_clock::now();
    for (auto& f : futures) {
      f.get();
      completion_s.push_back(std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - epoch)
                                 .count());
      watch_tick();
    }
    rt.shutdown();  // stops the periodic thread, runs one final harvest
    report.workers = rt.cluster_telemetry().workers();
    report.health = rt.health();
  };
  if (args.kill_device >= 0) {
    // Churn: arm the chaos hook and run under the epoch runtime so the death
    // is detected, survivors replanned, and every accepted task still
    // completes.  Device ids stay in the full-cluster space.
    runtime::set_debug_worker_kill_after(args.kill_device, args.kill_after);
    runtime::EpochOptions epochs;
    epochs.runtime = options;
    epochs.network = network;
    epochs.replan = [&args, &network](const pico::nn::Graph& g,
                                      const pico::Cluster& survivors) {
      return std::vector<partition::Plan>{
          make_plan(args, g, survivors, network)};
    };
    runtime::EpochRuntime rt(graph, cluster, epochs);
    run_tasks(rt);
    report.dead = rt.dead_devices();
    report.replans = rt.replans();
    runtime::clear_debug_worker_faults();
  } else {
    runtime::PipelineRuntime rt(graph, plan, options);
    run_tasks(rt);
  }
  runtime::clear_debug_compute_delays();
  report.end_ns = obs::Tracer::now_ns();

  report.pred_period = predicted.period;
  report.pred_latency = predicted.latency;
  report.meas_period =
      args.tasks > 1
          ? (completion_s.back() - completion_s.front()) / (args.tasks - 1)
          : completion_s.back();
  const obs::Histogram& latency =
      registry.histogram("pico_task_latency_seconds");
  report.meas_latency_mean = latency.mean();
  report.meas_latency_p95 = latency.percentile(0.95);
  report.meas_latency_p99 = latency.percentile(0.99);

  std::vector<pico::DeviceId> devices;
  for (std::size_t s = 0; s < plan.stages.size(); ++s) {
    StageRow row;
    row.stage = s;
    for (const partition::DeviceSlice& slice : plan.stages[s].assignments) {
      devices.push_back(slice.device);
      if (!slice.out_region.empty() || !slice.branches.empty()) ++row.devices;
    }
    const partition::StageCost& cost = predicted.stages[s];
    row.pred_compute = cost.compute;
    row.pred_comm = cost.comm;
    row.pred_total = cost.total();
    const std::vector<obs::Label> labels{{"stage", std::to_string(s)}};
    row.meas_compute =
        registry.histogram("pico_stage_compute_critical_seconds", labels)
            .mean();
    row.meas_service =
        registry.histogram("pico_stage_service_seconds", labels).mean();
    // The coordinator's gather wait is dominated by remote compute, so the
    // measured comm/overhead is what is left of the service time after the
    // critical-path compute — the same decomposition as Eq. 9.
    row.meas_transfer = std::max(0.0, row.meas_service - row.meas_compute);
    report.stages.push_back(row);
  }
  std::sort(devices.begin(), devices.end());
  devices.erase(std::unique(devices.begin(), devices.end()), devices.end());

  for (const pico::DeviceId id : devices) {
    DeviceRow row;
    row.device = id;
    for (const obs::WorkerTelemetry& worker : report.workers) {
      if (worker.device != id) continue;
      row.reachable = worker.reachable;
      row.offset_ns = worker.offset_ns;
      row.rtt_ns = worker.rtt_ns;
      row.error_bound_ns = worker.error_bound_ns;
      row.clock_samples = worker.clock_samples;
      row.worker_spans = static_cast<long long>(worker.spans.size());
    }
    const std::vector<obs::Label> labels{{"device", std::to_string(id)}};
    row.requests =
        registry.counter("pico_device_requests_total", labels).value();
    row.bytes_sent =
        registry.counter("pico_net_bytes_sent_total", labels).value();
    row.bytes_received =
        registry.counter("pico_net_bytes_received_total", labels).value();
    row.compute = device_series(plan, "pico_stage_compute_seconds", id);
    row.wire_request = device_series(plan, "pico_wire_request_seconds", id);
    row.wire_reply = device_series(plan, "pico_wire_reply_seconds", id);
    row.worker_queue = device_series(plan, "pico_worker_queue_seconds", id);
    report.devices.push_back(row);
  }

  // Artifacts: the global tracer already holds the harvested, rebased
  // worker spans beside the coordinator's.
  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  report.spans = spans.size();
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
    for (obs::WorkerTelemetry worker : report.workers) {
      merged.add(std::move(worker));
    }
    std::ofstream out(args.metrics_out, std::ios::trunc);
    if (!out.good()) fail("cannot write " + args.metrics_out);
    out << merged.merged_prometheus(registry.prometheus_text());
  }

  if (args.json) {
    print_run_json(args, report);
  } else {
    print_run_text(args, report);
  }
  if (!args.check) return 0;
  if (const int failures = check_run(args, report); failures > 0) {
    std::cerr << "pico_report: " << failures << " check(s) failed\n";
    return 2;
  }
  // stderr: --json callers own stdout for the report itself.
  std::cerr << "all cluster-observability checks passed\n";
  return 0;
}

// ---------------------------------------------------------------------------
// postmortem
// ---------------------------------------------------------------------------

/// Decode the string-table-indexed args (check_failed files, plan_switch
/// scheme names) back to text where the code is known to intern.
std::string describe_args(const obs::Postmortem& pm,
                          const obs::PostmortemEvent& event) {
  auto interned = [&pm](std::int64_t index) -> std::string {
    if (index >= 0 && static_cast<std::size_t>(index) < pm.strings.size()) {
      return pm.strings[static_cast<std::size_t>(index)];
    }
    return "?";
  };
  const auto code = static_cast<obs::EventCode>(event.code);
  std::ostringstream os;
  if (code == obs::EventCode::PlanSwitch) {
    os << interned(event.args[0]) << " -> " << interned(event.args[1])
       << " (switch " << event.args[2] << ")";
  } else if (code == obs::EventCode::CheckFailed) {
    os << interned(event.args[1]) << ":" << event.args[0];
  } else {
    os << event.args[0] << " " << event.args[1] << " " << event.args[2] << " "
       << event.args[3];
  }
  return os.str();
}

/// Splice the journal into an existing Chrome trace as "ph":"i" instants on
/// their own track: everything up to the final ']' is kept verbatim.
void merge_into_trace(const Args& args, const obs::Postmortem& pm) {
  std::ifstream in(args.trace);
  if (!in.good()) fail("cannot read " + args.trace);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const std::size_t end = text.rfind(']');
  if (end == std::string::npos) {
    fail(args.trace + " does not look like a Chrome trace (no ']')");
  }
  const std::size_t last = text.find_last_not_of(" \t\r\n", end - 1);
  const bool empty_array = last == std::string::npos || text[last] == '[';

  // The recorder gets its own viewer row, far from the span tracks.
  constexpr long long kRecorderTrack = 990000;
  std::ostringstream os;
  os << text.substr(0, end) << (empty_array ? "" : ",")
     << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << kRecorderTrack
     << ",\"name\":\"thread_name\",\"args\":{\"name\":"
     << pico::json_string("flight recorder (pid " + std::to_string(pm.pid) +
                          ")")
     << "}}";
  os.precision(15);
  for (const obs::PostmortemEvent& event : pm.events) {
    os << ",{\"ph\":\"i\",\"pid\":0,\"tid\":" << kRecorderTrack
       << ",\"s\":\"t\",\"name\":" << pico::json_string(event.name)
       << ",\"cat\":\"recorder\",\"ts\":"
       << static_cast<double>(event.t_ns) / 1e3
       << ",\"args\":{\"seq\":" << event.seq
       << ",\"thread\":" << pico::json_string(pm.thread_name(event.tid))
       << ",\"detail\":" << pico::json_string(describe_args(pm, event))
       << "}}";
  }
  os << text.substr(end);

  std::ofstream out(args.out, std::ios::trunc);
  out << os.str();
  if (!out.good()) fail("cannot write " + args.out);
}

void print_postmortem_text(const Args& args, const obs::Postmortem& pm) {
  std::printf("postmortem of pid %d — %s", pm.pid, pm.reason.c_str());
  if (pm.signal_number != 0) std::printf(" (signal %d)", pm.signal_number);
  if (args.offset_ns != 0) std::printf(", rebased by -%lld ns", args.offset_ns);
  std::printf("\n\ncausal timeline (%zu event(s)):\n", pm.events.size());
  std::int64_t last_ns = pm.events.empty() ? 0 : pm.events.front().t_ns;
  for (const obs::PostmortemEvent& event : pm.events) {
    const std::string thread = pm.thread_name(event.tid);
    std::printf("  %8llu  %14lld ns  %+10lld  %-14s %-18s %s\n",
                static_cast<unsigned long long>(event.seq),
                static_cast<long long>(event.t_ns),
                static_cast<long long>(event.t_ns - last_ns),
                thread.empty() ? ("tid " + std::to_string(event.tid)).c_str()
                               : thread.c_str(),
                event.name.c_str(), describe_args(pm, event).c_str());
    last_ns = event.t_ns;
  }
  if (!pm.spans.empty()) {
    std::printf("\nin flight at death (%zu open span(s)):\n", pm.spans.size());
    for (const obs::PostmortemSpan& span : pm.spans) {
      std::printf("  %-14s started %lld ns, track %lld, task %lld, thread %s\n",
                  span.name.c_str(), static_cast<long long>(span.start_ns),
                  static_cast<long long>(span.track),
                  static_cast<long long>(span.task_id),
                  pm.thread_name(span.tid).c_str());
    }
  }
  if (!pm.metrics.empty()) {
    std::printf("\nmetrics snapshot (%zu):\n", pm.metrics.size());
    for (const obs::PostmortemMetric& metric : pm.metrics) {
      // labels arrive rendered, braces included.
      std::printf("  %-44s count %lld value %.9g\n",
                  (metric.name + metric.labels).c_str(),
                  static_cast<long long>(metric.count), metric.value);
    }
  }
}

void print_postmortem_json(const Args& args, const obs::Postmortem& pm) {
  JsonWriter json(std::cout);
  json.open('{')
      .field("postmortem", args.postmortem)
      .field("pid", pm.pid)
      .field("reason", pm.reason)
      .field("signal", pm.signal_number)
      .field("offset_ns", args.offset_ns);
  json.key("events").open('[');
  for (const obs::PostmortemEvent& event : pm.events) {
    json.open('{', true)
        .field("seq", event.seq)
        .field("t_ns", event.t_ns)
        .field("thread", pm.thread_name(event.tid))
        .field("name", event.name)
        .field("detail", describe_args(pm, event))
        .close();
  }
  json.close().key("open_spans").open('[');
  for (const obs::PostmortemSpan& span : pm.spans) {
    json.open('{', true)
        .field("name", span.name)
        .field("start_ns", span.start_ns)
        .field("track", span.track)
        .field("task", span.task_id)
        .field("thread", pm.thread_name(span.tid))
        .close();
  }
  json.close().key("metrics").open('[');
  for (const obs::PostmortemMetric& metric : pm.metrics) {
    json.open('{', true)
        .field("name", metric.name)
        .field("labels", metric.labels)
        .field("count", metric.count)
        .field("value", metric.value)
        .close();
  }
  json.close().close();
}

int postmortem_command(const Args& args) {
  obs::Postmortem pm;
  try {
    pm = obs::load_postmortem(args.postmortem);
  } catch (const std::exception& error) {
    fail(error.what());
  }
  // A uniform shift keeps the seq-sorted events sorted in time too.
  for (obs::PostmortemEvent& event : pm.events) event.t_ns -= args.offset_ns;
  for (obs::PostmortemSpan& span : pm.spans) span.start_ns -= args.offset_ns;

  if (args.json) {
    print_postmortem_json(args, pm);
  } else {
    print_postmortem_text(args, pm);
  }
  if (!args.trace.empty()) {
    merge_into_trace(args, pm);
    std::cerr << "pico_report: merged " << pm.events.size()
              << " event(s) into " << args.out << "\n";
  }
  int failures = 0;
  for (const std::string& expected : args.expect_events) {
    const bool found = std::any_of(
        pm.events.begin(), pm.events.end(),
        [&](const obs::PostmortemEvent& event) {
          return event.name == expected;
        });
    if (!found) {
      std::cerr << "pico_report: CHECK FAILED: postmortem has no '"
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

// ---------------------------------------------------------------------------
// audit
// ---------------------------------------------------------------------------

int audit_command(const Args& args) {
  const pico::nn::Graph graph = load_model(args);
  const pico::Cluster cluster = parse_cluster(args.cluster);
  const pico::NetworkModel network = network_model(args);
  const partition::Plan plan = make_plan(args, graph, cluster, network);

  pico::analysis::AuditOptions options;
  if (args.memory_limit_mb > 0.0) {
    options.device_memory_limit = args.memory_limit_mb * 1024.0 * 1024.0;
  }
  if (args.tlim > 0.0) options.latency_limit = args.tlim;
  options.redundancy_warning = args.redundancy_warn;

  const pico::analysis::AuditReport report =
      pico::analysis::audit_plan(graph, cluster, network, plan, options);
  const std::string rendered =
      args.json ? pico::analysis::to_json(report) + "\n"
                : pico::analysis::to_text(report);
  if (args.output.empty()) {
    std::cout << rendered;
  } else {
    std::ofstream out(args.output);
    out << rendered;
    if (!out.good()) fail("cannot write " + args.output);
  }
  return report.ok() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    switch (args.command) {
      case kRun: return run_command(args);
      case kPostmortem: return postmortem_command(args);
      default: return audit_command(args);
    }
  } catch (const std::exception& error) {
    std::cerr << "pico_report: " << error.what() << "\n";
    return 1;
  }
}
