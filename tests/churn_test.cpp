// Worker-death chaos tests: transport deadlines (TimeoutError paths),
// heartbeat failure detection, and the EpochRuntime recovery path — kill or
// wedge a worker mid-stream in a loopback cluster and assert that every
// accepted inference still completes bit-exactly over the survivors, also
// while APICO switches scheme.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "models/zoo.hpp"
#include "nn/executor.hpp"
#include "obs/flight_recorder.hpp"
#include "partition/pico_dp.hpp"
#include "partition/schemes.hpp"
#include "runtime/message.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/epoch_runtime.hpp"
#include "runtime/transport.hpp"
#include "runtime/worker.hpp"

namespace pico::runtime {
// Internal (pipeline.cpp) but external-linkage so the stale-frame drain is
// unit-testable.
Message expect_reply(Connection& connection, MessageType want);
}  // namespace pico::runtime

namespace pico {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

NetworkModel test_network() {
  NetworkModel net;
  net.bandwidth = 50e6 / 8.0;
  net.per_message_overhead = 1e-3;
  return net;
}

/// Chaos hooks are process-global; never leak them past a test (even a
/// failing one).
struct FaultGuard {
  FaultGuard() { runtime::clear_debug_worker_faults(); }
  ~FaultGuard() { runtime::clear_debug_worker_faults(); }
};

// ---------------------------------------------------------------------------
// Transport deadlines
// ---------------------------------------------------------------------------

TEST(TransportTimeout, InProcIdleRecvThrowsTimeout) {
  auto [a, b] = runtime::make_inproc_pair();
  a->set_timeout_ms(50);
  const auto t0 = Clock::now();
  try {
    a->recv();
    FAIL() << "recv did not time out";
  } catch (const TimeoutError& error) {
    EXPECT_FALSE(error.mid_frame());
  }
  EXPECT_GE(Clock::now() - t0, 40ms);
}

TEST(TransportTimeout, TcpIdleRecvThrowsTimeout) {
  runtime::TcpListener listener;
  std::unique_ptr<runtime::Connection> client;
  std::thread connector(
      [&] { client = runtime::tcp_connect(listener.port()); });
  auto server = listener.accept();
  connector.join();
  server->set_timeout_ms(50);
  try {
    server->recv();
    FAIL() << "recv did not time out";
  } catch (const TimeoutError& error) {
    EXPECT_FALSE(error.mid_frame());  // idle: no frame had started
  }
}

TEST(TransportTimeout, TcpMidFrameStallThrowsMidFrameTimeout) {
  // A peer that sends the length prefix and then goes silent has started a
  // frame the stream can never re-synchronize past: the timeout must be
  // flagged mid-frame so callers know the connection is unusable.
  runtime::TcpListener listener;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  ASSERT_EQ(1, inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr));
  ASSERT_EQ(0, ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)));
  auto server = listener.accept();
  const std::uint64_t promised_length = 64;  // ...but never send the payload
  ASSERT_EQ(static_cast<ssize_t>(sizeof(promised_length)),
            ::send(fd, &promised_length, sizeof(promised_length), 0));
  server->set_timeout_ms(100);
  try {
    server->recv();
    FAIL() << "recv did not time out";
  } catch (const TimeoutError& error) {
    EXPECT_TRUE(error.mid_frame());
  }
  ::close(fd);
}

TEST(TransportTimeout, ZeroTimeoutStillDeliversFrames) {
  auto [a, b] = runtime::make_inproc_pair();
  a->set_timeout_ms(200);
  runtime::Message ping;
  ping.type = runtime::MessageType::Ping;
  ping.task_id = 7;
  b->send(ping);
  const runtime::Message got = a->recv();
  EXPECT_EQ(got.type, runtime::MessageType::Ping);
  EXPECT_EQ(got.task_id, 7);
}

TEST(Transport, ConnectByExplicitHost) {
  runtime::TcpListener listener;
  std::unique_ptr<runtime::Connection> client;
  std::thread connector(
      [&] { client = runtime::tcp_connect("127.0.0.1", listener.port()); });
  auto server = listener.accept();
  connector.join();
  runtime::Message hello;
  hello.type = runtime::MessageType::Ping;
  client->send(hello);
  EXPECT_EQ(server->recv().type, runtime::MessageType::Ping);
}

TEST(Transport, ConnectToUnresolvableHostThrows) {
  EXPECT_THROW(runtime::tcp_connect("no-such-host.invalid", 1), TransportError);
}

// ---------------------------------------------------------------------------
// expect_reply stale-frame drain
// ---------------------------------------------------------------------------

TEST(ExpectReply, DrainsStaleWorkResultsUpToTheReply) {
  auto [coordinator, worker] = runtime::make_inproc_pair();
  for (int i = 0; i < 3; ++i) {
    runtime::Message stale;
    stale.type = runtime::MessageType::WorkResult;
    stale.task_id = 100 + i;
    worker->send(stale);
  }
  runtime::Message pong;
  pong.type = runtime::MessageType::Pong;
  pong.task_id = 42;
  worker->send(pong);
  const runtime::Message got =
      runtime::expect_reply(*coordinator, runtime::MessageType::Pong);
  EXPECT_EQ(got.type, runtime::MessageType::Pong);
  EXPECT_EQ(got.task_id, 42);
}

TEST(ExpectReply, BoundsTheDrainByStaleFrameCount) {
  // A runaway peer flooding data-plane frames must not starve the control
  // plane forever: the drain gives up after its stale-frame budget.
  auto [coordinator, worker] = runtime::make_inproc_pair();
  for (int i = 0; i < 4096; ++i) {
    runtime::Message stale;
    stale.type = runtime::MessageType::WorkResult;
    stale.task_id = i;
    worker->send(stale);
  }
  EXPECT_THROW(
      runtime::expect_reply(*coordinator, runtime::MessageType::Pong),
      TransportError);
}

// ---------------------------------------------------------------------------
// Heartbeat detection (PipelineRuntime level)
// ---------------------------------------------------------------------------

TEST(Heartbeat, IdleDeathDetectedAndPromotedToDeviceFailure) {
  // A worker that dies *between* tasks produces no data-plane error; only
  // the heartbeat (harvest round trips) can notice.  Device 1's connection
  // is closed from the worker side before any task flows: after
  // heartbeat_missed_rounds consecutive failed round trips the policy must
  // declare it down and poison the runtime.
  nn::Graph graph = models::synthetic_chain(3, 32, 8);
  Rng rng(11);
  graph.randomize_weights(rng);
  const Cluster cluster = Cluster::paper_homogeneous(2, 1.0);
  const partition::Plan plan =
      partition::pico_plan(graph, cluster, test_network());

  std::map<DeviceId, std::unique_ptr<runtime::Connection>> connections;
  std::vector<std::unique_ptr<runtime::Worker>> workers;
  std::vector<DeviceId> devices;
  for (const auto& stage : plan.stages) {
    for (const auto& slice : stage.assignments) {
      if (connections.count(slice.device) != 0) continue;
      devices.push_back(slice.device);
      auto [coordinator_end, worker_end] = runtime::make_inproc_pair();
      if (devices.size() == 1) {
        workers.push_back(std::make_unique<runtime::Worker>(
            graph, std::move(worker_end), slice.device));
        workers.back()->start();
      } else {
        worker_end->close();  // dead on arrival, silently
      }
      connections.emplace(slice.device, std::move(coordinator_end));
    }
  }
  ASSERT_GE(devices.size(), 2u) << "plan must span both devices";
  const DeviceId victim = devices[1];

  runtime::RuntimeOptions options;
  options.harvest_ms = 50;
  options.heartbeat_missed_rounds = 2;
  runtime::PipelineRuntime rt(graph, plan, std::move(connections), options);

  const auto t0 = Clock::now();
  std::vector<DeviceId> failed;
  while (Clock::now() - t0 < 5s) {
    failed = rt.failed_devices();
    if (!failed.empty()) break;
    std::this_thread::sleep_for(10ms);
  }
  const auto detection = Clock::now() - t0;
  ASSERT_EQ(failed, std::vector<DeviceId>{victim});
  // Detection latency is bounded by missed_rounds x harvest period (plus
  // scheduling slack; the factor-of-2 acceptance bound plus margin).
  EXPECT_LT(detection, 2s);

  const obs::HealthSnapshot health = rt.health();
  bool saw_down = false;
  for (const obs::HealthEvent& event : health.events) {
    if (event.kind == obs::HealthEventKind::DeviceDown &&
        event.device == victim) {
      saw_down = true;
    }
  }
  EXPECT_TRUE(saw_down);
  rt.shutdown();
}

TEST(Heartbeat, DeviceDownEventCarriesHarvestedBlackBox) {
  // Both workers live long enough for harvest rounds to pull their flight
  // recorder (EventDump); then the victim dies *between* tasks.  The
  // DeviceDown health event must carry the last harvested journal — the
  // cluster keeps a black box for a device that can no longer dump one.
  nn::Graph graph = models::synthetic_chain(3, 32, 8);
  Rng rng(12);
  graph.randomize_weights(rng);
  const Cluster cluster = Cluster::paper_homogeneous(2, 1.0);
  const partition::Plan plan =
      partition::pico_plan(graph, cluster, test_network());

  std::map<DeviceId, std::unique_ptr<runtime::Connection>> connections;
  std::vector<std::unique_ptr<runtime::Worker>> workers;
  std::vector<DeviceId> devices;
  for (const auto& stage : plan.stages) {
    for (const auto& slice : stage.assignments) {
      if (connections.count(slice.device) != 0) continue;
      devices.push_back(slice.device);
      auto [coordinator_end, worker_end] = runtime::make_inproc_pair();
      workers.push_back(std::make_unique<runtime::Worker>(
          graph, std::move(worker_end), slice.device));
      workers.back()->start();
      connections.emplace(slice.device, std::move(coordinator_end));
    }
  }
  ASSERT_GE(devices.size(), 2u) << "plan must span both devices";
  const DeviceId victim = devices[1];

  runtime::RuntimeOptions options;
  options.harvest_ms = 30;
  options.heartbeat_missed_rounds = 2;
  runtime::PipelineRuntime rt(graph, plan, std::move(connections), options);

  // Let at least two rounds succeed so the harvester has retained a ring.
  const auto t0 = Clock::now();
  while (rt.health().rounds < 2 && Clock::now() - t0 < 5s) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_GE(rt.health().rounds, 2) << "harvest rounds never completed";

  workers[1]->stop();  // idle death: only the heartbeat can notice
  std::vector<DeviceId> failed;
  const auto t1 = Clock::now();
  while (Clock::now() - t1 < 5s) {
    failed = rt.failed_devices();
    if (!failed.empty()) break;
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_EQ(failed, std::vector<DeviceId>{victim});

  const obs::HealthSnapshot health = rt.health();
  bool saw_down = false;
  for (const obs::HealthEvent& event : health.events) {
    if (event.kind != obs::HealthEventKind::DeviceDown ||
        event.device != victim) {
      continue;
    }
    saw_down = true;
    EXPECT_FALSE(event.blackbox.empty())
        << "DeviceDown must carry the device's last harvested journal";
    for (const obs::EventRecord& record : event.blackbox) {
      EXPECT_GT(record.seq, 0u);
      EXPECT_NE(obs::event_code_name(
                    static_cast<obs::EventCode>(record.code)),
                std::string("?"));
    }
  }
  EXPECT_TRUE(saw_down);
  rt.shutdown();
}

// ---------------------------------------------------------------------------
// EpochRuntime recovery
// ---------------------------------------------------------------------------

runtime::EpochOptions chaos_options(runtime::RuntimeOptions runtime_opts) {
  runtime::EpochOptions options;
  options.runtime = runtime_opts;
  options.network = test_network();
  return options;
}

DeviceId pick_victim(const partition::Plan& plan) {
  return plan.stages.front().assignments.front().device;
}

TEST(Churn, HardKillMidStreamRecoversAndCompletesEveryTask) {
  FaultGuard guard;
  nn::Graph graph = models::synthetic_chain(6, 48, 8);
  Rng rng(2026);
  graph.randomize_weights(rng);
  const Cluster cluster = Cluster::raspberry_pi({1.2, 1.0, 0.8});

  constexpr int kTasks = 12;
  std::vector<Tensor> inputs;
  std::vector<Tensor> references;
  for (int i = 0; i < kTasks; ++i) {
    Tensor input(graph.input_shape());
    input.randomize(rng);
    references.push_back(nn::execute(graph, input));
    inputs.push_back(std::move(input));
  }

  runtime::RuntimeOptions runtime_opts;
  runtime_opts.transport = runtime::TransportKind::Tcp;  // loopback cluster
  runtime_opts.harvest_ms = 50;
  runtime::EpochRuntime rt(graph, cluster, chaos_options(runtime_opts));
  const DeviceId victim = pick_victim(rt.plan());
  // The victim drops its connection on its 3rd request — mid-stream, with
  // tasks queued behind it.  EOF detection needs no timeout.
  runtime::set_debug_worker_kill_after(victim, 3);

  const std::uint64_t seq_floor = obs::FlightRecorder::global().next_seq();
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < kTasks; ++i) futures.push_back(rt.submit(inputs[i]));
  for (int i = 0; i < kTasks; ++i) {
    const Tensor out = futures[i].get();  // throws if any task was dropped
    EXPECT_FLOAT_EQ(Tensor::max_abs_diff(out, references[i]), 0.0f)
        << "task " << i;
  }
  // The retired epoch names its first dead device (a1, -1 for none).
  if (obs::FlightRecorder::global().enabled()) {
    bool retired_on_victim = false;
    for (const obs::EventRecord& event :
         obs::FlightRecorder::global().snapshot()) {
      if (event.seq >= seq_floor &&
          event.code == static_cast<std::uint16_t>(
                            obs::EventCode::EpochRetire) &&
          event.args[1] == victim) {
        retired_on_victim = true;
      }
    }
    EXPECT_TRUE(retired_on_victim);
  }

  EXPECT_GE(rt.replans(), 1);
  EXPECT_EQ(rt.dead_devices(), std::vector<DeviceId>{victim});
  EXPECT_EQ(rt.survivors().size(), cluster.size() - 1);
  for (const auto& stage : rt.plan().stages) {
    for (const auto& slice : stage.assignments) {
      EXPECT_NE(slice.device, victim) << "replanned over a dead device";
    }
  }
  rt.shutdown();
  const obs::HealthSnapshot health = rt.health();
  bool saw_down = false;
  for (const obs::HealthEvent& event : health.events) {
    if (event.kind == obs::HealthEventKind::DeviceDown &&
        event.device == victim) {
      saw_down = true;
    }
  }
  EXPECT_TRUE(saw_down);
  EXPECT_EQ(rt.tasks_completed(), kTasks);
}

TEST(Churn, HungWorkerDetectedByDeadlineWithinBound) {
  FaultGuard guard;
  nn::Graph graph = models::synthetic_chain(4, 32, 8);
  Rng rng(404);
  graph.randomize_weights(rng);
  const Cluster cluster = Cluster::raspberry_pi({1.2, 1.0, 0.8});

  runtime::RuntimeOptions runtime_opts;
  runtime_opts.transport = runtime::TransportKind::Tcp;
  runtime_opts.net_timeout_ms = 750;  // hang recovery needs a deadline
  runtime_opts.harvest_ms = 150;
  runtime_opts.heartbeat_missed_rounds = 2;
  runtime::EpochRuntime rt(graph, cluster, chaos_options(runtime_opts));
  const DeviceId victim = pick_victim(rt.plan());

  Tensor input(graph.input_shape());
  input.randomize(rng);
  const Tensor reference = nn::execute(graph, input);
  // Warm-up proves the pipe works before the wedge.
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(rt.infer(input), reference), 0.0f);

  // Wedge the victim's reply leg: the coordinator sees silence, not EOF.
  runtime::set_debug_worker_stall(victim, true);
  const auto t0 = Clock::now();
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(rt.submit(input));

  std::vector<DeviceId> dead;
  while (Clock::now() - t0 < 15s) {
    dead = rt.dead_devices();
    if (!dead.empty()) break;
    std::this_thread::sleep_for(10ms);
  }
  const double detection_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  ASSERT_EQ(dead, std::vector<DeviceId>{victim});
  // Acceptance bound: twice the heartbeat interval, where one interval is
  // missed_rounds x harvest period + the transport deadline.
  const double interval_s = 2 * 0.150 + 0.750;
  EXPECT_LT(detection_s, 2.0 * interval_s);

  runtime::set_debug_worker_stall(victim, false);
  for (auto& future : futures) {
    EXPECT_FLOAT_EQ(Tensor::max_abs_diff(future.get(), reference), 0.0f);
  }
  EXPECT_GE(rt.replans(), 1);
  rt.shutdown();
}

TEST(Churn, RejoinRestoresFullMembership) {
  FaultGuard guard;
  nn::Graph graph = models::synthetic_chain(4, 32, 8);
  Rng rng(17);
  graph.randomize_weights(rng);
  const Cluster cluster = Cluster::raspberry_pi({1.2, 1.0, 0.8});
  Tensor input(graph.input_shape());
  input.randomize(rng);
  const Tensor reference = nn::execute(graph, input);

  runtime::RuntimeOptions runtime_opts;
  runtime_opts.transport = runtime::TransportKind::InProcess;
  runtime::EpochRuntime rt(graph, cluster, chaos_options(runtime_opts));
  const DeviceId victim = pick_victim(rt.plan());
  runtime::set_debug_worker_kill_after(victim, 1);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(rt.infer(input), reference), 0.0f);
  ASSERT_EQ(rt.dead_devices(), std::vector<DeviceId>{victim});

  runtime::clear_debug_worker_faults();
  rt.rejoin(victim);
  const auto t0 = Clock::now();
  while (Clock::now() - t0 < 10s) {
    // Membership is restored before the rejoin replan is counted; wait for
    // the counter too so the assertions below see the settled state.
    if (rt.dead_devices().empty() && rt.survivors().size() == cluster.size() &&
        rt.replans() >= 2) {
      break;
    }
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(rt.dead_devices().empty());
  EXPECT_EQ(rt.survivors().size(), cluster.size());
  EXPECT_GE(rt.replans(), 2);  // death + rejoin each replanned
  // The re-admitted device serves again.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(Tensor::max_abs_diff(rt.infer(input), reference), 0.0f);
  }
  rt.shutdown();
}

TEST(Churn, ClusterExhaustionFailsTasksInsteadOfHanging) {
  FaultGuard guard;
  nn::Graph graph = models::synthetic_chain(3, 32, 8);
  Rng rng(5);
  graph.randomize_weights(rng);
  const Cluster cluster = Cluster::paper_homogeneous(2, 1.0);
  Tensor input(graph.input_shape());
  input.randomize(rng);

  runtime::RuntimeOptions runtime_opts;
  runtime_opts.transport = runtime::TransportKind::InProcess;
  runtime::EpochRuntime rt(graph, cluster, chaos_options(runtime_opts));
  // Every device dies on its first request, epoch after epoch, until no
  // survivor remains to plan over.
  for (const Device& device : cluster.devices()) {
    runtime::set_debug_worker_kill_after(device.id, 1);
  }
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(rt.submit(input));
  int failures = 0;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (const TransportError&) {
      ++failures;
    }
  }
  EXPECT_EQ(failures, 3);
  // The runtime is terminal, not wedged: a late submit fails fast too.
  EXPECT_THROW(rt.submit(input).get(), TransportError);
  rt.shutdown();
}

// APICO and recovery compose: an {OFL, PICO} runtime loses a device in
// mid-stream, replans both candidates over the survivors, keeps switching
// scheme afterwards, and returns every accepted task bit-exactly.
TEST(Churn, SchemeSwitchingSurvivesMidStreamDeath) {
  FaultGuard guard;
  nn::Graph graph = models::toy_mnist({.input_size = 32});
  Rng rng(91);
  graph.randomize_weights(rng);
  const Cluster cluster = Cluster::paper_heterogeneous();
  Tensor input(graph.input_shape());
  input.randomize(rng);
  const Tensor reference = nn::execute(graph, input);

  runtime::EpochOptions options = chaos_options(runtime::RuntimeOptions{});
  options.replan = [](const nn::Graph& g, const Cluster& members) {
    return std::vector<partition::Plan>{
        partition::ofl_plan(g, members, test_network()),
        partition::pico_plan(g, members, test_network())};
  };
  options.beta = 1.0;
  options.window = 0.05;
  runtime::EpochRuntime rt(graph, cluster, options);

  // A burst, a window boundary, one more arrival: the busy window lifts λ̂
  // past the crossover.  Every result must be exact.
  auto burst = [&] {
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < 40; ++i) futures.push_back(rt.submit(input));
    std::this_thread::sleep_for(50ms + 30ms);
    futures.push_back(rt.submit(input));
    for (auto& future : futures) {
      EXPECT_FLOAT_EQ(Tensor::max_abs_diff(future.get(), reference), 0.0f);
    }
  };
  burst();
  if (rt.current_scheme() != "PICO") {
    GTEST_SKIP() << "machine served the burst below the switching rate";
  }

  // Kill a device both candidates use, so the death lands whichever scheme
  // is active when its second request arrives.
  const std::vector<adaptive::Candidate> before = rt.candidates();
  ASSERT_EQ(before.size(), 2u);
  auto uses = [](const partition::Plan& plan, DeviceId device) {
    for (const auto& stage : plan.stages) {
      for (const auto& slice : stage.assignments) {
        if (slice.device == device) return true;
      }
    }
    return false;
  };
  DeviceId victim = -1;
  for (const Device& device : cluster.devices()) {
    if (uses(before[0].plan, device.id) && uses(before[1].plan, device.id)) {
      victim = device.id;
      break;
    }
  }
  ASSERT_GE(victim, 0) << "OFL and PICO share no device";
  runtime::set_debug_worker_kill_after(victim, 2);
  burst();

  EXPECT_EQ(rt.dead_devices(), std::vector<DeviceId>{victim});
  EXPECT_GE(rt.replans(), 1);
  EXPECT_EQ(rt.survivors().size(), cluster.size() - 1);
  const std::vector<adaptive::Candidate> after = rt.candidates();
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0].plan.scheme, before[0].plan.scheme);
  EXPECT_EQ(after[1].plan.scheme, before[1].plan.scheme);
  for (const adaptive::Candidate& candidate : after) {
    EXPECT_FALSE(uses(candidate.plan, victim))
        << candidate.plan.scheme << " replanned over a dead device";
  }

  // Still adaptive after the death: with no arrivals λ̂ decays and the
  // runtime moves to the other scheme over the survivors.
  const int switches_after_death = rt.switches();
  const std::string from = rt.current_scheme();
  if (from == "PICO") {
    const auto t0 = Clock::now();
    while (rt.current_scheme() == "PICO" && Clock::now() - t0 < 5s) {
      std::this_thread::sleep_for(10ms);
    }
  } else {
    burst();
    if (rt.current_scheme() == from) {
      GTEST_SKIP() << "machine served the burst below the switching rate";
    }
  }
  EXPECT_NE(rt.current_scheme(), from);
  EXPECT_GT(rt.switches(), switches_after_death);
  EXPECT_FALSE(uses(rt.plan(), victim));
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(rt.infer(input), reference), 0.0f);
  rt.shutdown();
  EXPECT_EQ(rt.dead_devices(), std::vector<DeviceId>{victim});
}

}  // namespace
}  // namespace pico
