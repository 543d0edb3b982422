#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <thread>

#include "common/rng.hpp"
#include "models/zoo.hpp"
#include "nn/executor.hpp"
#include "obs/metrics.hpp"
#include "partition/pico_dp.hpp"
#include "partition/schemes.hpp"
#include "runtime/channel.hpp"
#include "runtime/message.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/worker.hpp"
#include "runtime/transport.hpp"

namespace pico {
namespace {

using runtime::BoundedQueue;
using runtime::Message;
using runtime::MessageType;

NetworkModel test_network() {
  NetworkModel net;
  net.bandwidth = 50e6 / 8.0;
  net.per_message_overhead = 1e-3;
  return net;
}

TEST(Channel, FifoOrder) {
  BoundedQueue<int> queue;
  for (int i = 0; i < 10; ++i) queue.push(i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(queue.pop(), i);
}

TEST(Channel, BlocksWhenFullUntilPopped) {
  BoundedQueue<int> queue(2);
  queue.push(1);
  queue.push(2);
  std::thread producer([&] { queue.push(3); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop(), 1);
  producer.join();
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), 3);
}

TEST(Channel, CloseDrainsThenNullopt) {
  BoundedQueue<int> queue;
  queue.push(7);
  queue.close();
  EXPECT_EQ(queue.pop(), 7);
  EXPECT_EQ(queue.pop(), std::nullopt);
  EXPECT_THROW(queue.push(8), TransportError);
}

TEST(Channel, CloseWakesBlockedPop) {
  BoundedQueue<int> queue;
  std::thread consumer([&] { EXPECT_EQ(queue.pop(), std::nullopt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  consumer.join();
}

Message sample_message() {
  Message m;
  m.type = MessageType::WorkRequest;
  m.task_id = 42;
  m.stage_index = 3;
  m.first_node = 5;
  m.last_node = 9;
  m.in_region = {1, 7, 0, 16};
  m.out_region = {2, 5, 0, 16};
  m.compute_seconds = 0.125;
  m.tensor = Tensor({2, 6, 16});
  Rng rng(3);
  m.tensor.randomize(rng);
  return m;
}

TEST(Message, SerializeRoundTrip) {
  const Message original = sample_message();
  const auto bytes = runtime::serialize(original);
  const Message decoded = runtime::deserialize(bytes.data(), bytes.size());
  EXPECT_EQ(decoded.type, original.type);
  EXPECT_EQ(decoded.task_id, original.task_id);
  EXPECT_EQ(decoded.stage_index, original.stage_index);
  EXPECT_EQ(decoded.first_node, original.first_node);
  EXPECT_EQ(decoded.last_node, original.last_node);
  EXPECT_EQ(decoded.in_region, original.in_region);
  EXPECT_EQ(decoded.out_region, original.out_region);
  EXPECT_EQ(decoded.compute_seconds, original.compute_seconds);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(decoded.tensor, original.tensor),
                  0.0f);
}

TEST(Message, DeserializeRejectsTruncation) {
  const auto bytes = runtime::serialize(sample_message());
  EXPECT_THROW(runtime::deserialize(bytes.data(), bytes.size() - 4),
               InvariantError);
  EXPECT_THROW(runtime::deserialize(bytes.data(), 3), InvariantError);
}

TEST(Message, EmptyTensorRoundTrip) {
  Message m;
  m.type = MessageType::Shutdown;
  const auto bytes = runtime::serialize(m);
  const Message decoded = runtime::deserialize(bytes.data(), bytes.size());
  EXPECT_EQ(decoded.type, MessageType::Shutdown);
  EXPECT_EQ(decoded.tensor.size(), 0);
}

TEST(Transport, InProcRoundTrip) {
  auto [a, b] = runtime::make_inproc_pair();
  const Message original = sample_message();
  a->send(original);
  const Message got = b->recv();
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(got.tensor, original.tensor), 0.0f);
  b->send(got);
  const Message back = a->recv();
  EXPECT_EQ(back.task_id, original.task_id);
}

TEST(Transport, InProcCloseUnblocksPeer) {
  auto [a, b] = runtime::make_inproc_pair();
  std::thread waiter([&b = b] { EXPECT_THROW(b->recv(), TransportError); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  a->close();
  waiter.join();
}

TEST(Transport, TcpRoundTrip) {
  runtime::TcpListener listener;
  std::unique_ptr<runtime::Connection> client;
  std::thread connector(
      [&] { client = runtime::tcp_connect(listener.port()); });
  auto server = listener.accept();
  connector.join();

  const Message original = sample_message();
  client->send(original);
  const Message got = server->recv();
  EXPECT_EQ(got.task_id, original.task_id);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(got.tensor, original.tensor), 0.0f);
  server->send(got);
  const Message back = client->recv();
  EXPECT_EQ(back.out_region, original.out_region);
}

TEST(Transport, TcpLargeTensor) {
  runtime::TcpListener listener;
  std::unique_ptr<runtime::Connection> client;
  std::thread connector(
      [&] { client = runtime::tcp_connect(listener.port()); });
  auto server = listener.accept();
  connector.join();

  Message big;
  big.type = MessageType::WorkResult;
  big.tensor = Tensor({64, 128, 128});  // 4 MiB payload
  Rng rng(9);
  big.tensor.randomize(rng);
  std::thread sender([&] { client->send(big); });
  const Message got = server->recv();
  sender.join();
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(got.tensor, big.tensor), 0.0f);
}

TEST(Transport, TcpCloseUnblocksRecv) {
  runtime::TcpListener listener;
  std::unique_ptr<runtime::Connection> client;
  std::thread connector(
      [&] { client = runtime::tcp_connect(listener.port()); });
  auto server = listener.accept();
  connector.join();
  std::thread waiter([&] { EXPECT_THROW(server->recv(), TransportError); });
  client->close();
  waiter.join();
}

class RuntimeFixture : public ::testing::Test {
 protected:
  RuntimeFixture()
      : graph_(models::toy_mnist({.input_size = 32})),
        cluster_(Cluster::paper_heterogeneous()) {
    Rng rng(7);
    graph_.randomize_weights(rng);
    input_ = Tensor(graph_.input_shape());
    input_.randomize(rng);
    reference_ = nn::execute(graph_, input_);
  }

  nn::Graph graph_;
  Cluster cluster_;
  Tensor input_;
  Tensor reference_;
};

TEST_F(RuntimeFixture, PicoPipelineMatchesReference) {
  const auto plan = partition::pico_plan(graph_, cluster_, test_network());
  runtime::PipelineRuntime rt(graph_, plan);
  const Tensor out = rt.infer(input_);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(out, reference_), 0.0f);
  EXPECT_EQ(rt.tasks_completed(), 1);
}

TEST_F(RuntimeFixture, SequentialSchemesMatchReference) {
  const NetworkModel net = test_network();
  for (const auto& plan :
       {partition::lw_plan(graph_, cluster_),
        partition::efl_plan(graph_, cluster_),
        partition::ofl_plan(graph_, cluster_, net)}) {
    runtime::PipelineRuntime rt(graph_, plan);
    const Tensor out = rt.infer(input_);
    EXPECT_FLOAT_EQ(Tensor::max_abs_diff(out, reference_), 0.0f)
        << plan.scheme;
  }
}

TEST_F(RuntimeFixture, ManyConcurrentTasksAllCorrectAndOrdered) {
  const auto plan = partition::pico_plan(graph_, cluster_, test_network());
  runtime::PipelineRuntime rt(graph_, plan);
  Rng rng(11);
  std::vector<Tensor> inputs;
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 24; ++i) {
    Tensor t(graph_.input_shape());
    t.randomize(rng);
    inputs.push_back(t);
    futures.push_back(rt.submit(std::move(t)));
  }
  for (int i = 0; i < 24; ++i) {
    const Tensor expected = nn::execute(graph_, inputs[static_cast<std::size_t>(i)]);
    const Tensor got = futures[static_cast<std::size_t>(i)].get();
    ASSERT_FLOAT_EQ(Tensor::max_abs_diff(got, expected), 0.0f) << "task " << i;
  }
  EXPECT_EQ(rt.tasks_completed(), 24);
}

TEST_F(RuntimeFixture, TcpTransportMatchesReference) {
  const auto plan = partition::pico_plan(graph_, cluster_, test_network());
  runtime::PipelineRuntime rt(graph_, plan,
                              {.transport = runtime::TransportKind::Tcp});
  for (int i = 0; i < 3; ++i) {
    const Tensor out = rt.infer(input_);
    ASSERT_FLOAT_EQ(Tensor::max_abs_diff(out, reference_), 0.0f);
  }
}

TEST_F(RuntimeFixture, BringYourOwnTransportMatchesReference) {
  // External workers (threads standing in for remote processes) serving
  // over real TCP; the runtime only gets the established sockets.
  const auto plan = partition::pico_plan(graph_, cluster_, test_network());
  std::vector<DeviceId> devices;
  for (const auto& stage : plan.stages) {
    for (const auto& slice : stage.assignments) {
      devices.push_back(slice.device);
    }
  }

  runtime::TcpListener listener;
  std::vector<std::thread> workers;
  std::map<DeviceId, std::unique_ptr<runtime::Connection>> connections;
  for (const DeviceId device : devices) {
    workers.emplace_back([this, port = listener.port()] {
      auto connection = runtime::tcp_connect(port);
      runtime::serve_blocking(graph_, *connection);
    });
    connections.emplace(device, listener.accept());
  }
  {
    runtime::PipelineRuntime rt(graph_, plan, std::move(connections));
    for (int i = 0; i < 3; ++i) {
      ASSERT_FLOAT_EQ(Tensor::max_abs_diff(rt.infer(input_), reference_),
                      0.0f);
    }
  }  // destructor sends Shutdown; workers must return
  for (std::thread& worker : workers) worker.join();
}

TEST_F(RuntimeFixture, ByoTransportRejectsMissingConnection) {
  const auto plan = partition::pico_plan(graph_, cluster_, test_network());
  std::map<DeviceId, std::unique_ptr<runtime::Connection>> empty;
  EXPECT_THROW(runtime::PipelineRuntime(graph_, plan, std::move(empty)),
               InvariantError);
}

TEST_F(RuntimeFixture, ServeBlockingSurvivesMalformedRequest) {
  // A malformed request (wrong message type) used to escape serve_blocking
  // as an InvariantError — in a standalone worker process that unwinds out
  // of main (or terminates the serving thread).  The unified serve loop
  // logs it and returns cleanly, exactly like Worker::run always did.
  auto [coordinator_end, worker_end] = runtime::make_inproc_pair();
  Message malformed;
  malformed.type = MessageType::WorkResult;
  coordinator_end->send(malformed);
  EXPECT_NO_THROW(runtime::serve_blocking(graph_, *worker_end, /*device=*/42));
}

TEST_F(RuntimeFixture, ServeBlockingCountsRequestsInMetricsRegistry) {
  // Standalone workers used to be invisible to the PR 2 metrics: requests
  // were only counted in Worker::run, and only after send() succeeded.  The
  // unified loop counts every computed request at serve time, labelled by
  // device.
  obs::Counter& counter = obs::Registry::global().counter(
      "pico_worker_requests_total", {{"device", "7"}});
  const long long before = counter.value();

  auto [coordinator_end, worker_end] = runtime::make_inproc_pair();
  std::thread server([this, worker = worker_end.get()] {
    runtime::serve_blocking(graph_, *worker, /*device=*/7);
  });

  Message request;
  request.type = MessageType::WorkRequest;
  request.first_node = 1;
  request.last_node = graph_.size() - 1;
  request.in_region =
      Region::full(graph_.input_shape().height, graph_.input_shape().width);
  request.out_region =
      Region::full(graph_.output_shape().height, graph_.output_shape().width);
  request.tensor = input_;
  coordinator_end->send(request);
  const Message reply = coordinator_end->recv();
  EXPECT_EQ(reply.type, MessageType::WorkResult);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(reply.tensor, reference_), 0.0f);

  Message shutdown;
  shutdown.type = MessageType::Shutdown;
  coordinator_end->send(shutdown);
  server.join();
  EXPECT_EQ(counter.value(), before + 1);
}

TEST_F(RuntimeFixture, WorkerHonorsExecOptionsThreadCap) {
  // A worker pinned to one intra-device thread must still produce the
  // bit-exact reference (determinism across thread counts).
  auto [coordinator_end, worker_end] = runtime::make_inproc_pair();
  runtime::Worker worker(graph_, std::move(worker_end), /*device=*/3,
                         nn::ExecOptions{.threads = 1});
  worker.start();

  Message request;
  request.type = MessageType::WorkRequest;
  request.first_node = 1;
  request.last_node = graph_.size() - 1;
  request.in_region =
      Region::full(graph_.input_shape().height, graph_.input_shape().width);
  request.out_region =
      Region::full(graph_.output_shape().height, graph_.output_shape().width);
  request.tensor = input_;
  coordinator_end->send(request);
  const Message reply = coordinator_end->recv();
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(reply.tensor, reference_), 0.0f);
  worker.stop();
  EXPECT_EQ(worker.requests_served(), 1);
}

TEST_F(RuntimeFixture, ExplicitShutdownIdempotent) {
  const auto plan = partition::efl_plan(graph_, cluster_);
  runtime::PipelineRuntime rt(graph_, plan);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(rt.infer(input_), reference_), 0.0f);
  rt.shutdown();
  rt.shutdown();
  EXPECT_THROW(rt.submit(Tensor(graph_.input_shape())), InvariantError);
}

// RuntimeOptions::from_env is the one place PICO_HARVEST_MS and
// PICO_NET_TIMEOUT_MS are read; runtimes take their options as given.
class RuntimeOptionsFromEnv : public ::testing::Test {
 protected:
  void SetUp() override { clear(); }
  void TearDown() override { clear(); }
  static void clear() {
    ::unsetenv("PICO_HARVEST_MS");
    ::unsetenv("PICO_NET_TIMEOUT_MS");
  }
  static runtime::RuntimeOptions base() {
    runtime::RuntimeOptions options;
    options.harvest_ms = 7;
    options.net_timeout_ms = 9;
    return options;
  }
};

TEST_F(RuntimeOptionsFromEnv, UnsetKeepsBase) {
  const runtime::RuntimeOptions options =
      runtime::RuntimeOptions::from_env(base());
  EXPECT_EQ(options.harvest_ms, 7);
  EXPECT_EQ(options.net_timeout_ms, 9);
}

TEST_F(RuntimeOptionsFromEnv, NumberOverridesAndClamps) {
  ::setenv("PICO_HARVEST_MS", "25", 1);
  ::setenv("PICO_NET_TIMEOUT_MS", "99999999", 1);
  const runtime::RuntimeOptions options =
      runtime::RuntimeOptions::from_env(base());
  EXPECT_EQ(options.harvest_ms, 25);
  EXPECT_EQ(options.net_timeout_ms, 3600000);
}

TEST_F(RuntimeOptionsFromEnv, ZeroOrNegativeDisables) {
  ::setenv("PICO_HARVEST_MS", "0", 1);
  ::setenv("PICO_NET_TIMEOUT_MS", "-5", 1);
  const runtime::RuntimeOptions options =
      runtime::RuntimeOptions::from_env(base());
  EXPECT_EQ(options.harvest_ms, 0);
  EXPECT_EQ(options.net_timeout_ms, 0);
}

TEST_F(RuntimeOptionsFromEnv, NonNumberIsIgnored) {
  ::setenv("PICO_HARVEST_MS", "fast", 1);
  ::setenv("PICO_NET_TIMEOUT_MS", "12ms", 1);
  const runtime::RuntimeOptions options =
      runtime::RuntimeOptions::from_env(base());
  EXPECT_EQ(options.harvest_ms, 7);
  EXPECT_EQ(options.net_timeout_ms, 9);
}

TEST_F(RuntimeFixture, ConstructorIgnoresHarvestEnvironment) {
  // harvest_ms = 0 means no background rounds, whatever the environment
  // says; only the final shutdown round runs.
  ::setenv("PICO_HARVEST_MS", "5", 1);
  const auto plan = partition::efl_plan(graph_, cluster_);
  runtime::PipelineRuntime rt(graph_, plan);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(rt.infer(input_), reference_), 0.0f);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(rt.health().rounds, 0);
  ::unsetenv("PICO_HARVEST_MS");
}

}  // namespace
}  // namespace pico
