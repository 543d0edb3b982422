// Cluster-wide observability: clock-offset estimation, the worker span
// buffer + wire codec, the transport-agnostic harvest path, and a loopback
// two-worker integration run proving that the merged trace comes out
// monotonic, rebased, and correctly nested under injected clock skew.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "models/zoo.hpp"
#include "nn/executor.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/remote.hpp"
#include "obs/trace.hpp"
#include "partition/pico_dp.hpp"
#include "runtime/pipeline.hpp"

namespace pico {
namespace {

// ---------------------------------------------------------------------------
// ClockOffsetEstimator
// ---------------------------------------------------------------------------

/// Build the quadruple for one symmetric round trip: one-way delays
/// d1 (request) / d2 (reply), remote clock ahead of local by `offset`.
obs::ClockSample make_sample(std::int64_t t1, std::int64_t offset,
                             std::int64_t d1, std::int64_t d2,
                             std::int64_t service = 1000) {
  obs::ClockSample s;
  s.t1_ns = t1;
  s.t2_ns = t1 + d1 + offset;
  s.t3_ns = s.t2_ns + service;
  s.t4_ns = s.t3_ns - offset + d2;
  return s;
}

TEST(ClockOffsetEstimator, RecoversExactOffsetFromSymmetricSamples) {
  constexpr std::int64_t kOffset = 5'000'000;  // remote 5 ms ahead
  constexpr std::int64_t kDelay = 100'000;     // 100 us each way
  obs::ClockOffsetEstimator estimator;
  EXPECT_FALSE(estimator.valid());
  for (int i = 0; i < 50; ++i) {
    estimator.update(make_sample(i * 1'000'000, kOffset, kDelay, kDelay));
  }
  ASSERT_TRUE(estimator.valid());
  EXPECT_EQ(estimator.offset_ns(), kOffset);
  EXPECT_EQ(estimator.rtt_ns(), 2 * kDelay);
  EXPECT_EQ(estimator.min_rtt_ns(), 2 * kDelay);
  EXPECT_EQ(estimator.error_bound_ns(), kDelay);
  EXPECT_EQ(estimator.samples(), 50);
  EXPECT_EQ(estimator.accepted(), 50);
  EXPECT_EQ(estimator.rebase(1'000'000 + kOffset), 1'000'000);
}

TEST(ClockOffsetEstimator, ConvergesWithinErrorBoundUnderJitter) {
  // Simulated skewed worker with asymmetric per-leg jitter; fixed seed so
  // the trajectory is reproducible.  The estimator must converge to within
  // its own reported error bound, which is at most min_rtt / 2.
  constexpr std::int64_t kOffset = 7'500'000;
  constexpr std::int64_t kBase = 80'000;  // 80 us base one-way delay
  Rng rng(1234);
  obs::ClockOffsetEstimator estimator;
  std::int64_t t1 = 0;
  for (int i = 0; i < 300; ++i) {
    const auto d1 = kBase + static_cast<std::int64_t>(rng.uniform(0, 150'000));
    const auto d2 = kBase + static_cast<std::int64_t>(rng.uniform(0, 150'000));
    estimator.update(make_sample(t1, kOffset, d1, d2));
    t1 += 500'000;
  }
  ASSERT_TRUE(estimator.valid());
  const std::int64_t error = std::abs(estimator.offset_ns() - kOffset);
  EXPECT_LE(error, estimator.error_bound_ns())
      << "offset " << estimator.offset_ns() << " vs true " << kOffset;
  // The bound itself must honor the analytical limit: half the best RTT.
  EXPECT_LE(estimator.error_bound_ns(), estimator.min_rtt_ns() / 2 + 1);
  EXPECT_LE(error, estimator.min_rtt_ns() / 2 + 1);
}

TEST(ClockOffsetEstimator, ImplausibleSamplesAreCountedButIgnored) {
  obs::ClockOffsetEstimator estimator;
  obs::ClockSample backwards;
  backwards.t1_ns = 1000;
  backwards.t2_ns = 500;
  backwards.t3_ns = 400;  // remote clock ran backwards
  backwards.t4_ns = 1500;
  estimator.update(backwards);
  EXPECT_EQ(estimator.samples(), 1);
  EXPECT_EQ(estimator.accepted(), 0);
  EXPECT_FALSE(estimator.valid());
  EXPECT_EQ(estimator.offset_ns(), 0);
}

TEST(ClockOffsetEstimator, RttGateRejectsCongestedSamples) {
  constexpr std::int64_t kOffset = 2'000'000;
  obs::ClockOffsetEstimator estimator;
  for (int i = 0; i < 20; ++i) {
    estimator.update(make_sample(i * 1'000'000, kOffset, 50'000, 50'000));
  }
  const std::int64_t before = estimator.offset_ns();
  // A congested round trip: 100x the RTT, grossly asymmetric — its naive
  // offset would be wildly wrong.  The gate must keep it out of the EWMA.
  estimator.update(
      make_sample(30'000'000, kOffset, 9'500'000, 500'000));
  EXPECT_EQ(estimator.offset_ns(), before);
  EXPECT_EQ(estimator.samples(), 21);
  EXPECT_EQ(estimator.accepted(), 20);
}

// ---------------------------------------------------------------------------
// SpanBuffer + wire codec
// ---------------------------------------------------------------------------

obs::SpanRecord sample_span(std::string name, std::int64_t start) {
  obs::SpanRecord span;
  span.name = std::move(name);
  span.category = "worker";
  span.track = obs::device_track(3);
  span.start_ns = start;
  span.duration_ns = 250;
  span.task_id = 9;
  span.args = {{"stage", "1"}, {"trace", "12345"}};
  return span;
}

TEST(SpanBuffer, RecordDrainAndSize) {
  obs::SpanBuffer buffer;
  EXPECT_EQ(buffer.size(), 0u);
  buffer.record(sample_span("a", 10));
  buffer.record(sample_span("b", 20));
  EXPECT_EQ(buffer.size(), 2u);
  const auto drained = buffer.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].name, "a");
  EXPECT_EQ(drained[1].name, "b");
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(SpanBuffer, FlushToTracerPreservesSpans) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  obs::SpanBuffer buffer;
  buffer.record(sample_span("flushed", 42));
  buffer.flush_to_tracer();
  EXPECT_EQ(buffer.size(), 0u);
  const auto spans = tracer.snapshot();
  const bool found =
      std::any_of(spans.begin(), spans.end(),
                  [](const obs::SpanRecord& s) { return s.name == "flushed"; });
  EXPECT_TRUE(found);
  tracer.clear();
  tracer.set_enabled(false);
}

TEST(SpanCodec, RoundTripPreservesEverything) {
  std::vector<obs::SpanRecord> spans = {sample_span("compute", 100),
                                        sample_span("serve", 90)};
  spans[1].args.clear();
  const auto bytes = obs::encode_spans(spans);
  const auto decoded = obs::decode_spans(bytes.data(), bytes.size());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].name, "compute");
  EXPECT_EQ(decoded[0].category, "worker");
  EXPECT_EQ(decoded[0].track, obs::device_track(3));
  EXPECT_EQ(decoded[0].start_ns, 100);
  EXPECT_EQ(decoded[0].duration_ns, 250);
  EXPECT_EQ(decoded[0].task_id, 9);
  ASSERT_EQ(decoded[0].args.size(), 2u);
  EXPECT_EQ(decoded[0].args[0].first, "stage");
  EXPECT_EQ(decoded[0].args[1].second, "12345");
  EXPECT_TRUE(decoded[1].args.empty());
}

TEST(SpanCodec, EmptyListRoundTrips) {
  const auto bytes = obs::encode_spans({});
  EXPECT_TRUE(obs::decode_spans(bytes.data(), bytes.size()).empty());
}

TEST(SpanCodec, MalformedBuffersThrowTransportError) {
  const auto bytes = obs::encode_spans({sample_span("x", 1)});
  // Truncated at every prefix length must throw, never read out of bounds.
  for (std::size_t size = 0; size < bytes.size(); size += 7) {
    EXPECT_THROW(obs::decode_spans(bytes.data(), size), TransportError)
        << "size " << size;
  }
  // Trailing garbage is corruption too.
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(obs::decode_spans(padded.data(), padded.size()),
               TransportError);
  // Foreign magic.
  auto patched = bytes;
  patched[0] ^= 0xff;
  EXPECT_THROW(obs::decode_spans(patched.data(), patched.size()),
               TransportError);
}

TEST(SpanCodec, ImplausibleArgCountRejectedBeforeAllocation) {
  // One span with zero args: the per-span arg-count u32 is the last field
  // in the buffer.  A corrupt count must be rejected by the plausibility
  // bound (each arg costs >= 8 bytes of string prefixes), not drive a
  // 4-billion-entry reserve().
  obs::SpanRecord span = sample_span("x", 1);
  span.args.clear();
  auto bytes = obs::encode_spans({span});
  const std::uint32_t huge = 0xffffffffu;
  std::memcpy(bytes.data() + bytes.size() - sizeof(huge), &huge,
              sizeof(huge));
  EXPECT_THROW(obs::decode_spans(bytes.data(), bytes.size()),
               TransportError);
}

// ---------------------------------------------------------------------------
// harvest_worker over fake closures
// ---------------------------------------------------------------------------

TEST(HarvestWorker, PingsRebaseAndPullDumps) {
  constexpr std::int64_t kOffset = 3'000'000;
  int pings = 0;
  obs::HarvestEndpoint endpoint;
  endpoint.device = 5;
  endpoint.ping = [&pings] {
    ++pings;
    const std::int64_t t1 = pings * 1'000'000;
    return make_sample(t1, kOffset, 20'000, 20'000);
  };
  endpoint.fetch_metrics = [] {
    return std::string("pico_worker_requests_total 4\n");
  };
  endpoint.fetch_trace_chunk = [](std::uint64_t cursor) {
    obs::TraceChunk chunk;
    chunk.spans = {sample_span("compute", 0)};
    chunk.spans[0].start_ns = 500'000 + kOffset;  // worker-clock instant
    chunk.base = cursor;
    chunk.next = cursor + 1;
    return chunk;
  };
  const obs::WorkerTelemetry telemetry = obs::harvest_worker(endpoint, 6);
  EXPECT_TRUE(telemetry.reachable);
  EXPECT_EQ(telemetry.device, 5);
  EXPECT_EQ(pings, 6);
  EXPECT_EQ(telemetry.offset_ns, kOffset);
  EXPECT_EQ(telemetry.metrics_text, "pico_worker_requests_total 4\n");
  ASSERT_EQ(telemetry.spans.size(), 1u);
  // Rebased onto the local timeline: the offset is subtracted out.
  EXPECT_EQ(telemetry.spans[0].start_ns, 500'000);
}

TEST(HarvestWorker, DeadWorkerReportsUnreachable) {
  obs::HarvestEndpoint endpoint;
  endpoint.device = 2;
  endpoint.ping = []() -> obs::ClockSample {
    throw TransportError("peer closed");
  };
  endpoint.fetch_metrics = [] { return std::string(); };
  endpoint.fetch_trace_chunk = [](std::uint64_t) { return obs::TraceChunk(); };
  const obs::WorkerTelemetry telemetry = obs::harvest_worker(endpoint, 3);
  EXPECT_FALSE(telemetry.reachable);
  EXPECT_EQ(telemetry.device, 2);
  EXPECT_TRUE(telemetry.spans.empty());
}

TEST(ClusterTelemetry, MergedPrometheusCarriesPerWorkerSections) {
  obs::ClusterTelemetry cluster;
  obs::WorkerTelemetry a;
  a.device = 0;
  a.reachable = true;
  a.offset_ns = 123;
  a.metrics_text = "metric_a 1\n";
  obs::WorkerTelemetry b;
  b.device = 3;
  b.reachable = false;
  cluster.add(std::move(a));
  cluster.add(std::move(b));
  const std::string merged = cluster.merged_prometheus("local_metric 7\n");
  EXPECT_NE(merged.find("coordinator"), std::string::npos);
  EXPECT_NE(merged.find("local_metric 7"), std::string::npos);
  EXPECT_NE(merged.find("device=0"), std::string::npos);
  EXPECT_NE(merged.find("metric_a 1"), std::string::npos);
  EXPECT_NE(merged.find("device=3"), std::string::npos);
  EXPECT_EQ(cluster.workers().size(), 2u);
}

// ---------------------------------------------------------------------------
// Loopback cluster integration: two in-process workers with injected clock
// skew; the harvested + merged trace must come out rebased and nested.
// ---------------------------------------------------------------------------

class LoopbackClusterFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::global().reset_values();
    obs::Tracer::global().clear();
    obs::Tracer::global().set_enabled(true);
  }
  void TearDown() override {
    obs::set_debug_clock_skew_ns(0);
    obs::Tracer::global().set_enabled(false);
    obs::Tracer::global().clear();
  }
};

TEST_F(LoopbackClusterFixture, SkewedWorkersProduceRebasedNestedTrace) {
  // Workers timestamp on a clock running 2 s ahead of the coordinator; a
  // span that skipped rebasing would land far outside the run window.
  constexpr std::int64_t kSkew = 2'000'000'000;
  obs::set_debug_clock_skew_ns(kSkew);

  nn::Graph graph = models::toy_mnist({.input_size = 32});
  Rng rng(7);
  graph.randomize_weights(rng);
  const Cluster cluster = Cluster::paper_homogeneous(2, 1.0);
  NetworkModel network;
  network.bandwidth = 1e9;
  const auto plan = partition::pico_plan(graph, cluster, network);

  std::vector<DeviceId> devices;
  for (const auto& stage : plan.stages) {
    for (const auto& slice : stage.assignments) {
      if (std::find(devices.begin(), devices.end(), slice.device) ==
          devices.end()) {
        devices.push_back(slice.device);
      }
    }
  }
  ASSERT_EQ(devices.size(), 2u) << "plan must use both devices";

  const std::int64_t run_start = obs::Tracer::now_ns();
  std::vector<obs::WorkerTelemetry> harvested;
  constexpr int kTasks = 5;
  {
    runtime::PipelineRuntime rt(graph, plan);
    Tensor input(graph.input_shape());
    input.randomize(rng);
    for (int i = 0; i < kTasks; ++i) rt.infer(input);
    rt.shutdown();
    harvested = rt.cluster_telemetry().workers();
  }
  const std::int64_t run_end = obs::Tracer::now_ns();

  // Every worker harvested, clock recovered to within a loose bound (the
  // injected skew is exact; jitter is host scheduling noise).
  ASSERT_EQ(harvested.size(), devices.size());
  for (const obs::WorkerTelemetry& worker : harvested) {
    EXPECT_TRUE(worker.reachable) << "device " << worker.device;
    EXPECT_GT(worker.clock_samples, 0);
    EXPECT_NEAR(static_cast<double>(worker.offset_ns),
                static_cast<double>(kSkew), 50e6)
        << "device " << worker.device;
    EXPECT_FALSE(worker.spans.empty()) << "device " << worker.device;
    // compute + serve per request, at minimum.
    EXPECT_GE(worker.spans.size(), 2u * kTasks / devices.size());
    for (const obs::SpanRecord& span : worker.spans) {
      EXPECT_GE(span.duration_ns, 0);
      EXPECT_GE(span.start_ns, run_start - 100'000'000)
          << span.name << " not rebased";
      EXPECT_LE(span.start_ns + span.duration_ns, run_end + 100'000'000)
          << span.name << " not rebased";
    }
    // Nesting: every compute span sits inside a serve span of the same
    // task on the same device track.
    for (const obs::SpanRecord& span : worker.spans) {
      if (span.name != "compute") continue;
      bool nested = false;
      for (const obs::SpanRecord& serve : worker.spans) {
        nested |= serve.name == "serve" && serve.task_id == span.task_id &&
                  serve.track == span.track &&
                  serve.start_ns <= span.start_ns &&
                  span.start_ns + span.duration_ns <=
                      serve.start_ns + serve.duration_ns;
      }
      EXPECT_TRUE(nested) << "compute span of task " << span.task_id;
    }
  }

  // The harvested spans were injected into the global tracer: snapshot()
  // is the merged cluster trace, sorted by start time (monotonic), and the
  // worker compute spans nest inside the coordinator's task spans.
  const auto merged = obs::Tracer::global().snapshot();
  std::int64_t last_start = 0;
  std::size_t worker_compute = 0;
  for (const obs::SpanRecord& span : merged) {
    EXPECT_GE(span.start_ns, last_start) << "snapshot not sorted";
    last_start = span.start_ns;
    if (span.category == "compute" &&
        span.track >= obs::device_track(0)) {
      ++worker_compute;
      bool inside_task = false;
      for (const obs::SpanRecord& task : merged) {
        inside_task |= task.category == "task" &&
                       task.task_id == span.task_id &&
                       task.start_ns <= span.start_ns &&
                       span.start_ns + span.duration_ns <=
                           task.start_ns + task.duration_ns +
                               50'000'000;
      }
      EXPECT_TRUE(inside_task)
          << "compute span of task " << span.task_id
          << " outside its task span";
    }
  }
  EXPECT_GE(worker_compute, static_cast<std::size_t>(kTasks));

  // The timestamp-derived splits made it into the registry.
  obs::Registry& registry = obs::Registry::global();
  long long wire_observations = 0;
  for (std::size_t s = 0; s < plan.stages.size(); ++s) {
    for (const auto& slice : plan.stages[s].assignments) {
      const std::vector<obs::Label> labels{
          {"stage", std::to_string(s)},
          {"device", std::to_string(slice.device)}};
      wire_observations +=
          registry.histogram("pico_wire_request_seconds", labels).count();
    }
  }
  EXPECT_GT(wire_observations, 0);
  for (const DeviceId id : devices) {
    EXPECT_NEAR(
        registry
            .gauge("pico_clock_offset_ns",
                   {{"device", std::to_string(id)}})
            .value(),
        static_cast<double>(kSkew), 50e6);
  }
}

TEST_F(LoopbackClusterFixture, HarvestDisabledLeavesTelemetryEmpty) {
  nn::Graph graph = models::toy_mnist({.input_size = 16});
  Rng rng(3);
  graph.randomize_weights(rng);
  const Cluster cluster = Cluster::paper_homogeneous(2, 1.0);
  NetworkModel network;
  network.bandwidth = 1e9;
  const auto plan = partition::pico_plan(graph, cluster, network);
  runtime::RuntimeOptions options;
  options.harvest_telemetry = false;
  runtime::PipelineRuntime rt(graph, plan, options);
  Tensor input(graph.input_shape());
  input.randomize(rng);
  rt.infer(input);
  rt.shutdown();
  EXPECT_TRUE(rt.cluster_telemetry().workers().empty());
}

}  // namespace
}  // namespace pico
