// Observability layer: histogram bucket/percentile math, registry
// concurrency (exercised under TSan via the tsan preset), span tracing, the
// Chrome-trace JSON encoder (validated by a real JSON parser), and
// end-to-end span/metric accounting through PipelineRuntime and the
// simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "json_parser.hpp"
#include "models/zoo.hpp"
#include "nn/executor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/pico_dp.hpp"
#include "runtime/pipeline.hpp"
#include "sim/arrivals.hpp"
#include "sim/pipeline_sim.hpp"
#include "sim/trace.hpp"

namespace pico {
namespace {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, BucketIndexInvertsBounds) {
  // Every sampled value must land in a bucket whose [lower, upper) range
  // contains it.
  for (double v = 2e-9; v < 1e3; v *= 1.17) {
    const int index = obs::Histogram::bucket_index(v);
    ASSERT_GT(index, 0);
    ASSERT_LT(index, obs::Histogram::kBucketCount);
    if (index < obs::Histogram::kBucketCount - 1) {
      EXPECT_GE(v, obs::Histogram::bucket_lower(index) * (1.0 - 1e-12))
          << v;
      EXPECT_LT(v, obs::Histogram::bucket_upper(index) * (1.0 + 1e-12))
          << v;
    }
  }
}

TEST(Histogram, UnderflowAndNonPositiveGoToBucketZero) {
  EXPECT_EQ(obs::Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(obs::Histogram::bucket_index(-1.0), 0);
  EXPECT_EQ(obs::Histogram::bucket_index(1e-10), 0);
}

TEST(Histogram, HugeValuesClampToOverflowBucket) {
  EXPECT_EQ(obs::Histogram::bucket_index(1e300),
            obs::Histogram::kBucketCount - 1);
}

TEST(Histogram, EmptyStateIsWellDefined) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_TRUE(std::isinf(h.min()) && h.min() > 0.0);
  EXPECT_TRUE(std::isinf(h.max()) && h.max() < 0.0);
}

TEST(Histogram, CountSumMeanMinMaxExact) {
  obs::Histogram h;
  h.observe(0.001);
  h.observe(0.002);
  h.observe(0.003);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 0.006);
  EXPECT_DOUBLE_EQ(h.mean(), 0.002);
  EXPECT_DOUBLE_EQ(h.min(), 0.001);
  EXPECT_DOUBLE_EQ(h.max(), 0.003);
}

TEST(Histogram, PercentilesWithinBucketRelativeError) {
  // Log-bucketed quantiles must be within one bucket width of the exact
  // sample quantile: rel error <= 2^(1/8) - 1 (~9%); allow 10% for the
  // interpolation endpoints.
  obs::Histogram h;
  std::vector<double> values;
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    const double v = 1e-4 * std::pow(10.0, 3.0 * rng.uniform());
    values.push_back(v);
    h.observe(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    const double exact =
        values[static_cast<std::size_t>(q * (values.size() - 1))];
    const double estimate = h.percentile(q);
    EXPECT_NEAR(estimate, exact, exact * 0.10) << "q=" << q;
  }
}

TEST(Histogram, ResetClears) {
  obs::Histogram h;
  h.observe(1.0);
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.percentile(0.99), 0.0);
  h.observe(2.0);
  EXPECT_DOUBLE_EQ(h.min(), 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, GetOrCreateIsStable) {
  obs::Registry registry;
  obs::Counter& a = registry.counter("test_total", {{"k", "v"}});
  obs::Counter& b = registry.counter("test_total", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  obs::Counter& other = registry.counter("test_total", {{"k", "w"}});
  EXPECT_NE(&a, &other);
}

TEST(Registry, KindMismatchThrows) {
  obs::Registry registry;
  registry.counter("metric_a");
  EXPECT_THROW(registry.histogram("metric_a"), Error);
  EXPECT_THROW(registry.gauge("metric_a"), Error);
}

TEST(Registry, PrometheusDumpHasSeriesAndSummary) {
  obs::Registry registry;
  registry.counter("pico_test_total", {{"device", "3"}}).add(7);
  registry.gauge("pico_test_gauge").set(1.5);
  obs::Histogram& h =
      registry.histogram("pico_test_seconds", {{"stage", "0"}});
  for (int i = 1; i <= 100; ++i) h.observe(0.001 * i);
  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("pico_test_total{device=\"3\"} 7"), std::string::npos)
      << text;
  EXPECT_NE(text.find("pico_test_gauge 1.5"), std::string::npos);
  EXPECT_NE(text.find("pico_test_seconds_count{stage=\"0\"} 100"),
            std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
}

TEST(Registry, ResetValuesKeepsHandlesValid) {
  obs::Registry registry;
  obs::Counter& counter = registry.counter("persistent_total");
  counter.add(5);
  registry.reset_values();
  EXPECT_EQ(counter.value(), 0);
  counter.add(2);
  EXPECT_EQ(registry.counter("persistent_total").value(), 2);
}

TEST(Registry, ConcurrentRegistrationAndObservation) {
  // Hammer get-or-create and the lock-free hot paths from many threads;
  // TSan (tsan preset) checks the synchronization, we check the totals.
  obs::Registry registry;
  constexpr int kThreads = 8;
  constexpr int kOps = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kOps; ++i) {
        registry.counter("concurrent_total").add(1);
        registry
            .histogram("concurrent_seconds",
                       {{"lane", std::to_string(t % 3)}})
            .observe(1e-3 * (i + 1));
        registry.gauge("concurrent_gauge").set(static_cast<double>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.counter("concurrent_total").value(),
            static_cast<std::int64_t>(kThreads) * kOps);
  std::int64_t histogram_total = 0;
  for (const char* lane : {"0", "1", "2"}) {
    histogram_total +=
        registry.histogram("concurrent_seconds", {{"lane", lane}}).count();
  }
  EXPECT_EQ(histogram_total, static_cast<std::int64_t>(kThreads) * kOps);
}

// ---------------------------------------------------------------------------
// Tracer + Chrome trace JSON
// ---------------------------------------------------------------------------

class TracerFixture : public ::testing::Test {
 protected:
  TracerFixture() {
    obs::Tracer::global().clear();
    obs::Tracer::global().set_enabled(true);
  }
  ~TracerFixture() override {
    obs::Tracer::global().set_enabled(false);
    obs::Tracer::global().clear();
  }
};

TEST_F(TracerFixture, DisabledRecordsNothing) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(false);
  { obs::Span span("noop", "test"); }
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST_F(TracerFixture, SpanRecordsNameCategoryTrackAndArgs) {
  obs::Tracer& tracer = obs::Tracer::global();
  {
    obs::Span span("work", "test", obs::stage_track(2), 42);
    span.arg("key", "value");
  }
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_EQ(spans[0].category, "test");
  EXPECT_EQ(spans[0].track, obs::stage_track(2));
  EXPECT_EQ(spans[0].task_id, 42);
  EXPECT_GE(spans[0].duration_ns, 0);
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].first, "key");
}

TEST_F(TracerFixture, MergesThreadBuffersSortedByStart) {
  obs::Tracer& tracer = obs::Tracer::global();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 50; ++i) {
        obs::SpanRecord span;
        span.name = "t" + std::to_string(t);
        span.category = "test";
        span.start_ns = obs::Tracer::now_ns();
        span.duration_ns = 10;
        obs::Tracer::global().record(std::move(span));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto spans = tracer.snapshot();
  EXPECT_EQ(spans.size(), 200u);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].start_ns, spans[i].start_ns);
  }
}

TEST_F(TracerFixture, ChromeTraceJsonRoundTrip) {
  std::vector<obs::SpanRecord> spans;
  obs::SpanRecord span;
  span.name = "needs \"escaping\" \\ here";
  span.category = "stage";
  span.track = obs::stage_track(1);
  span.start_ns = 2500;       // 2.5 us
  span.duration_ns = 1500;    // 1.5 us
  span.task_id = 7;
  span.args = {{"bytes", "123"}};
  spans.push_back(span);
  span.name = "plain";
  span.args.clear();
  spans.push_back(span);

  std::ostringstream out;
  obs::write_chrome_trace(out, spans, {{obs::stage_track(1), "stage 1"}});

  const JsonValue root = JsonParser(out.str()).parse();
  ASSERT_EQ(root.kind, JsonValue::Kind::Object);
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 1 thread_name metadata event + 2 spans.
  ASSERT_EQ(events->array.size(), 3u);

  const JsonValue& meta = events->array[0];
  EXPECT_EQ(meta.find("ph")->string, "M");
  EXPECT_EQ(meta.find("name")->string, "thread_name");

  const JsonValue& first = events->array[1];
  EXPECT_EQ(first.find("ph")->string, "X");
  EXPECT_EQ(first.find("name")->string, "needs \"escaping\" \\ here");
  EXPECT_EQ(first.find("cat")->string, "stage");
  EXPECT_DOUBLE_EQ(first.find("ts")->number, 2.5);
  EXPECT_DOUBLE_EQ(first.find("dur")->number, 1.5);
  EXPECT_EQ(first.find("tid")->number, obs::stage_track(1));
  const JsonValue* args = first.find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("bytes")->string, "123");
}

// ---------------------------------------------------------------------------
// End-to-end: PipelineRuntime spans and metrics
// ---------------------------------------------------------------------------

TEST_F(TracerFixture, PipelineRunEmitsOneStageSpanPerTaskPerStage) {
  obs::Registry::global().reset_values();
  nn::Graph graph = models::toy_mnist({.input_size = 32});
  Rng rng(7);
  graph.randomize_weights(rng);
  const Cluster cluster = Cluster::paper_heterogeneous();
  NetworkModel network;
  network.bandwidth = 50e6 / 8.0;
  network.per_message_overhead = 1e-3;
  const auto plan = partition::pico_plan(graph, cluster, network);
  ASSERT_TRUE(plan.pipelined);
  const std::size_t stages = plan.stages.size();

  constexpr int kTasks = 6;
  {
    runtime::PipelineRuntime rt(graph, plan);
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < kTasks; ++i) {
      Tensor input(graph.input_shape());
      input.randomize(rng);
      futures.push_back(rt.submit(std::move(input)));
    }
    for (auto& f : futures) f.get();
    rt.shutdown();
  }

  const auto spans = obs::Tracer::global().snapshot();
  std::size_t stage_spans = 0, task_spans = 0, compute_spans = 0,
              queue_spans = 0;
  for (const auto& span : spans) {
    if (span.category == "stage") ++stage_spans;
    if (span.category == "task") ++task_spans;
    if (span.category == "compute") ++compute_spans;
    if (span.category == "queue") ++queue_spans;
  }
  EXPECT_EQ(stage_spans, kTasks * stages);
  EXPECT_EQ(task_spans, static_cast<std::size_t>(kTasks));
  EXPECT_GE(compute_spans, kTasks * stages);  // >= one device per stage
  EXPECT_EQ(queue_spans, kTasks * stages);    // one wait per coordinator

  // Metrics agree with the span counts.
  obs::Registry& registry = obs::Registry::global();
  EXPECT_EQ(registry.counter("pico_tasks_completed_total").value(), kTasks);
  EXPECT_EQ(registry.histogram("pico_task_latency_seconds").count(), kTasks);
  long long requests = 0;
  for (int d = 0; d < cluster.size(); ++d) {
    requests += registry
                    .counter("pico_device_requests_total",
                             {{"device", std::to_string(d)}})
                    .value();
  }
  EXPECT_EQ(requests, static_cast<long long>(compute_spans));
  for (std::size_t s = 0; s < stages; ++s) {
    EXPECT_EQ(registry
                  .histogram("pico_stage_service_seconds",
                             {{"stage", std::to_string(s)}})
                  .count(),
              kTasks)
        << "stage " << s;
  }
}

// ---------------------------------------------------------------------------
// Simulator stage records + shared exporter
// ---------------------------------------------------------------------------

class SimObsFixture : public ::testing::Test {
 protected:
  SimObsFixture()
      : graph_(models::toy_mnist({.input_size = 32})),
        cluster_(Cluster::paper_heterogeneous()) {
    network_.bandwidth = 50e6 / 8.0;
    network_.per_message_overhead = 1e-3;
  }

  sim::SimResult run(int tasks) {
    const auto plan = partition::pico_plan(graph_, cluster_, network_);
    stages_ = plan.stages.size();
    const auto arrivals = sim::back_to_back_arrivals(tasks);
    return sim::simulate_plan(graph_, cluster_, network_, plan, arrivals);
  }

  nn::Graph graph_;
  Cluster cluster_;
  NetworkModel network_;
  std::size_t stages_ = 0;
};

TEST_F(SimObsFixture, StageRecordsCoverEveryTaskAndStage) {
  const auto result = run(10);
  // Serialized comm model: one chain node per stage.
  EXPECT_EQ(result.stage_records.size(), 10 * stages_);
  for (const auto& record : result.stage_records) {
    EXPECT_GE(record.stage, 0);
    EXPECT_LT(record.stage, static_cast<int>(stages_));
    EXPECT_LE(record.enqueue, record.start);
    EXPECT_LE(record.start, record.completion);
    EXPECT_EQ(record.phase, sim::StagePhase::Service);
  }
  // Sorted by (task, start) and each task's records walk the stages.
  for (std::size_t i = 1; i < result.stage_records.size(); ++i) {
    const auto& prev = result.stage_records[i - 1];
    const auto& cur = result.stage_records[i];
    EXPECT_TRUE(prev.task < cur.task ||
                (prev.task == cur.task && prev.start <= cur.start));
  }
}

TEST_F(SimObsFixture, StageWaitsExplainServiceGaps) {
  const auto result = run(8);
  // Back-to-back arrivals saturate the pipeline: some record must wait.
  double total_wait = 0.0;
  for (const auto& record : result.stage_records) {
    total_wait += record.wait();
  }
  EXPECT_GT(total_wait, 0.0);
}

TEST_F(SimObsFixture, CsvWritersIncludeQueueingColumns) {
  const auto result = run(5);
  std::ostringstream tasks;
  sim::write_task_csv(tasks, result);
  EXPECT_NE(tasks.str().find("queue_wait"), std::string::npos);

  std::ostringstream stages;
  sim::write_stage_csv(stages, result);
  const std::string text = stages.str();
  EXPECT_NE(text.find("task,stage,phase,enqueue,start,completion,wait,"
                      "service"),
            std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            result.stage_records.size() + 1);
}

TEST_F(SimObsFixture, ChromeTraceOfSimulationParses) {
  const auto result = run(4);
  std::ostringstream out;
  sim::write_chrome_trace(out, result);
  const JsonValue root = JsonParser(out.str()).parse();
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t task_spans = 0, stage_spans = 0;
  for (const JsonValue& event : events->array) {
    const JsonValue* ph = event.find("ph");
    if (ph == nullptr || ph->string != "X") continue;
    const JsonValue* cat = event.find("cat");
    if (cat->string == "task") ++task_spans;
    if (cat->string == "stage") ++stage_spans;
  }
  EXPECT_EQ(task_spans, 4u);
  EXPECT_EQ(stage_spans, result.stage_records.size());
}

}  // namespace
}  // namespace pico
