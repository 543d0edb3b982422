// Continuous telemetry harvest: the span-cursor protocol (SpanBuffer,
// PSP2 codec, at-least-once dedup in harvest_worker), the rolling
// windows, the straggler / model-drift detectors, and a loopback two-worker
// integration run with one artificially slowed device proving that mid-run
// harvest rounds deliver monotone, non-duplicated span streams and that the
// health engine flags exactly the slow device.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "models/zoo.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/remote.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "partition/schemes.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/worker.hpp"

namespace pico {
namespace {

obs::SpanRecord make_span(std::string name, std::int64_t start) {
  obs::SpanRecord span;
  span.name = std::move(name);
  span.category = "worker";
  span.track = obs::device_track(1);
  span.start_ns = start;
  span.duration_ns = 100;
  span.task_id = 4;
  return span;
}

// ---------------------------------------------------------------------------
// SpanBuffer cursor protocol
// ---------------------------------------------------------------------------

TEST(SpanBufferCursor, RecordStampsMonotoneSequenceNumbers) {
  obs::SpanBuffer buffer;
  EXPECT_EQ(buffer.next_seq(), 0u);
  buffer.record(make_span("a", 10));
  buffer.record(make_span("b", 20));
  buffer.record(make_span("c", 30));
  EXPECT_EQ(buffer.next_seq(), 3u);
  const obs::TraceChunk chunk = buffer.chunk(0);
  ASSERT_EQ(chunk.spans.size(), 3u);
  EXPECT_EQ(chunk.base, 0u);
  EXPECT_EQ(chunk.next, 3u);
  EXPECT_EQ(chunk.spans[0].seq, 0);
  EXPECT_EQ(chunk.spans[1].seq, 1);
  EXPECT_EQ(chunk.spans[2].seq, 2);
}

TEST(SpanBufferCursor, ChunkWithoutAckRedeliversForAtLeastOnce) {
  obs::SpanBuffer buffer;
  buffer.record(make_span("a", 10));
  buffer.record(make_span("b", 20));
  // The reply got lost: the coordinator asks again with the same cursor and
  // must see the same spans again.
  const obs::TraceChunk first = buffer.chunk(0);
  const obs::TraceChunk again = buffer.chunk(0);
  ASSERT_EQ(first.spans.size(), 2u);
  ASSERT_EQ(again.spans.size(), 2u);
  EXPECT_EQ(again.spans[0].seq, first.spans[0].seq);
  // Advancing the cursor acknowledges the prefix; only the rest returns.
  const obs::TraceChunk after_ack = buffer.chunk(1);
  ASSERT_EQ(after_ack.spans.size(), 1u);
  EXPECT_EQ(after_ack.base, 1u);
  EXPECT_EQ(after_ack.spans[0].seq, 1);
  EXPECT_EQ(buffer.size(), 1u);
}

TEST(SpanBufferCursor, AckPrunesOnlyBelowCursor) {
  obs::SpanBuffer buffer;
  for (int i = 0; i < 5; ++i) buffer.record(make_span("s", i));
  buffer.ack(3);
  EXPECT_EQ(buffer.size(), 2u);
  const obs::TraceChunk chunk = buffer.chunk(3);
  EXPECT_EQ(chunk.base, 3u);
  ASSERT_EQ(chunk.spans.size(), 2u);
  EXPECT_EQ(chunk.spans[0].seq, 3);
  // A stale (lower) cursor must not resurrect anything.
  buffer.ack(1);
  EXPECT_EQ(buffer.size(), 2u);
}

TEST(SpanBufferCursor, HostileCursorIsClampedNeverOutOfRange) {
  obs::SpanBuffer buffer;
  buffer.record(make_span("a", 10));
  buffer.record(make_span("b", 20));
  // A corrupt wire cursor far beyond anything recorded: the prune is
  // clamped to the buffer contents and sequence numbering stays sane.
  buffer.ack(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.next_seq(), 2u);
  buffer.record(make_span("c", 30));
  const obs::TraceChunk chunk = buffer.chunk(0);
  ASSERT_EQ(chunk.spans.size(), 1u);
  EXPECT_EQ(chunk.spans[0].seq, 2);
  EXPECT_EQ(chunk.base, 2u);
  EXPECT_EQ(chunk.next, 3u);
}

TEST(SpanBufferCursor, DrainAdvancesBasePastEverything) {
  obs::SpanBuffer buffer;
  buffer.record(make_span("a", 10));
  buffer.record(make_span("b", 20));
  EXPECT_EQ(buffer.drain().size(), 2u);
  EXPECT_EQ(buffer.size(), 0u);
  const obs::TraceChunk chunk = buffer.chunk(0);
  EXPECT_EQ(chunk.base, 2u);
  EXPECT_EQ(chunk.next, 2u);
  EXPECT_TRUE(chunk.spans.empty());
}

// ---------------------------------------------------------------------------
// Span codec: PSP2 carries seq; any other magic is rejected
// ---------------------------------------------------------------------------

TEST(SpanCodecV2, SequenceNumbersSurviveTheRoundTrip) {
  std::vector<obs::SpanRecord> spans = {make_span("x", 1), make_span("y", 2)};
  spans[0].seq = 41;
  spans[1].seq = 42;
  const auto bytes = obs::encode_spans(spans);
  const auto decoded = obs::decode_spans(bytes.data(), bytes.size());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].seq, 41);
  EXPECT_EQ(decoded[1].seq, 42);
}

TEST(SpanCodecV2, OtherMagicRejected) {
  // A "PSP1" buffer (the layout without per-span seq) is rejected like any
  // other foreign magic.
  auto bytes = obs::encode_spans({make_span("x", 1)});
  const std::uint32_t psp1 = 0x50535031u;
  std::memcpy(bytes.data(), &psp1, sizeof(psp1));
  EXPECT_THROW(obs::decode_spans(bytes.data(), bytes.size()), TransportError);
}

// ---------------------------------------------------------------------------
// harvest_worker: cursor advance, duplicate filtering, partial failure
// ---------------------------------------------------------------------------

obs::TraceChunk chunk_of(std::uint64_t base, std::vector<obs::SpanRecord> s) {
  obs::TraceChunk chunk;
  chunk.base = base;
  chunk.next = base + s.size();
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i].seq = static_cast<std::int64_t>(base + i);
  }
  chunk.spans = std::move(s);
  return chunk;
}

TEST(HarvestWorkerCursor, AdvancesCursorAcrossRounds) {
  obs::HarvestEndpoint endpoint;
  endpoint.device = 1;
  endpoint.fetch_trace_chunk = [](std::uint64_t cursor) {
    EXPECT_EQ(cursor, 0u);
    return chunk_of(0, {make_span("a", 1), make_span("b", 2)});
  };
  const obs::WorkerTelemetry round1 = obs::harvest_worker(endpoint, 0);
  EXPECT_TRUE(round1.reachable);
  EXPECT_EQ(round1.next_cursor, 2u);
  ASSERT_EQ(round1.spans.size(), 2u);

  endpoint.trace_cursor = round1.next_cursor;
  endpoint.fetch_trace_chunk = [](std::uint64_t cursor) {
    EXPECT_EQ(cursor, 2u);
    return chunk_of(2, {make_span("c", 3)});
  };
  const obs::WorkerTelemetry round2 = obs::harvest_worker(endpoint, 0);
  EXPECT_EQ(round2.next_cursor, 3u);
  ASSERT_EQ(round2.spans.size(), 1u);
  EXPECT_EQ(round2.spans[0].seq, 2);
}

TEST(HarvestWorkerCursor, RedeliveredSpansBelowCursorAreFiltered) {
  // A lost reply means the worker re-sends from an older base; everything
  // below the request cursor is a duplicate the caller must never see.
  obs::HarvestEndpoint endpoint;
  endpoint.device = 1;
  endpoint.trace_cursor = 2;
  endpoint.fetch_trace_chunk = [](std::uint64_t) {
    return chunk_of(0, {make_span("a", 1), make_span("b", 2),
                        make_span("c", 3), make_span("d", 4)});
  };
  const obs::WorkerTelemetry telemetry = obs::harvest_worker(endpoint, 0);
  ASSERT_EQ(telemetry.spans.size(), 2u);
  EXPECT_EQ(telemetry.spans[0].seq, 2);
  EXPECT_EQ(telemetry.spans[1].seq, 3);
  EXPECT_EQ(telemetry.next_cursor, 4u);
}

TEST(HarvestWorkerCursor, SpansSurviveWorkerDyingAfterTraceFetch) {
  // Regression: the trace is pulled before the metrics, so spans already on
  // this side of the wire are kept — rebased, cursor advanced — when the
  // worker dies mid-round, instead of being lost to the exception.
  obs::HarvestEndpoint endpoint;
  endpoint.device = 3;
  endpoint.fetch_trace_chunk = [](std::uint64_t) {
    return chunk_of(0, {make_span("kept", 10)});
  };
  endpoint.fetch_metrics = []() -> std::string {
    throw TransportError("peer closed");
  };
  const obs::WorkerTelemetry telemetry = obs::harvest_worker(endpoint, 0);
  EXPECT_FALSE(telemetry.reachable);
  ASSERT_EQ(telemetry.spans.size(), 1u);
  EXPECT_EQ(telemetry.spans[0].name, "kept");
  EXPECT_EQ(telemetry.next_cursor, 1u)
      << "delivered spans must be acknowledged next round";
  EXPECT_TRUE(telemetry.metrics_text.empty());
}

TEST(HarvestWorkerCursor, TraceFailureKeepsCursorForRetry) {
  obs::HarvestEndpoint endpoint;
  endpoint.device = 3;
  endpoint.trace_cursor = 7;
  endpoint.fetch_trace_chunk = [](std::uint64_t) -> obs::TraceChunk {
    throw TransportError("peer closed");
  };
  const obs::WorkerTelemetry telemetry = obs::harvest_worker(endpoint, 0);
  EXPECT_FALSE(telemetry.reachable);
  EXPECT_TRUE(telemetry.spans.empty());
  EXPECT_EQ(telemetry.next_cursor, 7u)
      << "nothing delivered, nothing may be acknowledged";
}

TEST(ClusterTelemetryMerge, RoundsForOneDeviceFoldIntoOneEntry) {
  obs::ClusterTelemetry cluster;
  obs::WorkerTelemetry round1;
  round1.device = 2;
  round1.reachable = true;
  round1.metrics_text = "old 1\n";
  round1.spans = {make_span("a", 1)};
  round1.next_cursor = 1;
  round1.rounds = 1;
  obs::WorkerTelemetry round2;
  round2.device = 2;
  round2.reachable = true;
  round2.metrics_text = "new 2\n";
  round2.spans = {make_span("b", 2)};
  round2.next_cursor = 2;
  round2.rounds = 1;
  cluster.add(std::move(round1));
  cluster.add(std::move(round2));
  const auto workers = cluster.workers();
  ASSERT_EQ(workers.size(), 1u);
  EXPECT_EQ(workers[0].spans.size(), 2u) << "spans accumulate";
  EXPECT_EQ(workers[0].metrics_text, "new 2\n") << "cumulative text: latest wins";
  EXPECT_EQ(workers[0].next_cursor, 2u);
  EXPECT_EQ(workers[0].rounds, 2);
}

// ---------------------------------------------------------------------------
// Rolling windows
// ---------------------------------------------------------------------------

TEST(WindowedSeries, WindowHoldsOnlyTheLastWRounds) {
  obs::Histogram histogram;
  obs::WindowedSeries series(&histogram, 2);
  histogram.observe(1.0);
  series.roll();  // round 1: {1.0}
  histogram.observe(2.0);
  series.roll();  // round 2: {2.0}
  EXPECT_EQ(series.window().count, 2);
  EXPECT_DOUBLE_EQ(series.window().sum, 3.0);
  histogram.observe(10.0);
  histogram.observe(10.0);
  series.roll();  // round 3: {10, 10} — round 1 falls out of the window
  EXPECT_EQ(series.window().count, 3);
  EXPECT_DOUBLE_EQ(series.window().sum, 22.0);
  EXPECT_NEAR(series.window().mean(), 22.0 / 3.0, 1e-12);
  series.roll();  // round 4: empty — round 2 falls out too
  EXPECT_EQ(series.window().count, 2);
  EXPECT_DOUBLE_EQ(series.window().sum, 20.0);
}

TEST(WindowedCounter, WindowSumsDeltasAndExposesLastDelta) {
  obs::Counter counter;
  obs::WindowedCounter window(&counter, 3);
  counter.add(5);
  window.roll();
  EXPECT_EQ(window.last_delta(), 5);
  EXPECT_EQ(window.window(), 5);
  counter.add(2);
  window.roll();
  window.roll();  // idle round
  EXPECT_EQ(window.last_delta(), 0);
  EXPECT_EQ(window.window(), 7);
  counter.add(1);
  window.roll();  // the +5 round falls out of the 3-round window
  EXPECT_EQ(window.window(), 3);
}

// ---------------------------------------------------------------------------
// Straggler detection
// ---------------------------------------------------------------------------

TEST(DetectStragglers, TwoDeviceStageUsesPeerRatioFallback) {
  obs::StragglerOptions options;
  const auto verdicts =
      obs::detect_stragglers({{0, 0.030}, {1, 0.090}}, options);
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_FALSE(verdicts[0].straggler);
  EXPECT_TRUE(verdicts[1].straggler);
  EXPECT_NEAR(verdicts[1].score, 3.0, 1e-9);
}

TEST(DetectStragglers, BalancedPeersRaiseNothing) {
  obs::StragglerOptions options;
  for (const auto& verdict :
       obs::detect_stragglers({{0, 0.030}, {1, 0.031}}, options)) {
    EXPECT_FALSE(verdict.straggler) << "device " << verdict.device;
  }
}

TEST(DetectStragglers, LargeStageUsesRobustZScore) {
  obs::StragglerOptions options;
  const std::map<int, double> means = {
      {0, 0.0101}, {1, 0.0099}, {2, 0.0100}, {3, 0.0102}, {4, 0.0500}};
  const auto verdicts = obs::detect_stragglers(means, options);
  ASSERT_EQ(verdicts.size(), 5u);
  for (const auto& verdict : verdicts) {
    EXPECT_EQ(verdict.straggler, verdict.device == 4)
        << "device " << verdict.device << " score " << verdict.score;
  }
  // A fast outlier is an easy window, not a straggler.
  const auto fast = obs::detect_stragglers(
      {{0, 0.0101}, {1, 0.0099}, {2, 0.0100}, {3, 0.0102}, {4, 0.0005}},
      options);
  for (const auto& verdict : fast) {
    EXPECT_FALSE(verdict.straggler) << "device " << verdict.device;
  }
}

TEST(DetectStragglers, SingleDeviceHasNoPeersToStraggleBehind) {
  const auto verdicts =
      obs::detect_stragglers({{0, 10.0}}, obs::StragglerOptions{});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].straggler);
}

// ---------------------------------------------------------------------------
// Online model checker + Thm. 2 M/D/1
// ---------------------------------------------------------------------------

TEST(Md1Waiting, MatchesClosedFormAndHandlesEdges) {
  // λ = 5/s, p = 0.1 s: Wq = 0.5·0.1 / (2·(1−0.5)) = 0.05 s.
  EXPECT_NEAR(obs::md1_waiting_seconds(5.0, 0.1), 0.05, 1e-12);
  EXPECT_TRUE(std::isinf(obs::md1_waiting_seconds(11.0, 0.1)))
      << "unstable queue (λp ≥ 1) predicts unbounded waiting";
  EXPECT_EQ(obs::md1_waiting_seconds(0.0, 0.1), 0.0);
  EXPECT_EQ(obs::md1_waiting_seconds(5.0, 0.0), 0.0);
}

obs::StageResidual residual_of(double predicted, double measured) {
  obs::StageResidual r;
  r.stage = 0;
  r.signal = "compute";
  r.predicted = predicted;
  r.measured = measured;
  return r;
}

TEST(ModelChecker, DriftFiresAfterConsecutiveBreachesThenRearms) {
  obs::ModelChecker::Options options;
  options.drift_threshold = 0.5;
  options.consecutive_rounds = 3;
  options.residual_alpha = 1.0;  // no smoothing: residual == newest sample
  obs::ModelChecker checker(options);

  // Accurate rounds: residual 10%, nothing fires.
  EXPECT_TRUE(checker.check(1, {residual_of(0.100, 0.110)}).empty());
  ASSERT_EQ(checker.residuals().size(), 1u);
  EXPECT_NEAR(checker.residuals()[0].residual, 0.1, 1e-9);

  // Model drifts: measured double the prediction (residual 1.0).  The event
  // fires only on the `consecutive_rounds`-th breach, exactly once.
  EXPECT_TRUE(checker.check(2, {residual_of(0.100, 0.200)}).empty());
  EXPECT_TRUE(checker.check(3, {residual_of(0.100, 0.200)}).empty());
  const auto fired = checker.check(4, {residual_of(0.100, 0.200)});
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].kind, obs::HealthEventKind::ModelDrift);
  EXPECT_EQ(fired[0].signal, "compute");
  EXPECT_EQ(fired[0].round, 4);
  EXPECT_TRUE(checker.check(5, {residual_of(0.100, 0.200)}).empty())
      << "still drifted, but the event already fired";

  // Recovery re-arms: a fitting round clears the state, renewed drift
  // counts breaches from zero and fires again.
  EXPECT_TRUE(checker.check(6, {residual_of(0.100, 0.101)}).empty());
  EXPECT_TRUE(checker.check(7, {residual_of(0.100, 0.200)}).empty());
  EXPECT_TRUE(checker.check(8, {residual_of(0.100, 0.200)}).empty());
  EXPECT_EQ(checker.check(9, {residual_of(0.100, 0.200)}).size(), 1u);
}

TEST(ModelChecker, InfinitePredictionDisagreesFinitely) {
  obs::ModelChecker::Options options;
  options.consecutive_rounds = 1;
  obs::ModelChecker checker(options);
  obs::StageResidual r = residual_of(
      std::numeric_limits<double>::infinity(), 0.5);
  r.signal = "md1_wait";
  const auto events = checker.check(1, {r});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(std::isfinite(events[0].value));
}

// ---------------------------------------------------------------------------
// Loopback integration: two in-process workers, one artificially slowed.
// Mid-run harvest rounds must be monotone and duplicate-free, and the
// health engine must flag exactly the slow device.
// ---------------------------------------------------------------------------

class HarvestLoopFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::global().reset_values();
    obs::Tracer::global().clear();
    obs::Tracer::global().set_enabled(true);
  }
  void TearDown() override {
    runtime::clear_debug_compute_delays();
    obs::Tracer::global().set_enabled(false);
    obs::Tracer::global().clear();
  }
};

TEST_F(HarvestLoopFixture, MidRunHarvestIsMonotoneAndFlagsTheSlowDevice) {
  nn::Graph graph = models::toy_mnist({.input_size = 48});
  Rng rng(11);
  graph.randomize_weights(rng);
  // Homogeneous devices + a spatial (EFL) plan: every stage is split across
  // both devices into equal-time slices, so the devices are within-stage
  // peers and a slowed one is detectable by construction.
  const Cluster cluster = Cluster::paper_homogeneous(2, 1.0);
  const partition::Plan plan = partition::efl_plan(graph, cluster);

  constexpr DeviceId kSlow = 1;

  runtime::RuntimeOptions options;
  options.harvest_ms = 0;  // rounds driven by hand — deterministic
  runtime::PipelineRuntime rt(graph, plan, options);
  Tensor input(graph.input_shape());
  input.randomize(rng);

  // Calibrate, then slow: instrumented builds (tsan, sched) inflate the
  // baseline per-slice compute by 10–60×, so no fixed sleep dominates in
  // every config.  Measure the worst-stage compute over three undelayed
  // rounds (min_window_count — fewer and the health engine reports no
  // means yet), then make device 1 sleep 4× that inside its timed compute
  // window: even diluted by the calibration samples still in the rolling
  // window, the ratio-to-best-peer score clears the 2.0 straggler
  // threshold by construction, in any build.
  constexpr int kCalibration = 3;
  constexpr int kDelayed = 4;
  constexpr int kTasks = kCalibration + kDelayed;
  std::vector<obs::HealthSnapshot> snapshots;
  for (int i = 0; i < kCalibration; ++i) {
    rt.infer(input);
    ASSERT_TRUE(rt.harvest_now()) << "calibration task " << i;
    snapshots.push_back(rt.health());
  }
  double base_seconds = 0.0;
  for (const obs::DeviceHealth& device : snapshots.back().devices) {
    base_seconds = std::max(base_seconds, device.window_compute_mean);
  }
  ASSERT_GT(base_seconds, 0.0)
      << "calibration rounds produced no windowed compute means";
  const double delay_ms = std::max(60.0, 4000.0 * base_seconds);
  runtime::set_debug_compute_delay_ms(kSlow, delay_ms);

  for (int i = 0; i < kDelayed; ++i) {
    rt.infer(input);
    ASSERT_TRUE(rt.harvest_now()) << "delayed task " << i;
    snapshots.push_back(rt.health());
  }

  // ≥ 3 genuinely mid-run rounds (here: one per task), strictly ordered.
  ASSERT_GE(snapshots.size(), 3u);
  EXPECT_EQ(snapshots.back().rounds, kTasks);
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    EXPECT_GT(snapshots[i].rounds, snapshots[i - 1].rounds);
  }

  // Per device and per round: span totals and cursors move monotonically —
  // the cursor protocol never loses ground and never re-counts.
  std::map<int, std::int64_t> last_spans;
  std::map<int, std::uint64_t> last_cursor;
  for (const obs::HealthSnapshot& snapshot : snapshots) {
    EXPECT_EQ(snapshot.devices.size(), 2u);
    for (const obs::DeviceHealth& device : snapshot.devices) {
      EXPECT_TRUE(device.reachable) << "device " << device.device;
      EXPECT_GE(device.spans_harvested, last_spans[device.device]);
      EXPECT_GE(device.trace_cursor, last_cursor[device.device]);
      last_spans[device.device] = device.spans_harvested;
      last_cursor[device.device] = device.trace_cursor;
    }
  }
  for (const auto& [device, spans] : last_spans) {
    EXPECT_GT(spans, 0) << "device " << device
                        << " delivered no spans mid-run";
  }

  rt.shutdown();
  const obs::HealthSnapshot health = rt.health();

  // Exactly the slowed device is flagged, with the straggler event to match.
  ASSERT_EQ(health.devices.size(), 2u);
  for (const obs::DeviceHealth& device : health.devices) {
    EXPECT_EQ(device.straggler, device.device == kSlow)
        << "device " << device.device << " score " << device.straggler_score;
  }
  EXPECT_FALSE(health.healthy());
  // At least one straggler event for the slowed device.  (Events are
  // edge-triggered per round; the undelayed calibration rounds measure
  // ms-scale slices where scheduling noise can transiently flag either
  // device, so exact-device strictness lives on the final verdict above.)
  bool straggler_event = false;
  for (const obs::HealthEvent& event : health.events) {
    if (event.kind != obs::HealthEventKind::Straggler) continue;
    straggler_event |= event.device == kSlow;
  }
  EXPECT_TRUE(straggler_event) << "no straggler event raised";

  // Accumulated telemetry: every span delivered exactly once per worker —
  // sequence numbers are unique even though chunks are at-least-once.
  const auto workers = rt.cluster_telemetry().workers();
  ASSERT_EQ(workers.size(), 2u);
  for (const obs::WorkerTelemetry& worker : workers) {
    EXPECT_TRUE(worker.reachable);
    EXPECT_GE(worker.rounds, kTasks) << "device " << worker.device;
    std::set<std::int64_t> seqs;
    for (const obs::SpanRecord& span : worker.spans) {
      ASSERT_GE(span.seq, 0) << span.name;
      EXPECT_TRUE(seqs.insert(span.seq).second)
          << "device " << worker.device << " delivered seq " << span.seq
          << " twice";
    }
    // compute + serve per request on this worker, at minimum.
    EXPECT_GE(worker.spans.size(), static_cast<std::size_t>(kTasks));
  }

  // Shutdown-ack regression: the worker's graceful flush into the global
  // tracer must cover only spans no harvest round delivered — per track,
  // every stamped sequence number appears exactly once in the merged trace.
  std::map<std::int64_t, std::set<std::int64_t>> seen;
  for (const obs::SpanRecord& span : obs::Tracer::global().snapshot()) {
    if (span.seq < 0) continue;  // coordinator-side spans are unstamped
    EXPECT_TRUE(seen[span.track].insert(span.seq).second)
        << span.name << " seq " << span.seq << " duplicated on track "
        << span.track;
  }
}

TEST_F(HarvestLoopFixture, HarvestNowRefusesAfterShutdown) {
  nn::Graph graph = models::toy_mnist({.input_size = 16});
  Rng rng(3);
  graph.randomize_weights(rng);
  const Cluster cluster = Cluster::paper_homogeneous(2, 1.0);
  const partition::Plan plan = partition::efl_plan(graph, cluster);
  runtime::PipelineRuntime rt(graph, plan);
  Tensor input(graph.input_shape());
  input.randomize(rng);
  rt.infer(input);
  EXPECT_TRUE(rt.harvest_now());
  rt.shutdown();
  EXPECT_FALSE(rt.harvest_now());
  EXPECT_GE(rt.health().rounds, 1);
}

TEST_F(HarvestLoopFixture, PeriodicThreadHarvestsWithoutManualRounds) {
  // The background loop alone (no harvest_now calls) must complete mid-run
  // rounds while tasks flow.
  nn::Graph graph = models::toy_mnist({.input_size = 32});
  Rng rng(5);
  graph.randomize_weights(rng);
  const Cluster cluster = Cluster::paper_homogeneous(2, 1.0);
  const partition::Plan plan = partition::efl_plan(graph, cluster);
  runtime::RuntimeOptions options;
  options.harvest_ms = 5;
  runtime::PipelineRuntime rt(graph, plan, options);
  Tensor input(graph.input_shape());
  input.randomize(rng);
  std::int64_t mid_run_rounds = 0;
  for (int i = 0; i < 40 && mid_run_rounds < 3; ++i) {
    rt.infer(input);
    mid_run_rounds = rt.health().rounds;
  }
  EXPECT_GE(mid_run_rounds, 3) << "periodic harvester made too few rounds";
  rt.shutdown();
}

}  // namespace
}  // namespace pico
