// Systematic exploration of the real runtime's concurrency: BoundedQueue
// producer/consumer/close races (exhaustively, with a preemption bound),
// ThreadPool nested self-drain and exception propagation, Worker shutdown
// racing a control-plane harvester, and the pipeline/epoch runtimes under
// randomized (PCT) schedules.  Pinned decision strings at the bottom
// keep the nastiest interleavings we found as replayable regressions.
// Only built under the PICO_SCHED preset.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/planner.hpp"
#include "models/zoo.hpp"
#include "nn/executor.hpp"
#include "obs/flight_recorder.hpp"
#include "runtime/epoch_runtime.hpp"
#include "runtime/channel.hpp"
#include "runtime/message.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/transport.hpp"
#include "runtime/worker.hpp"
#include "sched/explorer.hpp"
#include "sched/hooks.hpp"

namespace pico {
namespace {

using runtime::BoundedQueue;
using runtime::Message;
using runtime::MessageType;

// The explorer serializes the managed threads, so real parallelism inside
// a schedule only adds uninstrumented blocking.  Force every inner
// ThreadPool to be inline before any test allocates the global pool.
const bool kForceSingleThread = [] {
  setenv("PICO_THREADS", "1", 1);
  return true;
}();

void expect_clean(const sched::ExploreResult& result, const char* name) {
  if (!result.ok()) sched::write_failure_artifacts(result, name);
  EXPECT_TRUE(result.ok()) << result.summary();
}

// --- BoundedQueue ------------------------------------------------------

// Two threads, capacity 1: the producer fills past capacity (so push
// blocks), then closes; the consumer drains to nullopt.  Small enough to
// explore exhaustively.
void queue_two_thread_body() {
  auto* queue = new BoundedQueue<int>(1);  // leaked if a schedule fails
  sched::name_object(queue, "queue");
  SchedThread producer([queue] {
    queue->push(1);
    queue->push(2);
    queue->close();
  });
  SchedThread consumer([queue] {
    std::vector<int> got;
    while (std::optional<int> value = queue->pop()) got.push_back(*value);
    sched::check(got == std::vector<int>({1, 2}),
                 "consumer must see exactly 1,2 in order");
    sched::check(queue->pop() == std::nullopt,
                 "pop after drained close must stay nullopt");
  });
  producer.join();
  consumer.join();
  delete queue;
}

TEST(SchedRuntime, BoundedQueueTwoThreadsExhaustive) {
  sched::ExploreOptions options;
  options.mode = sched::Mode::Exhaustive;
  options.preemption_bound = 2;
  sched::ExploreResult result =
      sched::explore(options, queue_two_thread_body);
  EXPECT_TRUE(result.complete)
      << "exploration did not finish: " << result.summary();
  expect_clean(result, "queue-two-threads");
}

// Three threads racing push/pop/close: close arrives from a third thread
// at an arbitrary point, so pushes may throw TransportError and the
// consumer may see any prefix of 1,2 — but never a reordering, and never
// a value after nullopt.
void queue_close_race_body() {
  auto* queue = new BoundedQueue<int>(1);  // leaked if a schedule fails
  SchedThread producer([queue] {
    try {
      queue->push(1);
      queue->push(2);
    } catch (const TransportError&) {
      // Racing close won; expected.
    }
  });
  SchedThread closer([queue] { queue->close(); });
  SchedThread consumer([queue] {
    std::vector<int> got;
    while (std::optional<int> value = queue->pop()) got.push_back(*value);
    const bool prefix = got.empty() || got == std::vector<int>({1}) ||
                        got == std::vector<int>({1, 2});
    sched::check(prefix, "consumer must see a prefix of 1,2");
  });
  producer.join();
  closer.join();
  consumer.join();
  delete queue;
}

TEST(SchedRuntime, BoundedQueueCloseRaceExhaustive) {
  sched::ExploreOptions options;
  options.mode = sched::Mode::Exhaustive;
  options.preemption_bound = 2;
  options.keep_schedules = true;
  sched::ExploreResult result =
      sched::explore(options, queue_close_race_body);
  EXPECT_TRUE(result.complete)
      << "exploration did not finish: " << result.summary();
  expect_clean(result, "queue-close-race");
  if (getenv("PICO_SCHED_PRINT_SCHEDULES") != nullptr) {
    // Dev aid for refreshing PinnedCloseRaceSchedules: dump the deepest
    // decision strings this exhaustive run produced.
    std::vector<std::string> all = result.schedule_decisions;
    std::sort(all.begin(), all.end(),
              [](const std::string& a, const std::string& b) {
                return a.size() > b.size();
              });
    for (std::size_t i = 0; i < all.size() && i < 5; ++i) {
      std::fprintf(stderr, "schedule[%zu] = \"%s\"\n", i, all[i].c_str());
    }
  }
}

// --- ThreadPool --------------------------------------------------------

// A pool task that itself calls parallel_for (the nested caller drains the
// queue, so progress must not depend on a free worker), plus the exception
// path: the first thrown error must come out of the submitting call after
// every task has finished.
void thread_pool_body() {
  auto* pool = new ThreadPool(2);  // leaked if a schedule fails
  auto* outer = new int(0);
  auto* inner = new int(0);
  pool->parallel_for(2, [&](int index) {
    if (index == 0) {
      pool->parallel_for(2, [&](int) { ++*inner; });
    }
    ++*outer;
  });
  sched::check(*outer == 2 && *inner == 2,
               "nested parallel_for must run every task exactly once");
  bool threw = false;
  try {
    pool->parallel_for(2, [](int index) {
      if (index == 1) throw std::runtime_error("task failure");
    });
  } catch (const std::runtime_error&) {
    threw = true;
  }
  sched::check(threw, "parallel_for must rethrow a task exception");
  delete outer;
  delete inner;
  delete pool;  // drains + joins the worker
}

TEST(SchedRuntime, ThreadPoolNestedAndExceptionRandom) {
  sched::ExploreOptions options;
  options.mode = sched::Mode::Random;
  options.random_schedules = 60;
  options.seed = 7;
  sched::ExploreResult result = sched::explore(options, thread_pool_body);
  expect_clean(result, "thread-pool");
}

// --- Worker shutdown vs control-plane harvest --------------------------

const nn::Graph& worker_graph() {
  static const nn::Graph* graph = [] {
    auto* g = new nn::Graph(models::toy_mnist({.input_size = 16}));
    Rng rng(5);
    g->randomize_weights(rng);
    return g;
  }();
  return *graph;
}

// A harvester thread runs the Ping + TraceDump control plane while the
// owner stops the worker.  Every message op may lose the race to the
// close; TransportError is the documented clean outcome on both sides.
void worker_shutdown_body() {
  auto [coordinator_end, worker_end] = runtime::make_inproc_pair();
  auto* worker = new runtime::Worker(worker_graph(),
                                     std::move(worker_end), 0);
  auto* harvester_end =
      new std::unique_ptr<runtime::Connection>(std::move(coordinator_end));
  worker->start();
  SchedThread harvester([harvester_end] {
    try {
      Message ping;
      ping.type = MessageType::Ping;
      ping.t_origin_ns = 1;
      (*harvester_end)->send(ping);
      Message pong = (*harvester_end)->recv();
      sched::check(pong.type == MessageType::Pong,
                   "Ping must be answered by Pong");
      sched::check(pong.t_origin_ns == 1, "Pong must echo t1");
      Message dump;
      dump.type = MessageType::TraceDump;
      (*harvester_end)->send(dump);
      Message spans = (*harvester_end)->recv();
      sched::check(spans.type == MessageType::TraceDump,
                   "TraceDump must be answered in kind");
    } catch (const TransportError&) {
      // The worker shut down mid-harvest; expected.
    }
  });
  worker->stop();  // close + join races against the harvest
  harvester.join();
  delete worker;
  delete harvester_end;
}

TEST(SchedRuntime, WorkerShutdownVsHarvestRandom) {
  sched::ExploreOptions options;
  options.mode = sched::Mode::Random;
  options.random_schedules = 40;
  options.seed = 11;
  options.max_steps = 100000;
  sched::ExploreResult result = sched::explore(options,
                                               worker_shutdown_body);
  expect_clean(result, "worker-shutdown");
}

// --- flight recorder: writes vs crash dump vs black-box harvest --------

// Three consumers of the same seqlock ring race: a writer journaling
// events, a "dumper" taking the full-ring merge the crash handler uses,
// and a harvester pulling EventDump chunks through a live worker while
// the owner stops it.  Under every interleaving the merge must stay a
// consistent, strictly-ordered sequence (no torn slot ever surfaces), a
// chunk must carry only events past its cursor, and the reply cursor
// must never regress.
void event_harvest_body() {
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.clear();
  // next_seq() is the seq the NEXT record takes (seqs keep counting across
  // clear()); every event journaled by this body is therefore > floor.
  const std::uint64_t seq_floor = recorder.next_seq() - 1;
  auto [coordinator_end, worker_end] = runtime::make_inproc_pair();
  auto* worker = new runtime::Worker(worker_graph(),
                                     std::move(worker_end), 0);
  auto* harvester_end =
      new std::unique_ptr<runtime::Connection>(std::move(coordinator_end));
  worker->start();
  SchedThread writer([] {
    for (int i = 0; i < 6; ++i) {
      obs::record_event(obs::EventCode::TaskAccept, i);
    }
  });
  SchedThread dumper([seq_floor] {
    // The crash handler's read path: a full merge at an arbitrary point.
    const std::vector<obs::EventRecord> events =
        obs::FlightRecorder::global().snapshot();
    std::uint64_t previous = seq_floor;
    for (const obs::EventRecord& event : events) {
      sched::check(event.seq > previous,
                   "snapshot must be a strictly-ordered merge (no tears)");
      previous = event.seq;
    }
  });
  SchedThread harvester([harvester_end, seq_floor] {
    try {
      std::uint64_t cursor = seq_floor;
      for (int round = 0; round < 2; ++round) {
        Message request;
        request.type = MessageType::EventDump;
        request.span_cursor = cursor;
        (*harvester_end)->send(request);
        Message reply = (*harvester_end)->recv();
        sched::check(reply.type == MessageType::EventDump,
                     "EventDump must be answered in kind");
        sched::check(reply.span_cursor >= cursor,
                     "event cursor must never move backwards");
        const obs::EventChunk chunk =
            obs::decode_events(reply.blob.data(), reply.blob.size());
        sched::check(chunk.next == reply.span_cursor,
                     "wire cursor must match the encoded chunk");
        std::uint64_t previous = cursor;
        for (const obs::EventRecord& event : chunk.events) {
          sched::check(event.seq > previous,
                       "a chunk carries only newer events, in order");
          previous = event.seq;
        }
        cursor = reply.span_cursor;
      }
    } catch (const TransportError&) {
      // The worker shut down mid-harvest; expected.
    }
  });
  writer.join();
  dumper.join();
  worker->stop();  // close + join races against the harvest
  harvester.join();
  delete worker;
  delete harvester_end;
}

TEST(SchedRuntime, RecorderWriteVsDumpVsHarvestRandom) {
  sched::ExploreOptions options;
  options.mode = sched::Mode::Random;
  options.random_schedules = 40;
  options.seed = 13;
  options.max_steps = 100000;
  sched::ExploreResult result = sched::explore(options, event_harvest_body);
  expect_clean(result, "recorder-harvest");
}

// --- Pipeline / epoch runtime ------------------------------------------

NetworkModel test_network() {
  NetworkModel net;
  net.bandwidth = 50e6 / 8.0;
  net.per_message_overhead = 1e-3;
  return net;
}

struct RuntimeModel {
  nn::Graph graph;
  Cluster cluster;
  Tensor input;
  Tensor reference;
  std::vector<adaptive::Candidate> candidates;

  RuntimeModel()
      : graph(models::toy_mnist({.input_size = 16})),
        cluster(Cluster::paper_heterogeneous()) {
    Rng rng(91);
    graph.randomize_weights(rng);
    input = Tensor(graph.input_shape());
    input.randomize(rng);
    reference = nn::execute(graph, input);
    const NetworkModel net = test_network();
    candidates = {
        adaptive::make_candidate(graph, cluster, net,
                                 plan(graph, cluster, net,
                                      Scheme::OptimalFused)),
        adaptive::make_candidate(graph, cluster, net,
                                 plan(graph, cluster, net, Scheme::Pico)),
    };
  }

  static const RuntimeModel& get() {
    static const RuntimeModel* model = new RuntimeModel;
    return *model;
  }
};

/// APICO over whatever membership the runtime plans for: {OFL, PICO}, a
/// nanosecond window (a re-evaluation on practically every submit) and no
/// idle wakeup — under exploration CondVar::wait_for models an immediate
/// timeout, so a polling completer would spin.
runtime::EpochOptions apico_options() {
  runtime::EpochOptions options;
  options.runtime = runtime::RuntimeOptions{.harvest_pings = 1};
  options.network = test_network();
  options.replan = [](const nn::Graph& graph, const Cluster& cluster) {
    const NetworkModel net = test_network();
    return std::vector<partition::Plan>{
        plan(graph, cluster, net, Scheme::OptimalFused),
        plan(graph, cluster, net, Scheme::Pico)};
  };
  options.beta = 1.0;
  options.window = 1e-9;
  options.liveness_poll_ms = 0;
  return options;
}

// Real inferences racing the drain: submit, shutdown (which joins every
// coordinator and worker under the model), then collect the futures —
// collecting only after shutdown keeps the root thread off uninstrumented
// std::future waits.  Randomized: the runtime reads wall clocks, so its
// branch structure is not schedule-deterministic.
void pipeline_body() {
  const RuntimeModel& model = RuntimeModel::get();
  auto* rt = new runtime::PipelineRuntime(
      model.graph, model.candidates[1].plan,
      runtime::RuntimeOptions{.harvest_pings = 1});
  auto futures = new std::vector<std::future<Tensor>>;
  futures->push_back(rt->submit(model.input));
  futures->push_back(rt->submit(model.input));
  rt->shutdown();
  for (std::future<Tensor>& f : *futures) {
    sched::check(
        Tensor::max_abs_diff(f.get(), model.reference) == 0.0f,
        "pipeline output must stay bit-exact under every schedule");
  }
  sched::check(rt->tasks_completed() == 2, "both tasks must complete");
  delete futures;
  delete rt;
}

TEST(SchedRuntime, PipelineSubmitVsShutdownRandom) {
  sched::ExploreOptions options;
  options.mode = sched::Mode::Random;
  options.random_schedules = 8;
  options.seed = 23;
  options.max_steps = 2000000;
  sched::ExploreResult result = sched::explore(options, pipeline_body);
  expect_clean(result, "pipeline");
}

// Mid-run telemetry harvest racing both submit and shutdown.  harvest_now()
// serializes whole worker round trips against the coordinators'
// scatter/gather via the per-device connection gates (and whole rounds via
// the round gate), and shutdown holds the same gates for its Shutdown
// sends — so under every interleaving the inferences stay bit-exact and a
// harvest call lands either as a completed round, a round against already
// stopped workers (clean TransportError inside, workers flagged
// unreachable), or a refusal after the stopped flag.  harvest_ms stays 0:
// rounds are driven by the modeled thread, not a periodic timer.
void harvest_race_body() {
  const RuntimeModel& model = RuntimeModel::get();
  auto* rt = new runtime::PipelineRuntime(
      model.graph, model.candidates[1].plan,
      runtime::RuntimeOptions{.harvest_pings = 1});
  auto futures = new std::vector<std::future<Tensor>>;
  SchedThread harvester([rt] {
    rt->harvest_now();
    rt->harvest_now();
  });
  futures->push_back(rt->submit(model.input));
  futures->push_back(rt->submit(model.input));
  rt->shutdown();
  harvester.join();
  sched::check(!rt->harvest_now(), "harvest after shutdown must refuse");
  for (std::future<Tensor>& f : *futures) {
    sched::check(
        Tensor::max_abs_diff(f.get(), model.reference) == 0.0f,
        "harvest rounds must never corrupt an in-flight inference");
  }
  sched::check(rt->health().rounds >= 1,
               "the shutdown round itself always completes");
  delete futures;
  delete rt;
}

TEST(SchedRuntime, HarvestVsSubmitVsShutdownRandom) {
  sched::ExploreOptions options;
  options.mode = sched::Mode::Random;
  options.random_schedules = 8;
  options.seed = 37;
  options.max_steps = 2000000;
  sched::ExploreResult result = sched::explore(options, harvest_race_body);
  expect_clean(result, "harvest-race");
}

// Plan switching vs in-flight tasks: a nanosecond window forces a
// re-evaluation on practically every submit, so the drain-then-swap path
// races the tasks still inside the active PipelineRuntime.
void adaptive_body() {
  const RuntimeModel& model = RuntimeModel::get();
  auto* rt = new runtime::EpochRuntime(model.graph, model.cluster,
                                       apico_options());
  auto futures = new std::vector<std::future<Tensor>>;
  for (int i = 0; i < 3; ++i) futures->push_back(rt->submit(model.input));
  rt->shutdown();
  for (std::future<Tensor>& f : *futures) {
    sched::check(
        Tensor::max_abs_diff(f.get(), model.reference) == 0.0f,
        "adaptive output must stay bit-exact across plan switches");
  }
  delete futures;
  delete rt;
}

TEST(SchedRuntime, AdaptiveSwitchVsInFlightRandom) {
  sched::ExploreOptions options;
  options.mode = sched::Mode::Random;
  options.random_schedules = 6;
  options.seed = 29;
  options.max_steps = 2000000;
  sched::ExploreResult result = sched::explore(options, adaptive_body);
  expect_clean(result, "adaptive");
}

// --- worker death vs live traffic --------------------------------------

// A chaos thread arms a hard kill on the plan's first device at an
// arbitrary schedule point while two inferences flow.  Depending on the
// interleaving the kill lands before, between, or after the tasks — or
// never fires — and under every schedule the epoch runtime must deliver
// both results bit-exactly: recovery replans over the survivors and no
// accepted inference is dropped or corrupted.  No transport deadlines and
// liveness_poll_ms = 0 (under exploration CondVar::wait_for models an
// immediate timeout, so a polling completer would spin); the death is
// EOF-detected, which needs no clock.
void churn_body() {
  const RuntimeModel& model = RuntimeModel::get();
  runtime::clear_debug_worker_faults();
  runtime::EpochOptions options;
  options.network = test_network();
  options.runtime = runtime::RuntimeOptions{.harvest_pings = 1};
  options.liveness_poll_ms = 0;
  auto* rt = new runtime::EpochRuntime(
      model.graph, Cluster::raspberry_pi({1.2, 0.8}), options);
  const DeviceId victim =
      rt->plan().stages.front().assignments.front().device;
  SchedThread killer(
      [victim] { runtime::set_debug_worker_kill_after(victim, 1); });
  auto futures = new std::vector<std::future<Tensor>>;
  futures->push_back(rt->submit(model.input));
  futures->push_back(rt->submit(model.input));
  killer.join();
  rt->shutdown();
  for (std::future<Tensor>& f : *futures) {
    sched::check(Tensor::max_abs_diff(f.get(), model.reference) == 0.0f,
                 "churn must never corrupt or drop an accepted inference");
  }
  runtime::clear_debug_worker_faults();
  delete futures;
  delete rt;
}

TEST(SchedRuntime, WorkerDeathVsTrafficRandom) {
  sched::ExploreOptions options;
  options.mode = sched::Mode::Random;
  options.random_schedules = 6;
  options.seed = 41;
  options.max_steps = 2000000;
  sched::ExploreResult result = sched::explore(options, churn_body);
  expect_clean(result, "worker-death");
}

// A kill armed while a scheme switch drains: the {OFL, PICO} runtime
// re-evaluates on every submit, so switches and their drains interleave
// with the traffic, and a chaos thread arms a hard kill on the first
// plan's first device at an arbitrary schedule point — before, during or
// after a drain, or never firing.  One rebuild path serves both triggers: under
// every schedule each accepted inference comes back bit-exactly.
void switch_death_body() {
  const RuntimeModel& model = RuntimeModel::get();
  runtime::clear_debug_worker_faults();
  auto* rt = new runtime::EpochRuntime(
      model.graph, Cluster::raspberry_pi({1.2, 0.8}), apico_options());
  const DeviceId victim =
      rt->plan().stages.front().assignments.front().device;
  SchedThread killer(
      [victim] { runtime::set_debug_worker_kill_after(victim, 1); });
  auto futures = new std::vector<std::future<Tensor>>;
  for (int i = 0; i < 3; ++i) futures->push_back(rt->submit(model.input));
  killer.join();
  rt->shutdown();
  for (std::future<Tensor>& f : *futures) {
    sched::check(Tensor::max_abs_diff(f.get(), model.reference) == 0.0f,
                 "a death during a switch must never corrupt or drop a task");
  }
  runtime::clear_debug_worker_faults();
  delete futures;
  delete rt;
}

TEST(SchedRuntime, WorkerDeathVsSwitchDrainRandom) {
  sched::ExploreOptions options;
  options.mode = sched::Mode::Random;
  options.random_schedules = 6;
  options.seed = 43;
  options.max_steps = 2000000;
  sched::ExploreResult result = sched::explore(options, switch_death_body);
  expect_clean(result, "switch-death");
}

// --- pinned schedules --------------------------------------------------

// The three nastiest passing interleavings the exhaustive close-race run
// produced (most context switches / deepest decision strings), pinned as
// replayable regressions.  If a future change makes any of them fail or
// diverge, the replay prints the full step trace.
TEST(SchedRuntime, PinnedCloseRaceSchedules) {
  const char* pinned[] = {
      "0,0,3,3,2,0,1,1,1,3,3,1,3,3,2,3",
      "0,0,3,3,1,1,1,0,3,3,1,0,2,2,3,3",
      "0,0,3,3,1,1,1,0,2,3,3,1,3,3,2,3",
  };
  for (const char* decisions : pinned) {
    sched::ScheduleFailure outcome =
        sched::replay(decisions, queue_close_race_body);
    EXPECT_EQ(outcome.verdict, sched::Verdict::Ok)
        << "pinned schedule [" << decisions
        << "] no longer passes:\n" << outcome.to_string();
  }
}

// Runs last: across everything above, the pass-through lockdep hooks (the
// ones live even outside explore()) must never have observed a lock-order
// cycle in the real runtime.
TEST(SchedRuntime, ZGlobalLockOrderGraphIsAcyclic) {
  const std::vector<std::string> cycles = sched::global_lock_cycles();
  EXPECT_TRUE(cycles.empty()) << cycles.front();
}

}  // namespace
}  // namespace pico
