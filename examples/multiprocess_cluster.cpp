// Multi-process cluster: each "edge device" is a separate OS process.
//
// The closest single-machine stand-in for the paper's real deployment: the
// coordinator listens on a loopback TCP port, forks one worker process per
// device (each child calls runtime::serve_blocking — exactly what a device
// binary on a Raspberry Pi would run after `connect()`), and then drives
// the PICO pipeline through the bring-your-own-transport PipelineRuntime.
// No memory is shared after the fork: every feature map really crosses a
// socket.
//
//   ./examples/multiprocess_cluster [frames] [host]
//
// `host` (default 127.0.0.1) is what each worker dials — resolved via
// getaddrinfo, so a name works too.  Passing a non-loopback host makes the
// coordinator bind 0.0.0.0; point real devices at the printed port and the
// same code spans machines.
//
// Chaos: PICO_CHAOS_SEGV="<device>:<after>" makes that worker process raise
// a real SIGSEGV on its <after>-th request.  Every worker arms the crash
// handlers, so the dying process writes pico_postmortem_<pid>.json (honoring
// PICO_POSTMORTEM_DIR); the coordinator tolerates the death, verifies the
// artifact parses and holds the worker's final journal (the in-flight
// worker_serve), and prints its path.  This is the CI black-box drill.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/planner.hpp"
#include "models/zoo.hpp"
#include "nn/executor.hpp"
#include "obs/postmortem.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/transport.hpp"
#include "runtime/worker.hpp"

int main(int argc, char** argv) {
  using namespace pico;
  const int frames = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::string host = argc > 2 ? argv[2] : "127.0.0.1";

  DeviceId chaos_device = -1;
  long long chaos_after = 0;
  if (const char* env = std::getenv("PICO_CHAOS_SEGV");
      env != nullptr && *env != '\0') {
    const std::string spec = env;
    const std::size_t colon = spec.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= spec.size()) {
      std::fprintf(stderr, "PICO_CHAOS_SEGV must be <device>:<after>\n");
      return 1;
    }
    chaos_device = std::atoi(spec.substr(0, colon).c_str());
    chaos_after = std::atoll(spec.c_str() + colon + 1);
    if (chaos_after < 1) {
      std::fprintf(stderr, "PICO_CHAOS_SEGV request count must be >= 1\n");
      return 1;
    }
  }

  nn::Graph model = models::toy_mnist();
  Rng rng(77);
  model.randomize_weights(rng);
  const Cluster cluster = Cluster::paper_heterogeneous();
  NetworkModel network;
  const auto p = plan(model, cluster, network, Scheme::Pico);
  std::printf("%s", partition::describe_plan(model, p).c_str());

  // Devices used by the plan.
  std::vector<DeviceId> devices;
  for (const auto& stage : p.stages) {
    for (const auto& slice : stage.assignments) {
      devices.push_back(slice.device);
    }
  }

  runtime::TcpListener listener(
      0, host == "127.0.0.1" ? "127.0.0.1" : "0.0.0.0");
  std::printf("coordinator listening on %s:%u\n", host.c_str(),
              listener.port());
  std::vector<pid_t> children;
  pid_t chaos_pid = -1;
  std::map<DeviceId, std::unique_ptr<runtime::Connection>> connections;
  for (const DeviceId device : devices) {
    const pid_t pid = fork();
    if (pid == 0) {
      // Worker process: connect and serve until shutdown.  The model was
      // inherited copy-on-write by fork; a real device would load it from a
      // weights blob (see examples/edge_deployment).
      if (chaos_device >= 0) {
        // Crash drill: every worker arms the black box (the handler formats
        // the pid at dump time, so each process writes its own artifact),
        // and the targeted one is primed to fault.
        obs::install_postmortem_handlers();
        if (device == chaos_device) {
          runtime::set_debug_worker_segv_after(device, chaos_after);
        }
      }
      auto connection = runtime::tcp_connect(host, listener.port());
      runtime::serve_blocking(model, *connection, device);
      _exit(0);
    }
    children.push_back(pid);
    if (device == chaos_device) chaos_pid = pid;
    // Serial fork+accept keeps the device <-> socket mapping exact.
    connections.emplace(device, listener.accept());
  }
  std::printf("forked %zu worker processes\n", children.size());
  if (chaos_device >= 0 && chaos_pid < 0) {
    std::fprintf(stderr, "PICO_CHAOS_SEGV device %d is not in the plan\n",
                 chaos_device);
  }

  {
    runtime::PipelineRuntime rt(model, p, std::move(connections),
                                runtime::RuntimeOptions::from_env({}));
    Tensor frame(model.input_shape());
    int exact = 0;
    int dropped = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < frames; ++i) {
      frame.randomize(rng);
      const Tensor expected = nn::execute(model, frame);
      try {
        exact += Tensor::max_abs_diff(rt.infer(frame), expected) == 0.0f;
      } catch (const std::exception& e) {
        // Expected under the chaos drill: the crashed worker takes its
        // in-flight task (and the rest of the run) with it.
        if (chaos_device < 0) throw;
        std::printf("frame %d failed after worker crash: %s\n", i, e.what());
        dropped = frames - i;
        break;
      }
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    std::printf("%d/%d frames bit-identical across process boundaries "
                "(%.2f frames/s)\n",
                exact, frames - dropped, frames / wall);
    // rt's destructor sends Shutdown to every worker process.
  }

  int failures = 0;
  for (const pid_t pid : children) {
    int status = 0;
    waitpid(pid, &status, 0);
    if (pid == chaos_pid) {
      // The chaos target must die of the injected SIGSEGV, not exit.
      failures += !(WIFSIGNALED(status) && WTERMSIG(status) == SIGSEGV);
      continue;
    }
    failures += !(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  std::printf("all %zu worker processes exited %s: %s\n", children.size(),
              chaos_pid >= 0 ? "as expected" : "cleanly",
              failures == 0 ? "yes" : "NO");

  // Crash-drill verdict: the dying worker must have left a parseable black
  // box whose journal holds the in-flight request it was serving.
  if (chaos_pid >= 0) {
    const char* dir = std::getenv("PICO_POSTMORTEM_DIR");
    const std::string path = std::string(dir != nullptr && *dir ? dir : ".") +
                             "/pico_postmortem_" +
                             std::to_string(chaos_pid) + ".json";
    try {
      const obs::Postmortem pm = obs::load_postmortem(path);
      bool served = false;
      for (const obs::PostmortemEvent& event : pm.events) {
        served |= event.name == "worker_serve";
      }
      if (pm.reason != "SIGSEGV") {
        std::printf("postmortem reason is '%s', expected SIGSEGV\n",
                    pm.reason.c_str());
        ++failures;
      }
      if (!served) {
        std::printf("postmortem %s lacks the in-flight worker_serve event\n",
                    path.c_str());
        ++failures;
      }
      std::printf("postmortem artifact: %s (%zu journal event(s))\n",
                  path.c_str(), pm.events.size());
    } catch (const std::exception& e) {
      std::printf("postmortem artifact %s unusable: %s\n", path.c_str(),
                  e.what());
      ++failures;
    }
  }
  return failures;
}
