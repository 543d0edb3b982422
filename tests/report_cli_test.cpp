// pico_report CLI: runs the built binary (PICO_REPORT_BIN) the way CI does
// and holds each subcommand to its exit contract — 0 = pass, 1 = usage or
// input error, 2 = a gate failed — and its JSON to a real parser.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "json_parser.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/postmortem.hpp"

namespace pico {
namespace {

struct CliResult {
  int status = -1;
  std::string out;  ///< stdout, plus stderr when asked for
};

/// Run `pico_report <args>`; stderr is dropped unless `with_stderr`.
CliResult run_report(const std::string& args, bool with_stderr = false) {
  const std::string cmd = std::string(PICO_REPORT_BIN) + " " + args +
                          (with_stderr ? " 2>&1" : " 2>/dev/null");
  CliResult result;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.out.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  result.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string toy_cfg() {
  return std::string(PICO_REPO_DIR) + "/configs/toy.cfg";
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "report_cli_" + name;
}

/// A small toy run: two devices, in-process unless `extra` says otherwise.
std::string toy_run(const std::string& extra) {
  return "run --model " + toy_cfg() +
         " --cluster homog:2x1.5 --input-size 32 --tasks 3 "
         "--trace-out /dev/null " +
         extra;
}

const JsonValue& member(const JsonValue& object, const std::string& key) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) throw std::runtime_error("missing key " + key);
  return *value;
}

TEST(ReportCli, RunCheckOverTcpWithSkewHoldsTheKeysCiReads) {
  const CliResult r = run_report(
      toy_run("--transport tcp --skew-ns 50000000 --check --json"));
  ASSERT_EQ(r.status, 0) << r.out;
  const JsonValue root = JsonParser(r.out).parse();
  // The Eq. 5–11 stage table.
  EXPECT_EQ(member(member(root, "predicted"), "period_s").kind,
            JsonValue::Kind::Number);
  EXPECT_EQ(member(member(root, "measured"), "period_s").kind,
            JsonValue::Kind::Number);
  EXPECT_FALSE(member(root, "stages").array.empty());
  // The cluster view.
  const JsonValue& devices = member(root, "devices");
  ASSERT_EQ(devices.array.size(), 2u);
  for (const JsonValue& device : devices.array) {
    EXPECT_TRUE(member(device, "reachable").boolean);
    EXPECT_GT(member(device, "worker_spans").number, 0);
    EXPECT_GT(member(device, "clock_offset_ns").number, 0);
  }
  const JsonValue& health = member(root, "health");
  EXPECT_GE(member(health, "rounds").number, 1);
  EXPECT_EQ(member(health, "healthy").kind, JsonValue::Kind::Bool);
  EXPECT_EQ(member(health, "events").kind, JsonValue::Kind::Array);
  for (const JsonValue& device : member(health, "devices").array) {
    EXPECT_EQ(member(device, "straggler").kind, JsonValue::Kind::Bool);
    EXPECT_GT(member(device, "spans_harvested").number, 0);
    EXPECT_GT(member(device, "trace_cursor").number, 0);
  }
  const JsonValue& recovery = member(root, "recovery");
  EXPECT_TRUE(member(recovery, "dead_devices").array.empty());
  EXPECT_EQ(member(recovery, "replans").number, 0);
}

TEST(ReportCli, ExpectDeviceDownWithoutKillIsAFailedGate) {
  EXPECT_EQ(run_report(toy_run("--check --expect-device-down 0")).status, 2);
}

TEST(ReportCli, UsageErrorsExitOneAndNameTheFlag) {
  EXPECT_EQ(run_report("").status, 1);
  EXPECT_EQ(run_report("frobnicate").status, 1);
  const CliResult unknown = run_report(toy_run("--no-such-flag"), true);
  EXPECT_EQ(unknown.status, 1);
  EXPECT_NE(unknown.out.find("--no-such-flag"), std::string::npos);
  // Integer flags take integers: no truncation, no out-of-range cast.
  for (const char* bad : {"--tasks 2.7", "--tasks 3e9", "--tasks 3000000000",
                          "--kill-device 1.9:2.5", "--pings 0",
                          "--harvest-ms -1"}) {
    const std::string text = bad;
    const CliResult r = run_report(toy_run(text), true);
    EXPECT_EQ(r.status, 1) << bad;
    const std::string flag = text.substr(0, text.find(' '));
    EXPECT_NE(r.out.find(flag), std::string::npos) << r.out;
  }
  // A flag of another subcommand is a usage error, not silently ignored.
  EXPECT_EQ(run_report(toy_run("--memory-limit-mb 1")).status, 1);
}

TEST(ReportCli, ModelPathWithQuoteGivesValidJson) {
  const std::filesystem::path dir = temp_path("q\"x");
  std::filesystem::create_directories(dir);
  const std::filesystem::path model = dir / "toy.cfg";
  std::filesystem::copy_file(toy_cfg(), model,
                             std::filesystem::copy_options::overwrite_existing);
  const CliResult r = run_report("run --model '" + model.string() +
                                 "' --cluster homog:2x1.5 --input-size 32 "
                                 "--tasks 1 --json --trace-out /dev/null");
  ASSERT_EQ(r.status, 0) << r.out;
  const JsonValue root = JsonParser(r.out).parse();
  EXPECT_EQ(member(root, "model").string, model.string());
}

TEST(ReportCli, PostmortemGatesOnExpectedEvents) {
  const std::string dir = temp_path("postmortem");
  std::filesystem::create_directories(dir);
  ::setenv("PICO_POSTMORTEM_DIR", dir.c_str(), 1);  // read once, at install
  obs::FlightRecorder::global().clear();
  obs::record_event(obs::EventCode::WorkerServe, 3, 1, 0);
  obs::install_postmortem_handlers();
  ASSERT_TRUE(obs::write_postmortem_now("report-cli-test"));
  const std::string artifact = obs::postmortem_path();
  ASSERT_EQ(artifact.rfind(dir, 0), 0u) << artifact;

  EXPECT_EQ(run_report("postmortem " + artifact +
                       " --expect-event worker_serve")
                .status,
            0);
  EXPECT_EQ(run_report("postmortem " + artifact +
                       " --expect-event plan_switch")
                .status,
            2);
  EXPECT_EQ(run_report("postmortem " + artifact + " --expect-event bogus")
                .status,
            1);
  EXPECT_EQ(run_report("postmortem " + dir + "/missing.json").status, 1);

  const CliResult json = run_report("postmortem " + artifact + " --json");
  ASSERT_EQ(json.status, 0);
  const JsonValue root = JsonParser(json.out).parse();
  EXPECT_EQ(member(root, "reason").string, "report-cli-test");
  EXPECT_FALSE(member(root, "events").array.empty());

  // --trace/--out splice the journal into a Chrome trace as instants.
  const std::string trace = dir + "/trace.json";
  const std::string merged = dir + "/merged.json";
  std::ofstream(trace) << "{\"traceEvents\":[]}\n";
  ASSERT_EQ(run_report("postmortem " + artifact + " --trace " + trace +
                       " --out " + merged)
                .status,
            0);
  std::ifstream in(merged);
  std::stringstream text;
  text << in.rdbuf();
  const std::string merged_text = text.str();
  const JsonValue events =
      member(JsonParser(merged_text).parse(), "traceEvents");
  EXPECT_GE(events.array.size(), 2u);  // track name + the journal
}

TEST(ReportCli, AuditPassesAndGatesOnErrors) {
  const CliResult r = run_report("audit --cfg " + toy_cfg() +
                                 " --cluster homog:2x1.5 --json");
  ASSERT_EQ(r.status, 0) << r.out;
  EXPECT_TRUE(member(JsonParser(r.out).parse(), "ok").boolean);
  EXPECT_EQ(run_report("audit --cfg " + toy_cfg() +
                       " --cluster homog:2x1.5 --memory-limit-mb 0.001")
                .status,
            2);
  EXPECT_EQ(run_report("audit --cfg " + toy_cfg() + " --plan " +
                       temp_path("no_such.plan"))
                .status,
            1);
}

}  // namespace
}  // namespace pico
