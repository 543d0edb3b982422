// pico_lint engine tests: every check fires on its violating fixture and
// stays quiet on the compliant twin; suppressions and the baseline workflow
// behave as documented (DESIGN.md §12).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "callgraph.hpp"
#include "checks.hpp"
#include "lexer.hpp"

namespace pico::lint {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string(PICO_REPO_DIR) + "/tests/pico_lint_fixtures/" + name;
}

std::vector<Finding> lint_fixture(const std::string& name) {
  LexedFile file = lex_file(fixture_path(name));
  CheckOptions options;
  options.scope_all = true;  // fixtures live outside the src/ scoping rules
  collect_status_decls(file, options.status_fns);
  return run_checks(file, name, options);
}

std::vector<Finding> lint_snippet(const std::string& content) {
  LexedFile file = lex("snippet.cpp", content);
  CheckOptions options;
  options.scope_all = true;
  collect_status_decls(file, options.status_fns);
  return run_checks(file, "snippet.cpp", options);
}

std::set<std::string> check_ids(const std::vector<Finding>& findings) {
  std::set<std::string> ids;
  for (const Finding& f : findings) ids.insert(f.check);
  return ids;
}

// signal-unsafe is project-level: build the call graph over the input and
// run the closure walk directly (the CLI wires this up the same way).
std::vector<Finding> lint_signal_files(std::vector<LexedFile> files,
                                       std::vector<std::string> relpaths,
                                       std::string* report = nullptr) {
  const CallGraph graph = build_callgraph(files, relpaths);
  std::vector<Finding> out;
  check_signal_safety(graph, files, out, report);
  return out;
}

std::vector<Finding> lint_signal_fixture(const std::string& name,
                                         std::string* report = nullptr) {
  std::vector<LexedFile> files;
  files.push_back(lex_file(fixture_path(name)));
  return lint_signal_files(std::move(files), {name}, report);
}

std::vector<Finding> lint_signal_snippet(const std::string& content) {
  std::vector<LexedFile> files;
  files.push_back(lex("snippet.cpp", content));
  return lint_signal_files(std::move(files), {"snippet.cpp"});
}

// --- per-check: violation fires, compliant twin is quiet -------------------

TEST(PicoLint, NarrowMulFiresOnViolations) {
  const auto findings = lint_fixture("narrow_mul_bad.cpp");
  ASSERT_EQ(findings.size(), 3u) << "wide-init, resize, pointer-add";
  EXPECT_EQ(check_ids(findings), std::set<std::string>{"narrow-mul"});
}

TEST(PicoLint, NarrowMulQuietOnCompliantTwin) {
  EXPECT_TRUE(lint_fixture("narrow_mul_ok.cpp").empty());
}

TEST(PicoLint, UncheckedStatusFiresOnViolations) {
  const auto findings = lint_fixture("unchecked_status_bad.cpp");
  ASSERT_EQ(findings.size(), 3u) << "::shutdown, flush_metrics, ::close";
  EXPECT_EQ(check_ids(findings), std::set<std::string>{"unchecked-status"});
}

TEST(PicoLint, UncheckedStatusQuietOnCompliantTwin) {
  EXPECT_TRUE(lint_fixture("unchecked_status_ok.cpp").empty());
}

TEST(PicoLint, BlockingUnderLockFiresOnViolations) {
  const auto findings = lint_fixture("blocking_under_lock_bad.cpp");
  ASSERT_EQ(findings.size(), 3u) << "send, recv, join";
  EXPECT_EQ(check_ids(findings),
            std::set<std::string>{"blocking-under-lock"});
}

TEST(PicoLint, BlockingUnderLockQuietOnCompliantTwin) {
  EXPECT_TRUE(lint_fixture("blocking_under_lock_ok.cpp").empty());
}

TEST(PicoLint, UnguardedMemberFiresOnViolations) {
  const auto findings = lint_fixture("unguarded_member_bad.hpp");
  ASSERT_EQ(findings.size(), 2u) << "pending_count_, last_sequence_";
  EXPECT_EQ(check_ids(findings), std::set<std::string>{"unguarded-member"});
}

TEST(PicoLint, UnguardedMemberQuietOnCompliantTwin) {
  EXPECT_TRUE(lint_fixture("unguarded_member_ok.hpp").empty());
}

TEST(PicoLint, WireTaintFiresOnViolations) {
  const auto findings = lint_fixture("wire_taint_bad.cpp");
  ASSERT_EQ(findings.size(), 3u)
      << "reserve(count), memcpy bytes, uninitialized(shape)";
  EXPECT_EQ(check_ids(findings), std::set<std::string>{"wire-taint"});
}

TEST(PicoLint, WireTaintQuietOnCompliantTwin) {
  EXPECT_TRUE(lint_fixture("wire_taint_ok.cpp").empty());
}

TEST(PicoLint, EscapeToThreadFiresOnViolations) {
  const auto findings = lint_fixture("escape_to_thread_bad.cpp");
  ASSERT_EQ(findings.size(), 3u) << "&simulator, this-detach, [&]-submit";
  EXPECT_EQ(check_ids(findings), std::set<std::string>{"escape-to-thread"});
}

TEST(PicoLint, EscapeToThreadQuietOnCompliantTwin) {
  EXPECT_TRUE(lint_fixture("escape_to_thread_ok.cpp").empty());
}

TEST(PicoLint, UseAfterMoveFiresOnViolations) {
  const auto findings = lint_fixture("use_after_move_bad.cpp");
  ASSERT_EQ(findings.size(), 2u) << "reuse_after_handoff, double_handoff";
  EXPECT_EQ(check_ids(findings), std::set<std::string>{"use-after-move"});
}

TEST(PicoLint, UseAfterMoveQuietOnCompliantTwin) {
  EXPECT_TRUE(lint_fixture("use_after_move_ok.cpp").empty());
}

// --- signal-unsafe (project-level, call-graph driven) ----------------------

TEST(PicoLint, SignalUnsafeFiresOnViolations) {
  std::string report;
  const auto findings = lint_signal_fixture("signal_unsafe_bad.cpp", &report);
  ASSERT_EQ(findings.size(), 3u) << "malloc, std::string local, throw";
  EXPECT_EQ(check_ids(findings), std::set<std::string>{"signal-unsafe"});

  // The diagnostic must carry the full offending chain from the root, not
  // just the leaf site — that is what makes the finding actionable.
  bool chain_seen = false;
  for (const Finding& f : findings) {
    if (f.message.find(
            "crash_handler -> dump_state -> render_events -> format_event") !=
        std::string::npos) {
      chain_seen = true;
    }
  }
  EXPECT_TRUE(chain_seen) << "no finding carried the malloc call chain";
  EXPECT_NE(report.find("verdict: UNSAFE"), std::string::npos);
}

TEST(PicoLint, SignalUnsafeProvesCompliantTwinClean) {
  std::string report;
  const auto findings = lint_signal_fixture("signal_unsafe_ok.cpp", &report);
  EXPECT_TRUE(findings.empty());
  EXPECT_NE(report.find("PROOF-OK"), std::string::npos);
  // The whitelisted syscall leaves must be reported, so a reviewer can audit
  // exactly which externals the proof leans on.
  EXPECT_NE(report.find("openat"), std::string::npos);
  EXPECT_NE(report.find("write"), std::string::npos);
}

TEST(PicoLint, SignalUnsafeHonorsAllowSuppression) {
  const std::string bare =
      "// pico-lint: signal-root\n"
      "void handler(int sig) { helper(); }\n"
      "void helper() {\n"
      "  char* p = new char[64];\n"
      "  p[0] = 0;\n"
      "}\n";
  ASSERT_EQ(lint_signal_snippet(bare).size(), 1u);

  const std::string allowed =
      "// pico-lint: signal-root\n"
      "void handler(int sig) { helper(); }\n"
      "void helper() {\n"
      "  // pico-lint: allow(signal-unsafe): bounded one-shot arena\n"
      "  char* p = new char[64];\n"
      "  p[0] = 0;\n"
      "}\n";
  EXPECT_TRUE(lint_signal_snippet(allowed).empty());
}

// --- suppressions ----------------------------------------------------------

TEST(PicoLint, SameLineSuppressionSilencesFinding) {
  const std::string bare =
      "#include <vector>\n"
      "void f(std::vector<int>& v, int a, int b) {\n"
      "  v.resize(a * b);\n"
      "}\n";
  ASSERT_EQ(lint_snippet(bare).size(), 1u);

  const std::string allowed =
      "#include <vector>\n"
      "void f(std::vector<int>& v, int a, int b) {\n"
      "  v.resize(a * b);  // pico-lint: allow(narrow-mul): caller bounds\n"
      "}\n";
  EXPECT_TRUE(lint_snippet(allowed).empty());
}

TEST(PicoLint, PrecedingCommentSuppressionSilencesFinding) {
  const std::string allowed =
      "#include <vector>\n"
      "void f(std::vector<int>& v, int a, int b) {\n"
      "  // pico-lint: allow(narrow-mul): extents are single-digit here\n"
      "  v.resize(a * b);\n"
      "}\n";
  EXPECT_TRUE(lint_snippet(allowed).empty());
}

TEST(PicoLint, FileWideSuppressionSilencesWholeFile) {
  const std::string allowed =
      "// pico-lint: allow-file(narrow-mul)\n"
      "#include <vector>\n"
      "void f(std::vector<int>& v, int a, int b) {\n"
      "  v.resize(a * b);\n"
      "}\n";
  EXPECT_TRUE(lint_snippet(allowed).empty());
}

TEST(PicoLint, SuppressionForOtherCheckDoesNotSilence) {
  const std::string wrong_id =
      "#include <vector>\n"
      "void f(std::vector<int>& v, int a, int b) {\n"
      "  v.resize(a * b);  // pico-lint: allow(wire-taint): wrong id\n"
      "}\n";
  EXPECT_EQ(lint_snippet(wrong_id).size(), 1u);
}

// --- baseline workflow -----------------------------------------------------

TEST(PicoLint, BaselineSuppressesKnownFindings) {
  const auto findings = lint_fixture("narrow_mul_bad.cpp");
  ASSERT_FALSE(findings.empty());

  const std::string path =
      ::testing::TempDir() + "pico_lint_test_baseline.txt";
  {
    std::ofstream out(path);
    out << render_baseline(findings);
  }
  bool ok = false;
  const std::set<std::string> baseline = load_baseline(path, ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(baseline.size(), findings.size());
  for (const Finding& f : findings) {
    EXPECT_TRUE(baseline.count(fingerprint(f)))
        << "finding at line " << f.line << " not suppressed by baseline";
  }
  std::remove(path.c_str());
}

TEST(PicoLint, FingerprintIsLineNumberIndependent) {
  Finding a;
  a.check = "narrow-mul";
  a.relpath = "src/nn/kernels.cpp";
  a.line = 42;
  a.excerpt = "out.resize(rows * cols);";
  Finding b = a;
  b.line = 977;  // unrelated edits shifted the file
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  b.excerpt = "out.resize(static_cast<std::size_t>(rows) * cols);";
  EXPECT_NE(fingerprint(a), fingerprint(b));
}

// --- scoping ----------------------------------------------------------------

TEST(PicoLint, ScopingFollowsBugClassHabitats) {
  EXPECT_TRUE(check_in_scope("narrow-mul", "src/nn/kernels.cpp"));
  EXPECT_TRUE(check_in_scope("narrow-mul", "src/partition/plan.cpp"));
  EXPECT_FALSE(check_in_scope("narrow-mul", "src/runtime/pipeline.cpp"));
  EXPECT_TRUE(check_in_scope("unguarded-member", "src/runtime/channel.hpp"));
  EXPECT_FALSE(check_in_scope("unguarded-member", "src/runtime/worker.cpp"));
  EXPECT_TRUE(check_in_scope("unguarded-member",
                             "src/common/thread_pool.hpp"));
  EXPECT_TRUE(check_in_scope("wire-taint", "src/runtime/message.cpp"));
  EXPECT_TRUE(check_in_scope("wire-taint", "src/obs/remote.cpp"));
  EXPECT_FALSE(check_in_scope("wire-taint", "src/nn/kernels.cpp"));
  EXPECT_TRUE(check_in_scope("unchecked-status", "src/runtime/transport.cpp"));
  EXPECT_FALSE(check_in_scope("unchecked-status", "tools/pico_audit.cpp"));
}

// --- CLI smoke ---------------------------------------------------------------

TEST(PicoLint, CliListChecksSucceeds) {
  const std::string cmd =
      std::string(PICO_LINT_BIN) + " --list-checks > /dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
}

TEST(PicoLint, CliExitsTwoOnFreshFindings) {
  const std::string cmd = std::string(PICO_LINT_BIN) + " --src-root " +
                          PICO_REPO_DIR + " --scope-all " +
                          fixture_path("narrow_mul_bad.cpp") + " > /dev/null";
  const int status = std::system(cmd.c_str());
  EXPECT_EQ(WEXITSTATUS(status), 2);
}

TEST(PicoLint, CliCleanTreeAgainstCommittedBaseline) {
  const std::string cmd = std::string(PICO_LINT_BIN) + " --src-root " +
                          PICO_REPO_DIR + " --baseline " + PICO_REPO_DIR +
                          "/tools/pico_lint/baseline.txt > /dev/null";
  const int status = std::system(cmd.c_str());
  EXPECT_EQ(WEXITSTATUS(status), 0) << "src/ has findings not in baseline";
}

TEST(PicoLint, CliCallGraphReportProvesPostmortemPath) {
  const std::string report_path =
      ::testing::TempDir() + "pico_lint_callgraph_report.txt";
  const std::string cmd = std::string(PICO_LINT_BIN) + " --src-root " +
                          PICO_REPO_DIR + " --baseline " + PICO_REPO_DIR +
                          "/tools/pico_lint/baseline.txt --callgraph-report " +
                          report_path + " > /dev/null";
  const int status = std::system(cmd.c_str());
  ASSERT_EQ(WEXITSTATUS(status), 0);

  std::ifstream in(report_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string report = buffer.str();
  std::remove(report_path.c_str());

  // The committed tree must carry a machine-checked proof that the crash
  // dump path is async-signal-safe: all three roots present, clean verdict.
  EXPECT_NE(report.find("postmortem_signal_handler"), std::string::npos);
  EXPECT_NE(report.find("postmortem_terminate_handler"), std::string::npos);
  EXPECT_NE(report.find("check_failed_flight_hook"), std::string::npos);
  EXPECT_NE(report.find("verdict: PROOF-OK"), std::string::npos)
      << "signal-safety proof regressed:\n"
      << report;
}

}  // namespace
}  // namespace pico::lint
