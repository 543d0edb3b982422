// Crash postmortem: dump the flight recorder's black box when the process
// dies abnormally, so the causal record survives the crash it explains.
//
// install_postmortem_handlers() arms three capture paths:
//   - fatal signals (SIGSEGV, SIGBUS, SIGABRT, SIGFPE, SIGILL) via
//     sigaction with SA_RESETHAND: the handler writes the dump, then
//     re-raises so the default disposition (core, exit status) is preserved;
//   - std::terminate (uncaught exceptions — including an uncaught
//     PICO_CHECK InvariantError, which the flight recorder has already
//     journaled as a CheckFailed event via the check_failed_hook);
//   - explicit calls (write_postmortem_now) for tests and tools.
//
// Signal-safety argument (DESIGN §15 has the long form): the dump path
// performs no allocation, takes no locks, and calls only async-signal-safe
// functions — openat(2) on a directory fd opened at install time, write(2),
// close(2).  All data it reads is lock-free by construction: the flight
// recorder's seqlock rings (FlightRecorder::read_slot), the pending-span
// slot table, and the metric registry's published crash slots
// (Registry::crash_metric).  Integers and doubles are formatted by local
// helpers, not snprintf (not on the async-signal-safe list).  A relaxed
// "already dumped" flag makes the abort-inside-terminate path write once.
//
// The artifact is JSON at ${PICO_POSTMORTEM_DIR:-.}/pico_postmortem_<pid>.json
// — events exactly as the rings hold them (unsorted; readers sort by seq),
// the thread-name and string tables, the pending spans, and a metrics
// snapshot.  load_postmortem() parses it back for `pico_report postmortem`
// and the round-trip tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"

namespace pico::obs {

/// Arm the crash paths (idempotent).  Forces FlightRecorder::global() so
/// the handler never runs a static init guard.  Honors PICO_POSTMORTEM_DIR
/// (read once, at install).
void install_postmortem_handlers();

/// Absolute/relative path the next dump will be written to (stable for the
/// process lifetime once handlers are installed; "" before).
const char* postmortem_path();

/// Write a postmortem right now, outside any crash (tests, tools, operator
/// request).  Unlike the signal path this may run more than once and does
/// not set the dumped-once latch.  Returns false when the file cannot be
/// written.  `reason` lands in the JSON "reason" field.
bool write_postmortem_now(const char* reason);

/// One journal entry as parsed back from a postmortem file.
struct PostmortemEvent {
  std::uint64_t seq = 0;
  std::int64_t t_ns = 0;
  std::uint32_t tid = 0;
  std::uint16_t category = 0;
  std::uint16_t code = 0;
  std::string name;  ///< event_code_name at dump time
  std::int64_t args[4] = {0, 0, 0, 0};
};

struct PostmortemSpan {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t track = 0;
  std::int64_t task_id = -1;
  std::uint32_t tid = 0;
};

struct PostmortemMetric {
  std::string name;
  std::string labels;
  int kind = 0;  ///< 0 counter, 1 gauge, 2 histogram
  std::int64_t count = 0;
  double value = 0.0;
};

struct PostmortemThread {
  std::uint32_t tid = 0;
  std::string name;
};

struct Postmortem {
  int pid = 0;
  std::string reason;   ///< "SIGSEGV", "terminate", caller-supplied, ...
  int signal_number = 0;
  std::vector<PostmortemThread> threads;
  std::vector<std::string> strings;        ///< intern table
  std::vector<PostmortemEvent> events;     ///< sorted by seq after load
  std::vector<PostmortemSpan> spans;       ///< spans open at dump time
  std::vector<PostmortemMetric> metrics;
  /// Thread name for a recorder tid ("" when unknown).
  std::string thread_name(std::uint32_t tid) const;
};

/// Parse a postmortem JSON file; throws pico::Error on malformed input.
Postmortem load_postmortem(const std::string& path);

}  // namespace pico::obs
