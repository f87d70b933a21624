// Resumable sweeps: reuse the rows of an earlier run's CSV/JSON output.
//
// A sweep writes one deterministic row per (point, repeat) run, once the
// whole sweep has returned (a sweep killed partway writes nothing). The
// rows of a finished output stay valid — the per-run schema carries the
// label, repeat and seed that identify the slot, and every simulated value
// is a pure function of them. `--resume <file>` parses that output (or a
// truncated copy of it), skips every slot whose drained row is already
// present, reruns the missing and undrained slots, and writes a merged file
// byte-identical to what one uninterrupted run would have produced.
//
// Resume matches slots by (label, repeat, seed), so changing the sweep's
// base seed, point list or labels simply reruns the affected slots; a stale
// file never corrupts results. Rows with drained == 0 (stalls, timeouts)
// are rerun, not reused. The resume schema is the deterministic per-run
// form: aggregated (--repeats > 1) and --host-timing outputs are refused at
// the CLI layer.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/harness/sink.hpp"
#include "src/harness/sweep.hpp"

namespace bgl::harness {

/// Rows recovered from a previous run's per-run CSV or JSON output.
struct ResumeLog {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
};

/// Parses RFC 4180 CSV text (as CsvSink writes it): quoted cells, ""
/// escapes, embedded commas/newlines. Throws std::runtime_error on
/// structurally broken input (unterminated quote, ragged row).
ResumeLog parse_result_csv(const std::string& text);

/// Parses a harness JSON result array (as JsonSink writes it: a flat array
/// of one-level objects). Throws std::runtime_error when the text is not in
/// that shape or rows disagree on their keys.
ResumeLog parse_result_json(const std::string& text);

/// Loads `path`, picking the parser by extension (".json" → JSON, anything
/// else → CSV). Throws std::runtime_error on unreadable files.
ResumeLog load_resume_log(const std::string& path);

/// Which (point, repeat) slots of a sweep can be skipped, and the original
/// cells to splice into the merged output for each skipped slot.
struct ResumePlan {
  /// One entry per global run slot (point * repeats + repeat).
  std::vector<bool> skip;
  /// Original row cells for skipped slots (empty vectors elsewhere).
  std::vector<std::vector<std::string>> saved;
  std::size_t reused = 0;
};

/// Matches `log` against the sweep's slots by (label, repeat, seed) — the
/// seed each slot would use under `options`. Only drained rows are reused.
/// Throws std::runtime_error when the log's columns are not the per-run
/// schema (result_columns()).
ResumePlan plan_resume(const ResumeLog& log, const Sweep& sweep,
                       const SweepOptions& options);

/// Streams the merged output: saved cells for slots the plan skipped,
/// freshly formatted cells for slots this run executed. With the same base
/// seed the result is byte-identical to an uninterrupted run's file.
void emit_merged(const std::vector<SimResult>& results, const ResumePlan& plan,
                 int repeats, ResultSink& sink);

}  // namespace bgl::harness
