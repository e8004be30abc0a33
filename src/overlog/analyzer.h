// Static program analysis for Overlog (the `olglint` pass).
//
// The planner already rejects programs it cannot compile, but only rule-by-rule and only at
// install time, deep inside an engine. This pass checks a whole Program — typically one
// assembled by ProgramBuilder from modules — before it ever reaches an engine, and reports
// *all* problems at once with stable diagnostic codes:
//
//   error   duplicate-rule        two rules share a name (profiling/tracing key collision)
//   error   duplicate-timer       two timers share a name (the event would fire twice)
//   error   redeclaration-conflict one relation declared twice with different schemas
//   error   undeclared-table      a rule or fact references an unknown relation
//   error   arity-mismatch        atom/head/fact width differs from the declaration
//   error   unbound-head-var      a head variable no body term binds
//   error   unsafe-negation       a negated atom over variables nothing binds
//   error   unbound-condition     a condition/assignment whose inputs are never bound
//   error   unstratifiable        negation/aggregation cycle with no @next deferral
//   error*  no-producer           an event no rule, timer, fact, or extern source feeds
//   warning unread-table          a relation that is written but never read
//   advisory wants-index          a join probes a column set no declared key covers; the
//                                 engine will build and maintain a secondary index for it
//                                 (a key-covered probe reads the row map instead)
//
// (* no-producer demotes to a warning when AnalyzerOptions::strict_events is false — the
// engine runs it that way, since hosts may legitimately Enqueue events from C++.)
//
// Advisories never affect ok(); they are performance hints surfaced by olglint and consumed
// by people, not machines.
//
// `extern` declarations are the escape hatch for relations owned outside the rule set: they
// carry the expected schema, satisfy undeclared-table, and are exempt from the producer and
// reader checks.

#ifndef SRC_OVERLOG_ANALYZER_H_
#define SRC_OVERLOG_ANALYZER_H_

#include <set>
#include <string>
#include <vector>

#include "src/overlog/ast.h"

namespace boom {

enum class DiagnosticSeverity { kError, kWarning, kAdvisory };

struct Diagnostic {
  DiagnosticSeverity severity = DiagnosticSeverity::kError;
  std::string code;     // stable kebab-case id, e.g. "unbound-head-var"
  std::string message;  // human-readable detail (no location prefix)
  std::string program;  // program name the diagnostic is about
  std::string rule;     // offending rule name; empty for program-level diagnostics
  int line = 0;         // 1-based source line when known (0 otherwise)

  // "error[unbound-head-var] boomfs_nn:ac1 (line 42): ..."
  std::string ToString() const;
};

struct AnalyzerOptions {
  // Relations declared by other programs already installed on the target engine. Schemas
  // are unknown here, so only existence is assumed (arity goes unchecked).
  std::set<std::string> external_tables;
  // Events fed by the host from C++ (Enqueue/network): exempt from no-producer.
  std::set<std::string> external_inputs;
  // Relations read by the host from C++ (watches, direct catalog reads): exempt from the
  // unread-table warning.
  std::set<std::string> external_outputs;
  // When true (ProgramBuilder/olglint), an event with no producing rule, timer, fact, or
  // extern marking is an error; when false (Engine::Recompile), it is a warning.
  bool strict_events = true;
  // Emit unread-table warnings (on by default).
  bool warn_unread = true;
  // Emit performance advisories (wants-index; on by default).
  bool advisories = true;
};

struct AnalyzerReport {
  std::vector<Diagnostic> diagnostics;

  bool ok() const;  // true when no diagnostic is an error
  size_t num_errors() const;
  size_t num_warnings() const;
  size_t num_advisories() const;
  // All diagnostics, one per line, errors first, then warnings, then advisories.
  std::string ToString() const;
};

AnalyzerReport AnalyzeProgram(const Program& program, const AnalyzerOptions& options = {});

// The `bad-timer-period` message for `timer`; Engine::Install rejects such a program with it.
std::string BadTimerPeriodMessage(const TimerDecl& timer);

}  // namespace boom

#endif  // SRC_OVERLOG_ANALYZER_H_
