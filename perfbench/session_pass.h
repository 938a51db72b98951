// Session-level passes shared by the workloads: a task list of (scenario,
// seed) pairs run one core::run_session at a time on the calling thread,
// with a per-thread SessionArena and SessionHooks::on_ready splitting
// device bring-up from the run loop.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/grid.h"
#include "harness.h"

namespace perfbench {

struct Task {
  const exp::ScenarioSpec* spec = nullptr;
  std::uint64_t seed = 0;
};

/// Tasks of rounds [first, first + rounds), `seeds_per_round` seeds each
/// (round_seeds), every round in canonical order (scenario-major,
/// seed-fastest) — the order fleet::run_fleet folds, so chains over one
/// round compare with that round's fleet chain.
std::vector<Task> round_tasks(const std::vector<exp::ScenarioSpec>& scenarios,
                              std::uint64_t seed, std::int64_t first, std::int64_t rounds,
                              std::size_t seeds_per_round);

struct PassOptions {
  /// Backend the decisions go to (in process or through the daemon),
  /// behind a TimingBackend.
  core::DecisionBackend* decisions = nullptr;
  /// Attach a full-ring obs::Tracer per session and count its events.
  bool traced = false;
  /// Record pass/session/bring-up/run-loop/decide spans (traced pass only).
  SpanLog* spans = nullptr;
  /// Stop after the first task that ends past this many seconds; 0 runs
  /// every task. PassStats::sessions tells how many ran.
  double budget_s = 0.0;
};

struct PassStats {
  std::uint64_t sessions = 0;
  std::uint64_t failed = 0;  // threw or did not finish
  std::vector<std::string> errors;
  double seconds = 0.0;  // host time of the whole pass

  std::uint64_t sim_events = 0;
  double setup_ns = 0.0;    // run_session entry -> on_ready
  double run_ns = 0.0;      // on_ready -> return
  double session_ns = 0.0;  // entry -> return
  struct Governor {
    std::uint64_t sessions = 0;
    std::uint64_t events = 0;
    double ns = 0.0;
  };
  std::map<std::string, Governor> by_governor;

  std::uint64_t decide_calls = 0;
  double decide_ns = 0.0;
  std::uint64_t vafs_plans = 0;
  std::uint64_t vafs_setspeed_writes = 0;
  std::uint64_t fault_windows = 0;
  std::uint64_t decode_migrations = 0;

  TraceCounts trace;           // traced pass only
  bool trace_complete = true;  // every tracer ring held its whole session

  /// session_fingerprint per task, in task order (0 for a failed task).
  std::vector<std::uint64_t> fingerprints;
};

PassStats run_session_pass(const std::vector<Task>& tasks, const PassOptions& opts);

/// Digest chain of `tasks` computed in process, one session at a time
/// with a digest-only tracer — the independent reference a fleet chain is
/// checked against. `failed` counts tasks that threw.
std::uint64_t reference_chain(const std::vector<Task>& tasks, std::uint64_t* failed);

/// Observer-effect-0 check: the traced pass must reproduce the untraced
/// fingerprints of the same tasks exactly, with every tracer ring complete
/// and no session failing.
void check_traced_pass(const std::vector<std::uint64_t>& untraced, const PassStats& traced,
                       Report& report);

/// The session passes of a traced run: an untraced pass over a prefix of
/// `tasks` for `budget_s`, then a traced pass with spans over the same
/// prefix. Checks both and reports the per-session layer metrics: times
/// from the untraced pass, trace-event counts from the traced one.
void run_layer_passes(const std::vector<Task>& tasks, core::DecisionBackend& decisions,
                      double budget_s, SpanLog& spans, Report& report);

}  // namespace perfbench
