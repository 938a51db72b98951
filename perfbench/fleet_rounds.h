// One measured round of a fleet-driven workload: a single fleet::run_fleet
// call over the workload's scenarios and that round's seeds, with batch = 1.
// Used by the serve workload (decisions through the daemon) and the fleet
// workload (checkpoint directory and JSONL spool).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/grid.h"
#include "fleet/fleet_runner.h"
#include "harness.h"

namespace perfbench {

/// Worker threads of every fleet round.
inline constexpr int kFleetJobs = 2;

struct FleetWorkload {
  std::vector<exp::ScenarioSpec> scenarios;
  std::size_t seeds_per_round = 0;
  std::size_t shard_size = 16;
  /// Checkpoint manifest every 4 shards + JSONL spool under the round's
  /// directory.
  bool durable = false;
};

/// What the benchmark keeps of one round: counts and checks, not the
/// fleet result itself, so memory does not grow with the rounds a run makes.
struct RoundResult {
  std::uint64_t sessions = 0;
  double seconds = 0.0;  // host time of the run_fleet call
  std::uint64_t digest_chain = 0;
  std::uint64_t shards = 0;
  /// Failed or unfinished sessions.
  std::uint64_t failed = 0;
  /// Problems with the round's outputs: an incomplete run, failed tasks,
  /// scenarios with unfinished sessions and, for durable rounds, spool rows
  /// that do not match the sessions. Empty when the round is clean.
  std::vector<std::string> problems;
  // Durable rounds only (read back after the call, outside its timing).
  std::uint64_t spool_bytes = 0;
  std::uint64_t checkpoint_bytes = 0;
  // Observed rounds only.
  std::uint64_t checkpoints_written = 0;
  std::vector<std::int64_t> fold_gap_ns;  // between on_progress callbacks
};

/// Runs round `round`. `dir` is the round's private directory (created by
/// run_fleet for durable rounds). With `spans` (traced runs), an
/// on_progress callback times every shard fold, counts manifest rewrites
/// and records round and shard-fold spans; without it the call carries no
/// benchmark hooks besides the decision backend.
RoundResult run_round(const FleetWorkload& w, std::uint64_t seed, std::int64_t round,
                      core::DecisionBackend* backend, const std::string& dir, SpanLog* spans);

/// Per-layer fleet metrics over observed rounds (zero when `rounds` is
/// empty: the workload bypasses the fleet runner).
void report_fleet_layers(const std::vector<RoundResult>& rounds, Report& report);

}  // namespace perfbench
