// Shared command-line surface of every bench binary:
//   --jobs N        worker threads (default: hardware concurrency)
//   --seeds a,b,c   seed list (default: 101,202,303)
//   --seed N        single-seed shorthand for --seeds N
//   --quick         first seed only + shortened sessions (smoke mode)
//   --out-json P    JSON artifact path ("none" disables; default BENCH_<id>.json)
//   --out-csv P     CSV artifact path ("none" disables; default BENCH_<id>.csv)
//   --trace / --no-trace   force per-run trace digests on/off (default: per bench)
//   --trace-out P   Chrome trace JSON of one captured session ("none" disables)
//   --help          usage
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vafs::exp {

struct BenchOptions {
  int jobs = 0;  // 0 = auto (hardware concurrency)
  std::vector<std::uint64_t> seeds = {101, 202, 303};
  bool quick = false;
  std::string out_json;  // empty = default path, "none" = disabled
  std::string out_csv;
  /// -1 = bench default, 0 = forced off (--no-trace), 1 = forced on (--trace).
  int trace_flag = -1;
  /// Chrome trace output path for the captured session; empty = default
  /// (BENCH_<id>.trace.json), "none" = no capture.
  std::string trace_out = "none";
  bool help = false;

  // --- Fleet flags (bench_fleet; the figure benches accept and ignore
  // them so the CLI surface stays uniform) ---
  /// Expand the seed axis to this many sequential seeds starting at the
  /// first --seeds entry (0 = use the --seeds list as given). This is how
  /// a grid reaches millions of sessions without a million-entry flag.
  std::uint64_t seed_count = 0;
  /// Cut the grid into this many shards; 0 = default 64-session shards.
  std::uint64_t shards = 0;
  /// Checkpoint-manifest directory; empty disables checkpointing.
  std::string checkpoint_dir;
  /// Resume from checkpoint_dir's manifest if one exists.
  bool resume = false;
  /// Per-session row spool format: "none", "csv" or "jsonl".
  std::string spool = "none";
  /// Peak-RSS budget for the whole run; bench_fleet fails when exceeded
  /// (0 = report only).
  std::uint64_t rss_limit_mb = 0;
  /// Device-population mix for the sweep: "none" (the legacy fixed
  /// device) or a registered device::PopulationMix name ("global",
  /// "premium", "budget"). Each session then draws its device profile
  /// from the mix by a pure hash of its seed.
  std::string mix = "none";
  /// Decision serving mode: "" = in-process decisions (default), "auto" =
  /// start an in-process serve::Server on a private socket and route every
  /// session's VAFS decisions through it, any other value = the socket
  /// path of an already-running vafsd to connect to. Results are
  /// bit-identical to in-process either way.
  std::string serve;
  /// Tuned-config artifact for benches with a "tuned" governor variant
  /// (bench_f14): "" = the checked-in default next to the bench sources,
  /// "none" = disable the variant, else a tuned_configs.json path
  /// (bench_f15 output).
  std::string tuned;

  // --- Supervision flags (bench_fleet --supervise; src/supervise) ---
  /// Worker subprocesses; 0 = in-process fleet (the default).
  int supervise = 0;
  /// Cooperative per-task wall-clock deadline (captured failure), ms.
  std::int64_t task_timeout_ms = 0;
  /// Hard external per-task deadline (SIGKILL + retry/quarantine), ms.
  std::int64_t task_deadline_ms = 0;
  /// Total attempts per task before quarantine.
  int task_retries = 3;
  std::int64_t heartbeat_ms = 250;
  std::int64_t heartbeat_timeout_ms = 5000;
  /// RLIMIT_AS per worker, MiB (0 = unlimited).
  std::uint64_t worker_as_limit_mb = 0;
  /// Supervisor-enforced RSS budget per worker, MiB (0 = off).
  std::uint64_t worker_rss_limit_mb = 0;
  /// HarnessChaos fault injection (test mode): seed + per-fate rates.
  std::uint64_t chaos_seed = 0;
  double chaos_crash = 0.0;
  double chaos_abort = 0.0;
  double chaos_exit = 0.0;
  double chaos_hang = 0.0;
  double chaos_stall = 0.0;
  double chaos_leak = 0.0;

  bool chaos_enabled() const {
    return chaos_crash > 0 || chaos_abort > 0 || chaos_exit > 0 || chaos_hang > 0 ||
           chaos_stall > 0 || chaos_leak > 0;
  }

  /// Jobs with `auto` resolved against this machine.
  int effective_jobs() const;
  /// Seed list after --quick truncation.
  std::vector<std::uint64_t> effective_seeds() const;
  /// Seed list after --seed-count expansion (sequential from the first
  /// seed; not truncated by --quick — fleet smoke runs shorten sessions,
  /// not the grid).
  std::vector<std::uint64_t> fleet_seeds() const;
};

/// Parses the shared flags. Unknown flags are an error. Returns false and
/// fills `error` on malformed input; `--help` parses as success with
/// options.help set.
bool parse_bench_args(int argc, char** argv, BenchOptions* options, std::string* error);

/// Usage text for `--help` / parse errors.
std::string bench_usage(const std::string& bench_id);

/// Extra usage lines for the fleet flags; bench_fleet appends this to
/// bench_usage("fleet").
std::string fleet_usage();

}  // namespace vafs::exp
