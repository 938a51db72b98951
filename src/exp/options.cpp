#include "exp/options.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace vafs::exp {

int BenchOptions::effective_jobs() const {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::vector<std::uint64_t> BenchOptions::effective_seeds() const {
  if (quick && !seeds.empty()) return {seeds.front()};
  return seeds;
}

std::vector<std::uint64_t> BenchOptions::fleet_seeds() const {
  if (seed_count == 0) return effective_seeds();
  const std::uint64_t base = seeds.empty() ? 101 : seeds.front();
  std::vector<std::uint64_t> out;
  out.reserve(seed_count);
  for (std::uint64_t i = 0; i < seed_count; ++i) out.push_back(base + i);
  return out;
}

namespace {

bool parse_u64(std::string_view s, std::uint64_t* out) {
  if (s.empty()) return false;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool parse_rate(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || !(v >= 0.0) || v > 1.0) return false;
  *out = v;
  return true;
}

bool parse_seed_list(std::string_view s, std::vector<std::uint64_t>* out) {
  out->clear();
  while (!s.empty()) {
    const std::size_t comma = s.find(',');
    const std::string_view item = s.substr(0, comma);
    std::uint64_t seed = 0;
    if (!parse_u64(item, &seed)) return false;
    out->push_back(seed);
    if (comma == std::string_view::npos) break;
    s.remove_prefix(comma + 1);
  }
  return !out->empty();
}

}  // namespace

bool parse_bench_args(int argc, char** argv, BenchOptions* options, std::string* error) {
  // Accepts both "--flag value" and "--flag=value".
  const auto next_value = [&](int& i, std::string_view flag, std::string_view inline_value,
                              bool has_inline, std::string* value) {
    if (has_inline) {
      *value = std::string(inline_value);
      return true;
    }
    if (i + 1 >= argc) {
      *error = std::string(flag) + " requires a value";
      return false;
    }
    *value = argv[++i];
    return true;
  };

  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    std::string_view inline_value;
    bool has_inline = false;
    if (const std::size_t eq = arg.find('='); eq != std::string_view::npos) {
      inline_value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline = true;
    }

    std::string value;
    if (arg == "--help" || arg == "-h") {
      options->help = true;
    } else if (arg == "--quick") {
      options->quick = true;
    } else if (arg == "--jobs" || arg == "-j") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      std::uint64_t jobs = 0;
      if (!parse_u64(value, &jobs) || jobs == 0 || jobs > 4096) {
        *error = "--jobs wants an integer in [1, 4096], got '" + value + "'";
        return false;
      }
      options->jobs = static_cast<int>(jobs);
    } else if (arg == "--seeds") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      if (!parse_seed_list(value, &options->seeds)) {
        *error = "--seeds wants a comma-separated integer list, got '" + value + "'";
        return false;
      }
    } else if (arg == "--seed") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      std::uint64_t seed = 0;
      if (!parse_u64(value, &seed)) {
        *error = "--seed wants an integer, got '" + value + "'";
        return false;
      }
      options->seeds = {seed};
    } else if (arg == "--out-json") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      options->out_json = value;
    } else if (arg == "--out-csv") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      options->out_csv = value;
    } else if (arg == "--trace") {
      options->trace_flag = 1;
    } else if (arg == "--no-trace") {
      options->trace_flag = 0;
    } else if (arg == "--trace-out") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      options->trace_out = value;
    } else if (arg == "--seed-count") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      if (!parse_u64(value, &options->seed_count) || options->seed_count == 0) {
        *error = "--seed-count wants a positive integer, got '" + value + "'";
        return false;
      }
    } else if (arg == "--shards") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      if (!parse_u64(value, &options->shards) || options->shards == 0) {
        *error = "--shards wants a positive integer, got '" + value + "'";
        return false;
      }
    } else if (arg == "--checkpoint-dir") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      options->checkpoint_dir = value;
    } else if (arg == "--resume") {
      options->resume = true;
    } else if (arg == "--spool") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      if (value != "none" && value != "csv" && value != "jsonl") {
        *error = "--spool wants none|csv|jsonl, got '" + value + "'";
        return false;
      }
      options->spool = value;
    } else if (arg == "--rss-limit-mb") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      if (!parse_u64(value, &options->rss_limit_mb)) {
        *error = "--rss-limit-mb wants an integer, got '" + value + "'";
        return false;
      }
    } else if (arg == "--mix") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      options->mix = value;
    } else if (arg == "--serve") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      if (value.empty()) {
        *error = "--serve wants 'auto' or a vafsd socket path";
        return false;
      }
      options->serve = value;
    } else if (arg == "--tuned") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      if (value.empty()) {
        *error = "--tuned wants a tuned_configs.json path or 'none'";
        return false;
      }
      options->tuned = value;
    } else if (arg == "--supervise") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      std::uint64_t n = 0;
      if (!parse_u64(value, &n) || n == 0 || n > 1024) {
        *error = "--supervise wants a worker count in [1, 1024], got '" + value + "'";
        return false;
      }
      options->supervise = static_cast<int>(n);
    } else if (arg == "--task-timeout-ms") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      std::uint64_t ms = 0;
      if (!parse_u64(value, &ms)) {
        *error = "--task-timeout-ms wants an integer, got '" + value + "'";
        return false;
      }
      options->task_timeout_ms = static_cast<std::int64_t>(ms);
    } else if (arg == "--task-deadline-ms") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      std::uint64_t ms = 0;
      if (!parse_u64(value, &ms)) {
        *error = "--task-deadline-ms wants an integer, got '" + value + "'";
        return false;
      }
      options->task_deadline_ms = static_cast<std::int64_t>(ms);
    } else if (arg == "--task-retries") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      std::uint64_t n = 0;
      if (!parse_u64(value, &n) || n == 0 || n > 100) {
        *error = "--task-retries wants an integer in [1, 100], got '" + value + "'";
        return false;
      }
      options->task_retries = static_cast<int>(n);
    } else if (arg == "--heartbeat-ms") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      std::uint64_t ms = 0;
      if (!parse_u64(value, &ms) || ms == 0) {
        *error = "--heartbeat-ms wants a positive integer, got '" + value + "'";
        return false;
      }
      options->heartbeat_ms = static_cast<std::int64_t>(ms);
    } else if (arg == "--heartbeat-timeout-ms") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      std::uint64_t ms = 0;
      if (!parse_u64(value, &ms)) {
        *error = "--heartbeat-timeout-ms wants an integer, got '" + value + "'";
        return false;
      }
      options->heartbeat_timeout_ms = static_cast<std::int64_t>(ms);
    } else if (arg == "--worker-as-limit-mb") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      if (!parse_u64(value, &options->worker_as_limit_mb)) {
        *error = "--worker-as-limit-mb wants an integer, got '" + value + "'";
        return false;
      }
    } else if (arg == "--worker-rss-limit-mb") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      if (!parse_u64(value, &options->worker_rss_limit_mb)) {
        *error = "--worker-rss-limit-mb wants an integer, got '" + value + "'";
        return false;
      }
    } else if (arg == "--chaos-seed") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      if (!parse_u64(value, &options->chaos_seed)) {
        *error = "--chaos-seed wants an integer, got '" + value + "'";
        return false;
      }
    } else if (arg == "--chaos-crash" || arg == "--chaos-abort" || arg == "--chaos-exit" ||
               arg == "--chaos-hang" || arg == "--chaos-stall" || arg == "--chaos-leak") {
      if (!next_value(i, arg, inline_value, has_inline, &value)) return false;
      double rate = 0.0;
      if (!parse_rate(value, &rate)) {
        *error = std::string(arg) + " wants a rate in [0, 1], got '" + value + "'";
        return false;
      }
      if (arg == "--chaos-crash") options->chaos_crash = rate;
      else if (arg == "--chaos-abort") options->chaos_abort = rate;
      else if (arg == "--chaos-exit") options->chaos_exit = rate;
      else if (arg == "--chaos-hang") options->chaos_hang = rate;
      else if (arg == "--chaos-stall") options->chaos_stall = rate;
      else options->chaos_leak = rate;
    } else {
      *error = "unknown flag '" + std::string(arg) + "'";
      return false;
    }
  }
  return true;
}

std::string bench_usage(const std::string& bench_id) {
  return "usage: bench_" + bench_id +
         " [--jobs N] [--seeds a,b,c] [--quick]"
         " [--out-json PATH|none] [--out-csv PATH|none]"
         " [--trace|--no-trace] [--trace-out PATH|none]\n"
         "  --jobs N       worker threads for the session grid (default: all cores)\n"
         "  --seeds LIST   comma-separated session seeds (default: 101,202,303)\n"
         "  --seed N       single-seed shorthand for --seeds N (the tuner's search\n"
         "                 seed in bench_f15)\n"
         "  --quick        first seed only, shortened sessions (smoke mode)\n"
         "  --out-json P   machine-readable results (default: BENCH_" +
         bench_id + ".json; 'none' disables)\n"
         "  --out-csv P    long-format CSV of every metric (default: BENCH_" +
         bench_id + ".csv; 'none' disables)\n"
         "  --trace        per-run trace digests in artifacts (--no-trace disables)\n"
         "  --trace-out P  Chrome trace JSON of the first session (default: off;\n"
         "                 empty/default path is BENCH_" +
         bench_id + ".trace.json)\n"
         "  --tuned P      tuned_configs.json for benches with a 'tuned' governor\n"
         "                 variant (default: the checked-in artifact; 'none' disables)\n";
}

std::string fleet_usage() {
  return "fleet flags:\n"
         "  --seed-count N     run N sequential seeds from the first --seeds entry\n"
         "                     (the grid's session count = scenarios x N)\n"
         "  --shards N         cut the grid into N shards (default: 64-session shards)\n"
         "  --checkpoint-dir D write/refresh a resume manifest (and the spool) in D\n"
         "  --resume           resume from D's manifest; fresh start when none exists\n"
         "  --spool F          per-session rows: none (default), csv or jsonl\n"
         "  --rss-limit-mb N   fail if peak RSS exceeds N MiB (0 = report only)\n"
         "  --mix NAME         device-population mix (none, global, premium, budget):\n"
         "                     each session draws its device profile per seed\n"
         "  --serve MODE       route VAFS decisions through the decision daemon:\n"
         "                     'auto' starts an in-process server on a private\n"
         "                     socket, any other value is the socket path of a\n"
         "                     running vafsd. Bit-identical to in-process.\n"
         "supervision flags:\n"
         "  --supervise N      run sessions in N crash/hang/OOM-tolerant worker\n"
         "                     subprocesses (default: in-process threads)\n"
         "  --task-timeout-ms N    cooperative per-task deadline: an over-budget\n"
         "                     session becomes a captured failure (0 = off)\n"
         "  --task-deadline-ms N   hard external per-task deadline: SIGKILL the\n"
         "                     worker, retry, quarantine (supervised only; 0 = off)\n"
         "  --task-retries N   total attempts per task before quarantine (default 3)\n"
         "  --heartbeat-ms N   worker heartbeat interval (default 250)\n"
         "  --heartbeat-timeout-ms N  silence before a worker is declared hung\n"
         "                     and SIGKILLed (default 5000; 0 = off)\n"
         "  --worker-as-limit-mb N    RLIMIT_AS per worker, MiB (0 = unlimited)\n"
         "  --worker-rss-limit-mb N   SIGKILL workers whose RSS exceeds N MiB (0 = off)\n"
         "chaos flags (HarnessChaos fault injection, test mode; rates in [0, 1]):\n"
         "  --chaos-seed N     fate-hash seed (fates are pure in seed/task/attempt)\n"
         "  --chaos-crash R    raise(SIGSEGV) before the task runs\n"
         "  --chaos-abort R    abort() — the assert/std::terminate shape\n"
         "  --chaos-exit R     _exit(41) — silent early death\n"
         "  --chaos-hang R     stop heartbeating and sleep forever\n"
         "  --chaos-stall R    keep heartbeating, never finish (needs a deadline)\n"
         "  --chaos-leak R     allocate until a budget kills the worker\n";
}

}  // namespace vafs::exp
