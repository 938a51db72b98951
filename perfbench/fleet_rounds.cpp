#include "fleet_rounds.h"

#include <sys/stat.h>

#include <algorithm>
#include <fstream>
#include <tuple>

namespace perfbench {

namespace {

/// Identity of the manifest file as stat(2) sees it: every durable
/// rewrite (tmp + rename) changes the inode, the mtime or both.
using FileStamp = std::tuple<std::uint64_t, std::int64_t, std::int64_t, std::int64_t>;

FileStamp stamp(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return {};
  return {static_cast<std::uint64_t>(st.st_ino), static_cast<std::int64_t>(st.st_mtim.tv_sec),
          static_cast<std::int64_t>(st.st_mtim.tv_nsec), static_cast<std::int64_t>(st.st_size)};
}

std::uint64_t file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

}  // namespace

RoundResult run_round(const FleetWorkload& w, std::uint64_t seed, std::int64_t round,
                      core::DecisionBackend* backend, const std::string& dir, SpanLog* spans) {
  fleet::FleetOptions opts;
  opts.jobs = kFleetJobs;
  opts.batch = 1;
  opts.seeds = round_seeds(seed, round, w.seeds_per_round);
  opts.shard_size = w.shard_size;
  opts.trace = true;  // digest-only tracers: the chain is the checked output
  opts.decision_backend = backend;
  if (w.durable) {
    opts.checkpoint_dir = dir;
    opts.checkpoint_every_shards = 4;
    opts.spool.format = fleet::SpoolFormat::kJsonl;
  }

  RoundResult r;
  r.sessions = static_cast<std::uint64_t>(w.scenarios.size()) * opts.seeds.size();
  const std::string manifest = dir + "/manifest.ckpt";
  std::int64_t last = 0;
  std::uint64_t round_span = 0;
  FileStamp seen{};
  if (spans != nullptr) {
    opts.on_progress = [&](std::uint64_t, std::uint64_t) {
      const std::int64_t now = now_ns();
      r.fold_gap_ns.push_back(now - last);
      spans->add(SpanKind::kShardFold, round_span, 0, last, now);
      last = now;
      if (w.durable) {
        const FileStamp s = stamp(manifest);
        if (s != FileStamp{} && s != seen) {
          ++r.checkpoints_written;
          seen = s;
        }
      }
      return true;
    };
  }

  const std::int64_t start = now_ns();
  last = start;
  if (spans != nullptr) round_span = spans->open(SpanKind::kRound, 0, 0, start);
  const fleet::FleetResult result = fleet::run_fleet(w.scenarios, opts);
  const std::int64_t end = now_ns();
  if (spans != nullptr) spans->close(round_span, end);
  r.seconds = static_cast<double>(end - start) / 1e9;
  r.digest_chain = result.digest_chain;
  r.shards = result.shards_done;

  r.failed = result.failures.size();
  if (!result.complete()) {
    r.failed = std::max(r.failed, r.sessions - result.sessions_run);
    r.problems.push_back("run_fleet did not complete: " +
                         (result.error.empty() ? std::string("stopped early") : result.error));
  }
  if (!result.failures.empty()) {
    r.problems.push_back(std::to_string(result.failures.size()) +
                         " failed sessions, first: " + result.failures.front().message);
  }
  for (const fleet::FleetScenario& s : result.scenarios) {
    if (s.agg.all_finished) continue;
    if (result.failures.empty()) ++r.failed;  // at least one session per such scenario
    r.problems.push_back("unfinished sessions in " + s.spec.id);
  }

  if (w.durable) {
    r.checkpoint_bytes = file_size(manifest);
    const std::string spool = dir + "/spool.jsonl";
    r.spool_bytes = file_size(spool);
    std::ifstream in(spool);
    std::string line;
    std::uint64_t rows = 0;
    std::uint64_t failed_rows = 0;
    while (std::getline(in, line)) {
      ++rows;
      if (line.find("\"failed\":true") != std::string::npos) ++failed_rows;
    }
    if (rows != r.sessions || failed_rows != 0) {
      r.problems.push_back("spool holds " + std::to_string(rows) + " rows (" +
                           std::to_string(failed_rows) + " failed) for " +
                           std::to_string(r.sessions) + " sessions");
    }
  }
  return r;
}

void report_fleet_layers(const std::vector<RoundResult>& rounds, Report& report) {
  Samples gaps;
  std::uint64_t shards = 0;
  std::uint64_t sessions = 0;
  std::uint64_t spool_bytes = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t checkpoints = 0;
  for (const RoundResult& r : rounds) {
    gaps.merge(r.fold_gap_ns);
    shards += r.shards;
    sessions += r.sessions;
    spool_bytes += r.spool_bytes;
    checkpoint_bytes = std::max(checkpoint_bytes, r.checkpoint_bytes);
    checkpoints += r.checkpoints_written;
  }
  const std::string n = "n=" + std::to_string(gaps.count()) + " folds";
  report.add("fleet.shard_fold_ms_p50", gaps.percentile_ns(0.50) / 1e6, "ms", n);
  report.add("fleet.shard_fold_ms_p99", gaps.p99_ns() / 1e6, "ms", n);
  report.add("fleet.shards", static_cast<double>(shards), "count",
             std::to_string(rounds.size()) + " rounds");
  report.add("fleet.spool_bytes_per_session",
             per(static_cast<double>(spool_bytes), static_cast<double>(sessions)), "B");
  report.add("fleet.checkpoint_bytes", static_cast<double>(checkpoint_bytes), "B");
  report.add("fleet.checkpoints_written", static_cast<double>(checkpoints), "count");
}

}  // namespace perfbench
