// F15: closed-loop governor auto-tuning on the fleet runner (src/tune).
//
// Tunes the VAFS parameter surface for energy subject to QoE constraints,
// independently per (device profile × network class) cell across the full
// 5-profile registry, by successive halving with seed-count escalation
// plus compass refinement (EXPERIMENTS.md F15). Emits:
//
//   tuned_configs.json          the per-cell shipping configs
//   BENCH_f15.sensitivity.csv   per-dimension landscape through each winner
//   BENCH_f15.json              search summary (rounds, sessions, digest)
//
// Determinism: the whole search is a pure function of --seed; artifacts
// are byte-identical at any --jobs/--shards setting, and a
// SIGTERM-killed run resumed with --resume reproduces them exactly
// (exit 75 = incomplete but resumable, like bench_fleet).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "device/profile.h"
#include "exp/json.h"
#include "exp/options.h"
#include "tune/tuner.h"

namespace {

std::atomic<bool> g_stop{false};

void handle_stop_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  using namespace vafs;

  exp::BenchOptions options;
  std::string error;
  const std::string usage =
      exp::bench_usage("f15") +
      "tuner notes:\n"
      "  --seed N           the search seed (candidate sampling; default 101)\n"
      "  --seed-count N     full evaluation-seed budget per candidate\n"
      "                     (escalation schedule = N/4, N/2, N; default 8)\n"
      "  --checkpoint-dir D durable search state + in-flight round manifests\n"
      "  --resume           resume a killed search from D (byte-identical artifacts)\n"
      "  --out-csv P        sensitivity landscape (default BENCH_f15.sensitivity.csv)\n"
      "  tuned_configs.json is always written next to the artifacts on success\n";
  if (!exp::parse_bench_args(argc, argv, &options, &error)) {
    std::fprintf(stderr, "bench_f15: %s\n%s", error.c_str(), usage.c_str());
    return 2;
  }
  if (options.help) {
    std::printf("%s", usage.c_str());
    return 0;
  }

  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  // The tunable surface: the VAFS knobs the paper hand-sets (F6 probes
  // them pointwise; this searches the grid). --quick shrinks both the
  // space and the cell list to a smoke budget.
  tune::ParamSpace space;
  if (options.quick) {
    space.dim("safety_margin", 0.10, 0.30, 0.10)
        .dim("quantile", 0.85, 0.95, 0.05);
  } else {
    space.dim("safety_margin", 0.05, 0.35, 0.05)
        .dim("predictor_window", 8, 40, 8)
        .dim("quantile", 0.80, 0.95, 0.05)
        .dim("boost_ms", 250, 1000, 250)
        .dim("cold_start_fraction", 0.4, 0.8, 0.2);
  }

  // Tuning cells: the full device registry × {fair, poor} networks.
  std::vector<tune::TuneContext> contexts;
  std::vector<std::string> profiles = device::profile_names();
  if (options.quick && profiles.size() > 2) profiles.resize(2);
  const std::vector<std::pair<std::string, core::NetProfile>> nets =
      options.quick ? std::vector<std::pair<std::string, core::NetProfile>>{
                          {"fair", core::NetProfile::kFair}}
                    : std::vector<std::pair<std::string, core::NetProfile>>{
                          {"fair", core::NetProfile::kFair}, {"poor", core::NetProfile::kPoor}};
  for (const std::string& profile : profiles) {
    for (const auto& [net_label, net] : nets) {
      tune::TuneContext ctx;
      ctx.name = profile + "/" + net_label;
      ctx.profile = profile;
      ctx.net_label = net_label;
      ctx.net = net;
      ctx.governor = "vafs";
      // Poor networks cannot hold the fair-network stall budget at 720p;
      // the floor is the paper's "imperceptible rebuffering" threshold.
      ctx.constraints.max_rebuffer_ratio = net == core::NetProfile::kPoor ? 0.05 : 0.01;
      ctx.constraints.max_drop_pct = 2.0;
      ctx.constraints.max_startup_s = 5.0;
      contexts.push_back(std::move(ctx));
    }
  }

  tune::TunerOptions topts;
  topts.search_seed = options.seeds.empty() ? 101 : options.seeds.front();
  const int full_seeds =
      options.seed_count > 0 ? static_cast<int>(options.seed_count) : (options.quick ? 2 : 8);
  if (options.quick) {
    topts.seed_schedule = {std::max(1, full_seeds / 2), full_seeds};
    topts.initial_candidates = 8;
    topts.refine_passes = 2;
  } else {
    topts.seed_schedule = {std::max(1, full_seeds / 4), std::max(1, full_seeds / 2), full_seeds};
    topts.initial_candidates = 16;
    topts.refine_passes = 4;
  }
  topts.base.fixed_rep = 2;  // 720p
  topts.base.media_duration = sim::SimTime::seconds(options.quick ? 20 : 60);
  topts.base.downloader.attempt_timeout = sim::SimTime::seconds(6);
  topts.base.downloader.max_attempts = 4;
  topts.jobs = options.effective_jobs();
  if (options.shards > 0) topts.shard_size = static_cast<std::size_t>(options.shards);
  topts.checkpoint_dir = options.checkpoint_dir;
  topts.resume = options.resume;
  topts.keep_going = [] { return !g_stop.load(std::memory_order_relaxed); };

  const auto t0 = std::chrono::steady_clock::now();
  const tune::TuneReport report = tune::run_tuner(space, contexts, topts);
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  if (!report.ok()) {
    std::fprintf(stderr, "bench_f15: %s\n", report.error.c_str());
    return 1;
  }
  if (report.stopped) {
    std::fprintf(stderr,
                 "bench_f15: stopped by signal after %llu rounds (%llu sessions); "
                 "state written, rerun with --resume\n",
                 static_cast<unsigned long long>(report.rounds),
                 static_cast<unsigned long long>(report.sessions));
    return 75;  // EX_TEMPFAIL: incomplete but resumable
  }

  std::printf("f15: tuned %zu cells in %llu rounds / %llu sessions (%llu replayed rounds)\n",
              report.cells.size(), static_cast<unsigned long long>(report.rounds),
              static_cast<unsigned long long>(report.sessions),
              static_cast<unsigned long long>(report.rounds_replayed));
  for (const tune::CellResult& cell : report.cells) {
    std::printf("  %-18s %s energy %.1f mJ  stall %.4f  %s\n", cell.ctx.name.c_str(),
                cell.best_score.feasible ? "ok " : "INFEASIBLE", cell.best_score.energy_mj,
                cell.best_score.rebuffer_ratio, space.format(cell.best).c_str());
  }

  const auto write_text = [](const std::string& path, const std::string& body) {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << body;
    if (!out) {
      std::fprintf(stderr, "bench_f15: cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("f15: wrote %s\n", path.c_str());
    return true;
  };

  const exp::Json tuned = tune::tuned_configs_json(space, contexts, topts, report);
  if (!write_text("tuned_configs.json", tuned.dump() + "\n")) return 1;

  if (options.out_csv != "none") {
    const std::string path = options.out_csv.empty() ? "BENCH_f15.sensitivity.csv"
                                                     : options.out_csv;
    if (!write_text(path, tune::sensitivity_csv(space, report))) return 1;
  }

  if (options.out_json != "none") {
    exp::Json root = exp::Json::object();
    root.set("bench", "f15");
    root.set("title", "Closed-loop governor auto-tuning (energy min s.t. QoE floors)");
    root.set("schema_version", 1);
    root.set("elapsed_s", elapsed_s);
    root.set("sessions_per_sec",
             elapsed_s > 0 ? static_cast<double>(report.sessions) / elapsed_s : 0.0);
    root.set("tuned", tune::tuned_configs_json(space, contexts, topts, report));
    const std::string path = options.out_json.empty() ? "BENCH_f15.json" : options.out_json;
    if (!write_text(path, root.dump() + "\n")) return 1;
  }
  return 0;
}
