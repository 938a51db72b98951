// Throughput — how fast the simulator itself runs.
//
// Two grids, each timed end to end through the exp engine:
//
//   t1   the default T1 grid (8 governors × 4 ladder rungs, fair LTE,
//        120 s sessions) — the repo's headline table and the reference
//        workload for the ≥3× sessions/sec target in EXPERIMENTS.md.
//   net  governor × network profile (6 governors × calm-through-volatile
//        networks, rate ABR) — stresses the downloader/bandwidth event
//        paths that the fixed-ABR T1 grid exercises lightly.
//
// Reports sessions/sec and simulated events/sec for both. These are the
// numbers the CI perf gate tracks (tools/check_perf.py vs
// bench/baselines/throughput_baseline.json); the session *outputs* are
// covered by the other benches, so this one prints only timing.
//
// Methodology: each grid runs once untimed to warm allocators and page in
// the binary, then `reps` timed passes; the fastest pass is reported
// (minimum wall time = least scheduler noise, standard for throughput
// benchmarking). Use --jobs 1 for the steadiest numbers; the default uses
// every core, which also exercises the per-worker arena reuse path.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "exp/bench_app.h"

namespace {

using namespace vafs;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::uint64_t total_events(const exp::ResultSet& results) {
  std::uint64_t events = 0;
  for (const auto& sr : results.all()) {
    for (const auto& r : sr.runs) events += r.sim_events;
  }
  return events;
}

struct GridTiming {
  std::size_t sessions = 0;
  std::uint64_t events = 0;
  double wall_sec = 0.0;
  double sessions_per_sec = 0.0;
  double events_per_sec = 0.0;
};

/// Times `reps` full passes over the grid and reports the fastest.
GridTiming time_grid(const char* tag, const exp::ExperimentGrid& grid,
                     const exp::ResultSet& warm, const exp::RunOptions& opts, int reps) {
  GridTiming t;
  t.sessions = grid.scenarios().size() * opts.seeds.size();
  t.events = total_events(warm);
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    exp::run_grid(grid, opts);
    const double wall = seconds_since(start);
    std::printf("  [%s] pass %d: %.3f s  (%.1f sessions/s, %.2f M events/s)\n", tag, rep + 1,
                wall, static_cast<double>(t.sessions) / wall,
                static_cast<double>(t.events) / wall / 1e6);
    if (t.wall_sec == 0.0 || wall < t.wall_sec) t.wall_sec = wall;
  }
  t.sessions_per_sec = static_cast<double>(t.sessions) / t.wall_sec;
  t.events_per_sec = static_cast<double>(t.events) / t.wall_sec;
  return t;
}

void report(const char* tag, const GridTiming& t, int reps, exp::Json& extra) {
  std::printf("\n[%s] best of %d: %.3f s wall\n", tag, reps, t.wall_sec);
  std::printf("  %12.1f sessions/sec\n", t.sessions_per_sec);
  std::printf("  %12.2f M simulated events/sec\n", t.events_per_sec / 1e6);
  std::printf("  %12.1f k events per session (mean)\n\n",
              static_cast<double>(t.events) / static_cast<double>(t.sessions) / 1e3);
  const std::string prefix(tag);
  extra.set(prefix + "_sessions", static_cast<std::uint64_t>(t.sessions));
  extra.set(prefix + "_events", t.events);
  extra.set(prefix + "_wall_sec", t.wall_sec);
  extra.set(prefix + "_sessions_per_sec", t.sessions_per_sec);
  extra.set(prefix + "_events_per_sec", t.events_per_sec);
}

}  // namespace

int main(int argc, char** argv) {
  // default_trace=false: this bench *is* the perf baseline, so its sessions
  // run with tracing fully detached (the observer-effect-0 configuration).
  // --trace re-enables digests for a tracing-overhead A/B measurement.
  exp::BenchApp app(argc, argv, "throughput",
                    "Simulator throughput: sessions/sec and events/sec (T1 grid + governor x net grid)",
                    /*default_trace=*/false);

  // ---- Grid 1: the default T1 grid (bench_t1_energy_by_governor) ----------
  const std::vector<std::string> t1_governors = {"performance", "ondemand", "interactive",
                                                 "conservative", "schedutil", "powersave",
                                                 "vafs", "vafs-oracle"};
  const std::vector<std::pair<std::size_t, std::string>> t1_reps = {
      {0, "360p"}, {1, "480p"}, {2, "720p"}, {3, "1080p"}};

  core::SessionConfig t1_base;
  t1_base.media_duration = app.session_seconds(120);
  t1_base.net = core::NetProfile::kFair;
  const exp::ExperimentGrid t1_grid =
      exp::ExperimentGrid(t1_base).governors(t1_governors).reps(t1_reps);

  // ---- Grid 2: governor × network profile ----------------------------------
  const std::vector<std::string> net_governors = {"performance", "ondemand",  "interactive",
                                                  "conservative", "schedutil", "vafs"};
  const std::vector<std::pair<core::NetProfile, std::string>> nets = {
      {core::NetProfile::kPoor, "poor"},
      {core::NetProfile::kFair, "fair"},
      {core::NetProfile::kGood, "good"}};

  core::SessionConfig net_base;
  net_base.media_duration = app.session_seconds(120);
  // Rate-based ABR keeps poor-network sessions from stalling their way to
  // the sim cap: the workload stays a finite, representative stream.
  net_base.abr = core::AbrKind::kRate;

  std::vector<std::pair<std::string, exp::ExperimentGrid::Mutator>> net_values;
  for (const auto& [profile, name] : nets) {
    const core::NetProfile p = profile;
    net_values.emplace_back(name, [p](core::SessionConfig& c) { c.net = p; });
  }
  const exp::ExperimentGrid net_grid =
      exp::ExperimentGrid(net_base).governors(net_governors).axis("net", std::move(net_values));

  const int reps = app.quick() ? 2 : 3;
  exp::RunOptions timed_opts;
  timed_opts.jobs = app.jobs();
  timed_opts.seeds = app.seeds();
  timed_opts.trace = app.tracing();  // off by default; --trace A/Bs the digest cost

  std::printf("t1 grid:  %zu scenarios x %zu seeds = %zu sessions\n", t1_grid.scenarios().size(),
              app.seeds().size(), t1_grid.scenarios().size() * app.seeds().size());
  std::printf("net grid: %zu scenarios x %zu seeds = %zu sessions\n", net_grid.scenarios().size(),
              app.seeds().size(), net_grid.scenarios().size() * app.seeds().size());
  std::printf("%d timed reps per grid, %d jobs\n\n", reps, app.jobs());

  // Warmup passes (untimed); their results also feed the standard artifacts
  // so the JSON still carries the usual per-scenario metric aggregates.
  const exp::ResultSet& t1_warm = app.run(t1_grid, "t1");
  const exp::ResultSet& net_warm = app.run(net_grid, "net");

  const GridTiming t1 = time_grid("t1", t1_grid, t1_warm, timed_opts, reps);
  const GridTiming net = time_grid("net", net_grid, net_warm, timed_opts, reps);

  exp::Json& extra = app.extra();
  report("t1", t1, reps, extra);
  report("net", net, reps, extra);

  // Back-compat headline keys: the T1 grid is the reference workload.
  extra.set("sessions_per_sec", t1.sessions_per_sec);
  extra.set("events_per_sec", t1.events_per_sec);
  extra.set("timed_reps", reps);
  extra.set("jobs", app.jobs());

  std::printf("per-scenario event counts, t1 grid (seed %llu):\n\n",
              static_cast<unsigned long long>(app.seeds().front()));
  std::printf("%-13s", "governor");
  for (const auto& [rep, name] : t1_reps) std::printf(" %12s", name.c_str());
  std::printf("\n");
  exp::print_rule(65);
  for (const auto& governor : t1_governors) {
    std::printf("%-13s", governor.c_str());
    for (const auto& [rep, name] : t1_reps) {
      const auto& sr = t1_warm.at({{"governor", governor}, {"rep", name}});
      std::printf(" %12llu", static_cast<unsigned long long>(sr.run0().sim_events));
    }
    std::printf("\n");
  }
  return app.finish();
}
