// sweep: the offline T1 grid (8 governors x 4 ladder rungs, fair LTE,
// 120 s media, legacy device) as a closed loop of core::run_session calls
// on one thread with tracing off. Round r runs all 32 scenarios on one
// seed, so the round's content is synthesized once and shared by its 32
// sessions; the seed rotates every round.
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/grid.h"
#include "fleet_rounds.h"
#include "session_pass.h"
#include "workloads.h"

namespace perfbench {

namespace {

std::vector<exp::ScenarioSpec> sweep_grid() {
  core::SessionConfig base;
  base.media_duration = sim::SimTime::seconds(120);
  base.net = core::NetProfile::kFair;
  return exp::ExperimentGrid(base)
      .governors(sweep_governors())
      .reps({{0, "360p"}, {1, "480p"}, {2, "720p"}, {3, "1080p"}})
      .scenarios();
}

struct Setup {
  std::vector<exp::ScenarioSpec> scenarios;
  std::unique_ptr<core::SessionArena> arena;
};

/// Grid build, a fresh arena and one warm-up round on a seed of its own,
/// repeated kSetupRepeats times; the last set-up is kept.
Setup set_up(const Args& args, EndToEnd& e, Report& report) {
  Setup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t start = now_ns();
    s.scenarios = sweep_grid();
    s.arena = std::make_unique<core::SessionArena>();
    for (const exp::ScenarioSpec& spec : s.scenarios) {
      core::SessionConfig config = spec.config;
      config.seed = round_seed(args.seed, -1);
      try {
        core::run_session(config, {}, s.arena.get());
      } catch (const std::exception& ex) {
        report.fail("warm-up session " + spec.id + ": " + ex.what());
      }
    }
    e.add_setup(static_cast<double>(now_ns() - start) / 1e9);
  }
  return s;
}

}  // namespace

void run_sweep(const Args& args, Report& report) {
  core::LocalDecisionBackend local;
  EndToEnd e;
  Setup s = set_up(args, e, report);

  if (args.trace) {
    // Enough rounds for any host; the budget stops the untraced pass.
    const auto rounds = static_cast<std::int64_t>(args.seconds * 100) + 1;
    SpanLog spans;
    run_layer_passes(round_tasks(s.scenarios, args.seed, 0, rounds, 1), local,
                     args.seconds * kTracedSessionShare * 2,  // no fleet pass on sweep
                     spans, report);
    report_serve_layers(ServeLayers{}, report);
    report_fleet_layers({}, report);
    const std::string path = args.work_dir + "/spans-sweep.csv";
    if (!spans.finish(path)) report.fail("cannot write " + path);
    return;
  }

  TimingBackend timing(local);
  core::SessionHooks hooks;
  hooks.decision_backend = &timing;
  std::vector<std::uint64_t> round0;  // fingerprints of round 0, for the check
  std::uint64_t failed = 0;
  std::int64_t round = 0;
  for (; round == 0 || e.seconds < args.seconds; ++round) {
    const std::uint64_t seed = round_seed(args.seed, round);
    const std::uint64_t failed_before = failed;
    Samples session_ns;
    const std::int64_t start = now_ns();
    for (const exp::ScenarioSpec& spec : s.scenarios) {
      core::SessionConfig config = spec.config;
      config.seed = seed;
      core::SessionResult r;
      const std::int64_t t0 = now_ns();
      try {
        r = core::run_session(config, hooks, s.arena.get());
      } catch (const std::exception& ex) {
        report.fail(spec.id + " seed " + std::to_string(seed) + ": " + ex.what());
      }
      session_ns.add(now_ns() - t0);
      if (!r.finished) ++failed;
      if (round == 0) round0.push_back(session_fingerprint(r));
    }
    const double round_s = static_cast<double>(now_ns() - start) / 1e9;
    e.add_round(s.scenarios.size() - (failed - failed_before), round_s, session_ns,
                timing.take().decide_ns);
  }
  e.peak_rss_mib = peak_rss_mib();
  e.session_what = "run_session calls";

  PassOptions b;
  b.decisions = &local;
  b.traced = true;
  check_traced_pass(round0, run_session_pass(round_tasks(s.scenarios, args.seed, 0, 1, 1), b),
                    report);

  report.attempted = static_cast<std::uint64_t>(round) * s.scenarios.size();
  report.failed = failed;
  if (failed > 0) report.fail(std::to_string(failed) + " sessions did not finish");
  report_end_to_end(e, report);
}

}  // namespace perfbench
