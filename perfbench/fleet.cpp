// fleet: a durable production-style sweep — 4 governors x fair/poor x
// clean/mild faults on the `global` device-population mix, 20 s media —
// through fleet::run_fleet with batch = 1, 2 worker threads, digest-chain
// tracing, a checkpoint directory and a JSONL spool per round, pinned to
// two CPUs, which the workers and the host gauge share. Every
// session streams content of its own: seeds never repeat within a run, and
// each scenario's content parameters differ in the last few bits, so no
// two sessions share a SessionArena content key.
#include <unistd.h>

#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "device/profile.h"
#include "exp/grid.h"
#include "fault/plan.h"
#include "fleet_rounds.h"
#include "session_pass.h"
#include "workloads.h"

namespace perfbench {

namespace {

FleetWorkload fleet_workload() {
  core::SessionConfig base;
  base.fixed_rep = 2;  // 720p
  base.media_duration = sim::SimTime::seconds(20);
  base.downloader.attempt_timeout = sim::SimTime::seconds(6);
  base.downloader.max_attempts = 4;
  FleetWorkload w;
  const auto mild = [](core::SessionConfig& c) { c.fault = fault::FaultPlanConfig::mild(); };
  w.scenarios =
      exp::ExperimentGrid(base)
          .governors({"performance", "ondemand", "schedutil", "vafs"})
          .axis("net", {{"fair", [](core::SessionConfig& c) { c.net = core::NetProfile::kFair; }},
                        {"poor", [](core::SessionConfig& c) { c.net = core::NetProfile::kPoor; }}})
          .axis("fault", {{"clean", [](core::SessionConfig&) {}}, {"mild", mild}})
          .population(device::PopulationMix::named("global"))
          .scenarios();
  // Distinct content per scenario: a relative 1e-12 step in the decode
  // cost coefficient makes the content key unique without changing the
  // workload's character.
  for (std::size_t i = 0; i < w.scenarios.size(); ++i) {
    w.scenarios[i].config.content.cycles_per_bit *= 1.0 + 1e-12 * static_cast<double>(i);
  }
  w.seeds_per_round = 64;
  w.shard_size = 32;
  w.durable = true;
  return w;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Temp directory of a run; removed with everything in it on destruction.
class WorkDir {
 public:
  explicit WorkDir(const std::string& work_dir)
      : path_(work_dir + "/fleet-" + std::to_string(::getpid())) {
    remove_all(path_);
    make_dirs(path_);
  }
  ~WorkDir() { remove_all(path_); }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  std::string round_dir(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// Temp dir, grid build and one small warm-up round with checkpoint and
/// spool, repeated kSetupRepeats times; the last set-up is kept.
std::unique_ptr<WorkDir> set_up(const Args& args, EndToEnd& e, Report& report) {
  std::unique_ptr<WorkDir> dir;
  core::LocalDecisionBackend local;
  for (int i = 0; i < kSetupRepeats; ++i) {
    dir.reset();
    const std::int64_t start = now_ns();
    dir = std::make_unique<WorkDir>(args.work_dir);
    FleetWorkload warm = fleet_workload();
    warm.seeds_per_round = 4;
    warm.shard_size = 8;
    const RoundResult r =
        run_round(warm, args.seed, -1, &local, dir->round_dir("warm"), nullptr);
    for (const std::string& p : r.problems) report.fail("warm-up: " + p);
    remove_all(dir->round_dir("warm"));
    e.add_setup(static_cast<double>(now_ns() - start) / 1e9);
  }
  return dir;
}

/// Round 0 again, untimed: the digest chain and the spool bytes must repeat
/// exactly, and the chain must equal the in-process reference.
void check_repeat(const FleetWorkload& w, std::uint64_t seed, const WorkDir& dir,
                  const RoundResult& first, Report& report) {
  core::LocalDecisionBackend local;
  const RoundResult again =
      run_round(w, seed, 0, &local, dir.round_dir("round-0-again"), nullptr);
  for (const std::string& p : again.problems) report.fail("repeat of round 0: " + p);
  if (again.digest_chain != first.digest_chain) {
    report.fail("round 0 digest chain differs between two runs of the same seed");
  }
  if (read_file(dir.round_dir("round-0") + "/spool.jsonl") !=
      read_file(dir.round_dir("round-0-again") + "/spool.jsonl")) {
    report.fail("round 0 spool bytes differ between two runs of the same seed");
  }
  std::uint64_t failed = 0;
  const std::uint64_t expect =
      reference_chain(round_tasks(w.scenarios, seed, 0, 1, w.seeds_per_round), &failed);
  if (failed > 0 || expect != first.digest_chain) {
    report.fail("round 0 digest chain differs from the in-process reference");
  }
}

}  // namespace

void run_fleet_workload(const Args& args, Report& report) {
  pin_to_cpus(kFleetJobs);
  const FleetWorkload w = fleet_workload();
  EndToEnd e(kFleetJobs);
  const std::unique_ptr<WorkDir> dir = set_up(args, e, report);
  core::LocalDecisionBackend local;
  TimingBackend timing(local);
  SpanLog spans;
  const double budget = args.trace ? args.seconds * kTracedFleetShare : args.seconds;

  std::vector<RoundResult> rounds;
  for (std::int64_t r = 0; r == 0 || e.seconds < budget; ++r) {
    const std::string name = "round-" + std::to_string(r);
    rounds.push_back(run_round(w, args.seed, r, &timing, dir->round_dir(name),
                               args.trace ? &spans : nullptr));
    const RoundResult& last = rounds.back();
    const TimingBackend::Totals t = timing.take();
    e.add_round(last.sessions - last.failed, last.seconds, t.stream_ns, t.decide_ns);
    for (const std::string& p : rounds.back().problems) {
      report.fail(name + ": " + p);
    }
    if (r > 0) remove_all(dir->round_dir(name));
  }
  e.peak_rss_mib = peak_rss_mib();
  for (const RoundResult& r : rounds) {
    report.attempted += r.sessions;
    report.failed += r.failed;
  }
  check_repeat(w, args.seed, *dir, rounds.front(), report);

  if (args.trace) {
    run_layer_passes(round_tasks(w.scenarios, args.seed, 0, 100, w.seeds_per_round), local,
                     args.seconds * kTracedSessionShare, spans, report);
    report_serve_layers(ServeLayers{}, report);
    report_fleet_layers(rounds, report);
    const std::string path = args.work_dir + "/spans-fleet.csv";
    if (!spans.finish(path)) report.fail("cannot write " + path);
    return;
  }

  e.session_what = "VAFS sessions, decision stream open to close";
  report_end_to_end(e, report);
}

}  // namespace perfbench
