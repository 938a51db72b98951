// serve: VAFS-only sessions (720p, fair and poor networks, 30 s media)
// through fleet::run_fleet with batch = 1 and 2 worker threads, every
// decision answered by an in-process serve::Server on a private Unix
// socket (serve::SocketBackend: one connection per worker). A closed loop:
// each governor blocks on its reply. The process is pinned to two CPUs,
// which the workers, the daemon's threads and the host gauge share.
#include <unistd.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/grid.h"
#include "fleet_rounds.h"
#include "serve/client.h"
#include "serve/server.h"
#include "session_pass.h"
#include "workloads.h"

namespace perfbench {

namespace {

FleetWorkload serve_workload() {
  core::SessionConfig base;
  base.fixed_rep = 2;  // 720p
  base.media_duration = sim::SimTime::seconds(30);
  base.downloader.attempt_timeout = sim::SimTime::seconds(6);
  base.downloader.max_attempts = 4;
  FleetWorkload w;
  w.scenarios =
      exp::ExperimentGrid(base)
          .governors({"vafs"})
          .axis("net", {{"fair", [](core::SessionConfig& c) { c.net = core::NetProfile::kFair; }},
                        {"poor", [](core::SessionConfig& c) { c.net = core::NetProfile::kPoor; }}})
          .scenarios();
  w.seeds_per_round = 16;
  w.shard_size = 4;
  return w;
}

/// A started daemon on a socket in its own directory, plus its client
/// backend. Stops the server and removes the directory when destroyed.
class Daemon {
 public:
  Daemon(const std::string& work_dir, int index)
      : dir_(work_dir + "/serve-" + std::to_string(::getpid()) + "-" + std::to_string(index)) {
    make_dirs(dir_);
    serve::ServerOptions opts;
    opts.socket_path = dir_ + "/vafsd.sock";  // relative: sun_path is short
    server_ = std::make_unique<serve::Server>(opts);
    started_ = server_->start() && serve::ServeConnection(opts.socket_path).ping();
    backend_ = std::make_unique<serve::SocketBackend>(opts.socket_path);
  }
  ~Daemon() {
    server_->stop();
    remove_all(dir_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool started() const { return started_; }
  serve::Server& server() { return *server_; }
  serve::SocketBackend& backend() { return *backend_; }

 private:
  std::string dir_;
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<serve::SocketBackend> backend_;
  bool started_ = false;
};

/// Daemon start, grid build and one small warm-up round through the
/// daemon, repeated kSetupRepeats times; the last set-up is kept.
std::unique_ptr<Daemon> set_up(const Args& args, EndToEnd& e, Report& report) {
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetupRepeats; ++i) {
    daemon.reset();
    const std::int64_t start = now_ns();
    daemon = std::make_unique<Daemon>(args.work_dir, i);
    FleetWorkload warm = serve_workload();
    warm.seeds_per_round = 2;
    if (daemon->started()) {
      const RoundResult r = run_round(warm, args.seed, -1, &daemon->backend(), {}, nullptr);
      for (const std::string& p : r.problems) report.fail("warm-up: " + p);
    } else {
      report.fail("cannot start the decision daemon under " + args.work_dir);
    }
    e.add_setup(static_cast<double>(now_ns() - start) / 1e9);
  }
  return daemon;
}

/// Each round's served chain must equal the in-process chain of the same
/// tasks, computed here, outside the timed region.
void check_chains(const FleetWorkload& w, std::uint64_t seed,
                  const std::vector<RoundResult>& rounds, Report& report) {
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    for (const std::string& p : rounds[r].problems) {
      report.fail("round " + std::to_string(r) + ": " + p);
    }
    std::uint64_t failed = 0;
    const std::uint64_t expect = reference_chain(
        round_tasks(w.scenarios, seed, static_cast<std::int64_t>(r), 1, w.seeds_per_round),
        &failed);
    if (failed > 0 || expect != rounds[r].digest_chain) {
      report.fail("round " + std::to_string(r) +
                  ": served digest chain differs from the in-process chain");
    }
  }
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  pin_to_cpus(kFleetJobs);
  const FleetWorkload w = serve_workload();
  EndToEnd e(kFleetJobs);
  std::unique_ptr<Daemon> daemon = set_up(args, e, report);
  if (!daemon->started()) return;

  if (args.trace) {
    // A fresh daemon, so its counters cover the fleet pass alone.
    daemon = std::make_unique<Daemon>(args.work_dir, kSetupRepeats);
    if (!daemon->started()) {
      report.fail("cannot restart the decision daemon");
      return;
    }
    TimingBackend timing(daemon->backend());
    SpanLog spans;
    std::vector<RoundResult> rounds;
    double fleet_s = 0.0;
    for (std::int64_t r = 0; r == 0 || fleet_s < args.seconds * kTracedFleetShare; ++r) {
      rounds.push_back(run_round(w, args.seed, r, &timing, {}, &spans));
      fleet_s += rounds.back().seconds;
    }
    const TimingBackend::Totals totals = timing.take();
    const serve::ServerStats stats = daemon->server().stats();

    ServeLayers sl;
    sl.rtt_us_mean = totals.decide_ns.mean_ns() / 1e3;
    sl.server_decide_us_mean = stats.latency_mean_us;
    sl.decisions = totals.decide_ns.count();
    sl.requests = stats.requests;
    sl.connections = stats.connections_accepted;
    sl.protocol_errors = stats.protocol_errors;
    for (const RoundResult& r : rounds) sl.sessions += r.sessions;

    for (const RoundResult& r : rounds) {
      report.attempted += r.sessions;
      report.failed += r.failed;
    }
    check_chains(w, args.seed, rounds, report);
    if (stats.protocol_errors != 0) report.fail("the daemon saw protocol errors");
    run_layer_passes(round_tasks(w.scenarios, args.seed, 0, 1000, w.seeds_per_round),
                     daemon->backend(), args.seconds * kTracedSessionShare, spans, report);
    report_serve_layers(sl, report);
    report_fleet_layers(rounds, report);
    const std::string path = args.work_dir + "/spans-serve.csv";
    if (!spans.finish(path)) report.fail("cannot write " + path);
    return;
  }

  TimingBackend timing(daemon->backend());
  std::vector<RoundResult> rounds;
  for (std::int64_t r = 0; r == 0 || e.seconds < args.seconds; ++r) {
    rounds.push_back(run_round(w, args.seed, r, &timing, {}, nullptr));
    const RoundResult& last = rounds.back();
    const TimingBackend::Totals t = timing.take();
    e.add_round(last.sessions - last.failed, last.seconds, t.stream_ns, t.decide_ns);
  }
  e.peak_rss_mib = peak_rss_mib();
  e.session_what = "VAFS sessions, decision stream open to close";
  for (const RoundResult& r : rounds) {
    report.attempted += r.sessions;
    report.failed += r.failed;
  }
  daemon.reset();
  check_chains(w, args.seed, rounds, report);
  report_end_to_end(e, report);
}

}  // namespace perfbench
