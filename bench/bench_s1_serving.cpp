// S1: decision-serving latency and throughput under fleet load.
//
// The fleet runner is the load generator: `--jobs` workers each advance a
// lockstep batch of sessions (one open decision stream per live session),
// so the daemon multiplexes jobs x batch concurrent streams — >= 1000 by
// default — over one Unix-socket connection per worker thread. Every
// decision round trip is timed client-side (RTT through the wire protocol)
// and, when the server runs in-process, server-side (DecisionCore::decide
// alone), both on lock-free log-linear histograms.
//
// The headline proof rides along: the same grid is re-run with in-process
// decisions and the two digest chains must match bit-for-bit — a daemon
// answering thousands of interleaved streams is indistinguishable, event
// stream for event stream, from the inline planner. The bench exits 1 on
// a mismatch, so every CI run of it is a determinism check at scale.
//
//   bench_s1_serving --quick             # smoke: short sessions, 1 wave
//   bench_s1_serving --serve /run/vafsd.sock   # drive an external daemon
//
// tools/check_perf.py gates the `extra` metrics (s1:*) against
// bench/baselines/serving_baseline.json.
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "exp/grid.h"
#include "exp/json.h"
#include "exp/options.h"
#include "exp/table.h"
#include "fleet/fleet_runner.h"
#include "obs/export.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/stats.h"

namespace {

using namespace vafs;

/// Decorates a backend's streams with client-side round-trip timing: the
/// full cost a session pays per decision (encode + transport + decode +
/// the decision itself), recorded from the worker thread that waited for
/// it. A histogram has one writer, so each stream records into its own and
/// folds it into the shared one when the session closes it.
class TimingStream final : public core::DecisionStream {
 public:
  TimingStream(std::unique_ptr<core::DecisionStream> inner, serve::LatencyHistogram* total,
               std::mutex* total_mutex)
      : inner_(std::move(inner)), total_(total), total_mutex_(total_mutex) {}
  ~TimingStream() override {
    std::lock_guard<std::mutex> lock(*total_mutex_);
    total_->merge(hist_);
  }

  core::DecisionResponse decide(const core::DecisionRequest& request) override {
    const auto t0 = std::chrono::steady_clock::now();
    core::DecisionResponse resp = inner_->decide(request);
    hist_.record_ns(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             t0)
            .count()));
    return resp;
  }

 private:
  std::unique_ptr<core::DecisionStream> inner_;
  serve::LatencyHistogram hist_;
  serve::LatencyHistogram* total_;
  std::mutex* total_mutex_;
};

class TimingBackend final : public core::DecisionBackend {
 public:
  TimingBackend(core::DecisionBackend* inner, serve::LatencyHistogram* hist)
      : inner_(inner), hist_(hist) {}

  std::unique_ptr<core::DecisionStream> open(const core::DecisionStreamInfo& info) override {
    return std::make_unique<TimingStream>(inner_->open(info), hist_, &mutex_);
  }

 private:
  core::DecisionBackend* inner_;
  serve::LatencyHistogram* hist_;
  std::mutex mutex_;  // guards *hist_
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::string serving_usage() {
  return "serving flags:\n"
         "  --serve MODE       'auto' (default): host the decision server in-process\n"
         "                     on a private socket; otherwise the socket path of a\n"
         "                     running vafsd (server-side latency is then reported\n"
         "                     by the daemon, not here)\n"
         "  --seed-count N     sessions per scenario (default: jobs x ceil(1024/jobs),\n"
         "                     i.e. two full-concurrency waves across the 2 scenarios)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vafs;

  exp::BenchOptions options;
  std::string error;
  if (!exp::parse_bench_args(argc, argv, &options, &error)) {
    std::fprintf(stderr, "bench_s1_serving: %s\n%s%s", error.c_str(),
                 exp::bench_usage("s1_serving").c_str(), serving_usage().c_str());
    return 2;
  }
  if (options.help) {
    std::printf("%s%s", exp::bench_usage("s1_serving").c_str(), serving_usage().c_str());
    return 0;
  }

  const int jobs = options.effective_jobs();
  // Concurrency comes from lockstep batch width x workers: >= 1024
  // concurrent streams regardless of core count (a single worker still
  // multiplexes 1024 live sessions over one connection).
  const int batch = (1024 + jobs - 1) / jobs;
  const std::uint64_t streams =
      static_cast<std::uint64_t>(jobs) * static_cast<std::uint64_t>(batch);

  core::SessionConfig base;
  base.fixed_rep = 2;  // 720p
  base.media_duration = sim::SimTime::seconds(options.quick ? 10 : 30);
  base.downloader.attempt_timeout = sim::SimTime::seconds(6);
  base.downloader.max_attempts = 4;

  // Every scenario runs the vafs governor — the only one that consults the
  // decision stream — under the two canonical network profiles.
  exp::ExperimentGrid grid(base);
  grid.governors({"vafs"})
      .axis("net", {{"fair", [](core::SessionConfig& c) { c.net = core::NetProfile::kFair; }},
                    {"poor", [](core::SessionConfig& c) { c.net = core::NetProfile::kPoor; }}});
  const std::vector<exp::ScenarioSpec> scenarios = grid.scenarios();

  // Default load: scenarios x (jobs x batch) seeds = two full-concurrency
  // waves; --quick halves that to one wave.
  if (options.seed_count == 0) {
    options.seed_count = options.quick ? (streams + 1) / 2 : streams;
  }
  fleet::FleetOptions fopts;
  fopts.jobs = jobs;
  fopts.batch = batch;
  // One shard per pack: every worker wave is a full batch of live streams.
  fopts.shard_size = static_cast<std::size_t>(batch);
  fopts.seeds = options.fleet_seeds();
  fopts.trace = options.trace_flag != 0;  // default on: the digest chain IS the proof

  const std::uint64_t tasks =
      static_cast<std::uint64_t>(scenarios.size()) * fopts.seeds.size();

  // ---- The daemon under test.
  std::unique_ptr<serve::Server> server;
  std::string socket = options.serve.empty() ? "auto" : options.serve;
  if (socket == "auto") {
    socket = "/tmp/vafs-s1-" + std::to_string(getpid()) + ".sock";
    serve::ServerOptions sopts;
    sopts.socket_path = socket;
    sopts.max_connections = static_cast<std::size_t>(jobs) + 8;
    server = std::make_unique<serve::Server>(sopts);
    if (!server->start()) {
      std::fprintf(stderr, "bench_s1_serving: cannot start server on %s\n", socket.c_str());
      return 1;
    }
  }
  serve::SocketBackend socket_backend(socket);
  try {
    serve::ServeConnection probe(socket);
    if (!probe.ping()) {
      std::fprintf(stderr, "bench_s1_serving: daemon at %s did not answer a ping\n",
                   socket.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_s1_serving: %s\n", e.what());
    return 1;
  }

  serve::LatencyHistogram rtt;
  TimingBackend timing(&socket_backend, &rtt);
  fopts.decision_backend = &timing;

  std::printf("s1: %zu scenarios x %zu seeds = %llu sessions, %d jobs x %d-stream batches "
              "= %llu concurrent streams, daemon %s\n",
              scenarios.size(), fopts.seeds.size(), static_cast<unsigned long long>(tasks),
              jobs, batch, static_cast<unsigned long long>(streams),
              server ? "in-process" : socket.c_str());

  // ---- Serving leg.
  const auto t0 = std::chrono::steady_clock::now();
  const fleet::FleetResult served = run_fleet(scenarios, fopts);
  const double serve_s = seconds_since(t0);
  if (!served.ok()) {
    std::fprintf(stderr, "bench_s1_serving: %s\n", served.error.c_str());
    return 1;
  }
  if (!served.failures.empty()) {
    std::fprintf(stderr, "bench_s1_serving: %zu sessions failed under the daemon "
                 "(first: %s)\n",
                 served.failures.size(), served.failures.front().message.c_str());
    return 1;
  }

  serve::ServerStats sstats;
  if (server != nullptr) {
    server->stop();  // drain so the counters below are final
    sstats = server->stats();
  }

  // ---- In-process reference leg: same grid, inline decisions.
  fopts.decision_backend = nullptr;
  const auto t1 = std::chrono::steady_clock::now();
  const fleet::FleetResult inproc = run_fleet(scenarios, fopts);
  const double inproc_s = seconds_since(t1);
  if (!inproc.ok()) {
    std::fprintf(stderr, "bench_s1_serving: reference leg: %s\n", inproc.error.c_str());
    return 1;
  }

  const std::uint64_t decisions = rtt.count();
  const double decisions_per_sec =
      serve_s > 0 ? static_cast<double>(decisions) / serve_s : 0.0;
  const double sessions_per_sec =
      serve_s > 0 ? static_cast<double>(served.sessions_run) / serve_s : 0.0;

  std::printf("%-26s %12s %12s\n", "", "daemon", "in-process");
  exp::print_rule(54);
  std::printf("%-26s %12.2f %12.2f\n", "wall seconds", serve_s, inproc_s);
  std::printf("%-26s %12.0f %12.0f\n", "sessions/sec", sessions_per_sec,
              inproc_s > 0 ? static_cast<double>(inproc.sessions_run) / inproc_s : 0.0);
  std::printf("%-26s %12s %12s\n", "digest chain",
              obs::digest_hex(served.digest_chain).c_str(),
              obs::digest_hex(inproc.digest_chain).c_str());
  std::printf("serve: %llu decisions (%.0f/s), RTT p50/p95/p99 %.1f/%.1f/%.1f us "
              "(mean %.1f)\n",
              static_cast<unsigned long long>(decisions), decisions_per_sec,
              rtt.percentile_us(0.50), rtt.percentile_us(0.95), rtt.percentile_us(0.99),
              rtt.mean_us());
  if (server != nullptr) {
    std::printf("serve: server-side decide p50/p95/p99 %.2f/%.2f/%.2f us over %llu "
                "connections (%llu streams)\n",
                sstats.latency_p50_us, sstats.latency_p95_us, sstats.latency_p99_us,
                static_cast<unsigned long long>(sstats.connections_accepted),
                static_cast<unsigned long long>(sstats.streams_opened));
    std::printf("serve: server waits: %llu spins (%llu ran out), %llu futex waits, "
                "%llu thread moves\n",
                static_cast<unsigned long long>(sstats.spins),
                static_cast<unsigned long long>(sstats.spin_timeouts),
                static_cast<unsigned long long>(sstats.futex_waits),
                static_cast<unsigned long long>(sstats.thread_moves));
  }

  const bool tracing = fopts.trace;
  bool digests_match = true;
  if (tracing) {
    digests_match = served.digest_chain == inproc.digest_chain;
    std::printf("differential: digest chains %s\n",
                digests_match ? "identical (daemon == in-process, bitwise)" : "DIFFER");
  }

  if (options.out_json != "none") {
    const std::string path =
        options.out_json.empty() ? "BENCH_s1_serving.json" : options.out_json;
    exp::Json root = exp::Json::object();
    root.set("bench", "s1_serving");
    root.set("sessions", static_cast<std::uint64_t>(tasks));
    root.set("jobs", jobs);
    root.set("batch", batch);
    root.set("daemon", server ? "in-process" : socket);
    root.set("digest_chain_served", obs::digest_hex(served.digest_chain));
    root.set("digest_chain_inproc", obs::digest_hex(inproc.digest_chain));
    root.set("digests_match", digests_match);
    exp::Json extra = exp::Json::object();
    extra.set("concurrent_streams", streams);
    extra.set("decisions", decisions);
    extra.set("decisions_per_sec", decisions_per_sec);
    extra.set("sessions_per_sec", sessions_per_sec);
    extra.set("decision_rtt_p50_us", rtt.percentile_us(0.50));
    extra.set("decision_rtt_p95_us", rtt.percentile_us(0.95));
    extra.set("decision_rtt_p99_us", rtt.percentile_us(0.99));
    extra.set("decision_rtt_mean_us", rtt.mean_us());
    if (server != nullptr) {
      extra.set("server_decide_p50_us", sstats.latency_p50_us);
      extra.set("server_decide_p99_us", sstats.latency_p99_us);
      extra.set("server_requests", sstats.requests);
      extra.set("server_spins", sstats.spins);
      extra.set("server_spin_timeouts", sstats.spin_timeouts);
      extra.set("server_futex_waits", sstats.futex_waits);
      extra.set("server_thread_moves", sstats.thread_moves);
    }
    root.set("extra", std::move(extra));
    std::ofstream out(path, std::ios::trunc);
    out << root.dump() << '\n';
    if (!out) {
      std::fprintf(stderr, "bench_s1_serving: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("s1: wrote %s\n", path.c_str());
  }

  if (tracing && !digests_match) {
    std::fprintf(stderr, "bench_s1_serving: FAILED: daemon-served digest chain differs from "
                 "in-process\n");
    return 1;
  }
  return 0;
}
