// Shared pieces of the repository benchmark: the command line, host
// clocks, nanosecond latency samples, the in-memory span log, the timing
// decision-backend decorator, trace-event counting and the result line.
//
// Everything here observes the simulator from outside, through its public
// entry points (core::run_session, fleet::run_fleet, serve::Server,
// serve::SocketBackend, core::DecisionBackend, obs::Tracer). Nothing calls
// exp::run_grid, core::SessionBatch or core::SessionInstance.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/decision_core.h"
#include "core/session.h"
#include "obs/trace.h"

namespace perfbench {

using namespace vafs;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for sockets, checkpoints, spools and span files
  /// (relative to the working directory, which must be the checkout root).
  std::string work_dir = ".bench_build/perfbench-work";
};

/// Host monotonic time in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seed of round `round` of a workload run with seed `seed`. Round -1 is
/// the set-up warm-up: it ignores `seed`, so every run sets up the same
/// way, and it is disjoint from every timed round.
std::uint64_t round_seed(std::uint64_t seed, std::int64_t round, std::uint64_t index = 0);
/// The first `n` seeds of round `round`.
std::vector<std::uint64_t> round_seeds(std::uint64_t seed, std::int64_t round, std::size_t n);

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the first `n` CPUs it may run on (all of them when it may run on fewer).
/// A pinned workload's work and its HostGauge readings then share cores.
void pin_to_cpus(int n);

/// Peak resident set size of this process, MiB.
double peak_rss_mib();

/// num / den, or 0 when there is nothing to divide by.
inline double per(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Host-speed gauge. The benchmark runs on cores and caches shared with
/// other tenants, and their speed drifts by tens of percent over minutes:
/// medians inside a run absorb seconds of noise, but nothing inside a run
/// can absorb a host that is slower for the whole of it. So the timed
/// rounds are bracketed by readings of this gauge — a fixed piece of
/// benchmark-owned work shaped like an event kernel: a binary min-heap of
/// kHeap timestamps, built and then popped and re-pushed kOps times — and
/// each round's times are scaled to a reference host on which that work
/// takes kReferenceNs. No code under test runs inside the gauge, so a
/// change to the program moves the scaled figures in full; only the
/// host's speed is divided out. A workload whose rounds run on several
/// threads reads the gauge on as many threads, pinned to the same cores
/// (pin_to_cpus).
class HostGauge {
 public:
  /// `threads`: threads a reading runs the work on at once, each on a
  /// heap of its own; the reading is the mean of their medians.
  explicit HostGauge(int threads = 1);

  static constexpr std::size_t kHeap = 8192;
  static constexpr int kOps = 20000;
  /// Runs per reading; a reading is their median.
  static constexpr int kRuns = 3;
  static constexpr double kReferenceNs = 1e6;

  /// Speed factor of the host right now: the median time of kRuns runs
  /// of the work ÷ kReferenceNs. Above 1 on a host slower than the
  /// reference: divide times by it, multiply rates by it.
  double reading();
  /// Takes a reading and returns the mean of it and the previous one: the
  /// factor of the stretch between them (just the reading, the first time).
  double bracket();

 private:
  /// Median host ns of kRuns runs of the work on `heap`, which keeps the
  /// result, so the work cannot be optimised away.
  static double median_ns(std::vector<std::uint64_t>& heap);

  std::vector<std::vector<std::uint64_t>> heaps_;
  double last_ = 0.0;
};

/// Latency samples at nanosecond resolution. Keeps every sample up to
/// kCapacity and a uniform reservoir (Algorithm R, fixed seed) beyond it,
/// so memory stays bounded however fast the program under test runs. The
/// count and the mean cover every sample.
///
/// The tail is read per block: samples are cut, in arrival order, into
/// blocks of kBlock, and p99_ns() is the interquartile mean of the blocks'
/// maxima — the maximum of 100 samples sits at the 0.99 quantile in
/// expectation. Host noise that stalls a few stretches of the run then
/// moves a few blocks, not the run's figure. Block maxima beyond
/// kBlockCapacity are reservoir-sampled like the samples themselves.
class Samples {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 17;
  static constexpr std::size_t kBlock = 100;
  static constexpr std::size_t kBlockCapacity = std::size_t{1} << 14;
  /// Fewer full blocks than this: p99_ns() is the p99 of all samples.
  static constexpr std::size_t kMinBlocks = 5;

  void add(std::int64_t ns);
  void merge(const std::vector<std::int64_t>& ns) {
    for (const std::int64_t v : ns) add(v);
  }
  /// Adds `from`'s kept samples, each multiplied by `scale`, in the order
  /// they arrived (a uniform subsample when `from` saw more than
  /// kCapacity).
  void merge_scaled(const Samples& from, double scale);
  std::uint64_t count() const { return seen_; }
  double mean_ns() const { return seen_ == 0 ? 0.0 : sum_ns_ / static_cast<double>(seen_); }
  double sum_ns() const { return sum_ns_; }
  /// Percentile, p in (0, 1]: the nearest-rank sample, refined within its
  /// 1 ns quantum (see quantile() in harness.cpp); 0 with no samples.
  double percentile_ns(double p) const;
  /// Interquartile mean of the block maxima (see above).
  double p99_ns() const;
  std::uint64_t blocks() const { return blocks_; }

 private:
  std::vector<std::int64_t> kept_;
  std::vector<std::int64_t> block_max_;
  std::int64_t current_max_ = 0;
  std::uint64_t blocks_ = 0;
  std::uint64_t seen_ = 0;
  double sum_ns_ = 0.0;
  std::uint64_t rng_ = 0x5eed;
};

/// Span kinds recorded at the layer boundaries the benchmark wraps.
enum class SpanKind : std::uint8_t {
  kPass,       // one measured pass of a run
  kRound,      // one fleet::run_fleet call
  kShardFold,  // gap between two on_progress callbacks (one shard folded)
  kSession,    // one core::run_session call
  kBringUp,    // run_session entry -> SessionHooks::on_ready
  kRunLoop,    // on_ready -> run_session return
  kDecide,     // one DecisionStream::decide call
};
const char* span_kind_name(SpanKind kind);

/// In-memory span log, written out when the run ends. Single-threaded:
/// only the calling thread records (the traced session pass and the fleet
/// folding thread). Decide spans stop at a fixed budget so a long run
/// cannot grow the log without bound; every other kind is always kept.
class SpanLog {
 public:
  /// Decide spans kept per run (the first few dozen VAFS sessions).
  static constexpr std::size_t kDecideBudget = 100000;

  /// Opens a span at `start_ns`; returns its id, or 0 if it was not kept.
  std::uint64_t open(SpanKind kind, std::uint64_t parent, std::uint64_t session,
                     std::int64_t start_ns);
  void close(std::uint64_t id, std::int64_t end_ns);
  /// Records an already finished span.
  std::uint64_t add(SpanKind kind, std::uint64_t parent, std::uint64_t session,
                    std::int64_t start_ns, std::int64_t end_ns);

  /// CSV: id,parent,session,kind,start_ns,end_ns.
  bool write_csv(const std::string& path) const;
  /// Per kind: count, total and self time (duration minus child spans).
  void print_self_times(std::FILE* out) const;
  /// print_self_times to stdout, then write_csv to `path`.
  bool finish(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   // 0 = root
    std::uint64_t session = 0;  // per-session id (0 outside sessions)
    SpanKind kind = SpanKind::kPass;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  std::vector<Span> spans_;
  std::size_t decides_ = 0;
  std::uint64_t dropped_ = 0;
};

/// core::DecisionBackend decorator that times every decide() round trip
/// and every stream's lifetime (open -> close), in front of any backend:
/// core::LocalDecisionBackend in process, serve::SocketBackend through the
/// daemon. Thread-safe for run_fleet workers: each stream is used by one
/// thread and folds its samples in under a lock when it closes.
class TimingBackend final : public core::DecisionBackend {
 public:
  explicit TimingBackend(core::DecisionBackend& inner) : inner_(inner) {}

  std::unique_ptr<core::DecisionStream> open(const core::DecisionStreamInfo& info) override;

  struct Totals {
    Samples decide_ns;  // one sample per decide() call
    Samples stream_ns;  // one sample per stream, open -> close
  };
  /// Returns everything folded so far and starts afresh.
  Totals take();

  /// Called after every decide() with its host start/end. Only for
  /// single-threaded passes; leave empty under run_fleet.
  std::function<void(std::int64_t start_ns, std::int64_t end_ns)> on_decide;

 private:
  friend class TimedStream;
  void fold(const std::vector<std::int64_t>& decide_ns, std::int64_t stream_ns);

  core::DecisionBackend& inner_;
  std::mutex mutex_;
  Totals totals_;  // guarded by mutex_
};

/// Per-session work counts read from a full-ring obs::Tracer.
struct TraceCounts {
  std::array<std::uint64_t, obs::kTrackCount> by_track{};
  std::uint64_t events = 0;
  std::uint64_t governor_samples = 0;
  std::uint64_t governor_sample_changes = 0;  // samples whose kHz changed
  std::uint64_t freq_changes = 0;
  std::uint64_t decoded_frames = 0;
  std::uint64_t fetches = 0;
  std::uint64_t fetch_attempts = 0;

  /// Adds the tracer's retained events; false if the ring dropped any
  /// (the counts would then be partial).
  bool add(const obs::Tracer& tracer);
};

/// Fingerprint of a session's observable outputs: simulated events,
/// energy and QoE, bit-exact.
std::uint64_t session_fingerprint(const core::SessionResult& r);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string detail;  // e.g. the sample count; printed, not in the JSON line
};

/// The run's outcome: the result line plus human-readable context.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void add(std::string name, double value, std::string unit, std::string detail = {}) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), std::move(detail)});
  }
  /// Marks the run incorrect and remembers why (printed to stderr).
  void fail(std::string why);
  /// Prints "name = value unit [detail]" for every metric, the problems,
  /// then the JSON result line last on stdout.
  void print() const;
};

/// Governors of the sweep grid, in grid order; the per-governor per-layer
/// metrics are keyed by these names on every workload.
const std::vector<std::string>& sweep_governors();

/// Creates `path` and its parents; false on failure.
bool make_dirs(const std::string& path);
/// Removes `path` recursively (best effort).
void remove_all(const std::string& path);

}  // namespace perfbench
