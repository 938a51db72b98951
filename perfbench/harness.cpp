#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <thread>

namespace perfbench {

namespace {

/// SplitMix64 step: the benchmark's only source of derived seeds.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t round_seed(std::uint64_t seed, std::int64_t round, std::uint64_t index) {
  if (round < 0) seed = 0;
  // Keep simulator seeds in 32 bits: readable in logs and spool rows.
  return mix64(mix64(seed) ^ mix64(static_cast<std::uint64_t>(round) * 0x10001 + index)) >> 32;
}

std::vector<std::uint64_t> round_seeds(std::uint64_t seed, std::int64_t round, std::size_t n) {
  std::vector<std::uint64_t> seeds(n);
  for (std::size_t i = 0; i < n; ++i) seeds[i] = round_seed(seed, round, i);
  return seeds;
}

void pin_to_cpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (int cpu = 0, taken = 0; cpu < CPU_SETSIZE && taken < n; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      ++taken;
    }
  }
  ::sched_setaffinity(0, sizeof chosen, &chosen);
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak when that was
  // larger (a Python wrapper's ~12 MiB).
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

// ---- Host gauge ------------------------------------------------------------

HostGauge::HostGauge(int threads) : heaps_(static_cast<std::size_t>(std::max(threads, 1))) {
  // Slack past the last element: the heaps are allocated back to back, and
  // one thread's last element must not share a cache line with the next
  // heap's root, which its thread writes on every operation.
  for (std::vector<std::uint64_t>& heap : heaps_) heap.reserve(kHeap + 64);
}

double HostGauge::median_ns(std::vector<std::uint64_t>& heap) {
  std::array<std::int64_t, kRuns> ns{};
  for (std::int64_t& elapsed : ns) {
    const std::int64_t start = now_ns();
    std::uint64_t x = 0x5eed;
    const auto next = [&x] {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      return x;
    };
    heap.clear();
    for (std::size_t i = 0; i < kHeap; ++i) heap.push_back(next() >> 20);
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
    for (int i = 0; i < kOps; ++i) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      heap.back() += (next() >> 40) & 0xffff;  // the popped event, rescheduled
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    elapsed = now_ns() - start;
  }
  std::sort(ns.begin(), ns.end());
  return static_cast<double>(ns[kRuns / 2]);
}

double HostGauge::reading() {
  std::vector<double> med(heaps_.size());
  std::vector<std::thread> others;
  for (std::size_t i = 1; i < heaps_.size(); ++i) {
    others.emplace_back([this, &med, i] { med[i] = median_ns(heaps_[i]); });
  }
  med[0] = median_ns(heaps_[0]);
  for (std::thread& t : others) t.join();
  double sum = 0.0;
  for (const double m : med) sum += m;
  return sum / static_cast<double>(med.size()) / kReferenceNs;
}

double HostGauge::bracket() {
  const double now = reading();
  const double factor = last_ > 0.0 ? (last_ + now) / 2.0 : now;
  last_ = now;
  return factor;
}

// ---- Samples ---------------------------------------------------------------

namespace {

/// The p-quantile of integer-nanosecond samples; reorders `v`. The
/// nearest-rank sample x is refined within its 1 ns quantum [x - 0.5,
/// x + 0.5) by where rank p * n falls among the samples equal to x, so a
/// quantile of a fast operation, where thousands of samples tie, still
/// carries the digits that tell two runs apart.
double quantile(std::vector<std::int64_t>& v, double p) {
  if (v.empty()) return 0.0;
  const double target = p * static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(target)));
  const std::size_t idx = std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  const std::int64_t x = v[idx];
  std::size_t below = 0;
  std::size_t equal = 0;
  for (const std::int64_t s : v) {
    below += s < x ? 1 : 0;
    equal += s == x ? 1 : 0;
  }
  const double within = (target - static_cast<double>(below)) / static_cast<double>(equal);
  return static_cast<double>(x) - 0.5 + std::clamp(within, 0.0, 1.0);
}

/// Algorithm R: the slot a new item lands in once `kept` holds
/// `capacity` of `seen` items, or -1 to drop it.
std::ptrdiff_t reservoir_slot(std::uint64_t& rng, std::uint64_t seen, std::size_t capacity) {
  rng = mix64(rng);
  const std::uint64_t slot = rng % seen;
  return slot < capacity ? static_cast<std::ptrdiff_t>(slot) : -1;
}

}  // namespace

void Samples::add(std::int64_t ns) {
  ++seen_;
  sum_ns_ += static_cast<double>(ns);
  current_max_ = std::max(current_max_, ns);
  if (seen_ % kBlock == 0) {
    ++blocks_;
    if (block_max_.size() < kBlockCapacity) {
      block_max_.push_back(current_max_);
    } else if (const auto slot = reservoir_slot(rng_, blocks_, kBlockCapacity); slot >= 0) {
      block_max_[static_cast<std::size_t>(slot)] = current_max_;
    }
    current_max_ = 0;
  }
  if (kept_.size() < kCapacity) {
    kept_.push_back(ns);
  } else if (const auto slot = reservoir_slot(rng_, seen_, kCapacity); slot >= 0) {
    kept_[static_cast<std::size_t>(slot)] = ns;
  }
}

void Samples::merge_scaled(const Samples& from, double scale) {
  for (const std::int64_t v : from.kept_) {
    add(std::llround(static_cast<double>(v) * scale));
  }
}

double Samples::percentile_ns(double p) const {
  std::vector<std::int64_t> copy = kept_;
  return quantile(copy, p);
}

double Samples::p99_ns() const {
  if (block_max_.size() < kMinBlocks) return percentile_ns(0.99);
  std::vector<std::int64_t> v = block_max_;
  std::sort(v.begin(), v.end());
  const std::size_t drop = v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = drop; i < v.size() - drop; ++i) sum += static_cast<double>(v[i]);
  return sum / static_cast<double>(v.size() - 2 * drop);
}

// ---- Spans -----------------------------------------------------------------

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPass: return "pass";
    case SpanKind::kRound: return "fleet.round";
    case SpanKind::kShardFold: return "fleet.shard_fold";
    case SpanKind::kSession: return "core.session";
    case SpanKind::kBringUp: return "core.bring_up";
    case SpanKind::kRunLoop: return "core.run_loop";
    case SpanKind::kDecide: return "core.decide";
  }
  return "?";
}

std::uint64_t SpanLog::open(SpanKind kind, std::uint64_t parent, std::uint64_t session,
                            std::int64_t start_ns) {
  return add(kind, parent, session, start_ns, start_ns);
}

void SpanLog::close(std::uint64_t id, std::int64_t end_ns) {
  if (id != 0) spans_[id - 1].end_ns = end_ns;
}

std::uint64_t SpanLog::add(SpanKind kind, std::uint64_t parent, std::uint64_t session,
                           std::int64_t start_ns, std::int64_t end_ns) {
  if (kind == SpanKind::kDecide && decides_++ >= kDecideBudget) {
    ++dropped_;
    return 0;
  }
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{id, parent, session, kind, start_ns, end_ns});
  return id;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,session,kind,start_ns,end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%llu,%llu,%llu,%s,%lld,%lld\n", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.session), span_kind_name(s.kind),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void SpanLog::print_self_times(std::FILE* out) const {
  std::vector<std::int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  struct Row {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<SpanKind, Row> rows;
  for (const Span& s : spans_) {
    Row& r = rows[s.kind];
    ++r.count;
    r.total_ns += s.end_ns - s.start_ns;
    r.self_ns += s.end_ns - s.start_ns - child_ns[s.id];
  }
  std::fprintf(out, "%-18s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [kind, r] : rows) {
    std::fprintf(out, "%-18s %10llu %12.3f %12.3f\n", span_kind_name(kind),
                 static_cast<unsigned long long>(r.count), static_cast<double>(r.total_ns) / 1e6,
                 static_cast<double>(r.self_ns) / 1e6);
  }
  if (dropped_ > 0) {
    std::fprintf(out, "(%llu decide spans over the budget were not kept; the decide "
                 "spans of later sessions are missing, so their run-loop self time "
                 "includes decide)\n",
                 static_cast<unsigned long long>(dropped_));
  }
}

bool SpanLog::finish(const std::string& path) const {
  print_self_times(stdout);
  return write_csv(path);
}

// ---- Timing decision backend -----------------------------------------------

class TimedStream final : public core::DecisionStream {
 public:
  TimedStream(TimingBackend& owner, std::unique_ptr<core::DecisionStream> inner,
              std::int64_t opened_ns)
      : owner_(owner), inner_(std::move(inner)), opened_ns_(opened_ns) {
    decide_ns_.reserve(4096);
  }
  ~TimedStream() override {
    inner_.reset();  // a remote stream sends its close here
    owner_.fold(decide_ns_, now_ns() - opened_ns_);
  }

  core::DecisionResponse decide(const core::DecisionRequest& request) override {
    const std::int64_t start = now_ns();
    core::DecisionResponse response = inner_->decide(request);
    const std::int64_t end = now_ns();
    decide_ns_.push_back(end - start);
    if (owner_.on_decide) owner_.on_decide(start, end);
    return response;
  }
  core::DecisionCore* local_core() override { return inner_->local_core(); }

 private:
  TimingBackend& owner_;
  std::unique_ptr<core::DecisionStream> inner_;
  std::int64_t opened_ns_;
  std::vector<std::int64_t> decide_ns_;
};

std::unique_ptr<core::DecisionStream> TimingBackend::open(const core::DecisionStreamInfo& info) {
  const std::int64_t opened = now_ns();
  return std::make_unique<TimedStream>(*this, inner_.open(info), opened);
}

void TimingBackend::fold(const std::vector<std::int64_t>& decide_ns, std::int64_t stream_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  totals_.decide_ns.merge(decide_ns);
  totals_.stream_ns.add(stream_ns);
}

TimingBackend::Totals TimingBackend::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  Totals out = std::move(totals_);
  totals_ = Totals{};
  return out;
}

// ---- Trace counts ----------------------------------------------------------

bool TraceCounts::add(const obs::Tracer& tracer) {
  events += tracer.recorded();
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    const obs::TraceEvent& ev = tracer.event(i);
    ++by_track[static_cast<std::size_t>(obs::event_info(ev.kind).track)];
    switch (ev.kind) {
      case obs::EventKind::kGovernorSample:
        ++governor_samples;
        if (ev.a != ev.b) ++governor_sample_changes;
        break;
      case obs::EventKind::kFreqChange: ++freq_changes; break;
      case obs::EventKind::kDecodeEnd: ++decoded_frames; break;
      case obs::EventKind::kFetchBegin: ++fetches; break;
      case obs::EventKind::kAttemptBegin: ++fetch_attempts; break;
      default: break;
    }
  }
  return tracer.dropped() == 0 && tracer.size() == tracer.recorded();
}

// ---- Fingerprint -----------------------------------------------------------

namespace {

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

}  // namespace

std::uint64_t session_fingerprint(const core::SessionResult& r) {
  const std::uint64_t fields[] = {
      r.finished ? 1u : 0u,
      r.sim_events,
      bits(r.energy.cpu_mj),
      bits(r.energy.radio_mj),
      bits(r.energy.display_mj),
      static_cast<std::uint64_t>(r.energy.wall.as_micros()),
      static_cast<std::uint64_t>(r.qoe.startup_delay.as_micros()),
      static_cast<std::uint64_t>(r.qoe.rebuffer_time.as_micros()),
      r.qoe.rebuffer_events,
      r.qoe.frames_presented,
      r.qoe.frames_dropped,
      r.qoe.deadline_misses,
      bits(r.qoe.mean_bitrate_kbps),
      r.qoe.quality_switches,
      r.qoe.fetch_retries,
      r.qoe.fetch_failures,
  };
  std::uint64_t h = 0;
  for (const std::uint64_t f : fields) h = mix64(h ^ f);
  return h;
}

// ---- Report ----------------------------------------------------------------

void Report::fail(std::string why) {
  correct = false;
  problems.push_back(std::move(why));
}

void Report::print() const {
  for (const Metric& m : metrics) {
    std::printf("%-44s = %.6g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.detail.empty() ? "" : "  ", m.detail.c_str());
  }
  for (const std::string& p : problems) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                                                     p.c_str());
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

const std::vector<std::string>& sweep_governors() {
  static const std::vector<std::string> names = {"performance", "ondemand", "interactive",
                                                 "conservative", "schedutil", "powersave",
                                                 "vafs", "vafs-oracle"};
  return names;
}

bool make_dirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

void remove_all(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
