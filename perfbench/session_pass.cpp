#include "session_pass.h"

#include <exception>
#include <memory>
#include <optional>

namespace perfbench {

namespace {

/// Ring large enough for any session in these grids (a 120 s schedutil
/// session records well under 100k events); TraceCounts::add reports a
/// ring that overflowed anyway.
constexpr std::size_t kFullRing = std::size_t{1} << 22;

}  // namespace

std::vector<Task> round_tasks(const std::vector<exp::ScenarioSpec>& scenarios,
                              std::uint64_t seed, std::int64_t first, std::int64_t rounds,
                              std::size_t seeds_per_round) {
  std::vector<Task> tasks;
  for (std::int64_t r = first; r < first + rounds; ++r) {
    const std::vector<std::uint64_t> seeds = round_seeds(seed, r, seeds_per_round);
    for (const exp::ScenarioSpec& spec : scenarios) {
      for (const std::uint64_t s : seeds) tasks.push_back(Task{&spec, s});
    }
  }
  return tasks;
}

PassStats run_session_pass(const std::vector<Task>& tasks, const PassOptions& opts) {
  PassStats st;
  core::SessionArena arena;
  TimingBackend timing(*opts.decisions);
  SpanLog* spans = opts.spans;

  std::uint64_t parent = 0;  // span the next decide nests under
  std::uint64_t session_id = 0;
  if (spans != nullptr) {
    timing.on_decide = [&](std::int64_t start, std::int64_t end) {
      spans->add(SpanKind::kDecide, parent, session_id, start, end);
    };
  }

  const std::int64_t pass_start = now_ns();
  const std::uint64_t pass_span =
      spans != nullptr ? spans->open(SpanKind::kPass, 0, 0, pass_start) : 0;
  st.fingerprints.reserve(tasks.size());
  const std::int64_t deadline =
      opts.budget_s > 0 ? pass_start + static_cast<std::int64_t>(opts.budget_s * 1e9) : 0;
  for (const Task& task : tasks) {
    if (deadline != 0 && now_ns() >= deadline) break;
    core::SessionConfig config = task.spec->config;
    config.seed = task.seed;
    session_id = st.sessions + 1;

    std::optional<obs::Tracer> tracer;
    core::SessionHooks hooks;
    hooks.decision_backend = &timing;
    if (opts.traced) {
      tracer.emplace(obs::Tracer::Config{kFullRing});
      hooks.tracer = &*tracer;
    }
    std::uint64_t session_span = 0;
    std::uint64_t phase_span = 0;
    std::int64_t ready = 0;
    hooks.on_ready = [&](core::SessionLive&) {
      ready = now_ns();
      if (spans != nullptr) {
        spans->close(phase_span, ready);
        phase_span = spans->open(SpanKind::kRunLoop, session_span, session_id, ready);
        parent = phase_span;
      }
    };

    const std::int64_t start = now_ns();
    if (spans != nullptr) {
      session_span = spans->open(SpanKind::kSession, pass_span, session_id, start);
      phase_span = spans->open(SpanKind::kBringUp, session_span, session_id, start);
      parent = phase_span;
    }
    core::SessionResult r;
    std::string error;
    try {
      r = core::run_session(config, hooks, &arena);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const std::int64_t end = now_ns();
    if (spans != nullptr) {
      spans->close(phase_span, end);
      spans->close(session_span, end);
    }

    ++st.sessions;
    if (error.empty() && !r.finished) error = "session hit the simulation cap";
    if (!error.empty()) {
      ++st.failed;
      st.errors.push_back(task.spec->id + " seed " + std::to_string(task.seed) + ": " + error);
      st.fingerprints.push_back(0);
      continue;
    }
    st.fingerprints.push_back(session_fingerprint(r));
    if (ready == 0) ready = end;
    st.sim_events += r.sim_events;
    st.setup_ns += static_cast<double>(ready - start);
    st.run_ns += static_cast<double>(end - ready);
    st.session_ns += static_cast<double>(end - start);
    PassStats::Governor& g = st.by_governor[config.governor];
    ++g.sessions;
    g.events += r.sim_events;
    g.ns += static_cast<double>(end - start);
    st.vafs_plans += r.vafs_plans;
    st.vafs_setspeed_writes += r.vafs_setspeed_writes;
    st.fault_windows += r.fault_windows;
    st.decode_migrations += r.decode_migrations;
    if (tracer && !st.trace.add(*tracer)) st.trace_complete = false;
  }
  const std::int64_t pass_end = now_ns();
  if (spans != nullptr) spans->close(pass_span, pass_end);
  st.seconds = static_cast<double>(pass_end - pass_start) / 1e9;

  const TimingBackend::Totals totals = timing.take();
  st.decide_calls = totals.decide_ns.count();
  st.decide_ns = totals.decide_ns.sum_ns();
  return st;
}

std::uint64_t reference_chain(const std::vector<Task>& tasks, std::uint64_t* failed) {
  core::SessionArena arena;
  std::uint64_t chain = 0;
  for (const Task& task : tasks) {
    core::SessionConfig config = task.spec->config;
    config.seed = task.seed;
    obs::Tracer tracer(obs::Tracer::Config{0});
    core::SessionHooks hooks;
    hooks.tracer = &tracer;
    std::uint64_t digest = 0;
    try {
      digest = core::run_session(config, hooks, &arena).trace_digest;
    } catch (const std::exception&) {
      ++*failed;
    }
    chain = obs::chain_digest(chain, digest);
  }
  return chain;
}

void check_traced_pass(const std::vector<std::uint64_t>& untraced, const PassStats& traced,
                       Report& report) {
  for (const std::string& e : traced.errors) report.fail("traced pass: " + e);
  if (!traced.trace_complete) report.fail("a tracer ring dropped events");
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < traced.fingerprints.size(); ++i) {
    if (i >= untraced.size() || traced.fingerprints[i] != untraced[i]) ++mismatches;
  }
  if (mismatches > 0) {
    report.fail(std::to_string(mismatches) + " of " + std::to_string(traced.fingerprints.size()) +
                " sessions differ between the untraced and the traced pass");
  }
}

namespace {

void report_session_layers(const PassStats& a, const PassStats& b, Report& report) {
  const auto n = static_cast<double>(a.sessions - a.failed);
  const auto nb = static_cast<double>(b.sessions - b.failed);
  const std::string count = "n=" + std::to_string(a.sessions - a.failed) + " sessions";

  report.add("simcore.events_per_session", per(static_cast<double>(a.sim_events), n), "count",
             count);
  report.add("simcore.run_ns_per_event", per(a.run_ns, static_cast<double>(a.sim_events)), "ns",
             std::to_string(a.sim_events) + " events");
  for (const std::string& gov : sweep_governors()) {
    const auto it = a.by_governor.find(gov);
    const PassStats::Governor g = it == a.by_governor.end() ? PassStats::Governor{} : it->second;
    report.add("simcore.events_per_session." + gov,
               per(static_cast<double>(g.events), static_cast<double>(g.sessions)), "count",
               "n=" + std::to_string(g.sessions));
  }
  for (const std::string& gov : sweep_governors()) {
    const auto it = a.by_governor.find(gov);
    const PassStats::Governor g = it == a.by_governor.end() ? PassStats::Governor{} : it->second;
    report.add("core.session_ms." + gov, per(g.ns / 1e6, static_cast<double>(g.sessions)), "ms",
               "n=" + std::to_string(g.sessions));
  }

  const TraceCounts& t = b.trace;
  report.add("governors.samples_per_session",
             per(static_cast<double>(t.governor_samples), nb), "count");
  report.add("governors.sample_change_ratio",
             per(static_cast<double>(t.governor_sample_changes),
                 static_cast<double>(t.governor_samples)),
             "ratio", std::to_string(t.governor_samples) + " samples");

  report.add("core.setup_ms", per(a.setup_ns / 1e6, n), "ms", count);
  report.add("core.run_ms", per(a.run_ns / 1e6, n), "ms", count);
  report.add("core.decide_calls_per_session", per(static_cast<double>(a.decide_calls), n),
             "count");
  report.add("core.decide_ns_mean", per(a.decide_ns, static_cast<double>(a.decide_calls)), "ns",
             "n=" + std::to_string(a.decide_calls) + " decides");
  report.add("core.decide_busy_frac", per(a.decide_ns, a.session_ns), "ratio");
  report.add("core.vafs_setspeed_writes_per_plan",
             per(static_cast<double>(a.vafs_setspeed_writes), static_cast<double>(a.vafs_plans)),
             "ratio", std::to_string(a.vafs_plans) + " plans");

  report.add("cpu.freq_transitions_per_session", per(static_cast<double>(t.freq_changes), nb),
             "count");
  report.add("stream.decode_frames_per_session", per(static_cast<double>(t.decoded_frames), nb),
             "count");
  report.add("net.fetch_attempts_per_session", per(static_cast<double>(t.fetch_attempts), nb),
             "count");
  report.add("net.retry_ratio",
             per(static_cast<double>(t.fetch_attempts), static_cast<double>(t.fetches)), "ratio",
             std::to_string(t.fetches) + " fetches");

  report.add("obs.trace_events_per_session", per(static_cast<double>(t.events), nb), "count");
  report.add("obs.trace_overhead_frac", per(b.seconds, a.seconds) - 1.0, "ratio",
             "traced " + std::to_string(b.seconds) + " s / untraced " +
                 std::to_string(a.seconds) + " s, same tasks");
  // Session-facing tracks only: harness and serve events never come from
  // a session's own tracer.
  for (std::size_t i = 0; i < static_cast<std::size_t>(obs::Track::kHarness); ++i) {
    report.add(std::string("obs.events_per_session.") +
                   obs::track_name(static_cast<obs::Track>(i)),
               per(static_cast<double>(t.by_track[i]), nb), "count");
  }

  report.add("fault.windows_per_session", per(static_cast<double>(a.fault_windows), n), "count");
  report.add("sched.decode_migrations_per_session",
             per(static_cast<double>(a.decode_migrations), n), "count");
}

}  // namespace

void run_layer_passes(const std::vector<Task>& tasks, core::DecisionBackend& decisions,
                      double budget_s, SpanLog& spans, Report& report) {
  PassOptions a;
  a.decisions = &decisions;
  a.budget_s = budget_s;
  const PassStats untraced = run_session_pass(tasks, a);
  const std::vector<Task> same(tasks.begin(),
                               tasks.begin() + static_cast<std::ptrdiff_t>(untraced.sessions));
  PassOptions b;
  b.decisions = &decisions;
  b.traced = true;
  b.spans = &spans;
  const PassStats traced = run_session_pass(same, b);

  report.attempted += untraced.sessions + traced.sessions;
  report.failed += untraced.failed + traced.failed;
  for (const std::string& e : untraced.errors) report.fail("untraced pass: " + e);
  check_traced_pass(untraced.fingerprints, traced, report);
  report_session_layers(untraced, traced, report);
}

}  // namespace perfbench
