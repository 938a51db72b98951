#include "exp/runner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <thread>

#include "obs/trace.h"

namespace vafs::exp {

const ScenarioResult& ResultSet::at(
    std::initializer_list<std::pair<std::string_view, std::string_view>> query) const {
  const ScenarioResult* found = nullptr;
  for (const auto& sr : scenarios_) {
    bool match = true;
    for (const auto& [axis, value] : query) {
      const std::string* label = sr.spec.label(axis);
      if (label == nullptr || *label != value) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    if (found != nullptr) {
      std::fprintf(stderr, "exp::ResultSet::at: query is ambiguous (matches '%s' and '%s')\n",
                   found->spec.id.c_str(), sr.spec.id.c_str());
      std::abort();
    }
    found = &sr;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "exp::ResultSet::at: no scenario matches the query\n");
    std::abort();
  }
  return *found;
}

TaskOutcome run_one_task(const ScenarioSpec& spec, std::uint64_t seed,
                         core::SessionHooks hooks, bool trace, core::SessionArena* arena,
                         std::int64_t task_timeout_ms) {
  TaskOutcome out;
  core::SessionConfig config = spec.config;
  config.seed = seed;
  if (task_timeout_ms > 0) config.task_timeout_ms = task_timeout_ms;
  // Digest-only tracer per task (no event storage, no allocation): the
  // digest and event count land in the SessionResult before the tracer
  // goes out of scope. Hooks that supplied their own tracer win.
  std::optional<obs::Tracer> digest_tracer;
  if (hooks.tracer == nullptr && trace) {
    digest_tracer.emplace(obs::Tracer::Config{0});
    hooks.tracer = &*digest_tracer;
  }
  try {
    out.result = core::run_session(config, hooks, arena);
  } catch (const std::exception& e) {
    out.error = "scenario '" + spec.id + "' seed " + std::to_string(seed) + ": " + e.what();
  } catch (...) {
    out.error = "scenario '" + spec.id + "' seed " + std::to_string(seed) + ": unknown exception";
  }
  return out;
}

ResultSet run_grid(const std::vector<ScenarioSpec>& scenarios, const RunOptions& opts) {
  std::vector<ScenarioResult> results(scenarios.size());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    results[s].spec = scenarios[s];
    results[s].seeds = opts.seeds;
    results[s].runs.resize(opts.seeds.size());
  }

  // Flattened task list: task t = (scenario t / nseeds, seed t % nseeds).
  // Hooks are constructed up front on this thread (factories may touch
  // bench-local containers); each task's hooks then fire only on the one
  // worker that runs it.
  const std::size_t nseeds = opts.seeds.size();
  const std::size_t ntasks = scenarios.size() * nseeds;
  std::vector<core::SessionHooks> hooks(ntasks);
  if (opts.hooks) {
    for (std::size_t t = 0; t < ntasks; ++t) {
      hooks[t] = opts.hooks(scenarios[t / nseeds], t / nseeds, t % nseeds);
    }
  }
  if (opts.decision_backend != nullptr) {
    for (auto& h : hooks) {
      if (h.decision_backend == nullptr) h.decision_backend = opts.decision_backend;
    }
  }

  // One arena per worker: sessions on the same thread reuse the event
  // slab/heap capacity, so only the first session of each worker allocates.
  // A task that throws records its message into a preallocated slot (no
  // shared mutable state, no lock) instead of killing the grid; slots are
  // folded into per-scenario failure lists in (scenario, seed) order below,
  // so the failure report is as deterministic as the results.
  std::vector<std::string> errors(ntasks);
  const auto run_task = [&](std::size_t t, core::SessionArena& arena) {
    const std::size_t s = t / nseeds;
    const std::size_t i = t % nseeds;
    core::SessionHooks task_hooks = hooks[t];
    // The designated capture task gets the bench's full-ring tracer; every
    // other task gets run_one_task's digest-only tracer when opts.trace.
    // Hooks that supplied their own tracer win either way.
    if (task_hooks.tracer == nullptr && opts.capture != nullptr && s == opts.capture_scenario &&
        i == opts.capture_seed) {
      task_hooks.tracer = opts.capture;
    }
    TaskOutcome out = run_one_task(scenarios[s], opts.seeds[i], std::move(task_hooks), opts.trace,
                                   &arena, opts.task_timeout_ms);
    results[s].runs[i] = std::move(out.result);
    errors[t] = std::move(out.error);
  };

  const int jobs = opts.jobs;
  if (jobs <= 1 || ntasks <= 1) {
    core::SessionArena arena;
    for (std::size_t t = 0; t < ntasks; ++t) run_task(t, arena);
  } else {
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      core::SessionArena arena;
      for (;;) {
        const std::size_t t = next.fetch_add(1, std::memory_order_relaxed);
        if (t >= ntasks) return;
        run_task(t, arena);
      }
    };
    std::vector<std::thread> pool;
    const std::size_t width = std::min<std::size_t>(static_cast<std::size_t>(jobs), ntasks);
    pool.reserve(width);
    for (std::size_t w = 0; w < width; ++w) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }

  // Serial aggregation in (scenario, seed) order: identical regardless of
  // the completion order above. Failed runs are skipped (their slots are
  // default-constructed) and clear all_finished.
  for (std::size_t s = 0; s < results.size(); ++s) {
    auto& sr = results[s];
    for (std::size_t i = 0; i < nseeds; ++i) {
      std::string& err = errors[s * nseeds + i];
      if (err.empty()) {
        sr.agg.add(sr.runs[i]);
      } else {
        sr.failures.push_back(RunFailure{i, opts.seeds[i], std::move(err)});
        sr.agg.all_finished = false;
      }
    }
  }
  return ResultSet(std::move(results));
}

ResultSet run_grid(const ExperimentGrid& grid, const RunOptions& opts) {
  return run_grid(grid.scenarios(), opts);
}

}  // namespace vafs::exp
