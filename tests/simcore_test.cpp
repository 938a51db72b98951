// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/decision_core.h"
#include "core/session.h"
#include "obs/trace.h"
#include "simcore/event_queue.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"
#include "simcore/stats.h"
#include "simcore/time.h"

namespace vafs::sim {
namespace {

// ---------------------------------------------------------------- SimTime

TEST(SimTime, ConstructorsAgree) {
  EXPECT_EQ(SimTime::seconds(3).as_micros(), 3'000'000);
  EXPECT_EQ(SimTime::millis(3).as_micros(), 3'000);
  EXPECT_EQ(SimTime::micros(3).as_micros(), 3);
  EXPECT_EQ(SimTime::seconds_f(1.5).as_micros(), 1'500'000);
  EXPECT_EQ(SimTime::zero().as_micros(), 0);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::millis(250);
  const SimTime b = SimTime::millis(750);
  EXPECT_EQ((a + b).as_micros(), 1'000'000);
  EXPECT_EQ((b - a).as_millis_f(), 500.0);
  EXPECT_EQ((a * 4).as_seconds_f(), 1.0);
  EXPECT_EQ((b / 3).as_micros(), 250'000);
  EXPECT_TRUE((a - b).is_negative());
}

TEST(SimTime, Comparisons) {
  EXPECT_LT(SimTime::millis(1), SimTime::millis(2));
  EXPECT_EQ(SimTime::seconds(1), SimTime::millis(1000));
  EXPECT_GE(SimTime::max(), SimTime::seconds(1'000'000));
}

TEST(SimTime, ScaledRounds) {
  EXPECT_EQ(SimTime::micros(10).scaled(0.55).as_micros(), 6);  // 5.5 -> 6
  EXPECT_EQ(SimTime::micros(100).scaled(1.5).as_micros(), 150);
}

TEST(SimTime, ToStringPicksUnits) {
  EXPECT_EQ(SimTime::seconds(2).to_string(), "2s");
  EXPECT_EQ(SimTime::millis(250).to_string(), "250ms");
  EXPECT_EQ(SimTime::micros(12).to_string(), "12us");
}

// ------------------------------------------------------------ EventQueue

/// Fires every pending event in order (the run loop's one-call path).
void drain(EventQueue& q) {
  SimTime clock;
  while (q.fire_next(SimTime::max(), &clock)) {
  }
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(SimTime::millis(30), [&] { fired.push_back(3); });
  q.schedule(SimTime::millis(10), [&] { fired.push_back(1); });
  q.schedule(SimTime::millis(20), [&] { fired.push_back(2); });
  drain(q);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsKeepInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    q.schedule(SimTime::millis(5), [&fired, i] { fired.push_back(i); });
  }
  drain(q);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.schedule(SimTime::millis(1), [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.raw_size(), 0u);  // removed in place, no stale entry left
  drain(q);
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelIsIdempotentAndSafeOnEmptyHandles) {
  EventHandle empty;
  empty.cancel();
  empty.cancel();
  EXPECT_FALSE(empty.pending());

  EventQueue q;
  EventHandle h = q.schedule(SimTime::millis(1), [] {});
  h.cancel();
  h.cancel();  // second cancel is a no-op
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, HandleNotPendingAfterFire) {
  EventQueue q;
  EventHandle h = q.schedule(SimTime::millis(1), [] {});
  drain(q);
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventQueue& view = q;  // empty() and next_time() only read the root
  EventHandle h = q.schedule(SimTime::millis(1), [] {});
  q.schedule(SimTime::millis(9), [] {});
  h.cancel();
  EXPECT_FALSE(view.empty());
  EXPECT_EQ(view.next_time(), SimTime::millis(9));
}

TEST(EventQueue, FireNextRespectsDeadlineAndSkipsCancelledHead) {
  EventQueue q;
  SimTime clock;
  EXPECT_FALSE(q.fire_next(SimTime::max(), &clock));  // empty queue

  int fired = 0;
  q.schedule(SimTime::millis(10), [&] { ++fired; });
  EventHandle h = q.schedule(SimTime::millis(5), [&] { fired += 100; });
  h.cancel();  // the head is removed in place; fire_next must not see it

  EXPECT_FALSE(q.fire_next(SimTime::millis(9), &clock));  // next live is at 10
  EXPECT_EQ(clock, SimTime::zero());                       // untouched when nothing fires
  ASSERT_TRUE(q.fire_next(SimTime::millis(10), &clock));
  EXPECT_EQ(clock, SimTime::millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.fire_next(SimTime::max(), &clock));
}

TEST(EventQueue, StaleHandleDoesNotAliasReusedSlot) {
  EventQueue q;
  SimTime clock;
  int first = 0;
  int second = 0;
  EventHandle old = q.schedule(SimTime::millis(1), [&] { ++first; });
  ASSERT_TRUE(q.fire_next(SimTime::max(), &clock));  // frees old's slot (and bumps its generation)
  EXPECT_EQ(first, 1);

  // The freed slot is reused for the next event; the stale handle now
  // points at the same slot with an older generation.
  EventHandle fresh = q.schedule(SimTime::millis(2), [&] { ++second; });
  ASSERT_EQ(q.slab_size(), 1u);  // same slot, or the test proves nothing

  EXPECT_FALSE(old.pending());
  old.cancel();  // generation mismatch: must not touch the new event
  EXPECT_TRUE(fresh.pending());
  ASSERT_FALSE(q.empty());
  drain(q);
  EXPECT_EQ(second, 1);
}

TEST(EventQueue, ChurnMatchesReferenceModelAcrossGenerations) {
  // Randomized schedule/cancel/reschedule churn of one-shot events and
  // periodic series, from outside and from inside callbacks (including a
  // series cancelling or rescheduling itself and events scheduled at
  // now()), fired through Simulator and cross-checked at every firing
  // against a map ordered by (time, arming order) — the queue's documented
  // order. Three cycles recycle slots repeatedly, exercising generation
  // bumps, handle invalidation, in-place removal and re-keying.
  Simulator s;
  Rng rng(2024);
  using Key = std::pair<std::int64_t, std::uint64_t>;
  struct Ev {
    EventHandle handle;
    Key key;
    SimTime period;
  };
  std::vector<Ev> evs;      // by id
  std::vector<int> live;    // ids still pending
  std::map<Key, int> expected;
  std::uint64_t order = 0;  // bumped wherever the queue draws a sequence
  int budget = 0;           // in-callback operations left this cycle
  std::uint64_t fired = 0;
  std::map<std::string, int> coverage;

  const auto drop_live = [&](int id) {
    live.erase(std::find(live.begin(), live.end(), id));
    expected.erase(evs[static_cast<std::size_t>(id)].key);
  };
  const auto rekey = [&](int id, SimTime when) {
    Ev& e = evs[static_cast<std::size_t>(id)];
    expected.erase(e.key);
    e.key = {when.as_micros(), order++};
    expected.emplace(e.key, id);
  };

  std::function<void(int)> on_fire;
  const auto arm = [&](SimTime when, SimTime period) {
    const int id = static_cast<int>(evs.size());
    evs.push_back({EventHandle(), {}, period});
    if (period.is_zero()) {
      evs.back().handle = s.at(when, [&on_fire, id] { on_fire(id); });
    } else {
      // Simulator::every fires first one period from now.
      when = s.now() + period;
      evs.back().handle = s.every(period, [&on_fire, id] { on_fire(id); });
    }
    rekey(id, when);
    live.push_back(id);
  };
  // One random operation; `lo_ms` = 0 from inside callbacks, so events
  // land at now() too (ties with the firing event are the sharp case).
  const auto random_op = [&](std::int64_t lo_ms, std::int64_t hi_ms, const char* where) {
    const SimTime when = s.now() + SimTime::millis(rng.uniform_int(lo_ms, hi_ms));
    const double dice = rng.uniform();
    if (live.empty() || dice < 0.45) {
      arm(when, SimTime::zero());
      if (when == s.now()) ++coverage["schedule at now"];
    } else if (dice < 0.5) {
      arm(when, SimTime::millis(rng.uniform_int(1, 8)));
    } else {
      const int id = live[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
      Ev& e = evs[static_cast<std::size_t>(id)];
      if (dice < 0.75) {
        e.handle.cancel();
        drop_live(id);
        ++coverage[std::string("cancel ") + where];
      } else {
        ASSERT_TRUE(s.reschedule(e.handle, when));
        rekey(id, when);
        ++coverage[std::string("reschedule ") + where];
      }
    }
  };

  on_fire = [&](int id) {
    ++fired;
    ASSERT_FALSE(expected.empty());
    const auto head = expected.begin();
    EXPECT_EQ(head->second, id) << "fired out of order at " << s.now().to_string();
    EXPECT_EQ(head->first.first, s.now().as_micros());
    expected.erase(head);
    Ev& self = evs[static_cast<std::size_t>(id)];
    const bool periodic = !self.period.is_zero();
    // A one-shot is no longer pending inside its own callback; a series is.
    EXPECT_EQ(self.handle.pending(), periodic);
    if (!periodic) live.erase(std::find(live.begin(), live.end(), id));

    if (budget > 0) {
      const auto ops = rng.uniform_int(0, 2);
      for (std::int64_t k = 0; k < ops && budget > 0; ++k, --budget) random_op(0, 6, "inside");
      if (periodic && std::find(live.begin(), live.end(), id) != live.end()) {
        const double dice = rng.uniform();
        if (dice < 0.05) {
          evs[static_cast<std::size_t>(id)].handle.cancel();
          drop_live(id);
          ++coverage["series cancels itself"];
        } else if (dice < 0.1) {
          const SimTime when = s.now() + SimTime::millis(rng.uniform_int(0, 20));
          ASSERT_TRUE(s.reschedule(evs[static_cast<std::size_t>(id)].handle, when));
          rekey(id, when);
          ++coverage["series reschedules itself"];
        }
      }
    } else if (periodic && std::find(live.begin(), live.end(), id) != live.end()) {
      evs[static_cast<std::size_t>(id)].handle.cancel();  // wind down
      drop_live(id);
    }

    const bool rearms = periodic && std::find(live.begin(), live.end(), id) != live.end();
    // The queue re-keys a live series right after this returns, overriding
    // any reschedule above; until then it is one heap entry at the root.
    if (rearms) expected.erase(evs[static_cast<std::size_t>(id)].key);
    EXPECT_EQ(s.queue().raw_size(), expected.size() + (rearms ? 1 : 0));
    if (rearms) rekey(id, s.now() + evs[static_cast<std::size_t>(id)].period);
  };

  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int op = 0; op < 600; ++op) {
      // Few distinct times on purpose: ties are the interesting case.
      random_op(1, 40, "outside");
      ASSERT_EQ(s.queue().raw_size(), expected.size());
    }
    budget = 1500;
    // Bounded, so a model mismatch that keeps a series alive fails here.
    ASSERT_LT(s.run(1'000'000), 1'000'000u);
    EXPECT_TRUE(expected.empty());
    EXPECT_TRUE(live.empty());
    EXPECT_TRUE(s.idle());
    EXPECT_EQ(s.queue().raw_size(), 0u);
    for (const Ev& e : evs) EXPECT_FALSE(e.handle.pending());
  }
  EXPECT_EQ(fired, s.events_executed());
  for (const char* what :
       {"schedule at now", "cancel outside", "reschedule outside", "cancel inside",
        "reschedule inside", "series cancels itself", "series reschedules itself"}) {
    EXPECT_GT(coverage[what], 0) << what;
  }
}

TEST(EventQueue, ThrowingCallbackLeavesTheArenaReusable) {
  // A session whose callback throws (a SessionError from a decision
  // backend, say) abandons its queue mid-fire; the next simulator on the
  // same arena must run exactly as on a fresh one.
  const auto scenario = [](Simulator& s, std::vector<std::int64_t>* log) {
    EventHandle moved = s.at(SimTime::millis(9), [&s, log] { log->push_back(-s.now().as_micros()); });
    s.every(SimTime::millis(2), [&s, log] { log->push_back(s.now().as_micros()); });
    s.at(SimTime::millis(3), [&s, &moved] { s.reschedule(moved, SimTime::millis(4)); });
    s.run_until(SimTime::millis(11));
  };
  EventQueue::Arena fresh_arena;
  std::vector<std::int64_t> want;
  {
    Simulator s(&fresh_arena);
    scenario(s, &want);
  }

  EventQueue::Arena arena;
  enum Mode { kOneShot, kSeries, kSeriesCancelled };
  for (const Mode mode : {kOneShot, kSeries, kSeriesCancelled}) {
    {
      Simulator s(&arena);
      s.at(SimTime::millis(1), [] {});
      s.at(SimTime::millis(5), [] {});
      EventHandle h;
      const auto boom = [&s, &h, mode] {
        s.after(SimTime::zero(), [] {});  // still pending when the queue dies
        if (mode == kSeriesCancelled) h.cancel();  // its release waits for the return
        throw std::runtime_error("boom");
      };
      h = mode == kOneShot ? s.at(SimTime::millis(2), boom) : s.every(SimTime::millis(2), boom);
      EXPECT_THROW(s.run(), std::runtime_error);
      EXPECT_EQ(s.now(), SimTime::millis(2));
      EXPECT_EQ(h.pending(), mode == kSeries);
    }
    std::vector<std::int64_t> got;
    {
      Simulator s(&arena);
      scenario(s, &got);
      EXPECT_EQ(s.queue().slab_size(), 3u);  // the abandoned slots were reset
    }
    EXPECT_EQ(got, want) << "mode " << mode;
  }
}

// ------------------------------------------------------------- Simulator

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator s;
  std::vector<std::int64_t> at;
  s.at(SimTime::millis(5), [&] { at.push_back(s.now().as_micros()); });
  s.after(SimTime::millis(2), [&] { at.push_back(s.now().as_micros()); });
  s.run();
  EXPECT_EQ(at, (std::vector<std::int64_t>{2000, 5000}));
  EXPECT_EQ(s.now(), SimTime::millis(5));
}

TEST(Simulator, RunUntilAdvancesClockEvenWhenIdle) {
  Simulator s;
  s.run_until(SimTime::seconds(3));
  EXPECT_EQ(s.now(), SimTime::seconds(3));
}

TEST(Simulator, RunUntilDoesNotExecuteLaterEvents) {
  Simulator s;
  bool late = false;
  s.at(SimTime::seconds(10), [&] { late = true; });
  s.run_until(SimTime::seconds(5));
  EXPECT_FALSE(late);
  EXPECT_EQ(s.now(), SimTime::seconds(5));
  s.run();
  EXPECT_TRUE(late);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) s.after(SimTime::millis(1), chain);
  };
  s.after(SimTime::millis(1), chain);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), SimTime::millis(5));
}

TEST(Simulator, PeriodicFiresAtFixedIntervals) {
  Simulator s;
  std::vector<std::int64_t> times;
  s.every(SimTime::millis(10), [&] { times.push_back(s.now().as_micros()); });
  s.run_until(SimTime::millis(35));
  EXPECT_EQ(times, (std::vector<std::int64_t>{10'000, 20'000, 30'000}));
}

TEST(Simulator, PeriodicCancelStopsSeries) {
  Simulator s;
  int count = 0;
  EventHandle h = s.every(SimTime::millis(10), [&] { ++count; });
  s.run_until(SimTime::millis(25));
  h.cancel();
  s.run_until(SimTime::millis(100));
  EXPECT_EQ(count, 2);
}

TEST(Simulator, PeriodicCanCancelItselfFromCallback) {
  Simulator s;
  int count = 0;
  EventHandle h;
  h = s.every(SimTime::millis(10), [&] {
    if (++count == 3) h.cancel();
  });
  s.run_until(SimTime::seconds(1));
  EXPECT_EQ(count, 3);
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator s;
  int count = 0;
  s.after(SimTime::millis(1), [&] { ++count; });
  s.after(SimTime::millis(2), [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(s.step());
}

TEST(Simulator, RunWithLimitStopsEarly) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) s.at(SimTime::millis(i), [&] { ++count; });
  EXPECT_EQ(s.run(4), 4u);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(s.events_executed(), 4u);
}

TEST(Simulator, PendingInsideCallbacks) {
  Simulator s;
  EventHandle once;
  EventHandle series;
  int once_fired = 0;
  int series_fired = 0;
  once = s.at(SimTime::millis(1), [&] {
    ++once_fired;
    EXPECT_FALSE(once.pending());  // a one-shot dies as it starts firing
    EXPECT_FALSE(s.reschedule(once, SimTime::millis(2)));
    once.cancel();  // no-op
  });
  series = s.every(SimTime::millis(1), [&] {
    ++series_fired;
    EXPECT_TRUE(series.pending());  // a series stays pending while it fires
    if (series_fired == 3) {
      series.cancel();
      EXPECT_FALSE(series.pending());
    }
  });
  s.run();
  EXPECT_EQ(once_fired, 1);
  EXPECT_EQ(series_fired, 3);
  EXPECT_FALSE(once.pending());
  EXPECT_FALSE(series.pending());
  EXPECT_TRUE(s.idle());
  // Both slots went back to the pool, the self-cancelled series' too.
  s.after(SimTime::millis(1), [] {});
  s.after(SimTime::millis(1), [] {});
  EXPECT_EQ(s.queue().slab_size(), 2u);
}

TEST(Simulator, PeriodicRearmOverridesItsOwnReschedule) {
  Simulator s;
  std::vector<std::int64_t> times;
  EventHandle h;
  h = s.every(SimTime::millis(10), [&] {
    times.push_back(s.now().as_micros());
    EXPECT_TRUE(s.reschedule(h, s.now() + SimTime::millis(3)));
  });
  // A one-shot at the series' instant, scheduled after it, fires after
  // it, and one that it schedules at now() fires right after that.
  s.at(SimTime::millis(10), [&] {
    times.push_back(-1);
    s.at(s.now(), [&] { times.push_back(-2); });
  });
  s.run_until(SimTime::millis(35));
  EXPECT_EQ(times, (std::vector<std::int64_t>{10'000, -1, -2, 20'000, 30'000}));
  h.cancel();
  EXPECT_TRUE(s.idle());
}

// ----------------------------------------------------------- SessionArena

/// Decides in process, but throws a SessionError on the n-th decision —
/// what a remote backend does when its daemon goes away mid-session.
class FailingBackend final : public core::DecisionBackend {
 public:
  explicit FailingBackend(int fail_at) : fail_at_(fail_at) {}
  std::unique_ptr<core::DecisionStream> open(const core::DecisionStreamInfo& info) override {
    struct Stream final : core::DecisionStream {
      std::unique_ptr<core::DecisionStream> inner;
      int left;
      core::DecisionResponse decide(const core::DecisionRequest& request) override {
        if (--left == 0) throw core::SessionError("decision backend lost");
        return inner->decide(request);
      }
    };
    auto stream = std::make_unique<Stream>();
    stream->inner = local_.open(info);
    stream->left = fail_at_;
    return stream;
  }

 private:
  core::LocalDecisionBackend local_;
  int fail_at_;
};

TEST(SessionArena, SessionAfterAThrowingCallbackIsBitIdenticalToAFreshOne) {
  core::SessionConfig config;
  config.governor = "vafs";
  config.media_duration = SimTime::seconds(20);
  config.seed = 31;

  const auto traced = [&](core::SessionArena* arena) {
    obs::Tracer tracer(obs::Tracer::Config{0});
    core::SessionHooks hooks;
    hooks.tracer = &tracer;
    return core::run_session(config, hooks, arena);
  };
  core::SessionArena fresh;
  const core::SessionResult want = traced(&fresh);
  ASSERT_TRUE(want.finished);

  core::SessionArena arena;
  FailingBackend failing(50);
  core::SessionHooks hooks;
  hooks.decision_backend = &failing;
  EXPECT_THROW(core::run_session(config, hooks, &arena), core::SessionError);

  const core::SessionResult got = traced(&arena);
  EXPECT_EQ(got.trace_digest, want.trace_digest);
  EXPECT_EQ(got.trace_events, want.trace_events);
  EXPECT_EQ(got.sim_events, want.sim_events);
  EXPECT_EQ(got.energy.cpu_mj, want.energy.cpu_mj);
  EXPECT_EQ(got.vafs_plans, want.vafs_plans);
}

// ------------------------------------------------------------------ Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkedStreamsAreIndependentAndStable) {
  Rng parent1(77), parent2(77);
  Rng childa = parent1.fork(0);
  Rng childb = parent2.fork(0);
  EXPECT_EQ(childa.next_u64(), childb.next_u64());  // same lineage => same stream

  Rng parent3(77);
  Rng other = parent3.fork(1);
  EXPECT_NE(childa.next_u64(), other.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(5.0, 7.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(10);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(11);
  OnlineStats stats;
  for (int i = 0; i < 20'000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(12);
  OnlineStats stats;
  for (int i = 0; i < 20'000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.2);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(Rng, LognormalIsPositiveWithExpectedMedian) {
  Rng rng(13);
  SampleSet samples;
  for (int i = 0; i < 20'000; ++i) samples.add(rng.lognormal(1.0, 0.5));
  EXPECT_GT(samples.min(), 0.0);
  EXPECT_NEAR(samples.percentile(0.5), std::exp(1.0), 0.1);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(14);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10'000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10'000.0, 0.3, 0.03);
}

// ---------------------------------------------------------------- Stats

TEST(OnlineStats, BasicMoments) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, EmptyIsZeroes) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  OnlineStats all, a, b;
  Rng rng(20);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 1.5);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(SampleSet, ExactPercentiles) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) s.add(i);  // 1..100, reversed insertion
  EXPECT_EQ(s.percentile(0.0), 1.0);
  EXPECT_EQ(s.percentile(1.0), 100.0);
  EXPECT_NEAR(s.percentile(0.5), 50.0, 1.0);
  EXPECT_NEAR(s.percentile(0.95), 95.0, 1.0);
}

TEST(SampleSet, CacheInvalidatedByAdd) {
  SampleSet s;
  s.add(1.0);
  EXPECT_EQ(s.percentile(1.0), 1.0);
  s.add(10.0);
  EXPECT_EQ(s.percentile(1.0), 10.0);
}

TEST(Histogram, BinsAndEdges) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(9.99);  // bin 4
  h.add(-3.0);  // clamps to bin 0
  h.add(42.0);  // clamps to bin 4
  h.add(5.0);   // bin 2
  EXPECT_EQ(h.total_weight(), 5.0);
  EXPECT_EQ(h.bin_weight(0), 2.0);
  EXPECT_EQ(h.bin_weight(2), 1.0);
  EXPECT_EQ(h.bin_weight(4), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_fraction(0), 0.4);
  EXPECT_EQ(h.bin_lo(1), 2.0);
  EXPECT_EQ(h.bin_hi(1), 4.0);
}

TEST(Histogram, WeightedAdds) {
  Histogram h(0.0, 4.0, 2);
  h.add(1.0, 3.0);
  h.add(3.0, 1.0);
  EXPECT_DOUBLE_EQ(h.bin_fraction(0), 0.75);
  EXPECT_DOUBLE_EQ(h.bin_fraction(1), 0.25);
}

TEST(Histogram, RenderContainsEveryBin) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  const std::string text = h.render();
  EXPECT_NE(text.find('#'), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

}  // namespace
}  // namespace vafs::sim
