// Tests for the lockstep batch path (core::SessionBatch and its one
// executor, fleet::run_fleet), organized around its one correctness claim:
// batch == serial, bitwise, per session. Lanes share nothing — each owns
// its Simulator / Rng / sysfs tree — so any lane interleaving and any
// batch width must produce the exact SessionResult (and trace digest)
// core::run_session produces. The API tests pin that per session across
// staggered session ends, fault plans firing mid-batch, retry RNG keying
// and bring-up failures; the fleet tests pin it per grid across ragged
// pack widths, job counts and kill/resume cycles.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/session.h"
#include "core/session_batch.h"
#include "exp/aggregate.h"
#include "exp/grid.h"
#include "fault/plan.h"
#include "fleet/fleet_runner.h"
#include "obs/trace.h"

namespace vafs {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("vafs_batch_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

core::SessionConfig small_config() {
  core::SessionConfig config;
  config.media_duration = sim::SimTime::seconds(20);
  config.net = core::NetProfile::kFair;
  config.fixed_rep = 2;
  return config;
}

/// Bitwise equality across every scalar field the aggregates and tables
/// consume, plus the digest fields — catches any nondeterminism, not just
/// "close enough" drift.
void expect_identical(const core::SessionResult& a, const core::SessionResult& b) {
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.energy.cpu_mj, b.energy.cpu_mj);
  EXPECT_EQ(a.energy.radio_mj, b.energy.radio_mj);
  EXPECT_EQ(a.energy.display_mj, b.energy.display_mj);
  EXPECT_EQ(a.qoe.startup_delay, b.qoe.startup_delay);
  EXPECT_EQ(a.qoe.rebuffer_events, b.qoe.rebuffer_events);
  EXPECT_EQ(a.qoe.rebuffer_time, b.qoe.rebuffer_time);
  EXPECT_EQ(a.qoe.frames_presented, b.qoe.frames_presented);
  EXPECT_EQ(a.qoe.frames_dropped, b.qoe.frames_dropped);
  EXPECT_EQ(a.qoe.deadline_misses, b.qoe.deadline_misses);
  EXPECT_EQ(a.qoe.quality_switches, b.qoe.quality_switches);
  EXPECT_EQ(a.qoe.mean_bitrate_kbps, b.qoe.mean_bitrate_kbps);
  EXPECT_EQ(a.qoe.fetch_retries, b.qoe.fetch_retries);
  EXPECT_EQ(a.wall, b.wall);
  EXPECT_EQ(a.played, b.played);
  EXPECT_EQ(a.live_latency, b.live_latency);
  EXPECT_EQ(a.freq_transitions, b.freq_transitions);
  EXPECT_EQ(a.busy_fraction, b.busy_fraction);
  EXPECT_EQ(a.radio_promotions, b.radio_promotions);
  EXPECT_EQ(a.vafs_decode_mape, b.vafs_decode_mape);
  EXPECT_EQ(a.vafs_plans, b.vafs_plans);
  EXPECT_EQ(a.vafs_setspeed_writes, b.vafs_setspeed_writes);
  EXPECT_EQ(a.fault_windows, b.fault_windows);
  EXPECT_EQ(a.vafs_fallback_time, b.vafs_fallback_time);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.trace_events, b.trace_events);
  ASSERT_EQ(a.residency.size(), b.residency.size());
  for (std::size_t i = 0; i < a.residency.size(); ++i) {
    EXPECT_EQ(a.residency[i].first, b.residency[i].first);
    EXPECT_EQ(a.residency[i].second, b.residency[i].second);
  }
}

// ------------------------------------------------------ SessionBatch API

/// Every config shape a batch must not disturb, for one lockstep pack.
std::vector<core::SessionConfig> batch_configs() {
  std::vector<core::SessionConfig> configs;
  for (const char* governor : {"ondemand", "schedutil", "vafs"}) {
    configs.push_back(small_config());
    configs.back().governor = governor;
  }
  // Staggered ends (8 s through 40 s of media): short lanes retire and
  // leave the wheel while long ones run on.
  for (const int secs : {8, 20, 40}) {
    configs.push_back(small_config());
    configs.back().media_duration = sim::SimTime::seconds(secs);
  }
  // The harsh fault plan (bandwidth collapses, thermal caps, fetch
  // failures and hangs) fires while other lanes share the wheel.
  for (const char* governor : {"ondemand", "vafs"}) {
    core::SessionConfig c = small_config();
    c.governor = governor;
    c.media_duration = sim::SimTime::seconds(30);
    c.fault = fault::FaultPlanConfig::harsh();
    c.downloader.attempt_timeout = sim::SimTime::seconds(6);
    c.downloader.max_attempts = 4;
    c.vafs.watchdog.enabled = true;
    configs.push_back(c);
  }
  // Fetch fates and retry backoff jitter are keyed per (fetch, attempt),
  // not drawn from a shared stream, so interleaving retrying lanes must
  // not move a single draw.
  for (const std::uint64_t seed : {11, 22, 33}) {
    core::SessionConfig c = small_config();
    c.seed = seed;
    c.fault.fetch_failure_prob = 0.15;
    c.fault.fetch_hang_prob = 0.05;
    c.downloader.attempt_timeout = sim::SimTime::seconds(6);
    c.downloader.max_attempts = 4;
    configs.push_back(c);
  }
  // Throws at bring-up (kTrace with no trace).
  configs.push_back(small_config());
  configs.back().net = core::NetProfile::kTrace;
  return configs;
}

TEST(SessionBatchApi, AdmitRunFinishMatchesRunSession) {
  const std::vector<core::SessionConfig> configs = batch_configs();

  std::vector<core::SessionResult> serial(configs.size());
  std::vector<std::string> serial_errors(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    obs::Tracer tracer{obs::Tracer::Config{0}};
    core::SessionHooks hooks;
    hooks.tracer = &tracer;
    try {
      serial[i] = core::run_session(configs[i], hooks);
    } catch (const core::SessionError& e) {
      serial_errors[i] = e.what();
    }
  }
  // The shapes really occur: lengths differ, faults fire, fetches retry,
  // and exactly the last config fails.
  ASSERT_LT(serial[3].wall, serial[5].wall);
  EXPECT_GT(serial[6].fault_windows + serial[7].fault_windows, 0u);
  EXPECT_GT(serial[8].qoe.fetch_retries + serial[9].qoe.fetch_retries +
                serial[10].qoe.fetch_retries,
            0u);
  ASSERT_FALSE(serial_errors.back().empty());
  ASSERT_GT(serial.front().trace_events, 0u);

  std::deque<obs::Tracer> tracers;  // Tracer is pinned: deque, not vector
  core::SessionBatch batch(configs.size());
  std::vector<std::size_t> lanes;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    core::SessionHooks hooks;
    hooks.tracer = &tracers.emplace_back(obs::Tracer::Config{0});
    if (!serial_errors[i].empty()) {
      try {
        batch.admit(configs[i], hooks, nullptr);
        ADD_FAILURE() << "config " << i << " admitted";
      } catch (const core::SessionError& e) {
        EXPECT_EQ(e.what(), serial_errors[i]);
      }
      continue;
    }
    lanes.push_back(batch.admit(configs[i], hooks, nullptr));
    EXPECT_EQ(lanes.back(), i);
  }
  EXPECT_EQ(batch.size(), configs.size() - 1);
  batch.run();
  batch.run();  // idempotent: all lanes already retired
  for (const std::size_t lane : lanes) {
    SCOPED_TRACE("lane " + std::to_string(lane));
    expect_identical(serial[lane], batch.finish(lane));
  }
}

TEST(SessionBatchApi, AdmitThrowLeavesBatchmatesUntouched) {
  core::SessionConfig good = small_config();
  const core::SessionResult solo = core::run_session(good);

  core::SessionBatch batch;
  EXPECT_EQ(batch.admit(good, {}, nullptr), 0u);

  core::SessionConfig bad = small_config();
  bad.net = core::NetProfile::kTrace;  // trace left empty -> SessionError
  EXPECT_THROW(batch.admit(bad, {}, nullptr), core::SessionError);

  // The failed admit consumed no lane; a later admit still works and both
  // survivors run to the exact serial result.
  EXPECT_EQ(batch.admit(good, {}, nullptr), 1u);
  EXPECT_EQ(batch.size(), 2u);
  batch.run();
  expect_identical(solo, batch.finish(0));
  expect_identical(solo, batch.finish(1));
}

// ----------------------------------------------------------- fleet batch

fleet::FleetOptions fleet_opts(const std::vector<std::uint64_t>& seeds, int jobs, int batch) {
  fleet::FleetOptions opts;
  opts.jobs = jobs;
  opts.batch = batch;
  opts.seeds = seeds;
  opts.shard_size = 8;
  return opts;
}

TEST(FleetBatch, DigestChainInvariantAcrossBatchAndJobs) {
  // 3 scenarios x 5 seeds = 15 tasks in shards of 8 and 7. Packs are cut
  // inside each shard, so every width leaves a ragged last pack somewhere
  // (batch 3: 3,3,2 | 3,3,1; batch 7: 7,1 | 7) and 16 or 32 take a whole
  // shard. The "bad" scenario throws at bring-up between good batchmates:
  // its failure entries must match serial to the byte.
  exp::ExperimentGrid grid(small_config());
  grid.governors({"ondemand", "vafs"});
  std::vector<exp::ScenarioSpec> scenarios = grid.scenarios();
  exp::ScenarioSpec bad;
  bad.id = "bad";
  bad.config = small_config();
  bad.config.net = core::NetProfile::kTrace;
  scenarios.insert(scenarios.begin() + 1, bad);
  const std::vector<std::uint64_t> seeds = {101, 202, 303, 404, 505};

  const fleet::FleetResult serial = fleet::run_fleet(scenarios, fleet_opts(seeds, 1, 1));
  ASSERT_TRUE(serial.ok()) << serial.error;
  ASSERT_NE(serial.digest_chain, 0u);
  ASSERT_EQ(serial.failures.size(), seeds.size());
  EXPECT_NE(serial.failures[0].message.find("scenario 'bad' seed 101"), std::string::npos);

  for (const int batch : {3, 4, 7, 16, 32}) {
    for (const int jobs : {1, 4}) {
      SCOPED_TRACE("batch=" + std::to_string(batch) + " jobs=" + std::to_string(jobs));
      const fleet::FleetResult result = fleet::run_fleet(scenarios, fleet_opts(seeds, jobs, batch));
      ASSERT_TRUE(result.ok()) << result.error;
      EXPECT_TRUE(result.complete());
      EXPECT_EQ(result.digest_chain, serial.digest_chain);
      ASSERT_EQ(result.failures.size(), serial.failures.size());
      for (std::size_t f = 0; f < serial.failures.size(); ++f) {
        EXPECT_EQ(result.failures[f].task_index, serial.failures[f].task_index);
        EXPECT_EQ(result.failures[f].seed, serial.failures[f].seed);
        EXPECT_EQ(result.failures[f].message, serial.failures[f].message);
      }
      ASSERT_EQ(result.scenarios.size(), serial.scenarios.size());
      for (std::size_t s = 0; s < serial.scenarios.size(); ++s) {
        EXPECT_EQ(result.scenarios[s].agg.all_finished, serial.scenarios[s].agg.all_finished);
        for (const auto& m : exp::Aggregate::metrics()) {
          const sim::OnlineStats::State ma = (serial.scenarios[s].agg.*m.member).state();
          const sim::OnlineStats::State mb = (result.scenarios[s].agg.*m.member).state();
          EXPECT_EQ(ma.n, mb.n) << m.name;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(ma.mean), std::bit_cast<std::uint64_t>(mb.mean))
              << m.name;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(ma.m2), std::bit_cast<std::uint64_t>(mb.m2))
              << m.name;
        }
      }
    }
  }
}

TEST(FleetBatch, KillAndResumeInBatchModeMatchesSerialSpool) {
  // Serial uninterrupted run is the byte-level reference; a batch-mode run
  // killed mid-grid and resumed at a *different* batch width must converge
  // to the same digest chain and the same spool bytes. Batch width is a
  // per-worker execution detail — nothing about it may leak into the
  // checkpoint or the row stream.
  exp::ExperimentGrid grid(small_config());
  grid.governors({"ondemand", "vafs"});
  const auto scenarios = grid.scenarios();
  const std::vector<std::uint64_t> seeds = {101, 202, 303, 404, 505};

  const auto checkpointed = [&](const fs::path& dir, int batch) {
    fleet::FleetOptions opts = fleet_opts(seeds, 4, batch);
    opts.shard_size = 2;
    opts.checkpoint_dir = dir.string();
    opts.checkpoint_every_shards = 1;
    opts.spool.format = fleet::SpoolFormat::kCsv;
    return opts;
  };

  const fs::path ref_dir = fresh_dir("batch_resume_ref");
  const fleet::FleetResult whole = fleet::run_fleet(scenarios, checkpointed(ref_dir, 1));
  ASSERT_TRUE(whole.complete()) << whole.error;
  const std::string ref_spool = slurp(ref_dir / "spool.csv");
  ASSERT_FALSE(ref_spool.empty());

  const fs::path dir = fresh_dir("batch_resume_kill");
  fleet::FleetOptions killed_opts = checkpointed(dir, 7);
  killed_opts.on_progress = [](std::uint64_t done, std::uint64_t) { return done < 2; };
  const fleet::FleetResult killed = fleet::run_fleet(scenarios, killed_opts);
  ASSERT_TRUE(killed.ok()) << killed.error;
  ASSERT_TRUE(killed.stopped);

  fleet::FleetOptions resume_opts = checkpointed(dir, 32);
  resume_opts.resume = true;
  const fleet::FleetResult resumed = fleet::run_fleet(scenarios, resume_opts);
  ASSERT_TRUE(resumed.complete()) << resumed.error;
  EXPECT_EQ(resumed.digest_chain, whole.digest_chain);
  EXPECT_GT(resumed.sessions_resumed, 0u);
  EXPECT_EQ(slurp(dir / "spool.csv"), ref_spool);
}

// The cooperative wall-clock deadline reaches lanes of a lockstep pack
// exactly as it reaches a serial task.
TEST(Runner, TaskTimeoutAppliesOnTheBatchPathToo) {
  core::SessionConfig config = small_config();
  config.media_duration = sim::SimTime::seconds(600);
  exp::ExperimentGrid grid(config);
  grid.governors({"ondemand"});

  fleet::FleetOptions opts = fleet_opts({101, 202, 303}, 1, 3);
  opts.task_timeout_ms = 1;
  const fleet::FleetResult result = fleet::run_fleet(grid.scenarios(), opts);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_FALSE(result.failures.empty());
  for (const fleet::CheckpointFailure& f : result.failures) {
    EXPECT_NE(f.message.find("wall-clock task timeout"), std::string::npos) << f.message;
  }
}

}  // namespace
}  // namespace vafs
