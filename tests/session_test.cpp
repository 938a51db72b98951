// Integration tests: full streaming sessions through the session harness.
// These pin the paper-level behaviours: sessions complete, QoE is sane for
// well-provisioned configurations, VAFS saves CPU energy vs the reactive
// baselines without giving up QoE, and runs are deterministic.
#include <gtest/gtest.h>

#include <string>

#include "core/session.h"

namespace vafs::core {
namespace {

SessionConfig base_config() {
  SessionConfig config;
  config.media_duration = sim::SimTime::seconds(60);
  config.net = NetProfile::kConstant;
  config.constant_mbps = 12.0;
  config.fixed_rep = 2;  // 720p
  config.seed = 7;
  return config;
}

TEST(SessionSmoke, OndemandCompletesCleanly) {
  SessionConfig config = base_config();
  config.governor = "ondemand";
  const SessionResult r = run_session(config);

  ASSERT_TRUE(r.finished);
  EXPECT_GT(r.qoe.frames_presented, 1700u);  // 60 s * 30 fps, minus drops
  EXPECT_EQ(r.qoe.rebuffer_events, 0u);
  EXPECT_LT(r.qoe.drop_ratio(), 0.01);
  EXPECT_LT(r.qoe.startup_delay, sim::SimTime::seconds(5));
  EXPECT_GT(r.energy.cpu_mj, 0.0);
  EXPECT_GT(r.energy.radio_mj, 0.0);
}

TEST(SessionSmoke, VafsCompletesCleanly) {
  SessionConfig config = base_config();
  config.governor = "vafs";
  const SessionResult r = run_session(config);

  ASSERT_TRUE(r.finished);
  EXPECT_EQ(r.qoe.rebuffer_events, 0u);
  EXPECT_LT(r.qoe.drop_ratio(), 0.01);
  EXPECT_GT(r.vafs_plans, 100u);
  EXPECT_GT(r.vafs_setspeed_writes, 2u);
  EXPECT_GT(r.vafs_decode_mape, 0.0);
  EXPECT_LT(r.vafs_decode_mape, 0.5);
}

// Microsecond tunables must keep now() + value inside SimTime: a larger
// value used to wrap to a first tick before now() (the clock then ran
// backwards), so the sysfs store answers EINVAL and the session fails.
void expect_us_tunable_bounded(const std::string& governor, const std::string& path) {
  SessionConfig config = base_config();
  config.media_duration = sim::SimTime::seconds(10);
  config.governor = governor;
  for (const char* value : {"9300000000000000000", "9223372036854775808", "9223372036854775807"}) {
    config.governor_tunables = {{path, value}};
    try {
      run_session(config);
      ADD_FAILURE() << path << " = " << value << " was accepted";
    } catch (const SessionError& e) {
      EXPECT_NE(std::string(e.what()).find("EINVAL"), std::string::npos) << e.what();
    }
  }
  // The largest value now() + value still represents is accepted.
  config.governor_tunables = {{path, "9223372036854775806"}};
  EXPECT_NO_THROW(run_session(config)) << path;
}

TEST(SessionSmoke, OndemandSamplingRateOverflowIsASessionError) {
  expect_us_tunable_bounded("ondemand", "ondemand/sampling_rate");
}

TEST(SessionSmoke, ConservativeSamplingRateOverflowIsASessionError) {
  expect_us_tunable_bounded("conservative", "conservative/sampling_rate");
}

TEST(SessionSmoke, InteractiveTimerRateOverflowIsASessionError) {
  expect_us_tunable_bounded("interactive", "interactive/timer_rate");
}

TEST(SessionSmoke, InteractiveMinSampleTimeOverflowIsASessionError) {
  expect_us_tunable_bounded("interactive", "interactive/min_sample_time");
}

TEST(SessionSmoke, SchedutilRateLimitOverflowIsASessionError) {
  expect_us_tunable_bounded("schedutil", "schedutil/rate_limit_us");
}

// A config the decision core cannot run fails the session with a
// SessionError at VAFS attach — recorded per task, never a crash.
TEST(SessionSmoke, InvalidVafsConfigIsASessionError) {
  SessionConfig config = base_config();
  config.governor = "vafs";
  config.vafs.predictor.window = 0;
  EXPECT_THROW(run_session(config), SessionError);
  config.vafs.predictor.window = 24;
  config.vafs.predictor.quantile = 2.0;
  EXPECT_THROW(run_session(config), SessionError);
}

TEST(SessionSmoke, VafsSavesCpuEnergyVsOndemand) {
  SessionConfig config = base_config();
  config.governor = "ondemand";
  const SessionResult ondemand = run_session(config);
  config.governor = "vafs";
  const SessionResult vafs = run_session(config);

  ASSERT_TRUE(ondemand.finished);
  ASSERT_TRUE(vafs.finished);
  // The headline claim: meaningful CPU energy savings at preserved QoE.
  EXPECT_LT(vafs.energy.cpu_mj, ondemand.energy.cpu_mj * 0.9);
  EXPECT_LE(vafs.qoe.rebuffer_events, ondemand.qoe.rebuffer_events);
  EXPECT_LT(vafs.qoe.drop_ratio(), 0.01);
}

TEST(SessionSmoke, OracleLowerBoundsVafsWithCleanQoe) {
  SessionConfig config = base_config();
  config.fixed_rep = 3;  // 1080p: where prediction headroom costs the most
  config.governor = "vafs";
  const SessionResult vafs = run_session(config);
  config.governor = "vafs-oracle";
  const SessionResult oracle = run_session(config);

  ASSERT_TRUE(vafs.finished);
  ASSERT_TRUE(oracle.finished);
  // The oracle is a lower bound (within a whisker of noise)...
  EXPECT_LE(oracle.energy.cpu_mj, vafs.energy.cpu_mj * 1.02);
  // ...and perfect knowledge must not cost QoE.
  EXPECT_LT(oracle.qoe.drop_ratio(), 0.02);
  EXPECT_EQ(oracle.qoe.rebuffer_events, 0u);
}

TEST(SessionSmoke, DeterministicAcrossRuns) {
  SessionConfig config = base_config();
  config.governor = "vafs";
  const SessionResult a = run_session(config);
  const SessionResult b = run_session(config);

  EXPECT_EQ(a.energy.cpu_mj, b.energy.cpu_mj);
  EXPECT_EQ(a.qoe.frames_presented, b.qoe.frames_presented);
  EXPECT_EQ(a.freq_transitions, b.freq_transitions);
  EXPECT_EQ(a.wall.as_micros(), b.wall.as_micros());
}

}  // namespace
}  // namespace vafs::core
