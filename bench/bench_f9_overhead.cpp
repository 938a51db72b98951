// F9 — governor decision overhead (google-benchmark microbenchmarks).
//
// A userspace governor is only deployable if its per-decision cost is
// negligible next to the 33 ms frame period. Measures: one full VAFS
// plan+actuate decision, predictor observe/predict, the sysfs write path,
// and the simulation kernel's event costs for scale context (schedule and
// fire, a periodic tick, a reschedule — the last two among 16 pending).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "core/session.h"
#include "core/vafs_controller.h"
#include "cpu/cpufreq_policy.h"
#include "cpu/cpufreq_sysfs.h"
#include "governors/registry.h"
#include "net/downloader.h"
#include "simcore/simulator.h"
#include "stream/player.h"
#include "video/content.h"

namespace {

using namespace vafs;

/// Full device stack with a warmed-up VAFS controller mid-session.
struct World {
  World()
      : cpu(sim, cpu::OppTable::mobile_big_core(), cpu::CpuPowerModel()),
        radio(sim, net::RadioParams::lte()),
        bw(20.0),
        manifest(video::Manifest::typical_vod("bench", sim::SimTime::seconds(120))),
        content(5, video::ContentParams{}, &manifest) {
    governors::register_standard(registry);
    policy = std::make_unique<cpu::CpufreqPolicy>(sim, cpu, registry, "ondemand");
    binder = std::make_unique<cpu::CpufreqSysfs>(tree, *policy, 0);
    downloader = std::make_unique<net::Downloader>(sim, radio, bw, &cpu);
    player = std::make_unique<stream::Player>(sim, cpu, *downloader, content,
                                              std::make_unique<stream::FixedAbr>(2));
    controller = std::make_unique<core::VafsController>(sim, tree, binder->dir(), *player);
    controller->attach();
    player->start(nullptr);
    // Warm up: run 10 simulated seconds so predictors have history.
    while (sim.now() < sim::SimTime::seconds(10)) {
      if (!sim.step()) break;
    }
  }

  sim::Simulator sim;
  cpu::CpuModel cpu;
  cpu::GovernorRegistry registry;
  sysfs::Tree tree;
  net::RadioModel radio;
  net::ConstantBandwidth bw;
  video::Manifest manifest;
  video::ContentModel content;
  std::unique_ptr<cpu::CpufreqPolicy> policy;
  std::unique_ptr<cpu::CpufreqSysfs> binder;
  std::unique_ptr<net::Downloader> downloader;
  std::unique_ptr<stream::Player> player;
  std::unique_ptr<core::VafsController> controller;
};

void BM_VafsPlanDecision(benchmark::State& state) {
  World world;
  for (auto _ : state) {
    world.controller->plan_now();
    benchmark::DoNotOptimize(world.controller->last_planned_khz());
  }
}
BENCHMARK(BM_VafsPlanDecision);

void BM_PredictorObserve(benchmark::State& state) {
  core::PredictorConfig config;
  config.kind = static_cast<core::PredictorKind>(state.range(0));
  core::CycleDemandPredictor predictor(config);
  double x = 1.3e7;
  for (auto _ : state) {
    predictor.observe(x);
    x += 1000;
    benchmark::DoNotOptimize(predictor.observations());
  }
}
BENCHMARK(BM_PredictorObserve)->Arg(0)->Arg(1)->Arg(2);

void BM_PredictorPredict(benchmark::State& state) {
  core::PredictorConfig config;
  config.kind = static_cast<core::PredictorKind>(state.range(0));
  core::CycleDemandPredictor predictor(config);
  for (int i = 0; i < 64; ++i) predictor.observe(1.3e7 + i * 1e4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.predict());
  }
}
BENCHMARK(BM_PredictorPredict)->Arg(0)->Arg(1)->Arg(2);

void BM_SysfsSetspeedWrite(benchmark::State& state) {
  World world;
  std::uint32_t khz = 600'000;
  for (auto _ : state) {
    // Alternate between two OPPs so the write is never deduplicated.
    khz = khz == 600'000 ? 900'000 : 600'000;
    benchmark::DoNotOptimize(
        world.tree.write(world.binder->dir() + "/scaling_setspeed", std::to_string(khz)));
  }
}
BENCHMARK(BM_SysfsSetspeedWrite);

void BM_SysfsReadCurFreq(benchmark::State& state) {
  World world;
  const std::string path = world.binder->dir() + "/scaling_cur_freq";
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.tree.read(path));
  }
}
BENCHMARK(BM_SysfsReadCurFreq);

void BM_EventScheduleAndFire(benchmark::State& state) {
  sim::Simulator simulator;
  for (auto _ : state) {
    simulator.after(sim::SimTime::micros(1), [] {});
    simulator.step();
  }
}
BENCHMARK(BM_EventScheduleAndFire);

void BM_PeriodicTickFire(benchmark::State& state) {
  // One governor-style 4 ms tick per iteration, with 16 other events
  // pending beyond any time reached: fire the series in place, then re-key
  // it one period on.
  sim::Simulator simulator;
  for (int i = 1; i <= 16; ++i) simulator.at(sim::SimTime::seconds(1'000'000 + i), [] {});
  std::uint64_t ticks = 0;
  simulator.every(sim::SimTime::millis(4), [&ticks] { ++ticks; });
  for (auto _ : state) {
    simulator.step();
  }
  benchmark::DoNotOptimize(ticks);
}
BENCHMARK(BM_PeriodicTickFire);

void BM_PendingEventReschedule(benchmark::State& state) {
  // Moves one pending timer among 16 others (the CpuModel completion
  // re-arm): re-keyed in place, up or down the heap.
  sim::Simulator simulator;
  for (int i = 1; i <= 16; ++i) simulator.at(sim::SimTime::millis(i), [] {});
  sim::EventHandle timer = simulator.at(sim::SimTime::millis(20), [] {});
  std::int64_t k = 0;
  for (auto _ : state) {
    k = (k + 7) % 17;
    benchmark::DoNotOptimize(simulator.reschedule(timer, sim::SimTime::micros(k * 1000 + 500)));
  }
}
BENCHMARK(BM_PendingEventReschedule);

void BM_FullSessionSimulation(benchmark::State& state) {
  // Wall-clock cost of simulating one full 120 s session — documents the
  // harness's own scale (thousands of sessions per minute).
  for (auto _ : state) {
    core::SessionConfig config;
    config.governor = "vafs";
    config.media_duration = sim::SimTime::seconds(120);
    config.net = core::NetProfile::kFair;
    const auto result = core::run_session(config);
    benchmark::DoNotOptimize(result.energy.cpu_mj);
  }
}
BENCHMARK(BM_FullSessionSimulation)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: like every other bench binary, F9 writes a machine-readable
// BENCH_f9.json by default (google-benchmark's JSON reporter), unless the
// caller overrides --benchmark_out themselves.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_f9.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
