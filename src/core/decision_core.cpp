#include "core/decision_core.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace vafs::core {

void VafsConfig::validate() const {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw ConfigError(std::string("VafsConfig: ") + what);
  };
  const double doubles[] = {safety_margin,           startup_margin,
                            predictor.ewma_alpha,    predictor.quantile,
                            protocol_cycles_per_byte, default_throughput_mbps,
                            audio_cycles_per_frame,  cold_start_fraction};
  for (const double v : doubles) require(std::isfinite(v), "non-finite field");
  require(safety_margin > -1.0 && startup_margin > -1.0, "margin must be > -1");
  require(predictor.quantile >= 0.0 && predictor.quantile <= 1.0,
          "predictor quantile outside [0, 1]");
  require(predictor.window >= 1 && predictor.window <= kMaxPredictorWindow,
          "predictor window outside [1, kMaxPredictorWindow]");
}

DecisionCore::DecisionCore(const VafsConfig& config, DecisionGeometry geometry)
    : config_(config), geometry_(std::move(geometry)) {
  config_.validate();
  if (geometry_.clusters.empty() || geometry_.clusters.size() > kMaxDecisionClusters) {
    throw std::invalid_argument("DecisionCore: geometry must have 1.." +
                                std::to_string(kMaxDecisionClusters) + " clusters, got " +
                                std::to_string(geometry_.clusters.size()));
  }
  for (const auto& c : geometry_.clusters) {
    if (c.available_khz.empty()) {
      throw std::invalid_argument("DecisionCore: cluster with empty frequency table");
    }
  }
  if (geometry_.routed && (geometry_.primary >= geometry_.clusters.size() ||
                           geometry_.network >= geometry_.clusters.size())) {
    throw std::invalid_argument("DecisionCore: primary/network cluster out of range");
  }
}

double DecisionCore::decode_demand_hz(const DecisionRequest& req) const {
  if (req.player_state == DecisionPlayerState::kFinished) return 0.0;

  const double fps = 1.0 / sim::SimTime(req.frame_period_us).as_seconds_f();
  const std::size_t rep = static_cast<std::size_t>(req.current_rep);

  if (config_.oracle) {
    // Perfect knowledge needs the content model, which lives with the
    // session: the client scanned the upcoming GOP and shipped the mean
    // demand in the request (bit pattern preserved end to end).
    return req.oracle_decode_hz;
  }

  const auto it = decode_histories_.find(rep);
  if (it == decode_histories_.end() ||
      it->second.total_frames < config_.min_observations) {
    // Cold start: signal "no estimate" with a negative value; the planner
    // falls back to the conservative floor.
    return -1.0;
  }
  const DecodeHistory& history = it->second;

  if (!config_.class_aware || history.idr.observations() == 0 ||
      history.p.observations() == 0) {
    // Single-stream prediction (class-aware falls back here until both
    // classes have history; in practice the first frame is an IDR, so this
    // lasts one frame).
    const CycleDemandPredictor& mixed =
        history.p.observations() > 0 ? history.p : history.idr;
    return mixed.predict() * fps;
  }

  // Blend by the observed class mix: the sustained decode rate is the
  // GOP-weighted average of per-class predictions.
  const double idr_fraction = static_cast<double>(history.idr_frames) /
                              static_cast<double>(history.total_frames);
  const double blended = idr_fraction * history.idr.predict() +
                         (1.0 - idr_fraction) * history.p.predict();
  return blended * fps;
}

double DecisionCore::audio_demand_hz(const DecisionRequest& req) const {
  if (config_.audio_cycles_per_frame <= 0) return 0.0;
  if (req.player_state == DecisionPlayerState::kFinished) return 0.0;
  return config_.audio_cycles_per_frame / sim::SimTime(req.frame_period_us).as_seconds_f();
}

double DecisionCore::download_demand_hz(const DecisionRequest& req) const {
  if (!req.downloading) return 0.0;
  double mbps = req.throughput_mbps;
  if (mbps <= 0) mbps = config_.default_throughput_mbps;
  return mbps * 1e6 / 8.0 * config_.protocol_cycles_per_byte;
}

std::uint32_t DecisionCore::snap(const std::vector<std::uint32_t>& table, double required_khz,
                                 bool boosted) {
  assert(!table.empty());
  std::size_t idx = table.size() - 1;
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (static_cast<double>(table[i]) >= required_khz) {
      idx = i;
      break;
    }
  }
  if (boosted && idx + 1 < table.size()) ++idx;
  return table[idx];
}

void DecisionCore::plan_single_cluster(const DecisionRequest& req, double margin, bool boosted,
                                       DecisionResponse& out) const {
  const auto state = req.player_state;
  const std::vector<std::uint32_t>& available = geometry_.clusters[0].available_khz;
  double required_khz;
  const double decode_hz = decode_demand_hz(req);

  if (!config_.race_to_idle_downloads && req.downloading) {
    // Ablation arm: react to download bursts like a load-following
    // governor would — run them at full speed.
    required_khz = static_cast<double>(available.back());
  } else if (decode_hz < 0 && state != DecisionPlayerState::kFinished) {
    // Cold start: conservative floor until the predictor has history.
    required_khz = config_.cold_start_fraction * static_cast<double>(available.back());
  } else {
    const double demand_hz =
        std::max(0.0, decode_hz) + download_demand_hz(req) + audio_demand_hz(req);
    required_khz = demand_hz * (1.0 + margin) / 1000.0;
  }

  out.decode_cluster = 0;
  out.cluster_count = 1;
  out.target_khz[0] = snap(available, required_khz, boosted);
}

void DecisionCore::plan_clusters(const DecisionRequest& req, double margin, bool boosted,
                                 DecisionResponse& out) const {
  const auto state = req.player_state;
  const double decode_hz = decode_demand_hz(req);
  const std::size_t n = geometry_.clusters.size();
  const std::size_t primary = geometry_.primary;
  const std::size_t net_c = geometry_.network;
  const auto penalty = [this](std::size_t c) { return geometry_.clusters[c].cycle_penalty; };
  const auto available = [this](std::size_t c) -> const std::vector<std::uint32_t>& {
    return geometry_.clusters[c].available_khz;
  };
  out.cluster_count = static_cast<std::uint32_t>(n);

  // Network and audio work always run on the network cluster (demand in
  // that cluster's own cycles).
  const double net_khz = (download_demand_hz(req) + audio_demand_hz(req)) *
                         penalty(net_c) * (1.0 + margin) / 1000.0;

  if (decode_hz < 0 && state != DecisionPlayerState::kFinished) {
    // Cold start: keep decode on the primary cluster at the conservative
    // floor; everything else parks (the network cluster at its demand).
    out.decode_cluster = static_cast<std::uint32_t>(primary);
    for (std::size_t c = 0; c < n; ++c) {
      const auto& table = available(c);
      if (c == primary) {
        out.target_khz[c] =
            snap(table, config_.cold_start_fraction * static_cast<double>(table.back()),
                 boosted);
      } else if (c == net_c) {
        out.target_khz[c] = snap(table, net_khz, false);
      } else {
        out.target_khz[c] = table.front();
      }
    }
    return;
  }

  // Decode goes to the least capable cluster that fits it: walk the
  // non-primary clusters in ascending capacity order and take the first
  // whose IPC-inflated decode demand — plus the network stack's, when
  // they share the cluster — sits under its top OPP (one step of headroom
  // when boosted). The primary cluster is the fallback.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return geometry_.clusters[a].capacity_khz < geometry_.clusters[b].capacity_khz;
  });

  std::size_t chosen = primary;
  for (const std::size_t c : order) {
    if (c == primary) continue;
    const double decode_khz =
        std::max(0.0, decode_hz) * penalty(c) * (1.0 + margin) / 1000.0;
    const double total = decode_khz + (c == net_c ? net_khz : 0.0);
    const auto& table = available(c);
    const double cap = static_cast<double>(
        boosted && table.size() >= 2 ? table[table.size() - 2] : table.back());
    if (total <= cap) {
      chosen = c;
      break;
    }
  }

  out.decode_cluster = static_cast<std::uint32_t>(chosen);
  for (std::size_t c = 0; c < n; ++c) {
    const auto& table = available(c);
    std::uint32_t khz;
    if (c == chosen) {
      double demand_khz =
          std::max(0.0, decode_hz) * penalty(c) * (1.0 + margin) / 1000.0;
      if (c == net_c) demand_khz += net_khz;
      khz = snap(table, demand_khz, boosted);
    } else if (c == net_c) {
      khz = snap(table, net_khz, false);
    } else {
      khz = table.front();  // idle clusters park at min
    }
    out.target_khz[c] = khz;
  }
}

DecisionResponse DecisionCore::decide(const DecisionRequest& req) {
  // Event mutations precede planning, and happen even when the plan is
  // skipped — observations and boost windows accumulate while the
  // controller is failed over, exactly as the inline histories did.
  if (req.event == DecisionEvent::kDecodeComplete) {
    const std::size_t rep = static_cast<std::size_t>(req.observe_rep);
    auto it = decode_histories_.find(rep);
    if (it == decode_histories_.end()) {
      it = decode_histories_.emplace(rep, DecodeHistory(config_.predictor)).first;
    }
    DecodeHistory& history = it->second;
    ++history.total_frames;
    if (config_.class_aware) {
      if (req.observe_idr) {
        ++history.idr_frames;
        history.idr.observe(req.observe_cycles);
      } else {
        history.p.observe(req.observe_cycles);
      }
    } else {
      history.p.observe(req.observe_cycles);  // single mixed stream
    }
  } else if (req.event == DecisionEvent::kFrameDropped) {
    boost_until_us_ = req.now_us + config_.boost_duration.as_micros();
  }

  DecisionResponse out;
  if (req.event == DecisionEvent::kQueryStats) {
    out.decode_mape = decode_mape();
    return out;
  }
  if (!req.want_plan) return out;

  const auto state = req.player_state;
  // Startup and seek-resume races: a fast refill matters more than energy
  // for the second or two they last.
  const bool latency_critical = state == DecisionPlayerState::kStartup ||
                                state == DecisionPlayerState::kSeeking;
  const double margin = latency_critical ? config_.startup_margin : config_.safety_margin;

  const bool playing = state == DecisionPlayerState::kPlaying;
  const bool thin_pipeline = playing && req.decoded_ahead <= config_.low_ahead_frames &&
                             req.decoded_frames < req.total_frames;
  const bool boosted = req.now_us < boost_until_us_ || thin_pipeline;

  out.planned = true;
  out.boosted = boosted;
  out.latency_critical = latency_critical;
  if (geometry_.routed) {
    plan_clusters(req, margin, boosted, out);
  } else {
    plan_single_cluster(req, margin, boosted, out);
  }
  return out;
}

const CycleDemandPredictor* DecisionCore::decode_predictor(std::size_t rep, bool idr) const {
  const auto it = decode_histories_.find(rep);
  if (it == decode_histories_.end()) return nullptr;
  return idr ? &it->second.idr : &it->second.p;
}

double DecisionCore::decode_mape() const {
  sim::OnlineStats merged;
  for (const auto& [rep, history] : decode_histories_) {
    merged.merge(history.p.ape_stats());
    merged.merge(history.idr.ape_stats());
  }
  return merged.mean();
}

namespace {

class LocalDecisionStream final : public DecisionStream {
 public:
  explicit LocalDecisionStream(const DecisionStreamInfo& info)
      : core_(info.config, info.geometry) {}

  DecisionResponse decide(const DecisionRequest& request) override {
    return core_.decide(request);
  }

  DecisionCore* local_core() override { return &core_; }

 private:
  DecisionCore core_;
};

}  // namespace

std::unique_ptr<DecisionStream> LocalDecisionBackend::open(const DecisionStreamInfo& info) {
  return std::make_unique<LocalDecisionStream>(info);
}

}  // namespace vafs::core
