#include "tune/tuner.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "device/profile.h"
#include "fleet/fleet_runner.h"
#include "fleet/io.h"
#include "fleet/textio.h"

namespace vafs::tune {
namespace {

constexpr int kStateSchema = 1;
/// Violation penalty for candidates whose sessions failed or hit the sim
/// cap: far above any real constraint excess, so broken configs sort
/// after merely-stalling ones but still have a total order among
/// themselves (by failure count, then energy, then index).
constexpr double kBrokenPenalty = 1e9;

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

std::uint64_t fnv_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) { return fnv_bytes(h, &v, sizeof(v)); }

std::uint64_t fnv_double(std::uint64_t h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return fnv_u64(h, bits);
}

std::uint64_t fnv_str(std::uint64_t h, std::string_view s) {
  h = fnv_u64(h, s.size());
  return fnv_bytes(h, s.data(), s.size());
}

std::string hex16(std::uint64_t v) {
  std::string out;
  fleet::append_hex64(out, v);
  return out;
}

std::string candidate_text(const Candidate& c) {
  std::string out;
  for (std::size_t d = 0; d < c.size(); ++d) {
    if (d > 0) out += ':';
    out += std::to_string(c[d]);
  }
  return out;
}

bool parse_candidate(std::string_view text, Candidate* out) {
  out->clear();
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t colon = text.find(':', start);
    const std::string_view tok = text.substr(start, colon - start);
    std::uint64_t v = 0;
    if (!fleet::parse_u64(tok, &v) || v > UINT32_MAX) return false;
    out->push_back(static_cast<std::uint32_t>(v));
    if (colon == std::string_view::npos) break;
    start = colon + 1;
  }
  return !out->empty();
}

Score score_from(const exp::Aggregate& agg, const Constraints& c, std::int64_t failures) {
  Score s;
  s.evaluated = true;
  s.runs = agg.runs;
  s.failures = failures;
  if (agg.runs > 0) {
    s.energy_mj = agg.total_mj.mean();
    const double wall = agg.wall_s.mean();
    s.rebuffer_ratio = wall > 0.0 ? agg.rebuffer_s.mean() / wall : 0.0;
    s.drop_pct = agg.drop_pct.mean();
    s.startup_s = agg.startup_s.mean();
    s.bitrate_kbps = agg.mean_bitrate_kbps.mean();
    s.guard_rebuffer_s = agg.rebuffer_s.max();
  }
  const auto excess = [](double x, double cap) {
    return (cap > 0.0 && x > cap) ? (x - cap) / cap : 0.0;
  };
  double v = 0.0;
  v += excess(s.rebuffer_ratio, c.max_rebuffer_ratio);
  v += excess(s.drop_pct, c.max_drop_pct);
  v += excess(s.startup_s, c.max_startup_s);
  v += excess(s.guard_rebuffer_s, c.max_guard_rebuffer_s);
  if (c.min_bitrate_kbps > 0.0 && s.bitrate_kbps < c.min_bitrate_kbps) {
    v += (c.min_bitrate_kbps - s.bitrate_kbps) / c.min_bitrate_kbps;
  }
  if (agg.runs == 0 || !agg.all_finished || failures > 0) {
    v += kBrokenPenalty * (1.0 + static_cast<double>(failures));
  }
  s.violation = v;
  s.feasible = v == 0.0;
  return s;
}

// ---------------------------------------------------------------------------
// State file: completed rounds, durably persisted after each evaluation.

struct RoundRecord {
  std::string tag;
  std::uint64_t seeds = 0;
  std::vector<Candidate> candidates;
  std::vector<Score> scores;
};

struct StateFile {
  std::uint64_t space_fp = 0;
  std::uint64_t options_fp = 0;
  std::vector<RoundRecord> rounds;
  std::map<std::string, std::size_t> by_tag;

  const RoundRecord* find(const std::string& tag) const {
    const auto it = by_tag.find(tag);
    return it == by_tag.end() ? nullptr : &rounds[it->second];
  }

  void record(RoundRecord rec) {
    by_tag.emplace(rec.tag, rounds.size());
    rounds.push_back(std::move(rec));
  }
};

std::string serialize_state(const StateFile& st) {
  std::string out;
  out += "vafs-tune-state " + std::to_string(kStateSchema) + "\n";
  out += "space " + hex16(st.space_fp) + "\n";
  out += "options " + hex16(st.options_fp) + "\n";
  for (const RoundRecord& r : st.rounds) {
    out += "round " + r.tag + " " + std::to_string(r.seeds) + " " +
           std::to_string(r.candidates.size()) + "\n";
    for (std::size_t i = 0; i < r.candidates.size(); ++i) {
      const Score& s = r.scores[i];
      out += "c " + candidate_text(r.candidates[i]) + " ";
      out += std::to_string((s.evaluated ? 1 : 0) | (s.feasible ? 2 : 0));
      for (const double v : {s.violation, s.energy_mj, s.rebuffer_ratio, s.drop_pct, s.startup_s,
                             s.bitrate_kbps, s.guard_rebuffer_s}) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        out += ' ';
        fleet::append_hex64(out, bits);
      }
      out += ' ' + std::to_string(s.runs) + ' ' + std::to_string(s.failures) + "\n";
    }
  }
  out += "end " + hex16(fnv_bytes(kFnvOffset, out.data(), out.size())) + "\n";
  return out;
}

bool parse_state(const std::string& path, StateFile* st, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "tune-state: cannot open '" + path + "'";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  const auto fail = [&](const std::string& why) {
    *error = "tune-state '" + path + "': " + why;
    return false;
  };
  if (content.empty() || content.back() != '\n') {
    return fail("truncated (no terminating end line)");
  }
  const std::size_t last_line_start = content.rfind('\n', content.size() - 2) + 1;
  const std::string_view last_line(content.data() + last_line_start,
                                   content.size() - last_line_start - 1);
  std::uint64_t want = 0;
  if (last_line.size() != 4 + 16 || last_line.substr(0, 4) != "end " ||
      !fleet::parse_hex64(last_line.substr(4), &want)) {
    return fail("truncated (no terminating end line)");
  }
  if (fnv_bytes(kFnvOffset, content.data(), last_line_start) != want) {
    return fail("checksum mismatch (corrupt or torn write)");
  }

  std::istringstream lines(content.substr(0, last_line_start));
  std::string line;
  std::vector<std::string> f;
  const auto next = [&](std::size_t want_fields) {
    if (!std::getline(lines, line)) return false;
    fleet::split_fields(line, &f);
    return f.size() == want_fields;
  };
  if (!next(2) || f[0] != "vafs-tune-state" || f[1] != std::to_string(kStateSchema)) {
    return fail("bad header (schema mismatch?)");
  }
  if (!next(2) || f[0] != "space" || !fleet::parse_hex64(f[1], &st->space_fp)) {
    return fail("bad space line");
  }
  if (!next(2) || f[0] != "options" || !fleet::parse_hex64(f[1], &st->options_fp)) {
    return fail("bad options line");
  }
  while (std::getline(lines, line)) {
    fleet::split_fields(line, &f);
    if (f.size() != 4 || f[0] != "round") return fail("bad round line");
    RoundRecord rec;
    rec.tag = f[1];
    std::uint64_t ncand = 0;
    if (!fleet::parse_u64(f[2], &rec.seeds) || !fleet::parse_u64(f[3], &ncand)) {
      return fail("bad round line");
    }
    for (std::uint64_t i = 0; i < ncand; ++i) {
      if (!std::getline(lines, line)) return fail("bad candidate line");
      fleet::split_fields(line, &f);
      if (f.size() != 12 || f[0] != "c") return fail("bad candidate line");
      Candidate c;
      if (!parse_candidate(f[1], &c)) return fail("bad candidate line");
      std::uint64_t flags = 0;
      if (!fleet::parse_u64(f[2], &flags) || flags > 3) return fail("bad candidate line");
      Score s;
      s.evaluated = (flags & 1) != 0;
      s.feasible = (flags & 2) != 0;
      double* const targets[] = {&s.violation,  &s.energy_mj,    &s.rebuffer_ratio, &s.drop_pct,
                                 &s.startup_s,  &s.bitrate_kbps, &s.guard_rebuffer_s};
      for (std::size_t t = 0; t < 7; ++t) {
        std::uint64_t bits = 0;
        if (!fleet::parse_hex64(f[3 + t], &bits)) return fail("bad candidate line");
        std::memcpy(targets[t], &bits, sizeof(bits));
      }
      std::uint64_t runs = 0;
      std::uint64_t failures = 0;
      if (!fleet::parse_u64(f[10], &runs) || !fleet::parse_u64(f[11], &failures)) {
        return fail("bad candidate line");
      }
      s.runs = static_cast<std::int64_t>(runs);
      s.failures = static_cast<std::int64_t>(failures);
      rec.candidates.push_back(std::move(c));
      rec.scores.push_back(s);
    }
    if (st->by_tag.count(rec.tag) != 0) return fail("duplicate round tag '" + rec.tag + "'");
    st->record(std::move(rec));
  }
  return true;
}

std::uint64_t options_fingerprint(const TunerOptions& opts,
                                  const std::vector<TuneContext>& contexts) {
  std::uint64_t h = kFnvOffset;
  h = fnv_u64(h, opts.search_seed);
  h = fnv_u64(h, opts.eval_seed_base);
  h = fnv_u64(h, static_cast<std::uint64_t>(opts.initial_candidates));
  h = fnv_u64(h, static_cast<std::uint64_t>(opts.eta));
  h = fnv_u64(h, opts.seed_schedule.size());
  for (const int n : opts.seed_schedule) h = fnv_u64(h, static_cast<std::uint64_t>(n));
  h = fnv_u64(h, static_cast<std::uint64_t>(opts.refine_passes));
  h = fnv_u64(h, opts.sensitivity ? 1 : 0);
  // Base-config scalars most likely to change between invocations. The
  // per-round fleet manifests fingerprint the *full* scenario configs, so
  // in-flight rounds are fully protected; this guards replayed rounds
  // against the common drift (different media length / ABR / rung).
  h = fnv_u64(h, static_cast<std::uint64_t>(opts.base.media_duration.as_micros()));
  h = fnv_u64(h, static_cast<std::uint64_t>(opts.base.segment_duration.as_micros()));
  h = fnv_u64(h, static_cast<std::uint64_t>(opts.base.abr));
  h = fnv_u64(h, opts.base.fixed_rep);
  for (const TuneContext& ctx : contexts) {
    h = fnv_str(h, ctx.name);
    h = fnv_str(h, ctx.profile);
    h = fnv_str(h, ctx.net_label);
    h = fnv_u64(h, static_cast<std::uint64_t>(ctx.net));
    h = fnv_str(h, ctx.governor);
    h = fnv_double(h, ctx.constraints.max_rebuffer_ratio);
    h = fnv_double(h, ctx.constraints.max_drop_pct);
    h = fnv_double(h, ctx.constraints.max_startup_s);
    h = fnv_double(h, ctx.constraints.min_bitrate_kbps);
    h = fnv_double(h, ctx.constraints.max_guard_rebuffer_s);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Fleet-backed evaluator: one fleet run per round.

class FleetEvaluator : public Evaluator {
 public:
  explicit FleetEvaluator(const TunerOptions& opts) : opts_(opts) {}

  RoundResult evaluate(const RoundRequest& req) override {
    RoundResult out;
    std::vector<exp::ScenarioSpec> specs;
    specs.reserve(req.candidates.size());
    for (const Candidate& c : req.candidates) {
      exp::ScenarioSpec spec;
      spec.config = opts_.base;
      if (!req.ctx->profile.empty()) {
        spec.config.profile = device::profile(req.ctx->profile);
      }
      spec.config.net = req.ctx->net;
      spec.config.governor = req.ctx->governor;
      req.space->apply(c, spec.config);
      spec.id = "cand=" + candidate_text(c);
      spec.labels = {{"cell", req.ctx->name},
                     {"cand", candidate_text(c)},
                     {"params", req.space->format(c)}};
      specs.push_back(std::move(spec));
    }
    fleet::FleetOptions fo;
    fo.jobs = opts_.jobs;
    fo.shard_size = opts_.shard_size;
    fo.seeds = req.seeds;
    fo.trace = true;
    if (!opts_.checkpoint_dir.empty()) {
      fo.checkpoint_dir = opts_.checkpoint_dir + "/fleet-" + req.tag;
      // Checkpoint every shard: tuner rounds are small, so this is what
      // makes a mid-round SIGTERM resumable close to where it died.
      fo.checkpoint_every_shards = 1;
      // Fresh start when no manifest exists; a manifest for a different
      // grid (stale directory reuse) is refused by the fleet layer.
      fo.resume = true;
    }
    if (opts_.keep_going) {
      fo.on_progress = [this](std::uint64_t, std::uint64_t) { return opts_.keep_going(); };
    }
    const fleet::FleetResult fr = fleet::run_fleet(specs, fo);
    if (!fr.ok()) {
      out.error = "round '" + req.tag + "': " + fr.error;
      return out;
    }
    if (fr.stopped) {
      out.stopped = true;
      return out;
    }
    std::vector<std::int64_t> failures(specs.size(), 0);
    for (const auto& f : fr.failures) {
      const std::size_t scenario = f.task_index / req.seeds.size();
      if (scenario < failures.size()) ++failures[scenario];
    }
    out.scores.reserve(specs.size());
    for (std::size_t i = 0; i < fr.scenarios.size(); ++i) {
      out.scores.push_back(score_from(fr.scenarios[i].agg, req.ctx->constraints, failures[i]));
    }
    return out;
  }

 private:
  const TunerOptions& opts_;
};

// ---------------------------------------------------------------------------
// Search driver.

bool advance_odometer(Candidate& c, const ParamSpace& space) {
  for (std::size_t d = space.dims(); d-- > 0;) {
    if (++c[d] < space.def(d).count()) return true;
    c[d] = 0;
  }
  return false;
}

struct Driver {
  const ParamSpace& space;
  const TunerOptions& opts;
  Evaluator* eval;
  TuneReport& report;
  StateFile state;
  std::string state_path;  // empty = no checkpointing

  bool keep_going() const { return !opts.keep_going || opts.keep_going(); }

  void fold_round(const RoundRecord& rec) {
    std::uint64_t h = report.trajectory_digest == 0 ? kFnvOffset : report.trajectory_digest;
    h = fnv_str(h, rec.tag);
    h = fnv_u64(h, rec.seeds);
    for (std::size_t i = 0; i < rec.candidates.size(); ++i) {
      const Candidate& c = rec.candidates[i];
      h = fnv_u64(h, c.size());
      for (const std::uint32_t idx : c) h = fnv_u64(h, idx);
      const Score& s = rec.scores[i];
      h = fnv_u64(h, (s.evaluated ? 1u : 0u) | (s.feasible ? 2u : 0u));
      for (const double v : {s.violation, s.energy_mj, s.rebuffer_ratio, s.drop_pct, s.startup_s,
                             s.bitrate_kbps, s.guard_rebuffer_s}) {
        h = fnv_double(h, v);
      }
      h = fnv_u64(h, static_cast<std::uint64_t>(s.runs));
      h = fnv_u64(h, static_cast<std::uint64_t>(s.failures));
    }
    report.trajectory_digest = h;
  }

  /// Evaluates (or replays) one round. Canonicalizes *cands in place
  /// (lexicographic sort + dedup); the returned scores are parallel to
  /// the canonical list. nullopt = stop or error (report already set).
  std::optional<std::vector<Score>> round(const TuneContext& ctx, const std::string& tag,
                                          std::vector<Candidate>* cands,
                                          const std::vector<std::uint64_t>& seeds,
                                          std::uint64_t* cell_sessions) {
    std::sort(cands->begin(), cands->end());
    cands->erase(std::unique(cands->begin(), cands->end()), cands->end());

    const std::uint64_t round_sessions = cands->size() * seeds.size();
    if (const RoundRecord* rec = state.find(tag)) {
      if (rec->candidates != *cands || rec->seeds != seeds.size()) {
        report.error = "tune: state round '" + tag +
                       "' was recorded for a different candidate/seed list — refusing to resume "
                       "a different search from this state file";
        return std::nullopt;
      }
      fold_round(*rec);
      ++report.rounds;
      ++report.rounds_replayed;
      report.sessions += round_sessions;
      *cell_sessions += round_sessions;
      return rec->scores;
    }

    if (!keep_going()) {
      report.stopped = true;
      return std::nullopt;
    }
    RoundRequest req;
    req.space = &space;
    req.ctx = &ctx;
    req.tag = tag;
    req.candidates = *cands;
    req.seeds = seeds;
    RoundResult rr = eval->evaluate(req);
    if (!rr.error.empty()) {
      report.error = "tune: " + rr.error;
      return std::nullopt;
    }
    if (rr.stopped) {
      report.stopped = true;
      return std::nullopt;
    }
    if (rr.scores.size() != cands->size()) {
      report.error = "tune: evaluator returned " + std::to_string(rr.scores.size()) +
                     " scores for " + std::to_string(cands->size()) + " candidates in round '" +
                     tag + "'";
      return std::nullopt;
    }
    RoundRecord rec;
    rec.tag = tag;
    rec.seeds = seeds.size();
    rec.candidates = *cands;
    rec.scores = rr.scores;
    fold_round(rec);
    state.record(std::move(rec));
    ++report.rounds;
    report.sessions += round_sessions;
    *cell_sessions += round_sessions;
    if (!state_path.empty()) {
      std::string error;
      if (!fleet::write_file_durable(state_path, serialize_state(state), "tune-state",
                                     "state file", &error)) {
        report.error = "tune: " + error;
        return std::nullopt;
      }
      // The round is now replayable from the state file; its fleet
      // manifest has served its purpose. Best-effort cleanup.
      std::error_code ec;
      std::filesystem::remove_all(opts.checkpoint_dir + "/fleet-" + tag, ec);
    }
    return rr.scores;
  }

  /// Index of the canonical winner among (cands, scores).
  static std::size_t winner(const std::vector<Candidate>& cands,
                            const std::vector<Score>& scores) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < cands.size(); ++i) {
      if (better(scores[i], cands[i], scores[best], cands[best])) best = i;
    }
    return best;
  }

  /// Rung-0 population: exhaustive when the space fits the budget, else
  /// the centre point plus TunerRng-sampled distinct candidates.
  std::vector<Candidate> initial_population(std::size_t ctx_index) const {
    const auto budget = static_cast<std::uint64_t>(opts.initial_candidates);
    if (space.point_count() <= budget) {
      std::vector<Candidate> all;
      Candidate c(space.dims(), 0);
      all.push_back(c);
      while (advance_odometer(c, space)) all.push_back(c);
      return all;
    }
    const TunerRng rng(opts.search_seed);
    std::set<Candidate> seen;
    Candidate centre(space.dims());
    for (std::size_t d = 0; d < space.dims(); ++d) centre[d] = space.def(d).count() / 2;
    seen.insert(std::move(centre));
    for (std::uint64_t attempt = 0; attempt < 64 * budget && seen.size() < budget; ++attempt) {
      Candidate c(space.dims());
      for (std::size_t d = 0; d < space.dims(); ++d) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(ctx_index) << 32) | (attempt * space.dims() + d);
        c[d] = rng.pick(key, space.def(d).count());
      }
      seen.insert(std::move(c));
    }
    return {seen.begin(), seen.end()};  // std::set order == lexicographic
  }

  std::vector<std::uint64_t> seeds_for(int count) const {
    std::vector<std::uint64_t> seeds(static_cast<std::size_t>(count));
    for (std::size_t j = 0; j < seeds.size(); ++j) seeds[j] = opts.eval_seed_base + j;
    return seeds;
  }

  /// Full search for one cell; false = stop/error (report set).
  bool tune_cell(std::size_t ci, const TuneContext& ctx) {
    CellResult cell;
    cell.ctx = ctx;
    const std::string stem = "c" + std::to_string(ci);
    const std::vector<std::uint64_t> full_seeds = seeds_for(opts.seed_schedule.back());

    // Successive halving with seed escalation.
    std::vector<Candidate> pop = initial_population(ci);
    Candidate best;
    Score best_score;
    for (std::size_t r = 0; r < opts.seed_schedule.size(); ++r) {
      const auto scores = round(ctx, stem + ".r" + std::to_string(r), &pop,
                                seeds_for(opts.seed_schedule[r]), &cell.sessions);
      if (!scores) return false;
      if (r + 1 < opts.seed_schedule.size()) {
        // Promote the top ceil(n/eta) to the next rung.
        const std::size_t keep =
            std::max<std::size_t>(1, (pop.size() + opts.eta - 1) / static_cast<std::size_t>(opts.eta));
        std::vector<std::size_t> order(pop.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
          return better((*scores)[a], pop[a], (*scores)[b], pop[b]);
        });
        std::vector<Candidate> survivors;
        survivors.reserve(keep);
        for (std::size_t i = 0; i < keep && i < order.size(); ++i) {
          survivors.push_back(pop[order[i]]);
        }
        pop = std::move(survivors);
      } else {
        const std::size_t w = winner(pop, *scores);
        best = pop[w];
        best_score = (*scores)[w];
      }
    }

    // Compass refinement at full seeds: evaluate every ±1-step axis
    // neighbour of the incumbent; move only on a strict canonical
    // improvement. Each move strictly descends the canonical order, so
    // the stage terminates without a visited set.
    for (int pass = 1; pass <= opts.refine_passes; ++pass) {
      std::vector<Candidate> nbrs;
      for (std::size_t d = 0; d < space.dims(); ++d) {
        if (best[d] > 0) {
          Candidate n = best;
          --n[d];
          nbrs.push_back(std::move(n));
        }
        if (best[d] + 1 < space.def(d).count()) {
          Candidate n = best;
          ++n[d];
          nbrs.push_back(std::move(n));
        }
      }
      if (nbrs.empty()) break;
      const auto scores =
          round(ctx, stem + ".p" + std::to_string(pass), &nbrs, full_seeds, &cell.sessions);
      if (!scores) return false;
      const std::size_t w = winner(nbrs, *scores);
      if (!better((*scores)[w], nbrs[w], best_score, best)) break;
      best = nbrs[w];
      best_score = (*scores)[w];
    }

    // Sensitivity landscape: each dimension swept through the winner.
    if (opts.sensitivity) {
      for (std::size_t d = 0; d < space.dims(); ++d) {
        std::vector<Candidate> sweep;
        sweep.reserve(space.def(d).count());
        for (std::uint32_t j = 0; j < space.def(d).count(); ++j) {
          Candidate c = best;
          c[d] = j;
          sweep.push_back(std::move(c));
        }
        const auto scores =
            round(ctx, stem + ".s" + std::to_string(d), &sweep, full_seeds, &cell.sessions);
        if (!scores) return false;
        for (std::size_t i = 0; i < sweep.size(); ++i) {
          cell.sensitivity.push_back(CellResult::SensitivityPoint{
              static_cast<std::uint32_t>(d), sweep[i][d], space.def(d).value(sweep[i][d]),
              (*scores)[i]});
        }
      }
    }

    cell.best = best;
    cell.best_values = space.values(best);
    cell.best_score = best_score;
    report.cells.push_back(std::move(cell));
    return true;
  }
};

std::string validate(const ParamSpace& space, const std::vector<TuneContext>& contexts,
                     const TunerOptions& opts) {
  if (space.dims() == 0) return "tune: empty ParamSpace";
  if (contexts.empty()) return "tune: no tuning contexts";
  std::set<std::string> names;
  for (const TuneContext& ctx : contexts) {
    if (ctx.name.empty() || ctx.name.find(' ') != std::string::npos) {
      return "tune: context name '" + ctx.name + "' must be non-empty and space-free";
    }
    if (!names.insert(ctx.name).second) return "tune: duplicate context name '" + ctx.name + "'";
  }
  if (opts.initial_candidates < 1) return "tune: initial_candidates must be >= 1";
  if (opts.eta < 2) return "tune: eta must be >= 2";
  if (opts.seed_schedule.empty()) return "tune: seed_schedule must be non-empty";
  int prev = 0;
  for (const int n : opts.seed_schedule) {
    if (n <= 0 || n < prev) return "tune: seed_schedule must be positive and ascending";
    prev = n;
  }
  if (opts.refine_passes < 0) return "tune: refine_passes must be >= 0";
  return "";
}

}  // namespace

bool better(const Score& a, const Candidate& ca, const Score& b, const Candidate& cb) {
  if (a.evaluated != b.evaluated) return a.evaluated;
  if (!a.evaluated) return false;
  if (a.feasible != b.feasible) return a.feasible;
  if (a.violation != b.violation) return a.violation < b.violation;
  if (a.energy_mj != b.energy_mj) return a.energy_mj < b.energy_mj;
  return std::lexicographical_compare(ca.begin(), ca.end(), cb.begin(), cb.end());
}

TuneReport run_tuner(const ParamSpace& space, const std::vector<TuneContext>& contexts,
                     const TunerOptions& opts, Evaluator* evaluator) {
  TuneReport report;
  report.error = validate(space, contexts, opts);
  if (!report.ok()) return report;

  FleetEvaluator fleet_eval(opts);
  StateFile state;
  state.space_fp = space.fingerprint();
  state.options_fp = options_fingerprint(opts, contexts);
  Driver drv{space, opts, evaluator != nullptr ? evaluator : &fleet_eval, report,
             std::move(state), std::string()};

  if (!opts.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.checkpoint_dir, ec);
    drv.state_path = opts.checkpoint_dir + "/tune-state.ckpt";
    if (opts.resume && std::filesystem::exists(drv.state_path)) {
      StateFile loaded;
      std::string error;
      if (!parse_state(drv.state_path, &loaded, &error)) {
        report.error = "tune: resume refused: " + error;
        return report;
      }
      if (loaded.space_fp != drv.state.space_fp || loaded.options_fp != drv.state.options_fp) {
        report.error =
            "tune: resume refused: state file '" + drv.state_path +
            "' was written for a different parameter space or search configuration";
        return report;
      }
      drv.state = std::move(loaded);
    } else if (!opts.resume) {
      // Fresh run into a dirty directory: drop any stale state so a
      // previous search cannot leak rounds into this one.
      std::filesystem::remove(drv.state_path, ec);
      for (const auto& entry : std::filesystem::directory_iterator(opts.checkpoint_dir, ec)) {
        if (entry.path().filename().string().rfind("fleet-", 0) == 0) {
          std::error_code rm_ec;
          std::filesystem::remove_all(entry.path(), rm_ec);
        }
      }
    }
  }

  for (std::size_t ci = 0; ci < contexts.size(); ++ci) {
    if (!drv.tune_cell(ci, contexts[ci])) return report;
  }
  return report;
}

exp::Json tuned_configs_json(const ParamSpace& space, const std::vector<TuneContext>& contexts,
                             const TunerOptions& opts, const TuneReport& report) {
  (void)contexts;
  exp::Json root = exp::Json::object();
  root.set("schema_version", 1);

  exp::Json search = exp::Json::object();
  search.set("search_seed", static_cast<std::int64_t>(opts.search_seed));
  search.set("eval_seed_base", static_cast<std::int64_t>(opts.eval_seed_base));
  search.set("initial_candidates", opts.initial_candidates);
  search.set("eta", opts.eta);
  exp::Json schedule = exp::Json::array();
  for (const int n : opts.seed_schedule) schedule.push(n);
  search.set("seed_schedule", std::move(schedule));
  search.set("refine_passes", opts.refine_passes);
  search.set("sensitivity", opts.sensitivity);
  // Deliberately no rounds_replayed here: it says how this process got
  // the results (resume provenance), not what the search found, and the
  // artifact of a killed-and-resumed run must be byte-identical to an
  // uninterrupted one. It stays on TuneReport for logs.
  search.set("rounds", static_cast<std::int64_t>(report.rounds));
  search.set("sessions", static_cast<std::int64_t>(report.sessions));
  search.set("trajectory_digest", hex16(report.trajectory_digest));
  root.set("search", std::move(search));

  exp::Json dims = exp::Json::array();
  for (const ParamDef& d : space.defs()) {
    exp::Json dim = exp::Json::object();
    dim.set("name", d.name);
    dim.set("lo", d.lo);
    dim.set("hi", d.hi);
    dim.set("step", d.step);
    dim.set("count", static_cast<std::int64_t>(d.count()));
    dims.push(std::move(dim));
  }
  root.set("space", std::move(dims));

  exp::Json cells = exp::Json::array();
  for (const CellResult& cell : report.cells) {
    exp::Json c = exp::Json::object();
    c.set("cell", cell.ctx.name);
    c.set("profile", cell.ctx.profile.empty() ? "default" : cell.ctx.profile);
    c.set("net", cell.ctx.net_label);
    c.set("governor", cell.ctx.governor);
    c.set("feasible", cell.best_score.feasible);
    if (!cell.best_score.feasible) {
      // No point in the space met the QoE floor; the params below are
      // the least-violating configuration, not a shippable one.
      c.set("violation", cell.best_score.violation);
    }
    exp::Json params = exp::Json::object();
    for (std::size_t d = 0; d < space.dims(); ++d) {
      params.set(space.def(d).name, cell.best_values[d]);
    }
    c.set("params", std::move(params));
    exp::Json index = exp::Json::array();
    for (const std::uint32_t i : cell.best) index.push(static_cast<std::int64_t>(i));
    c.set("index", std::move(index));
    exp::Json obj = exp::Json::object();
    obj.set("energy_mj", cell.best_score.energy_mj);
    obj.set("rebuffer_ratio", cell.best_score.rebuffer_ratio);
    obj.set("drop_pct", cell.best_score.drop_pct);
    obj.set("startup_s", cell.best_score.startup_s);
    obj.set("bitrate_kbps", cell.best_score.bitrate_kbps);
    obj.set("guard_rebuffer_s", cell.best_score.guard_rebuffer_s);
    obj.set("runs", cell.best_score.runs);
    obj.set("failures", cell.best_score.failures);
    c.set("objective", std::move(obj));
    exp::Json cons = exp::Json::object();
    cons.set("max_rebuffer_ratio", cell.ctx.constraints.max_rebuffer_ratio);
    cons.set("max_drop_pct", cell.ctx.constraints.max_drop_pct);
    cons.set("max_startup_s", cell.ctx.constraints.max_startup_s);
    cons.set("min_bitrate_kbps", cell.ctx.constraints.min_bitrate_kbps);
    cons.set("max_guard_rebuffer_s", cell.ctx.constraints.max_guard_rebuffer_s);
    c.set("constraints", std::move(cons));
    c.set("sessions", static_cast<std::int64_t>(cell.sessions));
    cells.push(std::move(c));
  }
  root.set("cells", std::move(cells));
  return root;
}

std::string sensitivity_csv(const ParamSpace& space, const TuneReport& report) {
  std::string out =
      "cell,param,index,value,feasible,violation,energy_mj,rebuffer_ratio,drop_pct,startup_s,"
      "bitrate_kbps,guard_rebuffer_s\n";
  for (const CellResult& cell : report.cells) {
    for (const CellResult::SensitivityPoint& p : cell.sensitivity) {
      out += cell.ctx.name + ',' + space.def(p.dim).name + ',' + std::to_string(p.index) + ',' +
             exp::json_number(p.value) + ',' + (p.score.feasible ? "1" : "0") + ',' +
             exp::json_number(p.score.violation) + ',' + exp::json_number(p.score.energy_mj) +
             ',' + exp::json_number(p.score.rebuffer_ratio) + ',' +
             exp::json_number(p.score.drop_pct) + ',' + exp::json_number(p.score.startup_s) +
             ',' + exp::json_number(p.score.bitrate_kbps) + ',' +
             exp::json_number(p.score.guard_rebuffer_s) + '\n';
    }
  }
  return out;
}

}  // namespace vafs::tune
