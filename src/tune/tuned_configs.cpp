#include "tune/tuned_configs.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "exp/json.h"
#include "tune/param_space.h"

namespace vafs::tune {
namespace {

bool schema_fail(std::string* error, const std::string& why) {
  if (error) *error = "tuned_configs: " + why;
  return false;
}

const exp::Json* member(const exp::Json& obj, std::string_view key, exp::Json::Kind kind) {
  const exp::Json* v = obj.find(key);
  return (v != nullptr && v->kind() == kind) ? v : nullptr;
}

}  // namespace

void TunedCell::apply(core::SessionConfig& cfg) const {
  // Every name was validated against the knob registry at parse time, so
  // apply_knob cannot fail here; the loop still ignores a false return
  // rather than asserting so a hand-edited artifact degrades gracefully.
  for (const auto& [name, value] : params) (void)apply_knob(name, value, cfg);
}

bool TunedConfigs::parse(std::string_view text, TunedConfigs* out, std::string* error) {
  out->cells_.clear();
  exp::Json root;
  if (!exp::json_parse(text, &root, error)) return false;
  if (root.kind() != exp::Json::Kind::kObject) {
    return schema_fail(error, "top-level value is not an object");
  }
  // bench_f15 embeds the artifact under "tuned" in BENCH_f15.json; accept
  // either the bare artifact or that wrapper.
  if (root.find("schema_version") == nullptr) {
    const exp::Json* wrapped = member(root, "tuned", exp::Json::Kind::kObject);
    if (wrapped != nullptr) root = *wrapped;
  }
  const exp::Json* version = member(root, "schema_version", exp::Json::Kind::kNumber);
  if (version == nullptr || version->number() != 1.0) {
    return schema_fail(error, "missing or unsupported schema_version (want 1)");
  }
  const exp::Json* cells = member(root, "cells", exp::Json::Kind::kArray);
  if (cells == nullptr) return schema_fail(error, "missing cells array");

  for (const exp::Json& c : cells->items()) {
    if (c.kind() != exp::Json::Kind::kObject) {
      return schema_fail(error, "cell entry is not an object");
    }
    TunedCell cell;
    const auto text_field = [&](std::string_view key, std::string* dst) {
      const exp::Json* v = member(c, key, exp::Json::Kind::kString);
      if (v == nullptr) return schema_fail(error, "cell missing string '" + std::string(key) + "'");
      *dst = v->str();
      return true;
    };
    if (!text_field("cell", &cell.cell) || !text_field("profile", &cell.profile) ||
        !text_field("net", &cell.net) || !text_field("governor", &cell.governor)) {
      return false;
    }
    const exp::Json* feasible = member(c, "feasible", exp::Json::Kind::kBool);
    if (feasible == nullptr) return schema_fail(error, "cell missing bool 'feasible'");
    cell.feasible = feasible->boolean();

    const exp::Json* params = member(c, "params", exp::Json::Kind::kObject);
    if (params == nullptr) return schema_fail(error, "cell missing params object");
    core::SessionConfig probe;
    for (const auto& [name, value] : params->members()) {
      if (value.kind() != exp::Json::Kind::kNumber) {
        return schema_fail(error, "param '" + name + "' is not a number");
      }
      // No knob means anything beyond ±1e9, and the integer and time
      // conversions apply_knob makes overflow (undefined behaviour) well
      // before ±inf.
      if (!(std::fabs(value.number()) <= 1e9)) {
        return schema_fail(error, "param '" + name + "' is out of range");
      }
      if (!apply_knob(name, value.number(), probe)) {
        return schema_fail(error, "unregistered knob '" + name + "' in cell '" + cell.cell + "'");
      }
      cell.params.emplace_back(name, value.number());
    }

    if (const exp::Json* obj = member(c, "objective", exp::Json::Kind::kObject)) {
      const auto num = [&](std::string_view key, double* dst) {
        const exp::Json* v = member(*obj, key, exp::Json::Kind::kNumber);
        if (v != nullptr) *dst = v->number();
      };
      num("energy_mj", &cell.energy_mj);
      num("rebuffer_ratio", &cell.rebuffer_ratio);
      num("drop_pct", &cell.drop_pct);
    }
    out->cells_.push_back(std::move(cell));
  }
  return true;
}

bool TunedConfigs::load_file(const std::string& path, TunedConfigs* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return schema_fail(error, "cannot read '" + path + "'");
  std::ostringstream body;
  body << in.rdbuf();
  return parse(body.str(), out, error);
}

const TunedCell* TunedConfigs::find(std::string_view profile, std::string_view net) const {
  const std::string_view want = profile.empty() ? "default" : profile;
  for (const TunedCell& c : cells_) {
    const std::string_view have = c.profile.empty() ? "default" : std::string_view(c.profile);
    if (have == want && c.net == net) return &c;
  }
  return nullptr;
}

}  // namespace vafs::tune
