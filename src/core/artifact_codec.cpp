#include "core/artifact_codec.hpp"

#include "core/binio.hpp"
#include "core/blob_store.hpp"
#include "layout/serialize.hpp"
#include "lint/serialize.hpp"
#include "netlist/serialize.hpp"
#include "power/serialize.hpp"
#include "sta/serialize.hpp"

namespace syndcim::core {

namespace {

constexpr std::uint8_t kDiagListVersion = 1;
constexpr std::uint8_t kLintArtVersion = 1;
constexpr std::uint8_t kPlacedArtVersion = 1;
constexpr std::uint8_t kRouteArtVersion = 1;
constexpr std::uint8_t kTimingArtVersion = 1;
constexpr std::uint8_t kPowerArtVersion = 1;

void encode_diags(BinWriter& w, const std::vector<Diagnostic>& diags) {
  w.u8(kDiagListVersion);
  w.u32(static_cast<std::uint32_t>(diags.size()));
  for (const Diagnostic& d : diags) {
    w.u8(static_cast<std::uint8_t>(d.severity));
    w.str(d.rule);
    w.str(d.message);
    w.str(d.object);
    w.str(d.source);
    w.i32(d.line);
  }
}

std::vector<Diagnostic> decode_diags(BinReader& r) {
  if (r.u8() != kDiagListVersion) {
    throw BinDecodeError("unsupported codec version for diagnostics");
  }
  const std::uint32_t n = r.len(21);
  std::vector<Diagnostic> diags;
  diags.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Diagnostic d;
    const std::uint8_t sev = r.u8();
    if (sev > static_cast<std::uint8_t>(Severity::kError)) {
      throw BinDecodeError("bad severity");
    }
    d.severity = static_cast<Severity>(sev);
    d.rule = r.str();
    d.message = r.str();
    d.object = r.str();
    d.source = r.str();
    d.line = r.i32();
    diags.push_back(std::move(d));
  }
  return diags;
}

std::size_t diags_bytes(const std::vector<Diagnostic>& diags) {
  std::size_t n = deep_vec_bytes(diags);
  for (const Diagnostic& d : diags) {
    n += deep_str_bytes(d.rule) + deep_str_bytes(d.message) +
         deep_str_bytes(d.object) + deep_str_bytes(d.source);
  }
  return n;
}

void check_version(BinReader& r, std::uint8_t expect, const char* what) {
  if (r.u8() != expect) {
    throw BinDecodeError(std::string("unsupported codec version for ") + what);
  }
}

/// Wraps a throwing decoder into the ArtifactCache DecodeFn contract
/// (nullptr on any malformed payload — the L2 entry is then treated as a
/// miss and the stage recomputes).
template <typename T, typename Fn>
auto decode_fn(Fn decode) {
  return [decode](std::string_view payload) -> std::shared_ptr<const T> {
    try {
      return std::make_shared<const T>(decode(payload));
    } catch (const BinDecodeError&) {
      return nullptr;
    }
  };
}

template <typename T, typename Enc, typename Dec>
void attach_tier(ArtifactCache<T>& tier, BlobStore* l2, Enc encode,
                 Dec decode) {
  if (l2 == nullptr) {
    tier.detach_l2();
    return;
  }
  tier.attach_l2(
      l2, [encode](const T& v) { return encode(v); }, decode_fn<T>(decode));
}

}  // namespace

// --- composite artifact codecs ---------------------------------------------
// Sub-payloads are embedded length-prefixed (str), so each layer's codec
// owns its own framing and versioning.

std::string encode_lint_artifact(const LintArtifact& a) {
  BinWriter w;
  w.u8(kLintArtVersion);
  w.str(lint::encode_lint_summary(a.summary));
  encode_diags(w, a.diags);
  return w.take();
}

LintArtifact decode_lint_artifact(std::string_view payload) {
  BinReader r(payload);
  check_version(r, kLintArtVersion, "lint artifact");
  LintArtifact a;
  a.summary = lint::decode_lint_summary(r.str());
  a.diags = decode_diags(r);
  r.expect_end();
  return a;
}

std::string encode_placed_artifact(const PlacedArtifact& a) {
  BinWriter w;
  w.u8(kPlacedArtVersion);
  w.str(layout::encode_floorplan(a.floorplan));
  encode_diags(w, a.diags);
  return w.take();
}

PlacedArtifact decode_placed_artifact(std::string_view payload) {
  BinReader r(payload);
  check_version(r, kPlacedArtVersion, "placed artifact");
  PlacedArtifact a;
  a.floorplan = layout::decode_floorplan(r.str());
  a.diags = decode_diags(r);
  r.expect_end();
  return a;
}

std::string encode_route_artifact(const RouteArtifact& a) {
  BinWriter w;
  w.u8(kRouteArtVersion);
  w.str(layout::encode_drc_report(a.drc));
  w.str(layout::encode_lvs_report(a.lvs));
  w.str(sta::encode_wire_model(a.wire));
  return w.take();
}

RouteArtifact decode_route_artifact(std::string_view payload) {
  BinReader r(payload);
  check_version(r, kRouteArtVersion, "route artifact");
  RouteArtifact a;
  a.drc = layout::decode_drc_report(r.str());
  a.lvs = layout::decode_lvs_report(r.str());
  a.wire = sta::decode_wire_model(r.str());
  r.expect_end();
  return a;
}

std::string encode_timing_artifact(const TimingArtifact& a) {
  BinWriter w;
  w.u8(kTimingArtVersion);
  w.str(sta::encode_timing_report(a.timing));
  encode_diags(w, a.diags);
  return w.take();
}

TimingArtifact decode_timing_artifact(std::string_view payload) {
  BinReader r(payload);
  check_version(r, kTimingArtVersion, "timing artifact");
  TimingArtifact a;
  a.timing = sta::decode_timing_report(r.str());
  a.diags = decode_diags(r);
  r.expect_end();
  return a;
}

std::string encode_power_artifact(const PowerArtifact& a) {
  BinWriter w;
  w.u8(kPowerArtVersion);
  w.str(power::encode_power_report(a.power));
  w.str(power::encode_area_report(a.area));
  return w.take();
}

PowerArtifact decode_power_artifact(std::string_view payload) {
  BinReader r(payload);
  check_version(r, kPowerArtVersion, "power artifact");
  PowerArtifact a;
  a.power = power::decode_power_report(r.str());
  a.area = power::decode_area_report(r.str());
  r.expect_end();
  return a;
}

std::size_t deep_bytes(const LintArtifact& a) {
  return lint::deep_bytes(a.summary) + diags_bytes(a.diags);
}
std::size_t deep_bytes(const PlacedArtifact& a) {
  return layout::deep_bytes(a.floorplan) + diags_bytes(a.diags);
}
std::size_t deep_bytes(const RouteArtifact& a) {
  return layout::deep_bytes(a.drc) + layout::deep_bytes(a.lvs) +
         sta::deep_bytes(a.wire);
}
std::size_t deep_bytes(const TimingArtifact& a) {
  return sta::deep_bytes(a.timing) + diags_bytes(a.diags);
}
std::size_t deep_bytes(const PowerArtifact& a) {
  return power::deep_bytes(a.power) + power::deep_bytes(a.area);
}

// --- store wiring ----------------------------------------------------------

void install_deep_bytes(ArtifactStore& store) {
  store.modules.set_deep_bytes(
      [](const netlist::Module& m) { return netlist::deep_bytes(m); });
  store.flats.set_deep_bytes(
      [](const netlist::FlatNetlist& nl) { return netlist::deep_bytes(nl); });
  store.activity.set_deep_bytes([](const power::GroupActivityArtifact& a) {
    return power::deep_bytes(a);
  });
  store.lints.set_deep_bytes(
      [](const LintArtifact& a) { return deep_bytes(a); });
  store.placed.set_deep_bytes(
      [](const PlacedArtifact& a) { return deep_bytes(a); });
  store.routes.set_deep_bytes(
      [](const RouteArtifact& a) { return deep_bytes(a); });
  store.timings.set_deep_bytes(
      [](const TimingArtifact& a) { return deep_bytes(a); });
  store.powers.set_deep_bytes(
      [](const PowerArtifact& a) { return deep_bytes(a); });
  store.act_models.set_deep_bytes(
      [](const power::ActivityModel& m) { return power::deep_bytes(m); });
}

void attach_blob_store(ArtifactStore& store, BlobStore* l2) {
  attach_tier(store.modules, l2, netlist::encode_module,
              netlist::decode_module);
  attach_tier(store.flats, l2, netlist::encode_flat_netlist,
              netlist::decode_flat_netlist);
  attach_tier(store.activity, l2, power::encode_group_activity,
              power::decode_group_activity);
  attach_tier(store.lints, l2, encode_lint_artifact, decode_lint_artifact);
  attach_tier(store.placed, l2, encode_placed_artifact,
              decode_placed_artifact);
  attach_tier(store.routes, l2, encode_route_artifact, decode_route_artifact);
  attach_tier(store.timings, l2, encode_timing_artifact,
              decode_timing_artifact);
  attach_tier(store.powers, l2, encode_power_artifact, decode_power_artifact);
  attach_tier(store.act_models, l2, power::encode_activity_model,
              power::decode_activity_model);
}

}  // namespace syndcim::core
