// Cold-vs-incremental equivalence tests of the content-addressed
// subcircuit-artifact pipeline: flatten() output pinned to recorded
// digests and matched by the stitch_flatten() shim, grouped activity
// propagation, stage skipping inside implement() and the subcircuit
// library, NET-* diagnostic routing, and the one-knob-delta sweep whose
// frontier JSON must be byte-identical with the artifact tier on or off.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cell/characterize.hpp"
#include "core/artifact_cache.hpp"
#include "core/compiler.hpp"
#include "core/diskstore.hpp"
#include "core/scl.hpp"
#include "core/spec.hpp"
#include "core/stage.hpp"
#include "dse/eval_cache.hpp"
#include "dse/sweep.hpp"
#include "netlist/flatten.hpp"
#include "netlist/serialize.hpp"
#include "netlist/stitch.hpp"
#include "power/activity.hpp"
#include "rtlgen/content_key.hpp"
#include "rtlgen/macro.hpp"
#include "tech/tech_node.hpp"

using namespace syndcim;

namespace {

const cell::Library& lib() {
  static const cell::Library l =
      cell::characterize_default_library(tech::make_default_40nm());
  return l;
}

rtlgen::MacroConfig small_cfg() {
  rtlgen::MacroConfig cfg;
  cfg.rows = 16;
  cfg.cols = 8;
  cfg.mcr = 1;
  cfg.input_bits = {4};
  cfg.weight_bits = {4};
  return cfg;
}

std::vector<rtlgen::MacroConfig> config_variants() {
  std::vector<rtlgen::MacroConfig> out;
  out.push_back(small_cfg());
  {
    rtlgen::MacroConfig c = small_cfg();
    c.cols = 16;
    c.mcr = 2;
    out.push_back(c);
  }
  {
    rtlgen::MacroConfig c = small_cfg();
    c.rows = 32;
    c.input_bits = {4, 8};
    c.weight_bits = {4, 8};
    c.cols = 16;
    out.push_back(c);
  }
  {
    rtlgen::MacroConfig c = small_cfg();
    c.bitcell = rtlgen::BitcellKind::k8T;
    c.tree.style = rtlgen::AdderTreeStyle::kMixed;
    c.tree.fa_fraction = 0.5;
    out.push_back(c);
  }
  return out;
}

void expect_activity_equal(const power::ActivityModel& a,
                           const power::ActivityModel& b) {
  ASSERT_EQ(a.toggle_rate.size(), b.toggle_rate.size());
  ASSERT_EQ(a.p_one.size(), b.p_one.size());
  for (std::size_t i = 0; i < a.toggle_rate.size(); ++i) {
    EXPECT_EQ(a.toggle_rate[i], b.toggle_rate[i]) << "net " << i;
    EXPECT_EQ(a.p_one[i], b.p_one[i]) << "net " << i;
  }
}

/// Byte-exact comparison of the fields downstream consumers read.
void expect_impl_equal(const core::Implementation& a,
                       const core::Implementation& b) {
  EXPECT_EQ(a.fmax_mhz, b.fmax_mhz);
  EXPECT_EQ(a.macro_area_mm2, b.macro_area_mm2);
  EXPECT_EQ(a.total_power_uw, b.total_power_uw);
  EXPECT_EQ(a.tops_1b, b.tops_1b);
  EXPECT_EQ(a.timing.wns_ps, b.timing.wns_ps);
  EXPECT_EQ(a.timing.min_period_ps, b.timing.min_period_ps);
  EXPECT_EQ(a.timing.min_write_period_ps, b.timing.min_write_period_ps);
  EXPECT_EQ(a.power.total_uw(), b.power.total_uw());
  EXPECT_EQ(a.cell_area.total_um2, b.cell_area.total_um2);
  // Diagnostics replay must reproduce the cold findings exactly.
  ASSERT_EQ(a.diagnostics.diags().size(), b.diagnostics.diags().size());
  for (std::size_t i = 0; i < a.diagnostics.diags().size(); ++i) {
    EXPECT_EQ(a.diagnostics.diags()[i].rule, b.diagnostics.diags()[i].rule);
    EXPECT_EQ(a.diagnostics.diags()[i].object,
              b.diagnostics.diags()[i].object);
  }
}

TEST(Flatten, MatchesParentDigestsAcrossConfigs) {
  // Digests of encode_flat_netlist(flatten(...)) recorded from the
  // recursive flatten() as it was before it gained per-call port maps and
  // module lookup tables: net order and names, gate order and the
  // first-use interning of masters, pins and groups must not move.
  const std::vector<std::string> expected = {
      "47c398ed6c09ad4603aa905daade4607",
      "72865cc77b8c783dd995a2b28f5a1aec",
      "440589411ac8890f1b40732c6e8c4712",
      "88708bc70423c2cf25ef6228eaa81024",
  };
  const std::vector<rtlgen::MacroConfig> cfgs = config_variants();
  ASSERT_EQ(cfgs.size(), expected.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const rtlgen::MacroDesign md = rtlgen::gen_macro(cfgs[i]);
    core::ArtifactHasher h;
    h.str(netlist::encode_flat_netlist(netlist::flatten(md.design, md.top)));
    EXPECT_EQ(h.hex(), expected[i]) << rtlgen::config_content_key(cfgs[i]);
  }
}

TEST(Stitch, MatchesFlattenAcrossConfigs) {
  // stitch_flatten() is kept as a shim for the benchmark harness; it must
  // hand back flatten()'s netlist byte for byte.
  for (const rtlgen::MacroConfig& cfg : config_variants()) {
    const rtlgen::MacroDesign md = rtlgen::gen_macro(cfg);
    const netlist::StitchResult sr =
        netlist::stitch_flatten(md.design, md.top);
    EXPECT_EQ(netlist::encode_flat_netlist(sr.nl),
              netlist::encode_flat_netlist(netlist::flatten(md.design, md.top)))
        << rtlgen::config_content_key(cfg);
  }
}

TEST(GroupedActivity, ColdAndWarmAreByteIdentical) {
  const rtlgen::MacroDesign md = rtlgen::gen_macro(small_cfg());
  const netlist::FlatNetlist nl = netlist::flatten(md.design, md.top);
  const power::ActivitySpec spec;

  const power::ActivityModel cold =
      power::propagate_activity_grouped(nl, lib(), spec, nullptr);
  ASSERT_EQ(cold.toggle_rate.size(), nl.net_count());

  power::ActivityCache cache("activity");
  const power::ActivityModel warm1 =
      power::propagate_activity_grouped(nl, lib(), spec, &cache);
  const core::ArtifactTierStats s1 = cache.stats();
  const power::ActivityModel warm2 =
      power::propagate_activity_grouped(nl, lib(), spec, &cache);
  const core::ArtifactTierStats s2 = cache.stats();

  expect_activity_equal(cold, warm1);
  expect_activity_equal(cold, warm2);
  const std::size_t cones = s1.hits + s1.misses;  // one lookup per cone
  EXPECT_GT(cones, 0u);
  // The second pass splices every cone.
  EXPECT_EQ(s2.misses, s1.misses);
  EXPECT_EQ(s2.hits - s1.hits, cones);

  // A disabled tier is bypassed entirely: the cold path, no lookups.
  cache.set_enabled(false);
  expect_activity_equal(
      cold, power::propagate_activity_grouped(nl, lib(), spec, &cache));
  EXPECT_EQ(cache.stats().hits, s2.hits);
  EXPECT_EQ(cache.stats().misses, s2.misses);
}

TEST(GroupedActivity, CacheKeysStableAcrossEngines) {
  // Per-cone cache entries are engine-independent: a cache warmed by the
  // SoA kernel must fully satisfy a scalar-engine replay (and vice versa),
  // with byte-identical spliced models. A key that embedded the engine —
  // or an engine that produced different bits — would fail this.
  const rtlgen::MacroDesign md = rtlgen::gen_macro(small_cfg());
  const netlist::FlatNetlist nl = netlist::flatten(md.design, md.top);
  const power::ActivitySpec spec;

  power::ActivityCache cache("activity");
  const power::ActivityModel warm = power::propagate_activity_grouped(
      nl, lib(), spec, &cache, power::ActivityEngine::kSoa);
  const core::ArtifactTierStats s1 = cache.stats();
  const power::ActivityModel replay = power::propagate_activity_grouped(
      nl, lib(), spec, &cache, power::ActivityEngine::kScalar);
  const core::ArtifactTierStats s2 = cache.stats();

  expect_activity_equal(warm, replay);
  const std::size_t cones = s1.hits + s1.misses;  // one lookup per cone
  EXPECT_GT(cones, 0u);
  // The scalar replay splices every cone.
  EXPECT_EQ(s2.misses, s1.misses);
  EXPECT_EQ(s2.hits - s1.hits, cones);
  // The warming pass did compute at least the distinct cones itself
  // (repeated identical columns legitimately hit within the pass).
  EXPECT_GT(s1.misses, 0u);
}

TEST(ContentKeys, StableAndDiscriminating) {
  const rtlgen::MacroConfig cfg = small_cfg();
  const std::string k = rtlgen::config_content_key(cfg);
  EXPECT_EQ(k.size(), 32u);
  EXPECT_EQ(k, rtlgen::config_content_key(cfg));

  rtlgen::MacroConfig rows = cfg;
  rows.rows = 32;
  EXPECT_NE(rtlgen::config_content_key(rows), k);

  // cols-only deltas share the characterization slice but not the config.
  rtlgen::MacroConfig cols = cfg;
  cols.cols = 32;
  EXPECT_NE(rtlgen::config_content_key(cols), k);
  EXPECT_EQ(rtlgen::slice_content_key(cols), rtlgen::slice_content_key(cfg));

  cell::Library l =
      cell::characterize_default_library(tech::make_default_40nm());
  const std::string fp = l.fingerprint();
  EXPECT_EQ(fp.size(), 32u);
  EXPECT_EQ(fp, l.fingerprint());
  EXPECT_EQ(fp, lib().fingerprint());  // same characterization, same key
}

TEST(SpecKnobsKey, CoversExactlyTheImplementKnobs) {
  core::PerfSpec spec;
  const std::string k = core::spec_knobs_key(spec);
  core::PerfSpec f = spec;
  f.mac_freq_mhz += 1.0;
  EXPECT_NE(core::spec_knobs_key(f), k);
  core::PerfSpec v = spec;
  v.vdd += 0.05;
  EXPECT_NE(core::spec_knobs_key(v), k);
  // Preference weights steer selection, not implementation: same key.
  core::PerfSpec p = spec;
  p.pref.power += 1.0;
  EXPECT_EQ(core::spec_knobs_key(p), k);
  EXPECT_EQ(dse::canonical_spec_knobs_key(spec), k);
}

TEST(Implement, WarmRunIsByteIdenticalAndSkipsStages) {
  const rtlgen::MacroConfig cfg = small_cfg();
  core::PerfSpec spec;
  spec.mac_freq_mhz = 300.0;
  const core::Workload wl;

  // Cold reference: the identical code path with every tier bypassed.
  core::SynDcimCompiler cold(lib());
  cold.scl().artifacts().set_enabled(false);
  const core::Implementation ref = cold.implement(cfg, spec, wl);
  for (const core::StageRecord& r : ref.stages) EXPECT_FALSE(r.skipped);

  core::SynDcimCompiler warm(lib());
  const core::Implementation first = warm.implement(cfg, spec, wl);
  const core::Implementation second = warm.implement(cfg, spec, wl);

  expect_impl_equal(ref, first);
  expect_impl_equal(ref, second);

  // Second run: everything after elaboration splices cached artifacts.
  ASSERT_EQ(second.stages.size(), 7u);
  std::size_t skipped = 0;
  for (const core::StageRecord& r : second.stages) {
    skipped += r.skipped ? 1 : 0;
  }
  EXPECT_GE(skipped, 6u);  // all but the always-run rtlgen stage
  // Both runs walked the same phases in the same order.
  ASSERT_EQ(first.timeline.phases.size(), second.timeline.phases.size());
  for (std::size_t i = 0; i < first.stages.size(); ++i) {
    EXPECT_EQ(first.stages[i].stage, second.stages[i].stage);
    EXPECT_EQ(first.stages[i].key, second.stages[i].key);
  }
}

TEST(Implement, SpecRespinSkipsSimulationButReprices) {
  core::SynDcimCompiler c(lib());
  const rtlgen::MacroConfig cfg = small_cfg();
  core::PerfSpec a;
  a.mac_freq_mhz = 300.0;
  core::PerfSpec b = a;
  b.vdd = a.vdd * 0.9;  // voltage re-spin: same netlist, same workload

  (void)c.implement(cfg, a);
  const auto sim_before = c.scl().artifacts().act_models.stats();
  const core::Implementation rb = c.implement(cfg, b);
  const auto sim_after = c.scl().artifacts().act_models.stats();

  // The gate-level activity simulation is spec-independent: the re-spin
  // hits the act_models tier instead of re-simulating...
  EXPECT_EQ(sim_after.entries, sim_before.entries);
  EXPECT_GT(sim_after.hits, sim_before.hits);
  // ...but power is re-priced under the new knobs (its stage ran).
  EXPECT_FALSE(rb.stages.back().skipped);
  EXPECT_EQ(rb.stages.back().stage, "power");
}

TEST(Implement, SimActivityTierKeysOnLanesAndStillHitsWarm) {
  core::SynDcimCompiler c(lib());
  const rtlgen::MacroConfig cfg = small_cfg();
  core::PerfSpec spec;
  spec.mac_freq_mhz = 300.0;
  core::Workload wl;  // lanes = 1, the scalar-identical schedule
  core::Workload wl64 = wl;
  wl64.lanes = 64;

  const core::Implementation s1 = c.implement(cfg, spec, wl);
  const auto st1 = c.scl().artifacts().act_models.stats();
  // A different lane count is a different stimulus schedule: the "wl2"
  // workload key must miss and add a new tier entry, not alias the
  // scalar artifact.
  const core::Implementation p1 = c.implement(cfg, spec, wl64);
  const auto st2 = c.scl().artifacts().act_models.stats();
  EXPECT_EQ(st2.entries, st1.entries + 1);

  // A voltage re-spin at lanes=64 re-prices power but must hit the
  // 64-lane activity artifact warm — the key change kept the tier
  // incremental, it did not just invalidate everything.
  core::PerfSpec respin = spec;
  respin.vdd = spec.vdd * 0.9;
  (void)c.implement(cfg, respin, wl64);
  const auto st3 = c.scl().artifacts().act_models.stats();
  EXPECT_EQ(st3.entries, st2.entries);
  EXPECT_GT(st3.hits, st2.hits);

  // Replaying the original lanes=64 implement is byte-identical, and the
  // scalar schedule's artifact survived untouched alongside it.
  const core::Implementation p2 = c.implement(cfg, spec, wl64);
  expect_impl_equal(p1, p2);
  const core::Implementation s2 = c.implement(cfg, spec, wl);
  expect_impl_equal(s1, s2);
  EXPECT_EQ(c.scl().artifacts().act_models.stats().entries, st3.entries);
}

TEST(SubcircuitLibrary, SharedStoreSkipsEverySliceStage) {
  auto store = std::make_shared<core::ArtifactStore>();
  core::SubcircuitLibrary scl1(lib(), store);
  core::SubcircuitLibrary scl2(lib(), store);
  const rtlgen::MacroConfig cfg = small_cfg();
  // The tiers of the six slice stages.
  const auto slice_tiers = [&] {
    core::ArtifactStore& as = scl1.artifacts();
    return std::vector<core::ArtifactTierStats>{
        as.flats.stats(),   as.placed.stats(),     as.routes.stats(),
        as.timings.stats(), as.act_models.stats(), as.powers.stats()};
  };

  const core::PpaEstimate a = scl1.evaluate(cfg, core::PerfSpec{});
  for (const core::ArtifactTierStats& t : slice_tiers()) {
    EXPECT_EQ(t.misses, 1u) << t.name;
    EXPECT_EQ(t.hits, 0u) << t.name;
  }
  const std::uint64_t misses = store->total_misses();

  // A repeat call, and a second library over the same store (the sweep's
  // worker situation), replay the whole slice from artifacts.
  const core::PpaEstimate b = scl1.evaluate(cfg, core::PerfSpec{});
  const core::PpaEstimate c = scl2.evaluate(cfg, core::PerfSpec{});
  for (const core::ArtifactTierStats& t : slice_tiers()) {
    EXPECT_EQ(t.misses, 1u) << t.name;
    EXPECT_EQ(t.hits, 2u) << t.name;
  }
  EXPECT_EQ(store->total_misses(), misses);
  for (const core::PpaEstimate& p : {b, c}) {
    EXPECT_EQ(a.power_uw, p.power_uw);
    EXPECT_EQ(a.area_um2, p.area_um2);
    EXPECT_EQ(a.fmax_mhz, p.fmax_mhz);
  }
}

TEST(NetValidate, RoutesProblemsThroughDiagEngine) {
  netlist::Design d;
  netlist::Module top("top");
  const netlist::NetId x = top.add_port("x", netlist::PortDir::kIn);
  top.add_submodule("u0", "missing", {{"A", x}});
  top.add_cell("u0", "INVX1", {{"A", x}});  // duplicate instance name
  d.add_module(std::move(top));

  core::DiagEngine diag;
  EXPECT_FALSE(netlist::validate(d, "top", diag));
  EXPECT_TRUE(diag.has_errors());
  EXPECT_EQ(diag.count_rule("NET-NOMODULE"), 1u);
  EXPECT_EQ(diag.count_rule("NET-DUPINST"), 1u);
  core::DiagEngine notop;
  EXPECT_FALSE(netlist::validate(d, "nosuch", notop));
  EXPECT_EQ(notop.count_rule("NET-NOTOP"), 1u);
}

TEST(EvalCachePersistence, SaveIsAtomicAndLeavesNoTempFile) {
  namespace fs = std::filesystem;
  const std::string root = ::testing::TempDir() + "syndcim_evalcache_store";
  fs::remove_all(root);
  const std::string prefix = dse::eval_store_prefix(lib());
  const auto tmp_files = [&] {
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(fs::path(root) / "tmp")) {
      (void)e;
      ++n;
    }
    return n;
  };

  core::DiskBlobStore disk(root);
  dse::EvalCache cache;
  cache.attach_blob_store(&disk, prefix);
  core::EvalOutcome out;
  out.ppa.power_uw = 12.5;
  out.ppa.area_um2 = 480.0;
  (void)cache.get_or_compute("k1", [&] { return out; });

  // The write-through went tmp+rename: nothing is left in tmp/ and the
  // published object decodes in full.
  EXPECT_EQ(tmp_files(), 0u);
  std::optional<std::string> stored =
      disk.get(dse::EvalCache::kStoreTier, prefix + "k1");
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(dse::decode_eval_outcome(*stored).ppa.power_uw, 12.5);
  core::DiagEngine diag;
  disk.drain_diags(diag);
  EXPECT_EQ(diag.count_rule("CACHE-TRUNC"), 0u);
  EXPECT_EQ(diag.count_rule("CACHE-CORRUPT"), 0u);

  // A second outcome goes through the same path; a reader can never
  // observe a torn object.
  out.ppa.power_uw = 99.0;
  (void)cache.get_or_compute("k2", [&] { return out; });
  EXPECT_EQ(tmp_files(), 0u);
  EXPECT_EQ(disk.disk_usage().objects, 2u);
  dse::EvalCache back;
  back.attach_blob_store(&disk, prefix);
  EXPECT_EQ(back.get_or_compute("k2", [] { return core::EvalOutcome{}; })
                .ppa.power_uw,
            99.0);
  EXPECT_EQ(back.stats().loaded, 1u);

  // An unusable destination (a regular file as the root) fails the put
  // cleanly: the computed outcome is still returned and nothing is made.
  const std::string file = root + "_file";
  { std::ofstream f(file); f << "occupied"; }
  core::DiskBlobStore bad(file);
  dse::EvalCache unwritable;
  unwritable.attach_blob_store(&bad, prefix);
  EXPECT_EQ(unwritable.get_or_compute("k3", [&] { return out; }).ppa.power_uw,
            99.0);
  EXPECT_EQ(bad.stats().write_fails, 1u);
  EXPECT_TRUE(fs::is_regular_file(file));
  fs::remove(file);
  fs::remove_all(root);
}

TEST(Sweep, OneKnobDeltaFrontierIsByteIdenticalWithArtifactTierOnOrOff) {
  core::PerfSpec base;
  base.rows = 32;
  base.cols = 32;
  base.mcr = 1;
  base.input_bits = {4};
  base.weight_bits = {4};
  base.mac_freq_mhz = 300.0;
  base.wupdate_freq_mhz = 300.0;
  dse::SweepGrid grid;
  grid.base = base;
  grid.mac_freqs_mhz = {300.0, 340.0};  // the one knob that varies
  const std::vector<core::PerfSpec> specs = grid.expand();
  ASSERT_EQ(specs.size(), 2u);

  auto run = [&](bool artifacts, int threads) {
    dse::SweepOptions opt;
    opt.threads = threads;
    opt.use_artifact_cache = artifacts;
    return dse::run_sweep(lib(), specs, opt);
  };
  const dse::SweepReport on1 = run(true, 1);
  const dse::SweepReport off1 = run(false, 1);
  const dse::SweepReport on4 = run(true, 4);

  const std::string ref = dse::sweep_frontier_json(off1);
  EXPECT_EQ(dse::sweep_frontier_json(on1), ref);
  EXPECT_EQ(dse::sweep_frontier_json(on4), ref);

  // Per-point PPA across the whole explored set, not just the frontier.
  ASSERT_EQ(on1.per_spec.size(), off1.per_spec.size());
  for (std::size_t s = 0; s < on1.per_spec.size(); ++s) {
    const auto& pa = on1.per_spec[s].result.pareto;
    const auto& pb = off1.per_spec[s].result.pareto;
    ASSERT_EQ(pa.size(), pb.size()) << "spec " << s;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].label, pb[i].label);
      EXPECT_EQ(pa[i].ppa.power_uw, pb[i].ppa.power_uw);
      EXPECT_EQ(pa[i].ppa.area_um2, pb[i].ppa.area_um2);
      EXPECT_EQ(pa[i].ppa.fmax_mhz, pb[i].ppa.fmax_mhz);
    }
  }

  // The enabled tier actually worked: the second spec shares every
  // subcircuit artifact with the first (only the spec knob moved).
  EXPECT_GT(on1.artifact_hits(), 0u);
  EXPECT_EQ(off1.artifact_hits(), 0u);
  bool saw_tier_stats = false;
  for (const core::ArtifactTierStats& t : on1.artifacts) {
    saw_tier_stats = saw_tier_stats || t.lookups() > 0;
  }
  EXPECT_TRUE(saw_tier_stats);
  // The report JSON carries the tier roll-up for the CLI summary.
  EXPECT_NE(dse::sweep_report_json(on1).find("\"artifacts\""),
            std::string::npos);
}

}  // namespace
