// Tests of the durable artifact persistence layer: DiskBlobStore object
// integrity (atomic publish, corrupt/truncated rejection with CACHE-*
// diagnostics, cross-process sharing), round-trip bit-identity of every
// tier payload codec, the ArtifactStore L1/L2 read-through + write-back
// protocol, eval outcomes persisted in the same store (served warm,
// rejected when undecodable, never shared across cell libraries),
// warm-restart sweep equivalence (cold frontier JSON == warm frontier
// JSON), and shard-merge byte-identity against a single-process sweep.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cell/characterize.hpp"
#include "core/artifact_codec.hpp"
#include "core/binio.hpp"
#include "core/diag.hpp"
#include "core/diskstore.hpp"
#include "core/stage.hpp"
#include "dse/eval_cache.hpp"
#include "dse/shard.hpp"
#include "dse/sweep.hpp"
#include "layout/floorplan.hpp"
#include "layout/serialize.hpp"
#include "lint/lint.hpp"
#include "lint/serialize.hpp"
#include "netlist/flatten.hpp"
#include "netlist/serialize.hpp"
#include "power/activity.hpp"
#include "power/power.hpp"
#include "power/serialize.hpp"
#include "rtlgen/macro.hpp"
#include "sta/serialize.hpp"
#include "sta/sta.hpp"
#include "tech/tech_node.hpp"

using namespace syndcim;

namespace {

const cell::Library& test_library() {
  static const cell::Library lib =
      cell::characterize_default_library(tech::make_default_40nm());
  return lib;
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

core::PerfSpec small_spec() {
  core::PerfSpec spec;
  spec.rows = 32;
  spec.cols = 32;
  spec.mcr = 2;
  spec.input_bits = {4};
  spec.weight_bits = {4};
  spec.mac_freq_mhz = 300.0;
  spec.wupdate_freq_mhz = 300.0;
  return spec;
}

/// Fresh (removed + recreated-on-open) store root under the test temp dir.
std::string fresh_root(const std::string& name) {
  const std::string root = ::testing::TempDir() + "syndcim_" + name;
  std::filesystem::remove_all(root);
  return root;
}

/// Every payload type the nine tiers persist, built through the same
/// pipeline calls the compiler's stages make.
struct PipelinePayloads {
  rtlgen::MacroDesign macro;
  netlist::FlatNetlist flat;
  core::LintArtifact lint;
  core::PlacedArtifact placed;
  core::RouteArtifact route;
  core::TimingArtifact timing;
  core::PowerArtifact power;
  power::ActivityModel activity;
};

const PipelinePayloads& payloads() {
  static const PipelinePayloads p = [] {
    PipelinePayloads out;
    const cell::Library& lib = test_library();
    const rtlgen::MacroConfig cfg = small_cfg();
    out.macro = rtlgen::gen_macro(cfg);
    out.flat = netlist::flatten(out.macro.design, out.macro.top);
    {
      core::DiagEngine dg;
      dg.warning("TEST-RULE", "synthetic finding", "obj", "src");
      out.lint.summary = lint::lint_netlist(out.flat, lib, dg);
      out.lint.diags = dg.diags();
    }
    {
      core::DiagEngine dg;
      out.placed.floorplan = layout::sdp_place(out.flat, lib, cfg, {}, &dg);
      out.placed.diags = dg.diags();
    }
    out.route.drc = layout::run_drc(out.flat, lib, out.placed.floorplan);
    out.route.lvs = layout::run_lvs(out.flat, lib, out.placed.floorplan);
    out.route.wire =
        layout::extract_wire_model(out.flat, out.placed.floorplan, lib.node());
    {
      sta::StaEngine sta(out.flat, lib);
      sta::StaOptions topt;
      topt.clock_period_ps = 3000.0;
      topt.wire = out.route.wire;
      topt.collect_group_interfaces = true;
      core::DiagEngine dg;
      topt.diag = &dg;
      out.timing.timing = sta.analyze(topt);
      out.timing.diags = dg.diags();
    }
    out.activity = power::propagate_activity(out.flat, lib, {});
    {
      power::PowerOptions popt;
      popt.freq_mhz = 300.0;
      popt.wire = out.route.wire;
      out.power.power = power::analyze_power(out.flat, lib, out.activity, popt);
      out.power.area = power::analyze_area(out.flat, lib);
    }
    return out;
  }();
  return p;
}

/// Awkward values for a bit-exact round trip: a fraction decimal cannot
/// represent, tiny and huge magnitudes, and mixed timing flags.
core::EvalOutcome awkward_outcome() {
  core::EvalOutcome o;
  o.ppa.fmax_mhz = 1.0 / 3.0;
  o.ppa.write_fmax_mhz = 123.456789;
  o.ppa.power_uw = 1e-30;
  o.ppa.area_um2 = 98765.4321;
  o.ppa.energy_per_mac_fj = 2.5e17;
  o.ppa.tops_1b = 0.0625;
  o.ppa.latency_cycles = 7;
  o.timing.mac_period_ps = 3333.333333333;
  o.timing.ofu_period_ps = 1.7e-4;
  o.timing.write_period_ps = 250.0;
  o.timing.mac_ok = true;
  o.timing.ofu_ok = false;
  o.timing.write_ok = true;
  return o;
}

/// The `"write_fails": N` count of a DiskBlobStore::stats_json string.
std::uint64_t store_write_fails(const std::string& store_json) {
  const std::string field = "\"write_fails\": ";
  const std::size_t at = store_json.find(field);
  if (at == std::string::npos) return 0;
  return std::stoull(store_json.substr(at + field.size()));
}

std::uint64_t sum_l2_hits(const std::vector<core::ArtifactTierStats>& tiers) {
  std::uint64_t n = 0;
  for (const auto& t : tiers) n += t.l2_hits;
  return n;
}

}  // namespace

// ---------------------------------------------------------------------------
// Round-trip bit-identity of every tier payload codec: encode -> decode ->
// re-encode must reproduce the exact same bytes, which is what makes a
// warm (L2-decoded) artifact indistinguishable from a computed one.
// ---------------------------------------------------------------------------

TEST(ArtifactCodec, ModuleRoundTripsBitIdentical) {
  const auto& p = payloads();
  const netlist::Module& m = p.macro.design.module(p.macro.top);
  const std::string bytes = netlist::encode_module(m);
  const netlist::Module back = netlist::decode_module(bytes);
  EXPECT_EQ(netlist::encode_module(back), bytes);
  EXPECT_GT(netlist::deep_bytes(m), 0u);
}

TEST(ArtifactCodec, FlatNetlistRoundTripsBitIdentical) {
  const auto& p = payloads();
  const std::string bytes = netlist::encode_flat_netlist(p.flat);
  const netlist::FlatNetlist back = netlist::decode_flat_netlist(bytes);
  EXPECT_EQ(netlist::encode_flat_netlist(back), bytes);
  EXPECT_EQ(back.gates().size(), p.flat.gates().size());
  EXPECT_GT(netlist::deep_bytes(p.flat), 0u);
}

TEST(ArtifactCodec, ActivityModelRoundTripsBitIdentical) {
  const auto& p = payloads();
  const std::string bytes = power::encode_activity_model(p.activity);
  const power::ActivityModel back = power::decode_activity_model(bytes);
  EXPECT_EQ(power::encode_activity_model(back), bytes);
  EXPECT_EQ(back.toggle_rate, p.activity.toggle_rate);
  EXPECT_EQ(back.p_one, p.activity.p_one);
}

TEST(ArtifactCodec, GroupActivityRoundTripsBitIdentical) {
  power::GroupActivityArtifact g;
  g.driven = {{0.9, 0.125}, {0.5, 0.25}, {1.0 / 3.0, 2.0 / 7.0}};
  const std::string bytes = power::encode_group_activity(g);
  const power::GroupActivityArtifact back =
      power::decode_group_activity(bytes);
  EXPECT_EQ(power::encode_group_activity(back), bytes);
  EXPECT_EQ(back.driven, g.driven);
}

TEST(ArtifactCodec, LintArtifactRoundTripsBitIdentical) {
  const auto& p = payloads();
  const std::string bytes = core::encode_lint_artifact(p.lint);
  const core::LintArtifact back = core::decode_lint_artifact(bytes);
  EXPECT_EQ(core::encode_lint_artifact(back), bytes);
  ASSERT_EQ(back.diags.size(), p.lint.diags.size());
  ASSERT_FALSE(back.diags.empty());
  EXPECT_EQ(back.diags.front().rule, "TEST-RULE");
}

TEST(ArtifactCodec, PlacedArtifactRoundTripsBitIdentical) {
  const auto& p = payloads();
  const std::string bytes = core::encode_placed_artifact(p.placed);
  const core::PlacedArtifact back = core::decode_placed_artifact(bytes);
  EXPECT_EQ(core::encode_placed_artifact(back), bytes);
  EXPECT_EQ(back.floorplan.gate_rects.size(),
            p.placed.floorplan.gate_rects.size());
}

TEST(ArtifactCodec, RouteArtifactRoundTripsBitIdentical) {
  const auto& p = payloads();
  const std::string bytes = core::encode_route_artifact(p.route);
  const core::RouteArtifact back = core::decode_route_artifact(bytes);
  EXPECT_EQ(core::encode_route_artifact(back), bytes);
  EXPECT_EQ(back.wire.per_net_cap_ff, p.route.wire.per_net_cap_ff);
}

TEST(ArtifactCodec, TimingArtifactRoundTripsBitIdentical) {
  const auto& p = payloads();
  const std::string bytes = core::encode_timing_artifact(p.timing);
  const core::TimingArtifact back = core::decode_timing_artifact(bytes);
  EXPECT_EQ(core::encode_timing_artifact(back), bytes);
  EXPECT_EQ(back.timing.fmax_mhz, p.timing.timing.fmax_mhz);
  EXPECT_EQ(back.timing.wns_ps, p.timing.timing.wns_ps);
}

TEST(ArtifactCodec, PowerArtifactRoundTripsBitIdentical) {
  const auto& p = payloads();
  const std::string bytes = core::encode_power_artifact(p.power);
  const core::PowerArtifact back = core::decode_power_artifact(bytes);
  EXPECT_EQ(core::encode_power_artifact(back), bytes);
  EXPECT_EQ(back.power.total_uw(), p.power.power.total_uw());
}

TEST(ArtifactCodec, EvalOutcomeRoundTripsBitIdentical) {
  const core::EvalOutcome o = awkward_outcome();
  const std::string bytes = dse::encode_eval_outcome(o);
  const core::EvalOutcome back = dse::decode_eval_outcome(bytes);
  EXPECT_EQ(dse::encode_eval_outcome(back), bytes);
  EXPECT_EQ(back.ppa.fmax_mhz, o.ppa.fmax_mhz);
  EXPECT_EQ(back.ppa.write_fmax_mhz, o.ppa.write_fmax_mhz);
  EXPECT_EQ(back.ppa.power_uw, o.ppa.power_uw);
  EXPECT_EQ(back.ppa.area_um2, o.ppa.area_um2);
  EXPECT_EQ(back.ppa.energy_per_mac_fj, o.ppa.energy_per_mac_fj);
  EXPECT_EQ(back.ppa.tops_1b, o.ppa.tops_1b);
  EXPECT_EQ(back.ppa.latency_cycles, o.ppa.latency_cycles);
  EXPECT_EQ(back.timing.mac_period_ps, o.timing.mac_period_ps);
  EXPECT_EQ(back.timing.ofu_period_ps, o.timing.ofu_period_ps);
  EXPECT_EQ(back.timing.write_period_ps, o.timing.write_period_ps);
  EXPECT_EQ(back.timing.mac_ok, o.timing.mac_ok);
  EXPECT_EQ(back.timing.ofu_ok, o.timing.ofu_ok);
  EXPECT_EQ(back.timing.write_ok, o.timing.write_ok);
}

TEST(ArtifactCodec, DecodersRejectTruncatedAndTrailingBytes) {
  const auto& p = payloads();
  const std::string bytes = core::encode_timing_artifact(p.timing);
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(
        (void)core::decode_timing_artifact(std::string_view(bytes).substr(
            0, cut)),
        core::BinDecodeError)
        << "cut at " << cut;
  }
  EXPECT_THROW((void)core::decode_timing_artifact(bytes + "x"),
               core::BinDecodeError);

  const std::string eval = dse::encode_eval_outcome(awkward_outcome());
  for (std::size_t cut = 0; cut < eval.size(); ++cut) {
    EXPECT_THROW(
        (void)dse::decode_eval_outcome(std::string_view(eval).substr(0, cut)),
        core::BinDecodeError)
        << "eval outcome cut at " << cut;
  }
  EXPECT_THROW((void)dse::decode_eval_outcome(eval + "x"),
               core::BinDecodeError);
}

// ---------------------------------------------------------------------------
// DiskBlobStore object integrity
// ---------------------------------------------------------------------------

TEST(DiskBlobStore, PutGetRoundTripAndIdempotentPut) {
  const std::string root = fresh_root("store_basic");
  core::DiskBlobStore store(root);
  ASSERT_TRUE(store.usable());

  const std::string payload = std::string("hello artifact \0 bytes", 22);
  EXPECT_FALSE(store.get("flats", "k|1").has_value());
  EXPECT_TRUE(store.put("flats", "k|1", payload));
  // Re-putting an existing object is a cheap no-op success (the racing
  // writer of a content-addressed store wrote identical bytes).
  EXPECT_TRUE(store.put("flats", "k|1", payload));
  const auto got = store.get("flats", "k|1");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);

  const core::DiskStoreStats s = store.stats();
  EXPECT_EQ(s.objects_written, 1u);
  EXPECT_EQ(s.objects_read, 1u);
  EXPECT_EQ(s.read_misses, 1u);
  EXPECT_EQ(store.pending_diags(), 0u);

  const auto usage = store.disk_usage();
  EXPECT_EQ(usage.objects, 1u);
  EXPECT_GT(usage.file_bytes, payload.size());  // header + payload
}

TEST(DiskBlobStore, TruncatedObjectIsMissWithDiagAndStoreStaysUsable) {
  const std::string root = fresh_root("store_trunc");
  core::DiskBlobStore store(root);
  ASSERT_TRUE(store.put("timings", "key-a", std::string(256, 'x')));
  ASSERT_TRUE(store.put("timings", "key-b", "intact"));

  const std::string path = store.object_path("timings", "key-a");
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 64);

  EXPECT_FALSE(store.get("timings", "key-a").has_value());
  EXPECT_GE(store.stats().truncated, 1u);
  EXPECT_GE(store.pending_diags(), 1u);
  core::DiagEngine diag;
  store.drain_diags(diag);
  ASSERT_FALSE(diag.diags().empty());
  EXPECT_EQ(diag.diags().front().rule, "CACHE-TRUNC");
  EXPECT_EQ(store.pending_diags(), 0u);

  // The store keeps serving other objects — a bad entry degrades to a
  // recompute, never poisons the store.
  const auto ok = store.get("timings", "key-b");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, "intact");
}

TEST(DiskBlobStore, BitFlippedPayloadIsMissWithCorruptDiag) {
  const std::string root = fresh_root("store_flip");
  core::DiskBlobStore store(root);
  ASSERT_TRUE(store.put("powers", "key-c", std::string(128, 'p')));

  const std::string path = store.object_path("powers", "key-c");
  {
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(-1, std::ios::end);  // last payload byte
    f.put('q');
  }
  EXPECT_FALSE(store.get("powers", "key-c").has_value());
  EXPECT_GE(store.stats().corrupt, 1u);
  core::DiagEngine diag;
  store.drain_diags(diag);
  ASSERT_FALSE(diag.diags().empty());
  EXPECT_EQ(diag.diags().front().rule, "CACHE-CORRUPT");
}

TEST(DiskBlobStore, UnusableRootDegradesToMissesNotCrashes) {
  // A path under a regular file can never become a directory.
  const std::string file = fresh_root("store_notadir");
  { std::ofstream f(file); f << "occupied"; }
  core::DiskBlobStore store(file + "/sub");
  EXPECT_FALSE(store.usable());
  EXPECT_FALSE(store.put("flats", "k", "v"));
  EXPECT_FALSE(store.get("flats", "k").has_value());
  EXPECT_GE(store.stats().write_fails, 1u);
  EXPECT_GE(store.pending_diags(), 1u);
}

TEST(DiskBlobStore, TwoProcessesShareOneStore) {
  const std::string root = fresh_root("store_fork");
  auto payload_for = [](int i) {
    return std::string(64 + i, static_cast<char>('a' + i % 23));
  };
  const int kKeys = 32;

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: its own store handle over the same root, racing the parent
    // on every key (content-addressed => identical bytes per key).
    core::DiskBlobStore child(root);
    bool ok = child.usable();
    for (int i = 0; i < kKeys; ++i) {
      ok = child.put("flats", "key" + std::to_string(i), payload_for(i)) && ok;
    }
    _exit(ok ? 0 : 1);
  }
  core::DiskBlobStore parent(root);
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_TRUE(parent.put("flats", "key" + std::to_string(i),
                           payload_for(i)));
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  for (int i = 0; i < kKeys; ++i) {
    const auto got = parent.get("flats", "key" + std::to_string(i));
    ASSERT_TRUE(got.has_value()) << "key" << i;
    EXPECT_EQ(*got, payload_for(i)) << "key" << i;
  }
  EXPECT_EQ(parent.stats().corrupt, 0u);
  EXPECT_EQ(parent.stats().truncated, 0u);
}

// ---------------------------------------------------------------------------
// ArtifactStore L1/L2 protocol
// ---------------------------------------------------------------------------

TEST(ArtifactStoreL2, FlushThenWarmFindServesDecodedPayload) {
  const std::string root = fresh_root("store_l1l2");
  const auto& p = payloads();
  const std::string key = "flatm1|test-key";

  {
    core::DiskBlobStore disk(root);
    core::ArtifactStore as;
    as.attach_blob_store(&disk);
    (void)as.flats.put(key, p.flat);
    EXPECT_EQ(as.flush_l2(), 1u);
    // A second flush has nothing dirty left.
    EXPECT_EQ(as.flush_l2(), 0u);
  }

  // "Restarted process": fresh L1, same disk root.
  core::DiskBlobStore disk(root);
  core::ArtifactStore as;
  as.attach_blob_store(&disk);
  const auto hit = as.flats.find(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(netlist::encode_flat_netlist(*hit),
            netlist::encode_flat_netlist(p.flat));
  EXPECT_EQ(sum_l2_hits(as.stats()), 1u);
  // L2-served entries are clean: nothing to write back.
  EXPECT_EQ(as.flush_l2(), 0u);
  // Second find is a pure L1 hit.
  ASSERT_NE(as.flats.find(key), nullptr);
  EXPECT_EQ(sum_l2_hits(as.stats()), 1u);
}

TEST(ArtifactStoreL2, CorruptObjectFallsBackToRecompute) {
  const std::string root = fresh_root("store_l2corrupt");
  const auto& p = payloads();
  const std::string key = "flatm1|will-corrupt";

  core::DiskBlobStore disk(root);
  {
    core::ArtifactStore as;
    as.attach_blob_store(&disk);
    (void)as.flats.put(key, p.flat);
    as.flush_l2();
  }
  const std::string path = disk.object_path("flats", key);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-5, std::ios::end);
    f.put('\xff');
  }
  core::DiskBlobStore disk2(root);
  core::ArtifactStore as;
  as.attach_blob_store(&disk2);
  EXPECT_EQ(as.flats.find(key), nullptr);  // miss, not garbage
  bool any_reject_or_miss = false;
  for (const auto& t : as.stats()) {
    any_reject_or_miss =
        any_reject_or_miss || t.l2_rejects > 0 || t.l2_misses > 0;
  }
  EXPECT_TRUE(any_reject_or_miss);
}

// ---------------------------------------------------------------------------
// Warm restarts and sharded sweeps
// ---------------------------------------------------------------------------

TEST(SweepPersistence, WarmRestartIsByteIdenticalAndServedFromL2) {
  const std::string root = fresh_root("sweep_warm");
  const std::vector<core::PerfSpec> specs = {small_spec()};
  dse::SweepOptions opt;
  opt.threads = 2;
  opt.store_dir = root;

  const dse::SweepReport cold = dse::run_sweep(test_library(), specs, opt);
  EXPECT_FALSE(cold.store_json.empty());

  // "Restart": a fresh run_sweep call builds a new private ArtifactStore
  // and a new DiskBlobStore over the same directory.
  const dse::SweepReport warm = dse::run_sweep(test_library(), specs, opt);
  EXPECT_EQ(dse::sweep_frontier_json(warm), dse::sweep_frontier_json(cold));
  EXPECT_GT(sum_l2_hits(warm.artifacts), 0u);
  EXPECT_GT(warm.artifact_hits(), 0u);
  // Every evaluation the cold run computed is served from the store.
  EXPECT_GT(cold.cache.misses, 0u);
  EXPECT_EQ(warm.cache.misses, 0u);
  EXPECT_EQ(warm.cache.loaded, cold.cache.misses);
  EXPECT_EQ(warm.cache.rejected, 0u);

  // And the persisted path changes nothing about the results themselves:
  // a plain in-memory sweep has the same frontier bytes.
  dse::SweepOptions mem;
  mem.threads = 2;
  const dse::SweepReport plain = dse::run_sweep(test_library(), specs, mem);
  EXPECT_EQ(dse::sweep_frontier_json(plain), dse::sweep_frontier_json(cold));
}

TEST(SweepPersistence, UndecodableEvalObjectIsRecomputed) {
  const std::vector<core::PerfSpec> specs = {small_spec()};
  dse::SweepOptions mem;
  mem.threads = 2;
  const dse::SweepReport plain = dse::run_sweep(test_library(), specs, mem);
  ASSERT_FALSE(plain.frontier.empty());

  // Plant junk where the first frontier point's outcome would persist.
  const std::string root = fresh_root("sweep_bad_eval");
  {
    core::DiskBlobStore disk(root);
    const core::DesignPoint& p = plain.frontier.front().point;
    ASSERT_TRUE(disk.put(dse::EvalCache::kStoreTier,
                         dse::eval_store_prefix(test_library()) +
                             dse::eval_key(p.cfg, specs[0]),
                         "not an eval outcome"));
  }
  dse::SweepOptions opt = mem;
  opt.store_dir = root;
  const dse::SweepReport rep = dse::run_sweep(test_library(), specs, opt);
  EXPECT_EQ(rep.cache.rejected, 1u);
  EXPECT_EQ(rep.cache.loaded, 0u);
  EXPECT_EQ(rep.cache.misses, plain.cache.misses)
      << "the rejected outcome must be recomputed, like every other";
  EXPECT_EQ(dse::sweep_frontier_json(rep), dse::sweep_frontier_json(plain));
}

TEST(SweepPersistence, StoreFromAnotherLibraryServesNoEvals) {
  tech::TechNode node = tech::make_default_40nm();
  node.unit_leak_nw *= 1.5;
  const cell::Library other = cell::characterize_default_library(node);
  ASSERT_NE(other.fingerprint(), test_library().fingerprint());

  const std::string root = fresh_root("sweep_other_lib");
  const std::vector<core::PerfSpec> specs = {small_spec()};
  dse::SweepOptions opt;
  opt.threads = 2;
  opt.store_dir = root;
  const dse::SweepReport filled = dse::run_sweep(other, specs, opt);
  EXPECT_GT(filled.cache.misses, 0u);

  const dse::SweepReport rep = dse::run_sweep(test_library(), specs, opt);
  EXPECT_EQ(rep.cache.loaded, 0u);
  EXPECT_EQ(rep.cache.rejected, 0u);
  EXPECT_GT(rep.cache.misses, 0u);
}

TEST(SweepPersistence, UnusableStoreDirStillCompletesAndIsDiagnosed) {
  const std::vector<core::PerfSpec> specs = {small_spec()};
  dse::SweepOptions mem;
  mem.threads = 2;
  const dse::SweepReport plain = dse::run_sweep(test_library(), specs, mem);

  // A store root that is a regular file cannot hold objects/: every get
  // misses and every put fails.
  const std::string file = fresh_root("not_a_dir");
  { std::ofstream f(file); f << "occupied"; }
  dse::SweepOptions opt = mem;
  opt.store_dir = file;
  core::DiagEngine diag;
  opt.diag = &diag;

  const dse::SweepReport rep = dse::run_sweep(test_library(), specs, opt);
  EXPECT_EQ(dse::sweep_frontier_json(rep), dse::sweep_frontier_json(plain));
  EXPECT_EQ(rep.cache.loaded, 0u);
  // Each computed outcome's write-through failed, and so did the flush.
  EXPECT_GT(rep.cache.misses, 0u);
  EXPECT_GT(store_write_fails(rep.store_json), rep.cache.misses);
  bool found = false;
  for (const auto& d : diag.diags()) {
    found = found || d.rule.rfind("CACHE-", 0) == 0;
  }
  EXPECT_TRUE(found);
}

TEST(ShardedSweep, ShardOwnsPartitionsExactly) {
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    for (std::size_t i = 0; i < 12; ++i) {
      std::size_t owners = 0;
      for (std::size_t s = 0; s < n; ++s) {
        owners += dse::shard_owns(i, s, n) ? 1 : 0;
      }
      EXPECT_EQ(owners, 1u) << "spec " << i << " shards " << n;
    }
  }
}

TEST(ShardedSweep, TwoShardsMergeByteIdenticalToSingleProcess) {
  const std::string store = fresh_root("shard_store");
  dse::SweepGrid grid;
  grid.base = small_spec();
  grid.mac_freqs_mhz = {250.0, 400.0};
  const std::vector<core::PerfSpec> specs = grid.expand();
  ASSERT_EQ(specs.size(), 2u);

  // Single-process reference (lints its frontier).
  dse::SweepOptions ref;
  ref.threads = 2;
  const dse::SweepReport whole = dse::run_sweep(test_library(), specs, ref);
  const std::string want = dse::sweep_frontier_json(whole);

  // Two shard "processes" over a shared store dir.
  std::vector<std::string> files;
  for (std::size_t sh = 0; sh < 2; ++sh) {
    dse::SweepOptions opt;
    opt.threads = 2;
    opt.store_dir = store;
    opt.shard_index = sh;
    opt.shard_count = 2;
    opt.lint_frontier = false;  // the merge lints the real frontier
    const dse::SweepReport rep = dse::run_sweep(test_library(), specs, opt);
    // Unowned slots stay empty, owned slots keep their global index.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const bool owned = dse::shard_owns(i, sh, 2);
      EXPECT_EQ(!rep.per_spec[i].result.explored.empty(), owned)
          << "shard " << sh << " spec " << i;
    }
    const dse::ShardResult sr = dse::make_shard_result(specs, rep, sh, 2);
    EXPECT_EQ(sr.owned.size(), 1u);
    const std::string path =
        store + "/shard" + std::to_string(sh) + ".bin";
    ASSERT_TRUE(dse::write_shard_file(path, sr));
    files.push_back(path);
  }

  core::DiagEngine diag;
  dse::MergeOptions mopt;
  mopt.store_dir = store;  // merge lint reads through the shared store
  mopt.diag = &diag;
  const dse::SweepReport merged =
      dse::merge_shards(test_library(), files, mopt);
  EXPECT_EQ(dse::sweep_frontier_json(merged), want);

  // Shard-file round trip is bit-exact too.
  const dse::ShardResult back = dse::read_shard_file(files[0]);
  EXPECT_EQ(dse::encode_shard_result(back),
            dse::encode_shard_result(dse::read_shard_file(files[0])));
  EXPECT_EQ(back.shard_count, 2u);
  EXPECT_EQ(back.specs.size(), specs.size());
}

TEST(ShardedSweep, MergeRejectsInconsistentShardSets) {
  const std::string root = fresh_root("shard_bad");
  std::filesystem::create_directories(root);
  dse::SweepGrid grid;
  grid.base = small_spec();
  const std::vector<core::PerfSpec> specs = grid.expand();

  dse::SweepOptions opt;
  opt.threads = 1;
  opt.shard_index = 0;
  opt.shard_count = 2;
  opt.lint_frontier = false;
  const dse::SweepReport rep = dse::run_sweep(test_library(), specs, opt);
  const dse::ShardResult sr = dse::make_shard_result(specs, rep, 0, 2);
  const std::string path = root + "/only0.bin";
  ASSERT_TRUE(dse::write_shard_file(path, sr));

  // Missing shard 1: merge must refuse rather than silently produce a
  // partial frontier.
  EXPECT_THROW((void)dse::merge_shards(test_library(), {path}, {}),
               std::invalid_argument);
  // Duplicate shard 0 is inconsistent too.
  EXPECT_THROW((void)dse::merge_shards(test_library(), {path, path}, {}),
               std::invalid_argument);
  // A malformed file fails loudly, not as an empty merge.
  const std::string junk = root + "/junk.bin";
  { std::ofstream f(junk, std::ios::binary); f << "not a shard file"; }
  EXPECT_THROW((void)dse::merge_shards(test_library(), {junk}, {}),
               std::exception);
}
