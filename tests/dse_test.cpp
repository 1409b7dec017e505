// Unit + determinism tests of the src/dse subsystem: config/spec hashing,
// evaluation-cache accounting and persistence, the work-stealing pool,
// and search/sweep reproducibility across runs and thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cell/characterize.hpp"
#include "core/diskstore.hpp"
#include "core/searcher.hpp"
#include "dse/eval_cache.hpp"
#include "dse/pool.hpp"
#include "dse/sweep.hpp"
#include "tech/tech_node.hpp"

using namespace syndcim;

namespace {

const cell::Library& test_library() {
  static const cell::Library lib =
      cell::characterize_default_library(tech::make_default_40nm());
  return lib;
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

void expect_same_points(const std::vector<core::DesignPoint>& a,
                        const std::vector<core::DesignPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label) << "point " << i;
    EXPECT_EQ(a[i].applied, b[i].applied) << "point " << i;
    EXPECT_EQ(a[i].feasible, b[i].feasible) << "point " << i;
    EXPECT_EQ(a[i].ppa.power_uw, b[i].ppa.power_uw) << "point " << i;
    EXPECT_EQ(a[i].ppa.area_um2, b[i].ppa.area_um2) << "point " << i;
    EXPECT_EQ(a[i].ppa.fmax_mhz, b[i].ppa.fmax_mhz) << "point " << i;
    EXPECT_EQ(dse::hash_config(a[i].cfg), dse::hash_config(b[i].cfg))
        << "point " << i;
  }
}

/// Bit-for-bit equality of two evaluation outcomes.
void expect_same_outcome(const core::EvalOutcome& a,
                         const core::EvalOutcome& b, const std::string& at) {
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  EXPECT_EQ(bits(a.ppa.fmax_mhz), bits(b.ppa.fmax_mhz)) << at;
  EXPECT_EQ(bits(a.ppa.write_fmax_mhz), bits(b.ppa.write_fmax_mhz)) << at;
  EXPECT_EQ(bits(a.ppa.power_uw), bits(b.ppa.power_uw)) << at;
  EXPECT_EQ(bits(a.ppa.area_um2), bits(b.ppa.area_um2)) << at;
  EXPECT_EQ(bits(a.ppa.energy_per_mac_fj), bits(b.ppa.energy_per_mac_fj))
      << at;
  EXPECT_EQ(a.ppa.latency_cycles, b.ppa.latency_cycles) << at;
  EXPECT_EQ(bits(a.ppa.tops_1b), bits(b.ppa.tops_1b)) << at;
  EXPECT_EQ(bits(a.timing.mac_period_ps), bits(b.timing.mac_period_ps))
      << at;
  EXPECT_EQ(bits(a.timing.ofu_period_ps), bits(b.timing.ofu_period_ps))
      << at;
  EXPECT_EQ(bits(a.timing.write_period_ps), bits(b.timing.write_period_ps))
      << at;
  EXPECT_EQ(a.timing.mac_ok, b.timing.mac_ok) << at;
  EXPECT_EQ(a.timing.ofu_ok, b.timing.ofu_ok) << at;
  EXPECT_EQ(a.timing.write_ok, b.timing.write_ok) << at;
}

/// Deterministic synthetic backend: derives an outcome from the config
/// hash and counts invocations (to observe memoization).
class CountingBackend final : public core::EvalBackend {
 public:
  core::EvalOutcome evaluate(const rtlgen::MacroConfig& cfg,
                             const core::PerfSpec& spec) override {
    calls.fetch_add(1, std::memory_order_relaxed);
    const double h =
        static_cast<double>(dse::hash_config(cfg) % 100000u) + spec.vdd;
    core::EvalOutcome o;
    o.ppa.power_uw = h;
    o.ppa.area_um2 = h * 2.0;
    o.ppa.fmax_mhz = spec.mac_freq_mhz + 100.0;
    o.timing.mac_ok = o.timing.ofu_ok = o.timing.write_ok = true;
    return o;
  }
  std::atomic<int> calls{0};
};

}  // namespace

TEST(ConfigHash, EqualConfigsHashEqual) {
  const core::PerfSpec spec = small_spec();
  const rtlgen::MacroConfig a = spec.base_config();
  const rtlgen::MacroConfig b = spec.base_config();
  EXPECT_EQ(dse::canonical_config_key(a), dse::canonical_config_key(b));
  EXPECT_EQ(dse::hash_config(a), dse::hash_config(b));
}

TEST(ConfigHash, EveryFieldFlipChangesHash) {
  const rtlgen::MacroConfig base = small_spec().base_config();
  using Mutator = void (*)(rtlgen::MacroConfig&);
  const std::vector<std::pair<const char*, Mutator>> mutators = {
      {"rows", [](rtlgen::MacroConfig& c) { c.rows *= 2; }},
      {"cols", [](rtlgen::MacroConfig& c) { c.cols *= 2; }},
      {"mcr", [](rtlgen::MacroConfig& c) { c.mcr += 1; }},
      {"input_bits", [](rtlgen::MacroConfig& c) { c.input_bits = {8}; }},
      {"weight_bits", [](rtlgen::MacroConfig& c) { c.weight_bits = {8}; }},
      {"fp_formats",
       [](rtlgen::MacroConfig& c) { c.fp_formats = {num::kFp8}; }},
      {"fp_guard_bits", [](rtlgen::MacroConfig& c) { c.fp_guard_bits++; }},
      {"bitcell",
       [](rtlgen::MacroConfig& c) { c.bitcell = rtlgen::BitcellKind::k8T; }},
      {"mux",
       [](rtlgen::MacroConfig& c) {
         c.mux = rtlgen::MuxStyle::kPassGate1T;
       }},
      {"tree.style",
       [](rtlgen::MacroConfig& c) {
         c.tree.style = rtlgen::AdderTreeStyle::kRcaTree;
       }},
      {"tree.fa_fraction",
       [](rtlgen::MacroConfig& c) { c.tree.fa_fraction += 0.25; }},
      {"tree.carry_reorder",
       [](rtlgen::MacroConfig& c) {
         c.tree.carry_reorder = !c.tree.carry_reorder;
       }},
      {"tree.external_cpa",
       [](rtlgen::MacroConfig& c) {
         c.tree.external_cpa = !c.tree.external_cpa;
       }},
      {"pipe.reg_after_tree",
       [](rtlgen::MacroConfig& c) {
         c.pipe.reg_after_tree = !c.pipe.reg_after_tree;
       }},
      {"pipe.retime_tree_cpa",
       [](rtlgen::MacroConfig& c) {
         c.pipe.retime_tree_cpa = !c.pipe.retime_tree_cpa;
       }},
      {"ofu.input_reg",
       [](rtlgen::MacroConfig& c) { c.ofu.input_reg = !c.ofu.input_reg; }},
      {"ofu.pipeline_regs",
       [](rtlgen::MacroConfig& c) { c.ofu.pipeline_regs++; }},
      {"ofu.retime_stage1",
       [](rtlgen::MacroConfig& c) {
         c.ofu.retime_stage1 = !c.ofu.retime_stage1;
       }},
      {"column_split", [](rtlgen::MacroConfig& c) { c.column_split *= 2; }},
  };
  for (const auto& [name, mutate] : mutators) {
    rtlgen::MacroConfig m = base;
    mutate(m);
    EXPECT_NE(dse::hash_config(base), dse::hash_config(m))
        << "flipping " << name << " must change the hash";
  }
}

TEST(ConfigHash, SpecKnobsCoverTimingButNotPreference) {
  const core::PerfSpec base = small_spec();
  core::PerfSpec pref = base;
  pref.pref.power = 99.0;  // selection-only: must share cache entries
  EXPECT_EQ(dse::hash_spec_knobs(base), dse::hash_spec_knobs(pref));

  core::PerfSpec freq = base;
  freq.mac_freq_mhz += 50.0;
  EXPECT_NE(dse::hash_spec_knobs(base), dse::hash_spec_knobs(freq));
  core::PerfSpec wfreq = base;
  wfreq.wupdate_freq_mhz += 50.0;
  EXPECT_NE(dse::hash_spec_knobs(base), dse::hash_spec_knobs(wfreq));
  core::PerfSpec vdd = base;
  vdd.vdd += 0.1;
  EXPECT_NE(dse::hash_spec_knobs(base), dse::hash_spec_knobs(vdd));
  core::PerfSpec margin = base;
  margin.timing_margin += 0.05;
  EXPECT_NE(dse::hash_spec_knobs(base), dse::hash_spec_knobs(margin));
}

TEST(EvalCache, HitMissAccounting) {
  CountingBackend inner;
  dse::EvalCache cache;
  dse::CachedEvalBackend cached(inner, cache);
  const core::PerfSpec spec = small_spec();
  const rtlgen::MacroConfig cfg = spec.base_config();

  const core::EvalOutcome first = cached.evaluate(cfg, spec);
  EXPECT_EQ(inner.calls.load(), 1);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  const core::EvalOutcome second = cached.evaluate(cfg, spec);
  EXPECT_EQ(inner.calls.load(), 1) << "second evaluation must be memoized";
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(first.ppa.power_uw, second.ppa.power_uw);

  // Preference-only spec change shares the entry; timing change misses.
  core::PerfSpec pref = spec;
  pref.pref.area = 42.0;
  (void)cached.evaluate(cfg, pref);
  EXPECT_EQ(inner.calls.load(), 1);
  EXPECT_EQ(cache.stats().hits, 2u);

  core::PerfSpec faster = spec;
  faster.mac_freq_mhz += 100.0;
  (void)cached.evaluate(cfg, faster);
  EXPECT_EQ(inner.calls.load(), 2);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_GE(cache.stats().miss_eval_ms, 0.0);
}

namespace {

/// Empty scratch root for one test's disk store.
std::string fresh_store(const std::string& name) {
  const std::string root = ::testing::TempDir() + "syndcim_evalcache_" + name;
  std::filesystem::remove_all(root);
  return root;
}

core::EvalOutcome sample_outcome(double power) {
  core::EvalOutcome o;
  o.ppa.fmax_mhz = 400.0;
  o.ppa.power_uw = power;
  o.ppa.area_um2 = 1234.5;
  o.ppa.latency_cycles = 3;
  o.timing.mac_ok = true;
  return o;
}

}  // namespace

TEST(EvalCache, DiskRoundTrip) {
  // Outcomes written through one cache are served bit-exact, without
  // recomputing, to a fresh cache over a fresh store on the same root —
  // what a later process sees.
  const std::string root = fresh_store("roundtrip");
  const std::string prefix = dse::eval_store_prefix(test_library());
  core::EvalOutcome o1;
  o1.ppa.fmax_mhz = 1.0 / 3.0;  // not exactly representable in decimal
  o1.ppa.write_fmax_mhz = 123.456789;
  o1.ppa.power_uw = 1e-30;
  o1.ppa.area_um2 = 98765.4321;
  o1.ppa.energy_per_mac_fj = 2.5e17;
  o1.ppa.tops_1b = 0.0625;
  o1.ppa.latency_cycles = 7;
  o1.timing.mac_period_ps = 3333.333333333;
  o1.timing.ofu_period_ps = 1.7e-4;
  o1.timing.write_period_ps = 250.0;
  o1.timing.mac_ok = true;
  o1.timing.ofu_ok = false;
  o1.timing.write_ok = true;
  core::EvalOutcome o2 = o1;
  o2.ppa.power_uw = 77.0;
  o2.timing.mac_ok = false;
  {
    core::DiskBlobStore disk(root);
    dse::EvalCache cache;
    cache.attach_blob_store(&disk, prefix);
    (void)cache.get_or_compute("cfg{alpha}|spec{a}", [&] { return o1; });
    (void)cache.get_or_compute("cfg{beta}|spec{b}", [&] { return o2; });
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(disk.stats().objects_written, 2u);
  }

  core::DiskBlobStore disk(root);
  dse::EvalCache loaded;
  loaded.attach_blob_store(&disk, prefix);
  int computed = 0;
  const auto recompute = [&] {
    ++computed;
    return core::EvalOutcome{};
  };
  expect_same_outcome(loaded.get_or_compute("cfg{alpha}|spec{a}", recompute),
                      o1, "alpha");
  expect_same_outcome(loaded.get_or_compute("cfg{beta}|spec{b}", recompute),
                      o2, "beta");
  EXPECT_EQ(computed, 0);
  dse::EvalCacheStats st = loaded.stats();
  EXPECT_EQ(st.loaded, 2u);
  EXPECT_EQ(st.hits, 2u);
  EXPECT_EQ(st.misses, 0u);
  EXPECT_EQ(st.entries, 2u);

  // A repeat is served from memory, not read from the store again.
  (void)loaded.get_or_compute("cfg{alpha}|spec{a}", recompute);
  EXPECT_EQ(loaded.stats().loaded, 2u);
  EXPECT_EQ(disk.stats().objects_read, 2u);

  // A key the store never saw is a plain miss, as is a stored key under
  // another library's prefix.
  (void)loaded.get_or_compute("cfg{gamma}|spec{c}", recompute);
  dse::EvalCache other;
  other.attach_blob_store(&disk, "eval1|another-library|");
  (void)other.get_or_compute("cfg{alpha}|spec{a}", recompute);
  EXPECT_EQ(computed, 2);
  st = loaded.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.loaded, 2u);
  EXPECT_EQ(other.stats().loaded, 0u);
  EXPECT_EQ(other.stats().rejected, 0u);
  std::filesystem::remove_all(root);
}

TEST(EvalCache, CorruptedEntryIsRejectedAndCountedNotInstalled) {
  const std::string root = fresh_store("corrupt");
  const std::string prefix = dse::eval_store_prefix(test_library());
  core::DiskBlobStore disk(root);
  // The victim's stored bytes are not an eval outcome; its neighbours'
  // are written through a cache.
  ASSERT_TRUE(disk.put(dse::EvalCache::kStoreTier,
                       prefix + "cfg{victim}|spec{x}", "banana"));
  {
    dse::EvalCache cache;
    cache.attach_blob_store(&disk, prefix);
    (void)cache.get_or_compute("cfg{good1}|spec{x}",
                               [] { return sample_outcome(1.0); });
    (void)cache.get_or_compute("cfg{good2}|spec{x}",
                               [] { return sample_outcome(3.0); });
  }

  dse::EvalCache loaded;
  loaded.attach_blob_store(&disk, prefix);
  int computed = 0;
  const auto recompute = [&] {
    ++computed;
    return sample_outcome(20.0);
  };
  EXPECT_EQ(loaded.get_or_compute("cfg{good1}|spec{x}", recompute)
                .ppa.power_uw,
            1.0);
  EXPECT_EQ(loaded.get_or_compute("cfg{victim}|spec{x}", recompute)
                .ppa.power_uw,
            20.0)
      << "an undecodable stored outcome must be recomputed, not installed";
  EXPECT_EQ(loaded.get_or_compute("cfg{good2}|spec{x}", recompute)
                .ppa.power_uw,
            3.0);
  EXPECT_EQ(computed, 1);
  const dse::EvalCacheStats st = loaded.stats();
  EXPECT_EQ(st.loaded, 2u);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.hits, 2u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.entries, 3u);
  std::filesystem::remove_all(root);
}

TEST(EvalCache, TruncatedEntriesNeverInstallGarbage) {
  const std::string root = fresh_store("truncate");
  const std::string prefix = dse::eval_store_prefix(test_library());
  const std::string payload = dse::encode_eval_outcome(sample_outcome(7.5));
  int computed = 0;
  const auto recompute = [&] {
    ++computed;
    return sample_outcome(-1.0);
  };

  // Every proper prefix of a stored payload is rejected and recomputed.
  {
    core::DiskBlobStore disk(root);
    dse::EvalCache cache;
    cache.attach_blob_store(&disk, prefix);
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      const std::string key = "cfg{cut" + std::to_string(cut) + "}|spec{x}";
      ASSERT_TRUE(disk.put(dse::EvalCache::kStoreTier, prefix + key,
                           payload.substr(0, cut)));
      EXPECT_EQ(cache.get_or_compute(key, recompute).ppa.power_uw, -1.0)
          << "cut=" << cut;
    }
    EXPECT_EQ(cache.stats().rejected, payload.size());
    EXPECT_EQ(cache.stats().loaded, 0u);
    EXPECT_EQ(computed, static_cast<int>(payload.size()));
  }

  // A torn object file on disk is skipped by the store (CACHE-TRUNC), so
  // the cache sees a miss and recomputes; the whole file loads.
  const std::string key = "cfg{only}|spec{x}";
  std::string object;
  std::string path;
  {
    core::DiskBlobStore disk(root);
    dse::EvalCache cache;
    cache.attach_blob_store(&disk, prefix);
    (void)cache.get_or_compute(key, [] { return sample_outcome(7.5); });
    path = disk.object_path(dse::EvalCache::kStoreTier, prefix + key);
    std::ifstream in(path, std::ios::binary);
    object.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(object.size(), payload.size());
  for (std::size_t cut = 0; cut < object.size(); cut += 7) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(object.data(), static_cast<std::streamsize>(cut));
    }
    core::DiskBlobStore disk(root);
    dse::EvalCache cache;
    cache.attach_blob_store(&disk, prefix);
    computed = 0;
    EXPECT_EQ(cache.get_or_compute(key, recompute).ppa.power_uw, -1.0)
        << "cut=" << cut;
    EXPECT_EQ(computed, 1) << "cut=" << cut;
    EXPECT_EQ(cache.stats().loaded, 0u) << "cut=" << cut;
    core::DiagEngine diag;
    disk.drain_diags(diag);
    EXPECT_EQ(diag.count_rule("CACHE-TRUNC"), 1u) << "cut=" << cut;
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(object.data(), static_cast<std::streamsize>(object.size()));
  }
  core::DiskBlobStore disk(root);
  dse::EvalCache cache;
  cache.attach_blob_store(&disk, prefix);
  EXPECT_EQ(cache.get_or_compute(key, recompute).ppa.power_uw, 7.5);
  EXPECT_EQ(cache.stats().loaded, 1u);
  std::filesystem::remove_all(root);
}

TEST(WorkStealingPool, ExecutesEverySubmittedTask) {
  dse::WorkStealingPool pool(4);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    pool.submit([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 5050);
  EXPECT_EQ(pool.stats().executed, 100u);
  EXPECT_EQ(pool.stats().threads, 4);
}

TEST(WorkStealingPool, TasksMaySpawnTasks) {
  dse::WorkStealingPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&pool, &count] {
      count.fetch_add(1, std::memory_order_relaxed);
      pool.submit(
          [&count] { count.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 20);
}

TEST(WorkStealingPool, ParallelForCoversRange) {
  dse::WorkStealingPool pool(2);
  std::vector<int> hit(57, 0);
  dse::parallel_for(pool, hit.size(), [&hit](std::size_t i) { hit[i] = 1; });
  for (std::size_t i = 0; i < hit.size(); ++i) {
    EXPECT_EQ(hit[i], 1) << "index " << i;
  }
}

TEST(SearchDeterminism, RepeatedSearchesAreIdentical) {
  core::SubcircuitLibrary scl(test_library());
  core::MsoSearcher searcher(scl);
  const core::PerfSpec spec = small_spec();
  const core::SearchResult a = searcher.search(spec);
  const core::SearchResult b = searcher.search(spec);
  EXPECT_FALSE(a.explored.empty());
  expect_same_points(a.explored, b.explored);
  expect_same_points(a.pareto, b.pareto);
  EXPECT_EQ(a.log, b.log);
}

TEST(SearchDeterminism, TrajectoryFragmentsReproduceSearch) {
  core::SubcircuitLibrary scl(test_library());
  core::MsoSearcher searcher(scl);
  const core::PerfSpec spec = small_spec();
  const core::SearchResult whole = searcher.search(spec);

  core::SearchResult stitched;
  for (const core::TrajectorySeed& seed :
       core::MsoSearcher::trajectory_seeds(spec)) {
    stitched.append(searcher.run_trajectory(seed, spec));
  }
  stitched.pareto = core::pareto_front(stitched.explored);
  expect_same_points(whole.explored, stitched.explored);
  expect_same_points(whole.pareto, stitched.pareto);
}

TEST(SweepDeterminism, ThreadCountDoesNotChangeTheFrontier) {
  dse::SweepGrid grid;
  grid.base = small_spec();
  grid.mac_freqs_mhz = {250.0, 400.0};
  grid.prefs = {{1.0, 1.0, 0.0}, {2.0, 0.5, 0.0}};
  const std::vector<core::PerfSpec> specs = grid.expand();
  ASSERT_EQ(specs.size(), 4u);

  dse::SweepOptions seq;
  seq.threads = 1;
  dse::SweepOptions par;
  par.threads = 4;
  const dse::SweepReport a = dse::run_sweep(test_library(), specs, seq);
  const dse::SweepReport b = dse::run_sweep(test_library(), specs, par);

  EXPECT_FALSE(a.frontier.empty());
  EXPECT_EQ(dse::sweep_frontier_json(a), dse::sweep_frontier_json(b));
  ASSERT_EQ(a.per_spec.size(), b.per_spec.size());
  for (std::size_t i = 0; i < a.per_spec.size(); ++i) {
    expect_same_points(a.per_spec[i].result.explored,
                       b.per_spec[i].result.explored);
    expect_same_points(a.per_spec[i].result.pareto,
                       b.per_spec[i].result.pareto);
  }
}

TEST(SweepDeterminism, CacheDoesNotChangeResultsAndGetsHits) {
  dse::SweepGrid grid;
  grid.base = small_spec();
  grid.prefs = {{1.0, 1.0, 0.0}, {2.0, 0.5, 0.0}};  // knob-identical pair
  const std::vector<core::PerfSpec> specs = grid.expand();
  ASSERT_EQ(specs.size(), 2u);

  // Uncached reference: one plain search per spec straight on the SCL,
  // reduced and linted by the same global-frontier code as the sweep.
  dse::SweepReport a;
  {
    core::SubcircuitLibrary scl(test_library());
    for (const core::PerfSpec& spec : specs) {
      a.per_spec.push_back({spec, core::MsoSearcher(scl).search(spec)});
    }
    a.frontier = dse::merge_global_frontier(a.per_spec);
    core::ArtifactStore store;
    dse::lint_frontier_points(test_library(), a.frontier, store);
  }

  dse::SweepOptions cached;
  cached.threads = 2;
  cached.store_dir = ::testing::TempDir() + "syndcim_dse_sweep_store";
  std::filesystem::remove_all(cached.store_dir);
  const dse::SweepReport b = dse::run_sweep(test_library(), specs, cached);

  EXPECT_EQ(dse::sweep_frontier_json(a), dse::sweep_frontier_json(b));
  EXPECT_GT(b.cache.hits, 0u)
      << "the preference-duplicated spec must hit the shared cache";

  // A second run warm-starts from the store the first one wrote, and its
  // report counts every outcome served from it.
  const dse::SweepReport c = dse::run_sweep(test_library(), specs, cached);
  std::filesystem::remove_all(cached.store_dir);
  EXPECT_EQ(dse::sweep_frontier_json(c), dse::sweep_frontier_json(a));
  EXPECT_EQ(c.cache.loaded, b.cache.entries);
  EXPECT_EQ(c.cache.misses, 0u);
}

TEST(SweepConcurrency, SharedSclBackendMatchesOneThread) {
  // Configurations sharing a slice key differ only in `cols`; two slice
  // keys, each under two specs, so threads collide on every stage tier.
  std::vector<rtlgen::MacroConfig> cfgs;
  for (const double fa : {0.0, 1.0}) {
    for (const int cols : {16, 32, 64}) {
      rtlgen::MacroConfig cfg = small_spec().base_config();
      cfg.tree.fa_fraction = fa;
      cfg.cols = cols;
      cfgs.push_back(cfg);
    }
  }
  core::PerfSpec fast = small_spec();
  fast.mac_freq_mhz = 450.0;
  fast.vdd = 0.8;
  const std::vector<core::PerfSpec> specs = {small_spec(), fast};
  struct Job {
    const rtlgen::MacroConfig* cfg;
    const core::PerfSpec* spec;
  };
  std::vector<Job> jobs;
  for (const core::PerfSpec& spec : specs) {
    for (const rtlgen::MacroConfig& cfg : cfgs) jobs.push_back({&cfg, &spec});
  }

  std::vector<core::EvalOutcome> want;
  {
    core::SubcircuitLibrary scl(test_library());
    core::SclEvalBackend backend(scl);
    for (const Job& j : jobs) want.push_back(backend.evaluate(*j.cfg, *j.spec));
  }

  // Every thread walks the whole list from a different offset.
  constexpr std::size_t kThreads = 4;
  core::SubcircuitLibrary scl(test_library());
  core::SclEvalBackend backend(scl);
  std::vector<std::vector<core::EvalOutcome>> got(
      kThreads, std::vector<core::EvalOutcome>(jobs.size()));
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t k = 0; k < jobs.size(); ++k) {
        const std::size_t i = (k + t * jobs.size() / kThreads) % jobs.size();
        got[t][i] = backend.evaluate(*jobs[i].cfg, *jobs[i].spec);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      expect_same_outcome(want[i], got[t][i],
                          "thread " + std::to_string(t) + " job " +
                              std::to_string(i));
    }
  }
}

TEST(SweepDeterminism, MatchesSequentialSearcher) {
  const core::PerfSpec spec = small_spec();
  core::SubcircuitLibrary scl(test_library());
  core::MsoSearcher searcher(scl);
  const core::SearchResult direct = searcher.search(spec);

  dse::SweepOptions opt;
  opt.threads = 3;
  const dse::SweepReport rep = dse::run_sweep(test_library(), {spec}, opt);
  ASSERT_EQ(rep.per_spec.size(), 1u);
  expect_same_points(direct.explored, rep.per_spec[0].result.explored);
  expect_same_points(direct.pareto, rep.per_spec[0].result.pareto);
}
