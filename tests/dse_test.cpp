// Unit + determinism tests of the src/dse subsystem: config/spec hashing,
// evaluation-cache accounting and persistence, the work-stealing pool,
// and search/sweep reproducibility across runs and thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cell/characterize.hpp"
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

TEST(EvalCache, DiskRoundTrip) {
  const std::string path = "dse_cache_roundtrip_test.json";
  std::remove(path.c_str());

  dse::EvalCache cache;
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
  cache.insert("cfg{alpha}|spec{a}", o1);
  cache.insert("cfg{beta}|spec{b}", o2);
  ASSERT_TRUE(cache.save_json(path));

  dse::EvalCache loaded;
  ASSERT_EQ(loaded.load_json(path), 2u);
  EXPECT_EQ(loaded.stats().loaded, 2u);
  const auto r1 = loaded.lookup("cfg{alpha}|spec{a}");
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->ppa.fmax_mhz, o1.ppa.fmax_mhz);
  EXPECT_EQ(r1->ppa.write_fmax_mhz, o1.ppa.write_fmax_mhz);
  EXPECT_EQ(r1->ppa.power_uw, o1.ppa.power_uw);
  EXPECT_EQ(r1->ppa.area_um2, o1.ppa.area_um2);
  EXPECT_EQ(r1->ppa.energy_per_mac_fj, o1.ppa.energy_per_mac_fj);
  EXPECT_EQ(r1->ppa.tops_1b, o1.ppa.tops_1b);
  EXPECT_EQ(r1->ppa.latency_cycles, o1.ppa.latency_cycles);
  EXPECT_EQ(r1->timing.mac_period_ps, o1.timing.mac_period_ps);
  EXPECT_EQ(r1->timing.ofu_period_ps, o1.timing.ofu_period_ps);
  EXPECT_EQ(r1->timing.write_period_ps, o1.timing.write_period_ps);
  EXPECT_EQ(r1->timing.mac_ok, o1.timing.mac_ok);
  EXPECT_EQ(r1->timing.ofu_ok, o1.timing.ofu_ok);
  EXPECT_EQ(r1->timing.write_ok, o1.timing.write_ok);
  const auto r2 = loaded.lookup("cfg{beta}|spec{b}");
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->ppa.power_uw, o2.ppa.power_uw);
  EXPECT_FALSE(r2->timing.mac_ok);

  EXPECT_EQ(dse::EvalCache{}.load_json("does_not_exist.json"), 0u);
  std::remove(path.c_str());
}

namespace {

core::EvalOutcome sample_outcome(double power) {
  core::EvalOutcome o;
  o.ppa.fmax_mhz = 400.0;
  o.ppa.power_uw = power;
  o.ppa.area_um2 = 1234.5;
  o.ppa.latency_cycles = 3;
  o.timing.mac_ok = true;
  return o;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
}

}  // namespace

TEST(EvalCache, CorruptedEntryIsRejectedAndCountedNotInstalled) {
  const std::string path = "dse_cache_corrupt_test.json";
  std::remove(path.c_str());
  dse::EvalCache cache;
  cache.insert("cfg{good1}|spec{x}", sample_outcome(1.0));
  cache.insert("cfg{victim}|spec{x}", sample_outcome(2.0));
  cache.insert("cfg{good2}|spec{x}", sample_outcome(3.0));
  ASSERT_TRUE(cache.save_json(path));

  // Mangle the first PPA number of the victim entry only.
  std::string text = slurp(path);
  const std::size_t at = text.find("cfg{victim}|spec{x}");
  ASSERT_NE(at, std::string::npos);
  const std::size_t vbegin = text.find("\"ppa\": [\"", at) + 9;
  const std::size_t vend = text.find('"', vbegin);
  text.replace(vbegin, vend - vbegin, "banana");
  spit(path, text);

  dse::EvalCache loaded;
  core::DiagEngine diag;
  EXPECT_EQ(loaded.load_json(path, &diag), 2u);
  const dse::EvalCacheStats st = loaded.stats();
  EXPECT_EQ(st.loaded, 2u);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_GE(diag.count_rule("CACHE-BADENTRY"), 1u);
  EXPECT_FALSE(loaded.lookup("cfg{victim}|spec{x}").has_value());
  EXPECT_TRUE(loaded.lookup("cfg{good1}|spec{x}").has_value());
  EXPECT_TRUE(loaded.lookup("cfg{good2}|spec{x}").has_value());
  std::remove(path.c_str());
}

TEST(EvalCache, TruncatedEntriesNeverInstallGarbage) {
  // Fuzz-ish: chop the persisted file at many points; whatever loads must
  // be an entry that round-trips exactly, never a half-parsed one.
  const std::string path = "dse_cache_truncate_test.json";
  std::remove(path.c_str());
  dse::EvalCache cache;
  cache.insert("cfg{only}|spec{x}", sample_outcome(7.5));
  ASSERT_TRUE(cache.save_json(path));
  const std::string text = slurp(path);

  for (long cut = static_cast<long>(text.size()) - 1; cut > 0; cut -= 17) {
    spit(path, text.substr(0, static_cast<std::size_t>(cut)));
    dse::EvalCache loaded;
    const std::size_t n = loaded.load_json(path);
    if (n == 1) {
      const auto r = loaded.lookup("cfg{only}|spec{x}");
      ASSERT_TRUE(r.has_value());
      EXPECT_EQ(r->ppa.power_uw, 7.5);
      EXPECT_EQ(r->ppa.latency_cycles, 3);
    } else {
      EXPECT_EQ(loaded.size(), 0u) << "cut=" << cut;
    }
  }
  std::remove(path.c_str());
}

TEST(EvalCache, MissingFormatMarkerIsReported) {
  const std::string path = "dse_cache_badfile_test.json";
  spit(path, "{\"entries\": [{\"key\": \"k\"}]}");
  dse::EvalCache cache;
  core::DiagEngine diag;
  EXPECT_EQ(cache.load_json(path, &diag), 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(diag.count_rule("CACHE-BADFILE"), 1u);
  std::remove(path.c_str());
}

TEST(EvalCache, NonFiniteNumbersAreRejected) {
  const std::string path = "dse_cache_inf_test.json";
  std::remove(path.c_str());
  dse::EvalCache cache;
  cache.insert("cfg{a}|spec{x}", sample_outcome(1.0));
  ASSERT_TRUE(cache.save_json(path));
  std::string text = slurp(path);
  const std::size_t vbegin = text.find("\"ppa\": [\"") + 9;
  const std::size_t vend = text.find('"', vbegin);
  text.replace(vbegin, vend - vbegin, "inf");
  spit(path, text);

  dse::EvalCache loaded;
  EXPECT_EQ(loaded.load_json(path), 0u);
  EXPECT_EQ(loaded.stats().rejected, 1u);
  std::remove(path.c_str());
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

  dse::SweepOptions uncached;
  uncached.threads = 2;
  uncached.use_cache = false;
  dse::SweepOptions cached;
  cached.threads = 2;
  cached.use_cache = true;
  cached.cache_path = "dse_sweep_test.cache.json";
  std::remove(cached.cache_path.c_str());
  const dse::SweepReport a = dse::run_sweep(test_library(), specs, uncached);
  const dse::SweepReport b = dse::run_sweep(test_library(), specs, cached);

  EXPECT_EQ(dse::sweep_frontier_json(a), dse::sweep_frontier_json(b));
  EXPECT_EQ(a.cache.hits + a.cache.misses, 0u) << "cache off must not count";
  EXPECT_GT(b.cache.hits, 0u)
      << "the preference-duplicated spec must hit the shared cache";

  // A second run warm-starts from the file the first one saved, and its
  // report counts the import.
  const dse::SweepReport c = dse::run_sweep(test_library(), specs, cached);
  std::remove(cached.cache_path.c_str());
  EXPECT_EQ(c.cache.loaded, b.cache.entries);
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
