// The four workloads. Each runs its operations repeatedly for
// `--seconds`, checks every output, and reports end-to-end metrics; with
// `--trace 1` it instead runs one untraced and one traced pass plus the
// layer probes and reports per-layer metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <latch>
#include <random>
#include <set>
#include <thread>

#include "common.hpp"
#include "core/compiler.hpp"
#include "core/diskstore.hpp"
#include "core/searcher.hpp"
#include "dse/sweep.hpp"
#include "obs/obs.hpp"
#include "probes.hpp"
#include "rtlgen/content_key.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "sim/macro_model.hpp"
#include "sim/macro_tb.hpp"
#include "specgen.hpp"

namespace perfbench {

namespace core = syndcim::core;
namespace dse = syndcim::dse;
namespace obs = syndcim::obs;
namespace rtlgen = syndcim::rtlgen;
namespace serve = syndcim::serve;
namespace fs = std::filesystem;

namespace {

/// Traced runs replay at most this many distinct slices and full macros
/// through the layer probes, keeping a traced run within its time limit.
constexpr std::size_t kProbeSlices = 16;
constexpr std::size_t kProbeMacros = 4;

double peak_rss_mb() { return static_cast<double>(obs::peak_rss_kb()) / 1024.0; }

/// Gate-level MAC of `md` against a dot product computed here: random
/// signed weights at the widest weight precision in the last bank,
/// random signed inputs at the widest input precision.
bool mac_matches(const rtlgen::MacroDesign& md, const cell::Library& lib,
                 std::mt19937_64& rng, std::string* why) {
  const rtlgen::MacroConfig& cfg = md.cfg;
  const int ib = cfg.max_input_bits();
  const int wp = cfg.max_weight_bits();
  const int bank = cfg.mcr - 1;
  const std::size_t rows = static_cast<std::size_t>(cfg.rows);
  const std::size_t outs = static_cast<std::size_t>(cfg.cols / wp);
  auto draw = [&](int bits) {
    const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
    const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  std::vector<std::vector<std::int64_t>> w(outs,
                                           std::vector<std::int64_t>(rows));
  for (auto& g : w) {
    for (auto& v : g) v = draw(wp);
  }
  std::vector<std::int64_t> in(rows);
  for (auto& v : in) v = draw(ib);

  syndcim::sim::DcimMacroModel model(cfg);
  model.load_weights_int(bank, wp, w);
  syndcim::sim::MacroTestbench tb(md, lib);
  tb.preload_weights(model);
  const std::vector<std::int64_t> got = tb.run_mac_int(in, ib, wp, bank);
  if (got.size() != outs) {
    *why = "MAC returned " + std::to_string(got.size()) + " outputs, want " +
           std::to_string(outs);
    return false;
  }
  for (std::size_t o = 0; o < outs; ++o) {
    std::int64_t want = 0;
    for (std::size_t r = 0; r < rows; ++r) want += w[o][r] * in[r];
    if (got[o] != want) {
      *why = "MAC output " + std::to_string(o) + " is " +
             std::to_string(got[o]) + ", want " + std::to_string(want);
      return false;
    }
  }
  return true;
}

/// compile() spelled out through public calls, so a traced run can time
/// search and each implementation separately: search through a timing
/// decorator on the compiler's own SCL, then implement Pareto points in
/// preference order until one signs off clean.
core::CompileResult traced_compile(core::SynDcimCompiler& c,
                                   const core::PerfSpec& spec,
                                   const core::Workload& wl,
                                   TimedBackend& timed) {
  core::CompileResult res;
  {
    Scoped s("core.search");
    core::MsoSearcher searcher(timed);
    res.search = searcher.search(spec);
  }
  std::vector<const core::DesignPoint*> order;
  for (const core::DesignPoint& p : res.search.pareto) order.push_back(&p);
  auto score = [&](const core::DesignPoint* p) {
    return core::preference_score(*p, res.search.pareto, spec.pref.power,
                                  spec.pref.area, spec.pref.performance);
  };
  std::sort(order.begin(), order.end(),
            [&](const auto* a, const auto* b) { return score(a) < score(b); });
  if (order.empty()) throw std::logic_error("spec infeasible");
  for (const core::DesignPoint* p : order) {
    res.selected = *p;
    Scoped s("core.implement");
    res.impl = c.implement(p->cfg, spec, wl);
    if (res.impl.signoff_clean()) break;
  }
  return res;
}

/// Summed duration of the spans named `name` (0 when none ran).
double total_ms(const std::map<std::string, LayerTime>& lt,
                const std::string& name) {
  const auto it = lt.find(name);
  return it == lt.end() ? 0.0 : it->second.total_ms;
}

void set_layer_metrics(Result& r, const std::map<std::string, LayerTime>& lt,
                       const ProbeCounts& pc) {
  for (const char* layer :
       {"rtlgen.gen", "netlist.stitch", "layout.place", "layout.route",
        "layout.extract", "layout.drc", "layout.lvs", "sta.build",
        "sta.analyze_first", "sta.analyze_repeat", "power.activity",
        "power.analyze", "sim.tb"}) {
    r.set(std::string(layer) + "_ms", total_ms(lt, layer), "ms");
  }
  r.set("lint.ms", total_ms(lt, "lint"), "ms");
  r.set("netlist.gates", static_cast<double>(pc.gates), "count");
  r.set("sim.cycles", static_cast<double>(pc.sim_cycles), "count");
}

/// Prints the per-layer table of a traced run to stderr.
void print_layer_table(const std::map<std::string, LayerTime>& lt) {
  std::cerr << "layer                     calls    total_ms     self_ms\n";
  for (const auto& [name, t] : lt) {
    char line[160];
    std::snprintf(line, sizeof line, "%-24s %6zu %11.2f %11.2f\n",
                  name.c_str(), t.count, t.total_ms, t.self_ms);
    std::cerr << line;
  }
}

/// Share of `op` span time no child layer span covers, and the tracing
/// overhead of the op against its untraced median.
void set_trace_metrics(Result& r, const std::map<std::string, LayerTime>& lt,
                       const std::string& op, double untraced_median_ms,
                       double traced_median_ms) {
  const auto it = lt.find(op);
  const double share = it == lt.end() || it->second.total_ms <= 0
                           ? 1.0
                           : it->second.self_ms / it->second.total_ms;
  r.set("trace.unattributed_share", share, "ratio");
  r.set("trace.overhead_ms", traced_median_ms - untraced_median_ms, "ms");
  std::cerr << op << ": " << 100.0 * share
            << "% of its time outside child spans; tracing overhead "
            << traced_median_ms - untraced_median_ms << " ms on a "
            << untraced_median_ms << " ms untraced median\n";
}

void set_artifact_metrics(Result& r,
                          const std::vector<core::ArtifactTierStats>& tiers) {
  for (const core::ArtifactTierStats& t : tiers) {
    const std::string p = "core.artifacts." + t.name;
    r.set(p + ".hits", static_cast<double>(t.hits), "count");
    r.set(p + ".misses", static_cast<double>(t.misses), "count");
    r.set(p + ".l2_hits", static_cast<double>(t.l2_hits), "count");
  }
}

void set_eval_cache_metrics(Result& r, const dse::SweepReport& rep) {
  r.set("dse.pool.executed", static_cast<double>(rep.pool.executed), "count");
  r.set("dse.pool.stolen", static_cast<double>(rep.pool.stolen), "count");
  r.set("dse.eval_cache.hits", static_cast<double>(rep.cache.hits), "count");
  r.set("dse.eval_cache.misses", static_cast<double>(rep.cache.misses),
        "count");
  r.set("dse.eval_cache.hit_ratio", rep.cache.hit_rate(), "ratio");
  r.set("dse.eval_cache.inflight_waits",
        static_cast<double>(rep.cache.inflight_waits), "count");
  r.set("dse.eval_cache.miss_eval_ms", rep.cache.miss_eval_ms, "ms");
}

/// Hypervolume of the frontier on (power, area, 1/throughput), each
/// normalized by a fixed reference point: the volume of the union of the
/// boxes between each point and the reference, computed exactly slab by
/// slab along the power axis.
double hypervolume(const std::vector<dse::FrontierPoint>& front) {
  // Reference: 200 mW, 1 mm^2, 1/(0.1 TOPS). Points beyond it add nothing.
  constexpr double kRefPowerUw = 2.0e5, kRefAreaUm2 = 1.0e6,
                   kRefInvTops = 10.0;
  struct P {
    double x, y, z;
  };
  std::vector<P> pts;
  for (const dse::FrontierPoint& f : front) {
    const core::PpaEstimate& e = f.point.ppa;
    if (e.tops_1b <= 0) continue;
    const P p{e.power_uw / kRefPowerUw, e.area_um2 / kRefAreaUm2,
              (1.0 / e.tops_1b) / kRefInvTops};
    if (p.x < 1 && p.y < 1 && p.z < 1) pts.push_back(p);
  }
  std::sort(pts.begin(), pts.end(),
            [](const P& a, const P& b) { return a.x < b.x; });
  double vol = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double x1 = i + 1 < pts.size() ? pts[i + 1].x : 1.0;
    if (x1 <= pts[i].x) continue;
    // 2-D dominated area over (y, z) of points 0..i, on the unit square.
    std::vector<std::pair<double, double>> yz;
    for (std::size_t j = 0; j <= i; ++j) yz.emplace_back(pts[j].y, pts[j].z);
    std::sort(yz.begin(), yz.end());
    double area = 0.0, zmin = 1.0;
    for (std::size_t k = 0; k < yz.size(); ++k) {
      zmin = std::min(zmin, yz[k].second);
      const double y1 = k + 1 < yz.size() ? yz[k + 1].first : 1.0;
      area += (y1 - yz[k].first) * (1.0 - zmin);
    }
    vol += (x1 - pts[i].x) * area;
  }
  return vol;
}

dse::SweepOptions sweep_options(const Options& opt) {
  dse::SweepOptions s;
  s.threads = opt.threads;
  s.lint_frontier = true;
  return s;
}

struct TimedSweep {
  dse::SweepReport rep;
  double ms = 0.0;
  std::string frontier;
};

TimedSweep timed_sweep(const cell::Library& lib,
                       const std::vector<core::PerfSpec>& specs,
                       const dse::SweepOptions& sopt) {
  TimedSweep t;
  const auto t0 = Clock::now();
  t.rep = dse::run_sweep(lib, specs, sopt);
  t.ms = ms_since(t0);
  t.frontier = dse::sweep_frontier_json(t.rep);
  return t;
}

/// The traced replica of one lint-on sweep: the sweep without its lint,
/// then the frontier lint as its own span, through a store the harness
/// owns (so the lint sees the sweep's artifacts, as inside run_sweep).
TimedSweep traced_sweep(const cell::Library& lib,
                        const std::vector<core::PerfSpec>& specs,
                        dse::SweepOptions sopt, core::ArtifactStore& store) {
  TimedSweep t;
  sopt.lint_frontier = false;
  sopt.shared_store = &store;
  const auto t0 = Clock::now();
  {
    Scoped op("dse.sweep", "sweep");
    {
      Scoped s("dse.sweep_nolint");
      t.rep = dse::run_sweep(lib, specs, sopt);
    }
    Scoped s("dse.frontier.lint");
    dse::lint_frontier_points(lib, t.rep.frontier, store);
  }
  t.ms = ms_since(t0);
  t.frontier = dse::sweep_frontier_json(t.rep);
  return t;
}

void add_sweep_probes(const dse::SweepReport& rep, ProbeSet& ps) {
  for (const dse::SpecResult& sr : rep.per_spec) {
    for (const core::DesignPoint& p : sr.result.explored) {
      ps.add_slice(p.cfg, kProbeSlices);
    }
  }
  for (const dse::FrontierPoint& f : rep.frontier) {
    if (ps.macros.size() < kProbeMacros) ps.macros.push_back(f.point.cfg);
  }
}

/// Checks shared by both sweep workloads' traced runs, plus their
/// per-layer metrics: the traced replica must reproduce the untraced
/// frontier byte for byte.
void traced_sweep_layers(Result& r, const cell::Library& lib,
                         const std::vector<core::PerfSpec>& specs,
                         const dse::SweepOptions& sopt,
                         core::ArtifactStore& store, const TimedSweep& ref) {
  // dse.scaling: the same sweep on one thread, which must reproduce the
  // frontier byte for byte. With no other thread to wait for, its
  // eval-cache miss time holds no lock waits, so miss_eval_ms is taken
  // from it: the N-thread figure counts lock waits as evaluation.
  ++r.attempted;
  dse::SweepOptions one = sopt;
  one.threads = 1;
  const TimedSweep seq = timed_sweep(lib, specs, one);
  if (seq.frontier != ref.frontier) {
    r.fail("1-thread sweep frontier JSON differs from the N-thread sweep");
  }
  r.set("dse.scaling", seq.ms / ref.ms, "x");

  spans().enable();
  ++r.attempted;
  const TimedSweep tr = traced_sweep(lib, specs, sopt, store);
  if (tr.frontier != ref.frontier) {
    r.fail("traced sweep frontier JSON differs from the untraced sweep");
  }
  {
    Scoped s("dse.frontier.merge");
    (void)dse::merge_global_frontier(ref.rep.per_spec);
  }
  ProbeSet ps;
  add_sweep_probes(ref.rep, ps);
  const ProbeCounts pc = run_probes(ps, lib);
  const auto lt = layer_times(spans().snapshot());
  print_layer_table(lt);
  set_layer_metrics(r, lt, pc);
  r.set("dse.sweep_nolint_ms", total_ms(lt, "dse.sweep_nolint"), "ms");
  r.set("dse.frontier.merge_ms", total_ms(lt, "dse.frontier.merge"), "ms");
  r.set("dse.frontier.lint_ms", total_ms(lt, "dse.frontier.lint"), "ms");
  r.set("dse.frontier_hypervolume", hypervolume(ref.rep.frontier), "ratio");
  set_eval_cache_metrics(r, ref.rep);
  std::cerr << "eval-cache miss time: " << ref.rep.cache.miss_eval_ms
            << " ms reported by the " << sopt.threads << "-thread sweep ("
            << ref.ms << " ms wall), " << seq.rep.cache.miss_eval_ms
            << " ms by the 1-thread sweep\n";
  r.set("dse.eval_cache.miss_eval_ms", seq.rep.cache.miss_eval_ms, "ms");
  set_artifact_metrics(r, ref.rep.artifacts);
  // The op span is the sweep; its only children are the nolint sweep and
  // the lint, so its self time is what neither covers.
  set_trace_metrics(r, lt, "dse.sweep", ref.ms, tr.ms);
}

}  // namespace

// ===========================================================================
// compile_cold
// ===========================================================================

Result run_compile_cold(const Options& opt) {
  Result r;
  std::optional<cell::Library> lib_slot;
  std::vector<GenSpec> gens;
  std::vector<core::PerfSpec> specs;
  std::vector<core::Workload> wls;
  r.set("setup_s", setup_seconds([&] {
          lib_slot.emplace(make_library());
          std::mt19937_64 in = rng_stream(opt.seed, 0);
          gens = opt.smoke ? std::vector<GenSpec>{smoke_spec()}
                           : compile_specs(in);
          specs.clear();
          wls.clear();
          for (const GenSpec& g : gens) {
            specs.push_back(g.spec());
            core::Workload wl;
            wl.seed = static_cast<unsigned>(in());
            wls.push_back(wl);
          }
        }),
        "s");
  const cell::Library& lib = *lib_slot;
  std::mt19937_64 rng = rng_stream(opt.seed, 1);

  // Whole passes over the spec set until the run's seconds are used up.
  // Each spec's time is its median over the passes, and a pass's time is
  // the sum over specs, so one disturbed pass does not move the figures.
  std::vector<std::vector<double>> spec_ms(gens.size());
  std::vector<double> pass_ms;
  std::vector<std::string> labels(gens.size());
  std::vector<double> tw, tmm, fmax_err;
  std::size_t clean = 0;
  ProbeSet ps;
  double rss_mb = 0.0;
  const auto t_start = Clock::now();
  int pass = 0;
  do {
    double this_pass_ms = 0.0;
    for (std::size_t i = 0; i < gens.size(); ++i) {
      ++r.attempted;
      try {
        core::SynDcimCompiler c(lib);
        const auto t0 = Clock::now();
        const core::CompileResult res = c.compile(specs[i], wls[i]);
        const double ms = ms_since(t0);
        spec_ms[i].push_back(ms);
        this_pass_ms += ms;
        if (pass == 0) {
          std::cerr << "compile " << ms << " ms, " << res.search.pareto.size()
                    << " Pareto points, selected " << res.selected.label
                    << (res.impl.signoff_clean() ? ", clean" : ", not clean")
                    << ": " << gens[i].label << "\n";
          labels[i] = res.selected.label;
          std::string why;
          if (!mac_matches(res.impl.macro, lib, rng, &why)) {
            r.fail(gens[i].label + ": " + why);
            continue;
          }
          tw.push_back(res.impl.tops_per_w());
          tmm.push_back(res.impl.tops_per_mm2());
          clean += res.impl.signoff_clean() ? 1 : 0;
          fmax_err.push_back(100.0 *
                             std::abs(res.selected.ppa.fmax_mhz -
                                      res.impl.fmax_mhz) /
                             res.impl.fmax_mhz);
          if (ps.macros.size() < kProbeMacros) {
            ps.macros.push_back(res.selected.cfg);
          }
        } else if (res.selected.label != labels[i]) {
          r.fail(gens[i].label + ": selected " + res.selected.label +
                 ", first pass selected " + labels[i]);
        }
      } catch (const std::exception& e) {
        r.fail(gens[i].label + ": " + e.what());
      }
    }
    pass_ms.push_back(this_pass_ms);
    std::cerr << "pass " << pass << ": " << this_pass_ms << " ms compiling\n";
    if (pass == 0) rss_mb = peak_rss_mb();
    ++pass;
  } while (!opt.trace && ms_since(t_start) < opt.seconds * 1e3);
  std::vector<double> compile_ms;
  for (const auto& t : spec_ms) compile_ms.push_back(median(t));

  if (!opt.trace) {
    r.set("op_p50_ms", median(compile_ms), "ms");
    r.set("ops_per_s",
          1e3 * static_cast<double>(gens.size()) / median(pass_ms), "1/s");
    r.set("peak_rss_mb", rss_mb, "MB");
    r.set("design_tops_per_w", geomean(tw), "TOPS/W");
    r.set("design_tops_per_mm2", geomean(tmm), "TOPS/mm2");
    return r;
  }

  // Traced pass: the same compiles spelled out through public calls.
  spans().enable();
  std::vector<double> traced_ms;
  std::uint64_t evals = 0, slices = 0;
  double eval_ms = 0.0;
  for (std::size_t i = 0; i < gens.size(); ++i) {
    ++r.attempted;
    try {
      core::SynDcimCompiler c(lib);
      core::SclEvalBackend scl(c.scl());
      TimedBackend timed(scl);
      const auto t0 = Clock::now();
      core::CompileResult res;
      {
        Scoped op("compile", "spec" + std::to_string(i));
        res = traced_compile(c, specs[i], wls[i], timed);
      }
      traced_ms.push_back(ms_since(t0));
      evals += timed.evals;
      eval_ms += timed.eval_ms;
      std::set<std::string> keys;
      for (const auto& cfg : timed.configs) {
        keys.insert(rtlgen::slice_content_key(cfg));
        ps.add_slice(cfg, kProbeSlices);
      }
      slices += keys.size();
      if (res.selected.label != labels[i]) {
        r.fail(gens[i].label + ": traced compile selected " +
               res.selected.label + ", compile() selected " + labels[i]);
      }
    } catch (const std::exception& e) {
      r.fail(gens[i].label + " (traced): " + e.what());
    }
  }
  const ProbeCounts pc = run_probes(ps, lib);
  const auto lt = layer_times(spans().snapshot());
  print_layer_table(lt);
  set_layer_metrics(r, lt, pc);
  r.set("cell.characterize_ms",
        1e3 * setup_seconds([] { (void)make_library(); }), "ms");
  r.set("core.search_ms", total_ms(lt, "core.search"), "ms");
  r.set("core.search.evals", static_cast<double>(evals), "count");
  r.set("core.search.eval_ms", eval_ms, "ms");
  r.set("core.scl.slices", static_cast<double>(slices), "count");
  r.set("core.implement_ms", total_ms(lt, "core.implement"), "ms");
  r.set("core.signoff_clean_share",
        tw.empty() ? 0.0 : static_cast<double>(clean) / tw.size(), "ratio");
  double err = 0.0;
  for (const double e : fmax_err) err += e;
  r.set("core.fmax_estimate_error_pct",
        fmax_err.empty() ? 0.0 : err / fmax_err.size(), "%");
  set_trace_metrics(r, lt, "compile", median(compile_ms), median(traced_ms));
  return r;
}

// ===========================================================================
// sweep_cold / sweep_warm_store
// ===========================================================================

namespace {

std::vector<core::PerfSpec> workload_sweep_specs(const Options& opt,
                                                 std::mt19937_64& rng) {
  return opt.smoke ? dse::grid_from_kv(smoke_grid()).expand()
                   : sweep_specs(rng);
}

/// The timed sweeps of one run and what the checks and metrics need.
struct SweepRuns {
  std::vector<double> ms;
  TimedSweep last;
  double rss_mb = 0.0;  ///< peak RSS after the first sweep
};

/// Repeats `sweep` for the run's seconds (once in a traced run). Every
/// frontier must equal `ref`, or the first sweep's when `ref` is empty.
/// Peak RSS is read after the first sweep: later sweeps repeat the same
/// work, and how many fit in the run's seconds must not move it.
template <typename F>
SweepRuns repeat_sweeps(Result& r, const Options& opt, std::string ref,
                        F&& sweep) {
  SweepRuns runs;
  const auto t_start = Clock::now();
  do {
    ++r.attempted;
    try {
      runs.last = sweep();
      runs.ms.push_back(runs.last.ms);
      std::cerr << "sweep " << runs.ms.size() << ": " << runs.last.ms
                << " ms\n";
      if (ref.empty()) ref = runs.last.frontier;
      if (runs.last.frontier != ref) {
        r.fail("sweep frontier JSON differs from the first sweep's");
      }
    } catch (const std::exception& e) {
      r.fail(std::string("sweep: ") + e.what());
    }
    if (runs.rss_mb == 0.0) runs.rss_mb = peak_rss_mb();
  } while (!opt.trace && ms_since(t_start) < opt.seconds * 1e3);
  runs.last.ms = median(runs.ms);
  return runs;
}

void set_sweep_e2e(Result& r, const SweepRuns& runs) {
  double busy = 0.0;
  for (const double m : runs.ms) busy += m;
  std::vector<double> tw, tmm;
  for (const dse::FrontierPoint& f : runs.last.rep.frontier) {
    tw.push_back(f.point.ppa.tops_per_w());
    tmm.push_back(f.point.ppa.tops_per_mm2());
  }
  r.set("op_p50_ms", median(runs.ms), "ms");
  r.set("ops_per_s",
        busy > 0 ? 1e3 * static_cast<double>(runs.ms.size()) / busy : 0.0,
        "1/s");
  r.set("peak_rss_mb", runs.rss_mb, "MB");
  r.set("design_tops_per_w", geomean(tw), "TOPS/W");
  r.set("design_tops_per_mm2", geomean(tmm), "TOPS/mm2");
}

}  // namespace

Result run_sweep_cold(const Options& opt) {
  Result r;
  std::optional<cell::Library> lib_slot;
  std::vector<core::PerfSpec> specs;
  r.set("setup_s", setup_seconds([&] {
          lib_slot.emplace(make_library());
          std::mt19937_64 in = rng_stream(opt.seed, 0);
          specs = workload_sweep_specs(opt, in);
        }),
        "s");
  const cell::Library& lib = *lib_slot;
  const dse::SweepOptions sopt = sweep_options(opt);
  const SweepRuns runs = repeat_sweeps(
      r, opt, "", [&] { return timed_sweep(lib, specs, sopt); });
  if (!opt.trace) {
    set_sweep_e2e(r, runs);
    return r;
  }

  r.set("cell.characterize_ms",
        1e3 * setup_seconds([] { (void)make_library(); }), "ms");
  core::ArtifactStore store;
  traced_sweep_layers(r, lib, specs, sopt, store, runs.last);
  return r;
}

Result run_sweep_warm_store(const Options& opt) {
  Result r;
  std::optional<cell::Library> lib_slot;
  std::vector<core::PerfSpec> specs;
  const double prepare_s = setup_seconds([&] {
    lib_slot.emplace(make_library());
    std::mt19937_64 in = rng_stream(opt.seed, 0);
    specs = workload_sweep_specs(opt, in);
  });
  const cell::Library& lib = *lib_slot;
  const std::string store_dir = opt.scratch_dir + "/store";
  fs::remove_all(store_dir);
  dse::SweepOptions sopt = sweep_options(opt);
  sopt.store_dir = store_dir;
  // Setup fills the empty store with one cold sweep.
  ++r.attempted;
  const TimedSweep fill = timed_sweep(lib, specs, sopt);
  const double populate_s = fill.ms / 1e3;
  r.set("setup_s", prepare_s + populate_s, "s");

  // Every timed sweep starts with fresh in-memory caches and reads
  // through the store; it must reproduce the cold frontier exactly and
  // be served from the store.
  const SweepRuns runs = repeat_sweeps(
      r, opt, fill.frontier, [&] { return timed_sweep(lib, specs, sopt); });
  std::uint64_t l2_hits = 0, l2_rejects = 0;
  for (const core::ArtifactTierStats& t : runs.last.rep.artifacts) {
    l2_hits += t.l2_hits;
    l2_rejects += t.l2_rejects;
  }
  if (l2_rejects != 0) {
    r.fail("warm sweep rejected " + std::to_string(l2_rejects) +
           " store objects");
  }
  if (l2_hits == 0) r.fail("warm sweep read nothing from the store");

  if (!opt.trace) {
    set_sweep_e2e(r, runs);
    fs::remove_all(store_dir);
    return r;
  }

  r.set("cell.characterize_ms",
        1e3 * setup_seconds([] { (void)make_library(); }), "ms");
  r.set("core.diskstore.populate_s", populate_s, "s");
  serve::JsonValue sj;
  std::string err;
  if (serve::json_parse(runs.last.rep.store_json, &sj, &err) &&
      sj.is_object()) {
    for (const char* k : {"objects_read", "bytes_read"}) {
      const serve::JsonValue* v = sj.find(k);
      r.set(std::string("core.diskstore.") + k,
            v != nullptr ? v->as_number() : 0.0,
            std::string(k) == "bytes_read" ? "bytes" : "count");
    }
  } else {
    r.fail("store statistics are not JSON: " + err);
  }
  core::ArtifactStore store;
  core::DiskBlobStore disk(store_dir);
  store.attach_blob_store(&disk);
  traced_sweep_layers(r, lib, specs, sopt, store, runs.last);
  store.attach_blob_store(nullptr);
  fs::remove_all(store_dir);
  return r;
}

// ===========================================================================
// serve_mixed
// ===========================================================================

namespace {

struct Req {
  std::string method;  ///< compile | sweep
  Kv params;
  std::string key;  ///< identical requests share a key
};

struct Sample {
  std::string cls;  ///< compile_cold | compile_repeat | sweep
  double ms = 0.0;
  bool ok = false;
  std::string frontier;  ///< sweeps only
  double eval_hits = 0.0, eval_misses = 0.0;  ///< sweeps only
  double tops_w = 0.0, tops_mm2 = 0.0;  ///< compiles only
};

/// One client's requests: the cold phase, then the rest.
struct ClientStream {
  std::vector<Req> cold;
  std::vector<Req> rest;
};

/// Two closed-loop clients' request streams. In the cold phase both open
/// with the first pool spec, which coalesces; then client 1 compiles the
/// odd pool specs and client 0 the even ones and the sweep, so every pool
/// spec is compiled cold exactly once and the sweep runs cold once. After
/// both finish that phase, each client asks for two specs the other one
/// compiled (seeded picks) and client 1 repeats the sweep, in a seeded
/// order: 13 requests, 8 of them first compiles of a spec (or coalesced
/// onto one) and the cold sweep.
///
/// The mix keeps the median request a first compile, which does real
/// compiler work even where it reuses what the other specs left in the
/// shared store. A warm repeat takes ~4 ms, mostly thread hand-offs
/// between client, reader and worker, and on a shared 4-vCPU VM its
/// latency moved by half between runs minutes apart; a median that lands
/// among the repeats measures that noise, not the compiler.
std::vector<ClientStream> make_streams(std::mt19937_64& rng,
                                       const ServeInputs& in) {
  auto compile = [&](std::size_t p) {
    return Req{"compile", in.pool[p].kv, in.pool[p].label};
  };
  const Req sweep{"sweep", in.sweep, "sweep " + kv_label(in.sweep)};
  std::vector<ClientStream> streams(2);
  std::vector<std::vector<std::size_t>> owned(2);
  for (ClientStream& st : streams) st.cold.push_back(compile(0));
  for (std::size_t p = 1; p < in.pool.size(); ++p) {
    streams[p % 2].cold.push_back(compile(p));
    owned[p % 2].push_back(p);
  }
  streams[0].cold.push_back(sweep);
  streams[1].rest.push_back(sweep);
  for (std::size_t c = 0; c < 2; ++c) {
    std::vector<std::size_t> theirs = owned[1 - c];
    std::shuffle(theirs.begin(), theirs.end(), rng);
    for (std::size_t k = 0; k < std::min<std::size_t>(2, theirs.size()); ++k) {
      streams[c].rest.push_back(compile(theirs[k]));
    }
    std::shuffle(streams[c].rest.begin(), streams[c].rest.end(), rng);
  }
  return streams;
}

struct PassResult {
  std::vector<Sample> samples;
  double wall_ms = 0.0;
  double start_ms = 0.0;  ///< server construction + start
  double coalesced = 0.0;
  double artifact_hit_ratio = 0.0;
  std::vector<std::string> errors;
};

/// Pulls a named counter out of the server's metrics reply.
double counter_value(const serve::ClientResponse& m, const char* name) {
  const serve::JsonValue* mj = m.result.find("metrics_json");
  serve::JsonValue doc;
  std::string err;
  if (mj == nullptr || !serve::json_parse(mj->as_string(), &doc, &err)) {
    return 0.0;
  }
  const serve::JsonValue* counters = doc.find("counters");
  const serve::JsonValue* v =
      counters != nullptr ? counters->find(name) : nullptr;
  return v != nullptr ? v->as_number() : 0.0;
}

PassResult serve_pass(const cell::Library& lib,
                      const std::vector<ClientStream>& streams,
                      int pass_index) {
  PassResult pr;
  const auto t_start = Clock::now();
  serve::ServerOptions so;
  so.workers = 2;
  so.sweep_threads = 2;
  serve::Server srv(lib, so);
  std::string err;
  if (!srv.start(&err)) {
    pr.errors.push_back("server start: " + err);
    return pr;
  }
  pr.start_ms = ms_since(t_start);

  serve::Client admin;
  serve::ClientResponse before;
  if (!admin.connect("127.0.0.1", srv.port(), &err) ||
      !admin.call("metrics", {}, 0, &before, &err)) {
    pr.errors.push_back("metrics: " + err);
  }

  // A compile is cold the first time any client sends its spec in this
  // pass (the server's caches start empty); later ones repeat or
  // coalesce onto it.
  std::mutex seen_mu;
  std::set<std::string> seen;
  std::vector<std::vector<Sample>> per(streams.size());
  std::vector<std::string> client_err(streams.size());
  const auto t0 = Clock::now();
  std::latch cold_done(static_cast<std::ptrdiff_t>(streams.size()));
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    clients.emplace_back([&, c] {
      serve::Client cl;
      std::string e;
      if (!cl.connect("127.0.0.1", srv.port(), &e)) {
        client_err[c] = "connect: " + e;
        cold_done.count_down();
        return;
      }
      std::size_t k = 0;
      auto send = [&](const Req& q) {
        Sample s;
        if (q.method == "sweep") {
          s.cls = "sweep";
        } else {
          const std::lock_guard<std::mutex> lock(seen_mu);
          s.cls = seen.insert(q.key).second ? "compile_cold" : "compile_repeat";
        }
        Scoped span("serve." + s.cls, "p" + std::to_string(pass_index) + "c" +
                                         std::to_string(c) + "r" +
                                         std::to_string(k++));
        serve::ClientResponse resp;
        const auto q0 = Clock::now();
        const bool sent = cl.call(q.method, q.params, 0, &resp, &e);
        s.ms = ms_since(q0);
        s.ok = sent && resp.ok;
        if (!s.ok) {
          client_err[c] = q.method + " " + q.key + ": " +
                          (sent ? std::to_string(resp.code) + " " + resp.reason
                                : e);
        } else if (q.method == "sweep") {
          const serve::JsonValue* f = resp.result.find("frontier_json");
          s.frontier = f != nullptr ? f->as_string() : "";
          if (const serve::JsonValue* ec = resp.result.find("eval_cache")) {
            const serve::JsonValue* h = ec->find("hits");
            const serve::JsonValue* m = ec->find("misses");
            s.eval_hits = h != nullptr ? h->as_number() : 0.0;
            s.eval_misses = m != nullptr ? m->as_number() : 0.0;
          }
        } else {
          auto num = [&](const char* k2) {
            const serve::JsonValue* v = resp.result.find(k2);
            return v != nullptr ? v->as_number() : 0.0;
          };
          const double tops = num("tops_1b");
          s.tops_w = num("power_uw") > 0 ? tops / (num("power_uw") * 1e-6) : 0;
          s.tops_mm2 = num("area_mm2") > 0 ? tops / num("area_mm2") : 0;
        }
        per[c].push_back(std::move(s));
      };
      for (const Req& q : streams[c].cold) send(q);
      cold_done.arrive_and_wait();
      for (const Req& q : streams[c].rest) send(q);
    });
  }
  for (std::thread& t : clients) t.join();
  pr.wall_ms = ms_since(t0);
  for (std::size_t c = 0; c < streams.size(); ++c) {
    for (Sample& s : per[c]) pr.samples.push_back(std::move(s));
    if (!client_err[c].empty()) pr.errors.push_back(client_err[c]);
  }

  serve::ClientResponse after, status;
  if (admin.call("metrics", {}, 0, &after, &err) &&
      admin.call("status", {}, 0, &status, &err)) {
    pr.coalesced = counter_value(after, "serve.singleflight.coalesced") -
                   counter_value(before, "serve.singleflight.coalesced");
    auto num = [&](const char* k) {
      const serve::JsonValue* v = status.result.find(k);
      return v != nullptr ? v->as_number() : 0.0;
    };
    const double h = num("artifact_hits"), m = num("artifact_misses");
    pr.artifact_hit_ratio = h + m > 0 ? h / (h + m) : 0.0;
  } else {
    pr.errors.push_back("status/metrics: " + err);
  }
  admin.close();
  srv.drain();
  return pr;
}

}  // namespace

Result run_serve_mixed(const Options& opt) {
  Result r;
  std::optional<cell::Library> lib_slot;
  ServeInputs in;
  const double prepare_s = setup_seconds([&] {
    lib_slot.emplace(make_library());
    in = opt.smoke ? ServeInputs{{smoke_spec()}, smoke_grid()}
                   : serve_inputs();
  });
  const cell::Library& lib = *lib_slot;
  std::mt19937_64 rng = rng_stream(opt.seed, 1);

  // A traced run makes one untraced pass, then one traced pass; the
  // traced pass's latencies give the tracing overhead.
  // Each pass's throughput is its OK responses over its wall time; the
  // run reports the median pass, and peak RSS after the first pass.
  std::vector<Sample> all;
  std::vector<double> start_ms, untraced_lat, pass_rate;
  double rss_mb = 0.0;
  PassResult last;
  const auto t_start = Clock::now();
  int pass = 0;
  do {
    if (opt.trace && pass == 1) {
      for (const Sample& s : all) untraced_lat.push_back(s.ms);
      spans().enable();
    }
    // Every pass sends freshly shuffled streams, so a run's figures
    // average over several request orders rather than hinge on one.
    PassResult pr = serve_pass(lib, make_streams(rng, in), pass);
    start_ms.push_back(pr.start_ms);
    std::size_t pass_ok = 0;
    for (const Sample& x : pr.samples) pass_ok += x.ok ? 1 : 0;
    pass_rate.push_back(pr.wall_ms > 0 ? 1e3 * pass_ok / pr.wall_ms : 0.0);
    std::vector<double> pass_lat;
    for (const Sample& x : pr.samples) pass_lat.push_back(x.ms);
    std::cerr << "pass " << pass << ": " << pr.samples.size()
              << " requests in " << pr.wall_ms << " ms, median "
              << median(pass_lat) << " ms\n";
    if (pass == 0) rss_mb = peak_rss_mb();
    for (const std::string& e : pr.errors) r.errors.push_back(e);
    all.insert(all.end(), pr.samples.begin(), pr.samples.end());
    last = std::move(pr);
    ++pass;
  } while (opt.trace ? pass < 2 : ms_since(t_start) < opt.seconds * 1e3);
  r.set("setup_s", prepare_s + median(start_ms) / 1e3, "s");

  // Checks: every response ok; every served sweep frontier equals a
  // batch run_sweep of the same grid.
  ++r.attempted;
  TimedSweep batch;
  try {
    dse::SweepOptions sopt;
    sopt.threads = 2;
    batch = timed_sweep(lib, dse::grid_from_kv(in.sweep).expand(), sopt);
  } catch (const std::exception& e) {
    r.fail(std::string("batch sweep: ") + e.what());
  }
  std::vector<double> lat, tw, tmm;
  for (const Sample& s : all) {
    ++r.attempted;
    lat.push_back(s.ms);
    if (!s.ok) {
      ++r.failed;
      continue;
    }
    if (s.cls == "sweep" && s.frontier != batch.frontier) {
      r.fail("served sweep frontier JSON differs from batch run_sweep");
      continue;
    }
    if (s.cls != "sweep" && s.tops_w > 0 && s.tops_mm2 > 0) {
      tw.push_back(s.tops_w);
      tmm.push_back(s.tops_mm2);
    }
  }

  if (!opt.trace) {
    r.set("op_p50_ms", median(lat), "ms");
    r.set("ops_per_s", median(pass_rate), "1/s");
    r.set("peak_rss_mb", rss_mb, "MB");
    r.set("design_tops_per_w", geomean(tw), "TOPS/W");
    r.set("design_tops_per_mm2", geomean(tmm), "TOPS/mm2");
    return r;
  }

  // Per-layer: request classes from the client side (traced pass), cache
  // behaviour from the server's own replies, and the layer probes on the
  // served sweep's designs.
  r.set("cell.characterize_ms",
        1e3 * setup_seconds([] { (void)make_library(); }), "ms");
  std::map<std::string, std::vector<double>> traced_cls;
  std::vector<double> traced_lat;
  double eh = 0, em = 0;
  for (const Sample& s : last.samples) {
    traced_cls[s.cls].push_back(s.ms);
    traced_lat.push_back(s.ms);
    eh += s.eval_hits;
    em += s.eval_misses;
  }
  for (const char* cls : {"compile_cold", "compile_repeat", "sweep"}) {
    r.set(std::string("serve.") + cls + "_ms", median(traced_cls[cls]), "ms");
  }
  const Tail tail = tail_percentile(lat);
  r.set("serve.request_tail_ms", tail.value, "ms");
  r.set("serve.request_tail_pct", tail.percentile, "%");
  r.set("serve.requests", static_cast<double>(lat.size()), "count");
  r.set("serve.coalesced", last.coalesced, "count");
  r.set("serve.eval_cache.hit_ratio", eh + em > 0 ? eh / (eh + em) : 0.0,
        "ratio");
  r.set("serve.artifacts.hit_ratio", last.artifact_hit_ratio, "ratio");
  ProbeSet ps;
  add_sweep_probes(batch.rep, ps);
  const ProbeCounts pc = run_probes(ps, lib);
  const auto lt = layer_times(spans().snapshot());
  print_layer_table(lt);
  set_layer_metrics(r, lt, pc);
  // Request spans have no child spans (the server's work is inside the
  // program, which the harness does not trace), so all of it is
  // unattributed.
  set_trace_metrics(r, {}, "request", median(untraced_lat),
                    median(traced_lat));
  return r;
}

}  // namespace perfbench
