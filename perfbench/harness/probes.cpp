#include "probes.hpp"

#include <algorithm>
#include <random>

#include "core/diag.hpp"
#include "layout/floorplan.hpp"
#include "layout/route.hpp"
#include "lint/lint.hpp"
#include "netlist/stitch.hpp"
#include "num/int_ops.hpp"
#include "power/activity.hpp"
#include "power/power.hpp"
#include "rtlgen/content_key.hpp"
#include "rtlgen/macro.hpp"
#include "sim/macro_model.hpp"
#include "sim/macro_tb.hpp"
#include "sta/sta.hpp"

namespace perfbench {

namespace rtlgen = syndcim::rtlgen;

namespace {

/// Reference clock of the probes' timing runs; the work done by STA does
/// not depend on the period.
constexpr double kRefPeriodPs = 1.0e5;

/// The 8-MAC random workload the compiler simulates for power, driven
/// through the public testbench.
std::uint64_t run_power_workload(const rtlgen::MacroDesign& md,
                                 const syndcim::cell::Library& lib) {
  const rtlgen::MacroConfig& cfg = md.cfg;
  const int ib = std::min(4, cfg.max_input_bits());
  const int wp = std::min(4, cfg.max_weight_bits());
  std::mt19937 rng(1);
  std::bernoulli_distribution bit(0.5);
  auto draw = [&](int bits) {
    std::uint64_t v = 0;
    for (int b = 0; b < bits; ++b) v |= static_cast<std::uint64_t>(bit(rng)) << b;
    return syndcim::num::sign_extend(v, bits);
  };
  syndcim::sim::MacroTestbench tb(md, lib);
  syndcim::sim::DcimMacroModel model(cfg);
  for (int bank = 0; bank < cfg.mcr; ++bank) {
    std::vector<std::vector<std::int64_t>> w(
        static_cast<std::size_t>(cfg.cols / wp),
        std::vector<std::int64_t>(static_cast<std::size_t>(cfg.rows)));
    for (auto& g : w) {
      for (auto& v : g) v = draw(wp);
    }
    model.load_weights_int(bank, wp, w);
  }
  tb.preload_weights(model);
  std::vector<std::int64_t> in(static_cast<std::size_t>(cfg.rows));
  for (int m = 0; m < 8; ++m) {
    for (auto& v : in) v = draw(ib);
    (void)tb.run_mac_int(in, ib, wp, m % cfg.mcr);
  }
  return tb.cycles();
}

void probe_one(const rtlgen::MacroConfig& cfg, bool with_sim,
               const syndcim::cell::Library& lib, ProbeCounts& counts) {
  rtlgen::MacroDesign md;
  {
    Scoped s("rtlgen.gen");
    md = rtlgen::gen_macro(cfg);
  }
  syndcim::netlist::StitchResult sr;
  {
    Scoped s("netlist.stitch");
    sr = syndcim::netlist::stitch_flatten(md.design, md.top, nullptr);
  }
  const syndcim::netlist::FlatNetlist& nl = sr.nl;
  counts.gates += nl.gates().size();
  syndcim::layout::Floorplan fp;
  {
    Scoped s("layout.place");
    fp = syndcim::layout::sdp_place(nl, lib, cfg);
  }
  {
    Scoped s("layout.route");
    (void)syndcim::layout::global_route(nl, fp, lib.node());
  }
  syndcim::sta::StaOptions topt;
  {
    Scoped s("layout.extract");
    topt.wire = syndcim::layout::extract_wire_model(nl, fp, lib.node());
  }
  {
    Scoped s("layout.drc");
    (void)syndcim::layout::run_drc(nl, lib, fp);
  }
  {
    Scoped s("layout.lvs");
    (void)syndcim::layout::run_lvs(nl, lib, fp);
  }
  topt.clock_period_ps = kRefPeriodPs;
  topt.write_period_ps = kRefPeriodPs;
  topt.vdd = lib.node().vdd_nominal;
  topt.static_inputs = md.static_control_ports();
  std::optional<syndcim::sta::StaEngine> sta;
  {
    Scoped s("sta.build");
    sta.emplace(nl, lib);
  }
  {
    // The first analyze builds the engine's per-wire-model load plan; the
    // repeat, with the same wire model, reuses it.
    Scoped s("sta.analyze_first");
    (void)sta->analyze(topt);
  }
  {
    Scoped s("sta.analyze_repeat");
    (void)sta->analyze(topt);
  }
  syndcim::power::ActivityModel act;
  {
    Scoped s("power.activity");
    act = syndcim::power::propagate_activity_grouped(
        nl, lib, syndcim::power::ActivitySpec{}, nullptr);
  }
  {
    Scoped s("power.analyze");
    syndcim::power::PowerOptions popt;
    popt.vdd = lib.node().vdd_nominal;
    popt.wire = topt.wire;
    (void)syndcim::power::analyze_power(nl, lib, act, popt);
    (void)syndcim::power::analyze_area(nl, lib);
  }
  if (with_sim) {
    Scoped s("sim.tb");
    counts.sim_cycles += run_power_workload(md, lib);
  }
  {
    Scoped s("lint");
    syndcim::core::DiagEngine dg;
    (void)syndcim::lint::lint_netlist(nl, lib, dg);
  }
}

}  // namespace

void ProbeSet::add_slice(const rtlgen::MacroConfig& cfg, std::size_t cap) {
  if (slices.size() >= cap) return;
  if (!slice_keys.insert(rtlgen::slice_content_key(cfg)).second) return;
  // The SCL characterizes one OFU group wide, at least 8 columns.
  rtlgen::MacroConfig sc = cfg;
  sc.cols = std::max(cfg.max_weight_bits(), 8);
  slices.push_back(sc);
}

ProbeCounts run_probes(const ProbeSet& set,
                       const syndcim::cell::Library& lib) {
  ProbeCounts counts;
  for (const auto& cfg : set.slices) probe_one(cfg, false, lib, counts);
  for (const auto& cfg : set.macros) probe_one(cfg, true, lib, counts);
  return counts;
}

syndcim::core::EvalOutcome TimedBackend::evaluate(
    const rtlgen::MacroConfig& cfg, const syndcim::core::PerfSpec& spec) {
  Scoped s("core.search.eval");
  const auto t0 = Clock::now();
  syndcim::core::EvalOutcome out = inner_.evaluate(cfg, spec);
  eval_ms += ms_since(t0);
  ++evals;
  configs.push_back(cfg);
  return out;
}

}  // namespace perfbench
