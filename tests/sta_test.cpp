#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "cell/characterize.hpp"
#include "cell/liberty.hpp"
#include "cell/liberty_parser.hpp"
#include "netlist/design.hpp"
#include "netlist/flatten.hpp"
#include "rtlgen/adder_tree.hpp"
#include "rtlgen/gates.hpp"
#include "rtlgen/macro.hpp"
#include "sta/sta.hpp"
#include "tech/tech_node.hpp"
#include "tech/units.hpp"

namespace {
using namespace syndcim;
using netlist::PortDir;

const cell::Library& lib() {
  static const cell::Library l =
      cell::characterize_default_library(tech::make_default_40nm());
  return l;
}

/// in -> INV chain (n stages) -> DFF -> out, all clocked.
netlist::Design inv_chain_design(int n) {
  netlist::Design d;
  netlist::Module m("chain");
  rtlgen::GateBuilder gb(m, "g_");
  const auto clk = m.add_port("clk", PortDir::kIn);
  const auto in = m.add_port("in", PortDir::kIn);
  netlist::NetId x = gb.dff(in, clk);  // launch register
  for (int i = 0; i < n; ++i) x = gb.inv(x);
  const auto q = gb.dff(x, clk);  // capture register
  const auto out = m.add_port("out", PortDir::kOut);
  m.add_cell("obuf", "BUFX1", {{"A", q}, {"Y", out}});
  d.add_module(std::move(m));
  return d;
}

TEST(Sta, LongerChainsHaveLongerPaths) {
  double prev = 0.0;
  for (const int n : {2, 8, 32}) {
    const auto d = inv_chain_design(n);
    const auto flat = netlist::flatten(d, "chain");
    sta::StaEngine eng(flat, lib());
    const auto rep = eng.analyze({});
    EXPECT_GT(rep.min_period_ps, prev) << n;
    prev = rep.min_period_ps;
  }
}

TEST(Sta, SlackMatchesPeriodMinusArrival) {
  const auto d = inv_chain_design(16);
  const auto flat = netlist::flatten(d, "chain");
  sta::StaEngine eng(flat, lib());
  sta::StaOptions opt;
  opt.clock_period_ps = 2000.0;
  const auto rep = eng.analyze(opt);
  EXPECT_TRUE(rep.met());
  // Tighten to just below the minimum period: must now fail.
  opt.clock_period_ps = rep.min_period_ps - 1.0;
  const auto rep2 = eng.analyze(opt);
  EXPECT_FALSE(rep2.met());
  EXPECT_NEAR(rep2.wns_ps, -1.0, 0.2);
  EXPECT_LT(rep2.tns_ps, 0.0);
}

TEST(Sta, VoltageScalingMatchesTechModel) {
  const auto d = inv_chain_design(16);
  const auto flat = netlist::flatten(d, "chain");
  sta::StaEngine eng(flat, lib());
  sta::StaOptions opt;
  const double p09 = eng.analyze(opt).min_period_ps;
  opt.vdd = 1.2;
  const double p12 = eng.analyze(opt).min_period_ps;
  opt.vdd = 0.7;
  const double p07 = eng.analyze(opt).min_period_ps;
  const tech::TechNode t = tech::make_default_40nm();
  EXPECT_NEAR(p12 / p09, t.delay_scale(1.2), 0.02);
  EXPECT_NEAR(p07 / p09, t.delay_scale(0.7), 0.02);
  opt.vdd = 0.4;
  EXPECT_THROW((void)eng.analyze(opt), std::invalid_argument);
}

TEST(Sta, CriticalPathTraceIsOrdered) {
  const auto d = inv_chain_design(12);
  const auto flat = netlist::flatten(d, "chain");
  sta::StaEngine eng(flat, lib());
  const auto rep = eng.analyze({});
  ASSERT_GE(rep.critical.stages.size(), 12u);
  for (std::size_t i = 1; i < rep.critical.stages.size(); ++i) {
    EXPECT_GE(rep.critical.stages[i].arrival_ps,
              rep.critical.stages[i - 1].arrival_ps);
  }
  EXPECT_NE(rep.critical.endpoint.find("DFF"), std::string::npos);
}

TEST(Sta, WireModelLoadIncreasesDelay) {
  const auto d = inv_chain_design(8);
  const auto flat = netlist::flatten(d, "chain");
  sta::StaEngine eng(flat, lib());
  sta::StaOptions opt;
  opt.wire.cap_per_fanout_ff = 0.0;
  const double light = eng.analyze(opt).min_period_ps;
  opt.wire.cap_per_fanout_ff = 5.0;
  const double heavy = eng.analyze(opt).min_period_ps;
  EXPECT_GT(heavy, light * 1.2);
}

TEST(Sta, CombinationalLoopDetected) {
  netlist::Design d;
  netlist::Module m("loop");
  const auto a = m.add_net("a");
  const auto b = m.add_net("b");
  m.add_cell("i0", "INVX1", {{"A", a}, {"Y", b}});
  m.add_cell("i1", "INVX1", {{"A", b}, {"Y", a}});
  d.add_module(std::move(m));
  const auto flat = netlist::flatten(d, "loop");
  EXPECT_THROW((sta::StaEngine{flat, lib()}), std::invalid_argument);
}

TEST(Sta, MultipleDriversRejected) {
  netlist::Design d;
  netlist::Module m("bad");
  const auto a = m.add_port("a", PortDir::kIn);
  const auto y = m.add_port("y", PortDir::kOut);
  m.add_cell("i0", "INVX1", {{"A", a}, {"Y", y}});
  m.add_cell("i1", "INVX1", {{"A", a}, {"Y", y}});
  d.add_module(std::move(m));
  const auto flat = netlist::flatten(d, "bad");
  EXPECT_THROW((sta::StaEngine{flat, lib()}), std::invalid_argument);
}

TEST(Sta, MacroPathGroupsAndWriteDomain) {
  rtlgen::MacroConfig cfg;
  cfg.rows = 16;
  cfg.cols = 8;
  cfg.mcr = 2;
  cfg.input_bits = {4};
  cfg.weight_bits = {4};
  const auto md = rtlgen::gen_macro(cfg);
  const auto flat = netlist::flatten(md.design, md.top);
  sta::StaEngine eng(flat, lib());
  sta::StaOptions opt;
  opt.clock_period_ps = units::period_ps_from_mhz(200.0);  // loose
  const auto rep = eng.analyze(opt);
  EXPECT_TRUE(rep.met());
  EXPECT_GT(rep.min_period_ps, 0.0);
  EXPECT_GT(rep.min_write_period_ps, 0.0);
  // Write path (drivers + bitline) is much shorter than the MAC path.
  EXPECT_LT(rep.min_write_period_ps, rep.min_period_ps);
  // Groups present: column groups and wldrv/ofu endpoints exist.
  bool has_col = false, has_ofu = false;
  for (const auto& g : rep.groups) {
    if (g.group.rfind("col", 0) == 0) has_col = true;
    if (g.group.rfind("ofu_g", 0) == 0) has_ofu = true;
  }
  EXPECT_TRUE(has_col);
  EXPECT_TRUE(has_ofu);
}

TEST(Sta, FasterAdderMixShortensMacPath) {
  auto min_period = [&](double fa_fraction, bool reorder) {
    rtlgen::AdderTreeConfig cfg;
    cfg.rows = 64;
    cfg.style = rtlgen::AdderTreeStyle::kMixed;
    cfg.fa_fraction = fa_fraction;
    cfg.carry_reorder = reorder;
    netlist::Design d;
    d.add_module(rtlgen::gen_adder_tree(cfg, "tree"));
    const auto flat = netlist::flatten(d, "tree");
    sta::StaEngine eng(flat, lib());
    return eng.analyze({}).min_period_ps;
  };
  // The paper's claim: replacing compressors with FAs shortens the
  // critical path, and carry reordering helps further.
  EXPECT_LT(min_period(1.0, true), min_period(0.0, true));
  EXPECT_LE(min_period(0.0, true), min_period(0.0, false) * 1.02);
}

TEST(Sta, RcaTreeSlowerThanCompressorTree) {
  auto tree_period = [&](rtlgen::AdderTreeStyle style) {
    rtlgen::AdderTreeConfig cfg;
    cfg.rows = 64;
    cfg.style = style;
    netlist::Design d;
    d.add_module(rtlgen::gen_adder_tree(cfg, "tree"));
    const auto flat = netlist::flatten(d, "tree");
    sta::StaEngine eng(flat, lib());
    return eng.analyze({}).min_period_ps;
  };
  EXPECT_GT(tree_period(rtlgen::AdderTreeStyle::kRcaTree),
            tree_period(rtlgen::AdderTreeStyle::kCompressor));
}

TEST(Sta, RetimedCpaShortensTreeStage) {
  // tt2: with the CPA pushed into the S&A, the column group's worst
  // register-endpoint arrival (the MAC path) gets shorter; the OFU path is
  // unaffected, so compare the column group specifically.
  auto col_group_arrival = [&](bool retime) {
    rtlgen::MacroConfig cfg;
    cfg.rows = 64;
    cfg.cols = 8;
    cfg.mcr = 1;
    cfg.input_bits = {4};
    cfg.weight_bits = {4};
    cfg.pipe.reg_after_tree = true;
    cfg.pipe.retime_tree_cpa = retime;
    const auto md = rtlgen::gen_macro(cfg);
    const auto flat = netlist::flatten(md.design, md.top);
    sta::StaEngine eng(flat, lib());
    const auto rep = eng.analyze({});
    for (const auto& g : rep.groups) {
      if (g.group == "col0") return g.worst_arrival_ps;
    }
    ADD_FAILURE() << "no col0 group";
    return 0.0;
  };
  EXPECT_LT(col_group_arrival(true), col_group_arrival(false));
}

}  // namespace

namespace {
using namespace syndcim;
using netlist::PortDir;

const cell::Library& fix_lib() {
  static const cell::Library l =
      cell::characterize_default_library(tech::make_default_40nm());
  return l;
}

/// Flat net id by name; accepts hierarchical "<inst>.<name>" suffixes.
std::uint32_t find_net(const netlist::FlatNetlist& flat,
                       std::string_view name) {
  for (std::uint32_t n = 0; n < flat.net_count(); ++n) {
    const std::string_view nn = flat.net_name(n);
    if (nn == name) return n;
    if (nn.size() > name.size() + 1 &&
        nn.compare(nn.size() - name.size(), name.size(), name) == 0) {
      const char sep = nn[nn.size() - name.size() - 1];
      if (sep == '.' || sep == '/') return n;
    }
  }
  ADD_FAILURE() << "net not found: " << name;
  return 0;
}

/// Reconvergent two-arc fixture: a long chain of strong inverters (late
/// arrival, clean slew) and a single weak inverter driving `nb` (early
/// arrival, degraded slew when `nb` is loaded) merge at one NAND whose
/// output feeds a short chain into the capture register.
struct TwoArcFixture {
  netlist::Design d;
  explicit TwoArcFixture(int chain_len) {
    netlist::Module m("slewfix");
    rtlgen::GateBuilder gb(m, "g_");
    const auto clk = m.add_port("clk", PortDir::kIn);
    const auto in = m.add_port("in", PortDir::kIn);
    const auto x = gb.dff(in, clk);
    netlist::NetId na = x;
    for (int i = 0; i < chain_len; ++i) na = gb.inv(na);
    const auto nb = m.add_net("nb");
    m.add_cell("weak", "INVX1", {{"A", x}, {"Y", nb}});
    const auto y = m.add_net("y");
    m.add_cell("merge", "NAND2X1", {{"A", na}, {"B", nb}, {"Y", y}});
    netlist::NetId t = y;
    for (int i = 0; i < 3; ++i) t = gb.inv(t);
    const auto q = gb.dff(t, clk);
    const auto out = m.add_port("out", PortDir::kOut);
    m.add_cell("obuf", "BUFX1", {{"A", q}, {"Y", out}});
    d.add_module(std::move(m));
  }
};

TEST(StaBugfix, WorstSlewPropagatesFromLosingArc) {
  const TwoArcFixture fx(12);
  const auto flat = netlist::flatten(fx.d, "slewfix");
  sta::StaEngine eng(flat, fix_lib());
  const std::uint32_t nb = find_net(flat, "nb");
  auto analyze_with_cap = [&](double cap_ff) {
    sta::StaOptions opt;
    opt.wire.per_net_cap_ff.assign(flat.net_count(), -1.0);
    opt.wire.per_net_cap_ff[nb] = cap_ff;
    return eng.analyze(opt);
  };
  const auto light = analyze_with_cap(0.0);
  const auto heavy = analyze_with_cap(25.0);
  // Guard: the arrival race into the NAND is still won by the long chain
  // in both runs (the critical path threads every chain stage), so the
  // extra load only degraded the slew of the *losing* arc.
  ASSERT_GE(light.critical.stages.size(), 14u);
  ASSERT_GE(heavy.critical.stages.size(), 14u);
  // Worst-case slew must propagate independently of the arrival winner:
  // loading the loser's net slows everything downstream of the NAND.
  EXPECT_GT(heavy.min_period_ps, light.min_period_ps + 0.5);
}

/// Config-mux fixture: `mode` is a static configuration input feeding a
/// config register (in its own depth-1 group) and, through two buffers, a
/// data-mux select. The only switching paths are the register feedback
/// loop and its output buffer.
struct ConfigMuxFixture {
  netlist::Design d;
  ConfigMuxFixture() {
    {
      netlist::Module sub("cfgblk");
      const auto mode_in = sub.add_port("mode_in", PortDir::kIn);
      const auto clk_in = sub.add_port("clk_in", PortDir::kIn);
      const auto q_out = sub.add_port("q_out", PortDir::kOut);
      sub.add_cell("cfg_ff", "DFFX1",
                   {{"D", mode_in}, {"CK", clk_in}, {"Q", q_out}});
      d.add_module(std::move(sub));
    }
    netlist::Module m("top");
    rtlgen::GateBuilder gb(m, "g_");
    const auto clk = m.add_port("clk", PortDir::kIn);
    const auto mode = m.add_port("mode", PortDir::kIn);
    const auto out = m.add_port("out", PortDir::kOut);
    const auto cfgq = m.add_net("cfgq");
    m.add_submodule("u_cfg", "cfgblk",
                    {{"mode_in", mode}, {"clk_in", clk}, {"q_out", cfgq}});
    const auto selb1 = m.add_net("selb1");
    m.add_cell("sb1", "BUFX1", {{"A", mode}, {"Y", selb1}});
    const auto selb2 = m.add_net("selb2");
    m.add_cell("sb2", "BUFX1", {{"A", selb1}, {"Y", selb2}});
    const auto r = m.add_net("r");
    const auto rb = gb.inv(r);
    const auto mx = gb.mux2(r, rb, selb2);
    m.add_cell("ff_r", "DFFX1", {{"D", mx}, {"CK", clk}, {"Q", r}});
    m.add_cell("ob", "BUFX1", {{"A", r}, {"Y", out}});
    d.add_module(std::move(m));
  }
};

TEST(StaBugfix, StaticInputCaseAnalysisPropagates) {
  const ConfigMuxFixture fx;
  const auto flat = netlist::flatten(fx.d, "top");
  sta::StaEngine eng(flat, fix_lib());
  sta::StaOptions opt;
  opt.clock_period_ps = 10000.0;
  opt.input_delay_ps = 3000.0;
  opt.static_inputs = {"mode"};
  const auto rep = eng.analyze(opt);
  // The config register's D pin sits directly on the static input: with
  // case analysis applied it is not a timed endpoint, so its group has no
  // finite slack and the (huge) input delay never reaches min_period.
  EXPECT_TRUE(std::isinf(rep.group_wns("u_cfg")));
  EXPECT_LT(rep.min_period_ps, 1000.0);
  EXPECT_GT(rep.min_period_ps, 0.0);
  // The untimed mask propagates through the select buffers: loading a
  // dead select net cannot move timing (no dead-arc slew injection).
  sta::StaOptions optc = opt;
  optc.wire.per_net_cap_ff.assign(flat.net_count(), -1.0);
  optc.wire.per_net_cap_ff[find_net(flat, "selb1")] = 80.0;
  const auto repc = eng.analyze(optc);
  EXPECT_DOUBLE_EQ(repc.min_period_ps, rep.min_period_ps);
  EXPECT_DOUBLE_EQ(repc.wns_ps, rep.wns_ps);
  // Without case analysis the same fixture times the config paths.
  sta::StaOptions optn = opt;
  optn.static_inputs.clear();
  const auto repn = eng.analyze(optn);
  EXPECT_FALSE(std::isinf(repn.group_wns("u_cfg")));
  EXPECT_GT(repn.min_period_ps, 3000.0);
}

}  // namespace

namespace {
using namespace syndcim;

rtlgen::MacroConfig golden_cfg(int variant) {
  rtlgen::MacroConfig cfg;
  cfg.rows = 16;
  cfg.cols = 8;
  cfg.mcr = 2;
  cfg.input_bits = {2, 4};
  cfg.weight_bits = {2, 4};
  cfg.fp_formats = {};
  if (variant == 1) {
    cfg.mux = rtlgen::MuxStyle::kOai22Fused;
  } else if (variant == 2) {
    cfg.tree.style = rtlgen::AdderTreeStyle::kCompressor;
  }
  return cfg;
}

/// Exact (bitwise, via operator==) comparison of two timing reports.
void expect_report_equal(const sta::TimingReport& a,
                         const sta::TimingReport& b) {
  EXPECT_EQ(a.wns_ps, b.wns_ps);
  EXPECT_EQ(a.tns_ps, b.tns_ps);
  EXPECT_EQ(a.min_period_ps, b.min_period_ps);
  EXPECT_EQ(a.fmax_mhz, b.fmax_mhz);
  EXPECT_EQ(a.min_write_period_ps, b.min_write_period_ps);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(a.groups[i].group, b.groups[i].group);
    EXPECT_EQ(a.groups[i].wns_ps, b.groups[i].wns_ps);
    EXPECT_EQ(a.groups[i].worst_arrival_ps, b.groups[i].worst_arrival_ps);
  }
  EXPECT_EQ(a.critical.arrival_ps, b.critical.arrival_ps);
  EXPECT_EQ(a.critical.required_ps, b.critical.required_ps);
  EXPECT_EQ(a.critical.endpoint, b.critical.endpoint);
  ASSERT_EQ(a.critical.stages.size(), b.critical.stages.size());
  for (std::size_t i = 0; i < a.critical.stages.size(); ++i) {
    EXPECT_EQ(a.critical.stages[i].master, b.critical.stages[i].master);
    EXPECT_EQ(a.critical.stages[i].group, b.critical.stages[i].group);
    EXPECT_EQ(a.critical.stages[i].arrival_ps,
              b.critical.stages[i].arrival_ps);
  }
}

TEST(KernelGolden, StaSoaMatchesScalarBitForBit) {
  for (int variant = 0; variant < 3; ++variant) {
    SCOPED_TRACE(variant);
    const auto md = rtlgen::gen_macro(golden_cfg(variant));
    const auto flat = netlist::flatten(md.design, md.top);
    sta::StaEngine eng(flat, lib());
    sta::StaOptions opt;
    opt.input_delay_ps = 120.0;
    opt.vdd = 1.0;
    // Mixed wire model: fanout estimate plus scattered back-annotations,
    // so both the fanout path and the per-net override path are covered.
    opt.wire.per_net_cap_ff.assign(flat.net_count(), -1.0);
    for (std::uint32_t n = 0; n < flat.net_count(); n += 7) {
      opt.wire.per_net_cap_ff[n] = 0.125 * (n % 5);
    }
    opt.kernel = sta::StaKernel::kSoa;
    const auto soa = eng.analyze(opt);
    opt.kernel = sta::StaKernel::kScalar;
    const auto scalar = eng.analyze(opt);
    expect_report_equal(soa, scalar);
    EXPECT_GT(soa.min_period_ps, 0.0);

    // Monte-Carlo corners reuse the same kernels under per-gate derates.
    opt.kernel = sta::StaKernel::kSoa;
    const auto var_soa = eng.analyze_variation(opt, 0.05, 0.03, 8, 11);
    opt.kernel = sta::StaKernel::kScalar;
    const auto var_scalar = eng.analyze_variation(opt, 0.05, 0.03, 8, 11);
    EXPECT_EQ(var_soa.fmax_samples_mhz, var_scalar.fmax_samples_mhz);
  }
}

TEST(KernelGolden, StaSoaMatchesScalarOnParsedLibrary) {
  // A Liberty round trip rebuilds every LUT, so equal slew axes live at
  // different addresses: the engine's axis table must fall back from
  // address to content, and both kernels must still agree bit for bit.
  std::ostringstream os;
  cell::write_liberty(lib(), os);
  std::istringstream is(os.str());
  const cell::Library parsed =
      cell::parse_liberty(is, tech::make_default_40nm());
  const cell::Lut2d& inv_delay = parsed.get("INVX1").arcs.at(0).delay_ps;
  const cell::Lut2d& nand_delay = parsed.get("NAND2X1").arcs.at(0).delay_ps;
  ASSERT_NE(&inv_delay.slew_axis(), &nand_delay.slew_axis());
  ASSERT_EQ(inv_delay.slew_axis(), nand_delay.slew_axis());

  const auto md = rtlgen::gen_macro(golden_cfg(0));
  const auto flat = netlist::flatten(md.design, md.top);
  sta::StaEngine eng(flat, parsed);
  sta::StaOptions opt;
  opt.static_inputs = md.static_control_ports();
  opt.wire.per_net_cap_ff.assign(flat.net_count(), -1.0);
  for (std::uint32_t n = 0; n < flat.net_count(); n += 5) {
    opt.wire.per_net_cap_ff[n] = 0.25 * (n % 3);
  }
  opt.kernel = sta::StaKernel::kSoa;
  const auto soa = eng.analyze(opt);
  opt.kernel = sta::StaKernel::kScalar;
  const auto scalar = eng.analyze(opt);
  expect_report_equal(soa, scalar);
  EXPECT_FALSE(soa.critical.stages.empty());
  EXPECT_GT(soa.min_period_ps, 0.0);
}

TEST(StaVariation, DistributionAndYield) {
  netlist::Design d;
  {
    netlist::Module m("chain");
    rtlgen::GateBuilder gb(m, "g_");
    const auto clk = m.add_port("clk", netlist::PortDir::kIn);
    const auto in = m.add_port("in", netlist::PortDir::kIn);
    netlist::NetId x = gb.dff(in, clk);
    for (int i = 0; i < 24; ++i) x = gb.inv(x);
    const auto q = gb.dff(x, clk);
    const auto out = m.add_port("out", netlist::PortDir::kOut);
    m.add_cell("obuf", "BUFX1", {{"A", q}, {"Y", out}});
    d.add_module(std::move(m));
  }
  const auto flat = netlist::flatten(d, "chain");
  const cell::Library l =
      cell::characterize_default_library(tech::make_default_40nm());
  sta::StaEngine eng(flat, l);
  const double nominal = eng.analyze({}).fmax_mhz;
  const auto var = eng.analyze_variation({}, 0.05, 0.03, 80, 7);
  ASSERT_EQ(var.fmax_samples_mhz.size(), 80u);
  // Mean near nominal, nonzero spread, sensible yield curve.
  EXPECT_NEAR(var.mean_fmax_mhz, nominal, 0.15 * nominal);
  EXPECT_GT(var.sigma_fmax_mhz, 0.0);
  EXPECT_LT(var.sigma_fmax_mhz, 0.2 * nominal);
  EXPECT_DOUBLE_EQ(var.yield_at(1.0), 1.0);
  EXPECT_DOUBLE_EQ(var.yield_at(1e9), 0.0);
  EXPECT_GE(var.yield_at(0.8 * nominal), var.yield_at(1.1 * nominal));
  // Deterministic for a fixed seed.
  const auto var2 = eng.analyze_variation({}, 0.05, 0.03, 80, 7);
  EXPECT_EQ(var.fmax_samples_mhz, var2.fmax_samples_mhz);
  // Larger sigma widens the distribution.
  const auto wide = eng.analyze_variation({}, 0.15, 0.08, 80, 7);
  EXPECT_GT(wide.sigma_fmax_mhz, var.sigma_fmax_mhz);
  EXPECT_THROW((void)eng.analyze_variation({}, -0.1, 0.0, 10),
               std::invalid_argument);
  EXPECT_THROW((void)eng.analyze_variation({}, 0.1, 0.0, 0),
               std::invalid_argument);
}

}  // namespace
