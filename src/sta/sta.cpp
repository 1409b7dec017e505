#include "sta/sta.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <random>
#include <stdexcept>
#include <type_traits>

#include "netlist/levelize.hpp"
#include "obs/obs.hpp"

namespace syndcim::sta {

using netlist::FlatNetlist;
using netlist::NetConst;

namespace {
constexpr std::uint32_t kNoNet = UINT32_MAX;
constexpr double kStorageQSlewPs = 80.0;  // weak bitcell read transition
constexpr double kClockSlewPs = 40.0;

/// Collapsed rows are stored with at least two entries so the kernel can
/// unconditionally blend row[i] and row[i+1] (a single-point slew axis
/// duplicates its value; lut_lerp(v, v, 0) == v bit for bit).
std::size_t row_stride(const cell::Lut2d& lut) {
  return std::max<std::size_t>(2, lut.slew_axis().size());
}

/// Same segment Lut2d::locate computes (upper_bound semantics, clamped
/// ends, identical FP expression for t), over a flat axis slice. The
/// linear scan beats a binary search on the short characterization grids
/// and keeps the whole lookup inlined in the kernel loop.
inline cell::LutSeg locate_axis(const double* ax, std::uint32_t n,
                                double x) {
  if (n == 1 || x <= ax[0]) return {0, 0.0};
  if (x >= ax[n - 1]) return {n - 2, 1.0};
  std::size_t hi = 1;
  while (ax[hi] <= x) ++hi;
  const std::size_t lo = hi - 1;
  const double span = ax[hi] - ax[lo];
  return {lo, span > 0 ? (x - ax[lo]) / span : 0.0};
}

/// Open-addressing index from (LUT, load) to a LoadPlan row offset. Keys
/// compare by load value, as an ordered map would (+0 and -0 are one key).
/// Slots hold 4-byte indices into the key list, which only grows with
/// distinct keys: a 128x128 macro has ~266k arcs but ~19k distinct keys.
class RowTable {
 public:
  static constexpr std::uint32_t kNew = UINT32_MAX;

  explicit RowTable(std::size_t expected_keys) {
    keys_.reserve(expected_keys);
    resize_slots(expected_keys);
  }

  /// The row offset stored for the key, or kNew if the key was just added
  /// (the caller stores its offset through the returned reference).
  std::uint32_t& row(const cell::Lut2d* lut, double load) {
    std::size_t i = hash(lut, load) & mask_;
    for (; slots_[i] != kEmpty; i = (i + 1) & mask_) {
      Key& k = keys_[slots_[i]];
      if (k.lut == lut && k.load == load) return k.off;
    }
    slots_[i] = static_cast<std::uint32_t>(keys_.size());
    keys_.push_back({lut, load, kNew});
    if (2 * keys_.size() > slots_.size()) resize_slots(keys_.size());
    return keys_.back().off;
  }

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;
  struct Key {
    const cell::Lut2d* lut;
    double load;
    std::uint32_t off;
  };

  static std::size_t hash(const cell::Lut2d* lut, double load) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(load + 0.0);
    std::uint64_t h = reinterpret_cast<std::uintptr_t>(lut) *
                          0x9e3779b97f4a7c15ull ^
                      bits * 0xc2b2ae3d27d4eb4full;
    h ^= h >> 32;
    return static_cast<std::size_t>(h);
  }

  /// At least 2x `keys` slots (a power of two), every key reinserted.
  void resize_slots(std::size_t keys) {
    std::size_t cap = 16;
    while (cap < 2 * keys) cap <<= 1;
    slots_.assign(cap, kEmpty);
    mask_ = cap - 1;
    for (std::uint32_t k = 0; k < keys_.size(); ++k) {
      std::size_t i = hash(keys_[k].lut, keys_[k].load) & mask_;
      while (slots_[i] != kEmpty) i = (i + 1) & mask_;
      slots_[i] = k;
    }
  }

  std::vector<Key> keys_;  ///< distinct keys, first-encounter order
  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
};
}  // namespace

double TimingReport::group_wns(std::string_view g) const {
  for (const GroupSlack& gs : groups) {
    if (gs.group == g) return gs.wns_ps;
  }
  return std::numeric_limits<double>::infinity();
}

StaEngine::StaEngine(const FlatNetlist& nl, const cell::Library& lib)
    : StaEngine(std::make_shared<const netlist::ResolvedNetlist>(nl, lib)) {}

StaEngine::StaEngine(std::shared_ptr<const netlist::ResolvedNetlist> owned)
    : StaEngine(*owned) {
  owned_ = std::move(owned);
}

StaEngine::StaEngine(const netlist::ResolvedNetlist& rn)
    : rn_(rn), nl_(rn.netlist()), lib_(rn.library()) {
  OBS_SPAN("sta.build");
  const FlatNetlist& nl = nl_;
  rn.require_known_cells();
  for (const netlist::ResolveDefect& d : rn.defects()) {
    using K = netlist::ResolveDefect::Kind;
    const cell::Cell& c = *rn.cell(d.gate);
    switch (d.kind) {
      case K::kUnknownPin:
        throw std::invalid_argument("StaEngine: cell " + c.name +
                                    " has no pin " + nl.pin_names()[d.pin]);
      case K::kUnconnectedInput:
        throw std::invalid_argument("StaEngine: unconnected input pin " +
                                    c.pins[d.pin].name + " on " + c.name);
      case K::kMultiDriver:
        throw std::invalid_argument("StaEngine: net has multiple drivers");
      case K::kDrivesConstant:
        throw std::invalid_argument("StaEngine: gate drives constant net");
      case K::kDrivenInput:
        throw std::invalid_argument("StaEngine: primary input " +
                                    nl.primary_inputs()[d.pin].name +
                                    " also driven by a gate");
    }
  }
  if (rn.unscheduled() != 0) {
    throw std::invalid_argument(
        netlist::comb_loop_message("StaEngine", rn.unscheduled()));
  }

  const std::size_t ngates = nl.gates().size();
  const std::size_t nnets = nl.net_count();
  pin_cap_sum_.assign(nnets, 0.0);
  fanout_.resize(nnets);
  for (std::uint32_t n = 0; n < nnets; ++n) {
    fanout_[n] = static_cast<int>(rn.fanout(n));
  }
  for (std::uint32_t g = 0; g < ngates; ++g) {
    const cell::Cell& c = *rn.cell(g);
    const auto nets = rn.pin_nets(g);
    for (std::size_t pi = 0; pi < c.pins.size(); ++pi) {
      if (c.pins[pi].is_input && nets[pi] != kNoNet) {
        pin_cap_sum_[nets[pi]] += c.pins[pi].cap_ff;
      }
    }
  }

  net_const_.assign(nnets, 0);
  for (std::uint32_t n = 0; n < nnets; ++n) {
    net_const_[n] = nl.net_const(n) != NetConst::kNone ? 1 : 0;
  }

  // Flatten the timing arcs into a CSR in the exact (level, gate, arc)
  // order the scalar arm visits them, so both kernels accumulate their
  // max() reductions in the same order and stay bit-identical.
  level_arc_begin_.push_back(0);
  level_net_begin_.push_back(0);
  std::vector<std::uint8_t> seen(nnets, 0);  // one driver => one level
  // Dedup slew axes into one flat table (the library shares a handful of
  // characterization grids, so this stays L1-resident in the kernel).
  // Equal axes may live in different LUTs, so ids are content ids; each
  // master's arcs are mapped to their (delay, out-slew) axis ids once.
  std::map<std::vector<double>, std::uint16_t> axis_by_content;
  const auto axis_id = [&](const std::vector<double>& axis) {
    const auto [it, added] = axis_by_content.try_emplace(
        axis, static_cast<std::uint16_t>(ax_off_.size()));
    if (added) {
      ax_off_.push_back(static_cast<std::uint32_t>(ax_vals_.size()));
      ax_len_.push_back(static_cast<std::uint32_t>(axis.size()));
      ax_vals_.insert(ax_vals_.end(), axis.begin(), axis.end());
    }
    return it->second;
  };
  struct ArcAxes {
    std::uint16_t delay, slew;
  };
  std::vector<std::vector<ArcAxes>> master_axes(nl.master_names().size());
  for (std::size_t lvl = 0; lvl < rn.level_count(); ++lvl) {
    for (const std::uint32_t g : rn.level(lvl)) {
      const cell::Cell& c = *rn.cell(g);
      const auto nets = rn.pin_nets(g);
      std::vector<ArcAxes>& axes = master_axes[nl.gates()[g].master];
      if (axes.size() != c.arcs.size()) {
        for (const auto& arc : c.arcs) {
          axes.push_back({axis_id(arc.delay_ps.slew_axis()),
                          axis_id(arc.out_slew_ps.slew_axis())});
        }
      }
      for (std::size_t a = 0; a < c.arcs.size(); ++a) {
        const cell::TimingArc& arc = c.arcs[a];
        const std::uint32_t in_net =
            nets[static_cast<std::size_t>(arc.from_pin)];
        const std::uint32_t out_net =
            nets[static_cast<std::size_t>(arc.to_pin)];
        if (in_net == kNoNet || out_net == kNoNet) continue;
        // Arcs from constant nets can never fire (the scalar arm skips
        // them on every visit); dropping them here removes the per-arc
        // net_const_ test from the kernel. Their out_nets still join
        // level_out_nets_ below so case-analysis marking is unchanged.
        if (!net_const_[in_net]) {
          arc_in_.push_back(in_net);
          arc_out_.push_back(out_net);
          arc_gate_.push_back(g);
          arc_delay_.push_back(&arc.delay_ps);
          arc_oslew_.push_back(&arc.out_slew_ps);
          arc_dax_.push_back(axes[a].delay);
          arc_sax_.push_back(axes[a].slew);
        }
        if (!seen[out_net]) {
          seen[out_net] = 1;
          level_out_nets_.push_back(out_net);
        }
      }
    }
    level_arc_begin_.push_back(static_cast<std::uint32_t>(arc_in_.size()));
    level_net_begin_.push_back(
        static_cast<std::uint32_t>(level_out_nets_.size()));
  }

  // Launch points and setup endpoints, resolved once so per-analysis work
  // never touches pin names or roles.
  for (std::uint32_t g = 0; g < ngates; ++g) {
    const cell::Cell& c = *rn.cell(g);
    const cell::TimingRole role = c.timing_role();
    if (role == cell::TimingRole::kCombinational) continue;
    const bool storage = role == cell::TimingRole::kStorage;
    const auto nets = rn.pin_nets(g);
    for (std::size_t pi = 0; pi < c.pins.size(); ++pi) {
      const cell::Pin& p = c.pins[pi];
      const std::uint32_t net = nets[pi];
      if (net == kNoNet) continue;
      if (!p.is_input) {
        launches_.push_back({g, net, static_cast<std::uint16_t>(pi), storage});
      } else if (!p.is_clock && !net_const_[net]) {
        setup_eps_.push_back({net, g, nl.gates()[g].group,
                              static_cast<std::uint16_t>(pi), storage,
                              c.setup_ps});
      }
    }
  }
}

const std::vector<StaEngine::GateInfo>& StaEngine::scalar_gates() const {
  std::call_once(scalar_once_, [&] {
    scalar_gates_.reserve(nl_.gates().size());
    for (std::uint32_t g = 0; g < nl_.gates().size(); ++g) {
      const auto nets = rn_.pin_nets(g);
      scalar_gates_.push_back(
          {rn_.cell(g), std::vector<std::uint32_t>(nets.begin(), nets.end()),
           nl_.gates()[g].group});
    }
  });
  return scalar_gates_;
}

double StaEngine::net_load_ff(std::uint32_t net, const WireModel& wire) const {
  return pin_cap_sum_[net] + wire.net_cap(net, fanout_[net]);
}

std::shared_ptr<const StaEngine::LoadPlan> StaEngine::load_plan(
    const WireModel& wire) const {
  {
    std::lock_guard<std::mutex> lk(plan_mu_);
    if (plan_ && plan_->wire.cap_per_fanout_ff == wire.cap_per_fanout_ff &&
        plan_->wire.per_net_cap_ff == wire.per_net_cap_ff) {
      return plan_;
    }
  }
  OBS_SPAN("sta.load_plan");
  auto p = std::make_shared<LoadPlan>();
  p->wire = wire;
  const std::size_t nnets = nl_.net_count();
  p->net_load.resize(nnets);
  for (std::uint32_t n = 0; n < nnets; ++n) {
    p->net_load[n] = net_load_ff(n, wire);
  }
  // Collapse each (LUT, load) pair once: the library has a few dozen
  // distinct LUTs and the load values quantize heavily, so the shared
  // rows fit in cache where one private row pair per arc would not. Rows
  // are appended in first-encounter order.
  // Distinct keys run at 2-30% of the arc count on generated macros.
  RowTable row_ids(arc_in_.size() / 4);
  const auto row_id = [&](const cell::Lut2d* lut, double load) {
    std::uint32_t& off = row_ids.row(lut, load);
    if (off != RowTable::kNew) return off;
    off = static_cast<std::uint32_t>(p->rows.size());
    p->rows.resize(p->rows.size() + row_stride(*lut));
    double* r = &p->rows[off];
    lut->collapse_load(load, r);
    if (lut->slew_axis().size() == 1) r[1] = r[0];
    return off;
  };
  p->arc_drow.resize(arc_in_.size());
  p->arc_srow.resize(arc_in_.size());
  for (std::size_t a = 0; a < arc_in_.size(); ++a) {
    const double load = p->net_load[arc_out_[a]];
    p->arc_drow[a] = row_id(arc_delay_[a], load);
    p->arc_srow[a] = row_id(arc_oslew_[a], load);
  }
  p->launch_delay.resize(launches_.size());
  p->launch_slew.resize(launches_.size());
  for (std::size_t i = 0; i < launches_.size(); ++i) {
    const LaunchPoint& lp = launches_[i];
    if (lp.storage) {
      p->launch_delay[i] = 0.0;
      p->launch_slew[i] = kStorageQSlewPs;
      continue;
    }
    const double load = p->net_load[lp.qnet];
    double d = 0.0, s = kClockSlewPs;
    for (const auto& arc : rn_.cell(lp.gate)->arcs) {
      if (arc.to_pin != lp.pin) continue;
      d = std::max(d, arc.delay_ps.eval(kClockSlewPs, load));
      s = std::max(s, arc.out_slew_ps.eval(kClockSlewPs, load));
    }
    p->launch_delay[i] = d;
    p->launch_slew[i] = s;
  }
  if (obs::enabled()) obs::metrics().counter("sta.plan.builds").inc();
  std::lock_guard<std::mutex> lk(plan_mu_);
  plan_ = p;
  return p;
}

double VariationReport::yield_at(double freq_mhz) const {
  if (fmax_samples_mhz.empty()) return 0.0;
  std::size_t ok = 0;
  for (const double f : fmax_samples_mhz) ok += f >= freq_mhz ? 1 : 0;
  return static_cast<double>(ok) / fmax_samples_mhz.size();
}

TimingReport StaEngine::analyze(const StaOptions& opt) const {
  if (opt.diag) {
    // Constraint sanity: a static_inputs name matching no primary input
    // is almost always a typo, and the path it was meant to exclude
    // silently stays in the timing graph.
    for (const std::string& name : opt.static_inputs) {
      bool found = false;
      for (const auto& io : nl_.primary_inputs()) {
        if (io.name == name) {
          found = true;
          break;
        }
      }
      if (!found) {
        opt.diag->warning("STA-UNKNOWN-INPUT",
                          "static_inputs name matches no primary input",
                          name, "sta");
      }
    }
  }
  return analyze_impl(opt, nullptr);
}

VariationReport StaEngine::analyze_variation(const StaOptions& opt,
                                             double delay_sigma,
                                             double global_sigma,
                                             int samples,
                                             unsigned seed) const {
  if (samples < 1 || delay_sigma < 0 || global_sigma < 0) {
    throw std::invalid_argument("analyze_variation: bad parameters");
  }
  std::mt19937 rng(seed);
  std::normal_distribution<double> n01;
  VariationReport rep;
  rep.fmax_samples_mhz.reserve(static_cast<std::size_t>(samples));
  std::vector<float> derate(nl_.gates().size());
  for (int s = 0; s < samples; ++s) {
    // Global corner shift shared by the die, plus independent local
    // variation per gate (lognormal keeps derates positive).
    const double global = std::exp(global_sigma * n01(rng));
    for (float& d : derate) {
      d = static_cast<float>(global * std::exp(delay_sigma * n01(rng)));
    }
    rep.fmax_samples_mhz.push_back(
        analyze_impl(opt, derate.data()).fmax_mhz);
  }
  double sum = 0, sq = 0;
  for (const double f : rep.fmax_samples_mhz) {
    sum += f;
    sq += f * f;
  }
  rep.mean_fmax_mhz = sum / samples;
  rep.sigma_fmax_mhz = std::sqrt(
      std::max(0.0, sq / samples - rep.mean_fmax_mhz * rep.mean_fmax_mhz));
  return rep;
}

void StaEngine::propagate_scalar(const StaOptions& opt,
                                 const float* gate_derate,
                                 PropState& ps) const {
  const std::vector<GateInfo>& gates = scalar_gates();
  for (std::size_t lvl = 0; lvl < rn_.level_count(); ++lvl) {
    for (const std::uint32_t g : rn_.level(lvl)) {
      const GateInfo& gi = gates[g];
      for (const auto& arc : gi.cell->arcs) {
        const std::uint32_t in_net =
            gi.pin_nets[static_cast<std::size_t>(arc.from_pin)];
        const std::uint32_t out_net =
            gi.pin_nets[static_cast<std::size_t>(arc.to_pin)];
        if (in_net == kNoNet || out_net == kNoNet) continue;
        if (net_const_[in_net] || ps.untimed[in_net]) continue;
        const double load = net_load_ff(out_net, opt.wire);
        double d = arc.delay_ps.eval(ps.ts[in_net].slew, load);
        if (gate_derate) d *= gate_derate[g];
        const double cand = ps.ts[in_net].at + d;
        if (cand > ps.ts[out_net].at) {
          ps.ts[out_net].at = cand;
          ps.tr[out_net] = {in_net, static_cast<std::int32_t>(g)};
        }
        // Worst slew over all live arcs, independent of which arc wins
        // the arrival race: the slowest transition reaches the next stage
        // even when a faster path launches the winning edge.
        const double s =
            std::min(arc.out_slew_ps.eval(ps.ts[in_net].slew, load),
                     opt.max_slew_ps);
        if (!ps.slew_set[out_net]) {
          ps.ts[out_net].slew = s;
          ps.slew_set[out_net] = 1;
        } else if (s > ps.ts[out_net].slew) {
          ps.ts[out_net].slew = s;
        }
      }
      // Case analysis: an output none of whose arcs fired is untimed.
      for (const auto& arc : gi.cell->arcs) {
        const std::uint32_t in_net =
            gi.pin_nets[static_cast<std::size_t>(arc.from_pin)];
        const std::uint32_t out_net =
            gi.pin_nets[static_cast<std::size_t>(arc.to_pin)];
        if (in_net == kNoNet || out_net == kNoNet) continue;
        if (!ps.slew_set[out_net]) ps.untimed[out_net] = 1;
      }
    }
  }
}

void StaEngine::propagate_soa(const LoadPlan& plan, const StaOptions& opt,
                              const float* gate_derate, PropState& ps) const {
  const double* rows = plan.rows.data();
  const std::uint32_t* arc_drow = plan.arc_drow.data();
  const std::uint32_t* arc_srow = plan.arc_srow.data();
  const double* ax_vals = ax_vals_.data();
  const std::uint32_t* ax_off = ax_off_.data();
  const std::uint32_t* ax_len = ax_len_.data();
  const std::uint32_t* arc_in = arc_in_.data();
  const std::uint32_t* arc_out = arc_out_.data();
  const double max_slew = opt.max_slew_ps;
  const std::size_t nlevels = level_arc_begin_.size() - 1;
  // The derate test is hoisted out of the arc loop; the winner/worst-slew
  // updates are written as selects so the unpredictable comparisons
  // compile to cmovs instead of mispredicting branches. Both forms keep
  // the exact comparison semantics (strict > first-winner) of the scalar
  // arm, so results stay bit-identical.
  const auto level_arcs = [&](std::uint32_t abeg, std::uint32_t aend,
                              auto derated, auto one_axis) {
    for (std::uint32_t a = abeg; a < aend; ++a) {
      const std::uint32_t in_net = arc_in[a];
      // Const-input arcs were filtered out of the CSR at construction, so
      // case analysis is the only remaining dynamic skip.
      if (ps.untimed[in_net]) continue;
      const std::uint32_t out_net = arc_out[a];
      const PropState::NetTime in_ts = ps.ts[in_net];
      cell::LutSeg sd, ss;
      if constexpr (decltype(one_axis)::value) {
        // Whole-library shared slew grid: one hoisted axis, one locate
        // covering both the delay and slew rows of every arc.
        sd = locate_axis(ax_vals, ax_len[0], in_ts.slew);
        ss = sd;
      } else {
        const std::uint16_t dax = arc_dax_[a];
        const std::uint16_t sax = arc_sax_[a];
        sd = locate_axis(ax_vals + ax_off[dax], ax_len[dax], in_ts.slew);
        ss = sd;
        if (sax != dax) {
          ss = locate_axis(ax_vals + ax_off[sax], ax_len[sax], in_ts.slew);
        }
      }
      const double* dr = rows + arc_drow[a];
      double d = cell::lut_lerp(dr[sd.i], dr[sd.i + 1], sd.t);
      if constexpr (decltype(derated)::value) d *= gate_derate[arc_gate_[a]];
      const double cand = in_ts.at + d;
      PropState::NetTime& ot = ps.ts[out_net];
      PropState::Trace& otr = ps.tr[out_net];
      const bool win = cand > ot.at;
      ot.at = win ? cand : ot.at;
      otr.prev_net = win ? in_net : otr.prev_net;
      otr.via_gate =
          win ? static_cast<std::int32_t>(arc_gate_[a]) : otr.via_gate;
      const double* sr = rows + arc_srow[a];
      const double s =
          std::min(cell::lut_lerp(sr[ss.i], sr[ss.i + 1], ss.t), max_slew);
      const bool keep = ps.slew_set[out_net] && s <= ot.slew;
      ot.slew = keep ? ot.slew : s;
      ps.slew_set[out_net] = 1;
    }
  };
  const bool one_axis = ax_off_.size() == 1;
  for (std::size_t lvl = 0; lvl < nlevels; ++lvl) {
    const std::uint32_t abeg = level_arc_begin_[lvl];
    const std::uint32_t aend = level_arc_begin_[lvl + 1];
    if (gate_derate) {
      if (one_axis) {
        level_arcs(abeg, aend, std::true_type{}, std::true_type{});
      } else {
        level_arcs(abeg, aend, std::true_type{}, std::false_type{});
      }
    } else if (one_axis) {
      level_arcs(abeg, aend, std::false_type{}, std::true_type{});
    } else {
      level_arcs(abeg, aend, std::false_type{}, std::false_type{});
    }
    // Consumers of this level's outputs sit in strictly later levels, so
    // marking untimed nets once per level matches the scalar per-gate
    // marking exactly.
    const std::uint32_t nbeg = level_net_begin_[lvl];
    const std::uint32_t nend = level_net_begin_[lvl + 1];
    for (std::uint32_t i = nbeg; i < nend; ++i) {
      const std::uint32_t n = level_out_nets_[i];
      if (!ps.slew_set[n]) ps.untimed[n] = 1;
    }
  }
}

TimingReport StaEngine::analyze_impl(const StaOptions& opt,
                                     const float* gate_derate) const {
  OBS_SPAN("sta.analyze");
  const tech::TechNode& node = lib_.node();
  if (!node.vdd_in_range(opt.vdd)) {
    throw std::invalid_argument("StaEngine::analyze: vdd out of range");
  }
  // Voltage/temperature scaling: propagate in the nominal domain (delays
  // AND slews scale together, so relative waveforms are invariant) and
  // scale the reported times at the end. Equivalently, clock periods
  // shrink by 1/ds during analysis.
  const double ds = node.delay_scale(opt.vdd, opt.temp_c);

  const std::shared_ptr<const LoadPlan> plan = load_plan(opt.wire);

  const std::size_t nnets = nl_.net_count();
  PropState ps;
  ps.ts.assign(nnets, {-std::numeric_limits<double>::infinity(),
                       opt.input_slew_ps});
  // Traceback: previous net and gate on the worst path into each net.
  ps.tr.assign(nnets, {kNoNet, -1});
  ps.untimed.assign(nnets, 0);
  ps.slew_set.assign(nnets, 0);

  for (std::uint32_t n = 0; n < nnets; ++n) {
    if (rn_.driver(n) < 0 || net_const_[n]) {
      ps.ts[n].at = 0.0;  // dangling or constant
    }
  }
  for (const auto& io : nl_.primary_inputs()) {
    ps.ts[io.net] = {opt.input_delay_ps, opt.input_slew_ps};
  }
  // Case analysis: static configuration inputs do not launch transitions.
  for (const std::string& name : opt.static_inputs) {
    for (const auto& io : nl_.primary_inputs()) {
      if (io.name == name) ps.untimed[io.net] = 1;
    }
  }

  // Launch points: register CK->Q (precomputed at the fixed clock slew in
  // the plan) and storage Q at t=0.
  for (std::size_t i = 0; i < launches_.size(); ++i) {
    const LaunchPoint& lp = launches_[i];
    if (lp.storage) {
      ps.ts[lp.qnet] = {0.0, kStorageQSlewPs};
      continue;
    }
    double d = plan->launch_delay[i];
    if (gate_derate) d *= gate_derate[lp.gate];
    ps.ts[lp.qnet] = {d, plan->launch_slew[i]};
    ps.tr[lp.qnet].via_gate = static_cast<std::int32_t>(lp.gate);
  }

  // Propagate through levels.
  if (opt.kernel == StaKernel::kScalar) {
    propagate_scalar(opt, gate_derate, ps);
  } else {
    propagate_soa(*plan, opt, gate_derate, ps);
  }

  // Collect endpoints (streaming: no per-endpoint strings; the worst
  // endpoint's description is formatted once at the end).
  TimingReport rep;
  double min_period = 0.0, min_write_period = 0.0;
  rep.wns_ps = std::numeric_limits<double>::infinity();
  const SetupEndpoint* worst_sep = nullptr;
  const FlatNetlist::PrimaryIo* worst_po = nullptr;
  double worst_arrival = 0.0, worst_required = 0.0;
  std::uint32_t worst_net = kNoNet;
  std::size_t timed_eps = 0;
  std::vector<GroupSlack> groups(nl_.group_names().size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    groups[i].group = nl_.group_names()[i];
  }

  for (const SetupEndpoint& e : setup_eps_) {
    if (ps.untimed[e.net]) continue;  // case analysis: not a real path
    ++timed_eps;
    const double arrival = ps.ts[e.net].at;
    const double need = arrival + e.setup_ps;
    (e.write_domain ? min_write_period : min_period) =
        std::max(e.write_domain ? min_write_period : min_period, need);
    const double period =
        (e.write_domain ? opt.write_period_ps : opt.clock_period_ps) / ds;
    const double required = period - e.setup_ps;
    const double slack = (required - arrival) * ds;
    if (slack < rep.wns_ps) {
      rep.wns_ps = slack;
      worst_sep = &e;
      worst_po = nullptr;
      worst_arrival = arrival;
      worst_required = required;
      worst_net = e.net;
    }
    if (slack < 0) rep.tns_ps += slack;
    // Group slacks classify MAC-domain endpoints only; the write domain is
    // summarized by min_write_period_ps.
    if (e.write_domain) continue;
    GroupSlack& gs = groups[e.group];
    if (slack < gs.wns_ps) {
      gs.wns_ps = slack;
      gs.worst_arrival_ps = arrival * ds;
    }
  }
  for (const auto& io : nl_.primary_outputs()) {
    if (ps.untimed[io.net]) continue;
    ++timed_eps;
    const double arrival = ps.ts[io.net].at;
    min_period = std::max(min_period, arrival + opt.output_margin_ps);
    const double required =
        opt.clock_period_ps / ds - opt.output_margin_ps;
    const double slack = (required - arrival) * ds;
    if (slack < rep.wns_ps) {
      rep.wns_ps = slack;
      worst_sep = nullptr;
      worst_po = &io;
      worst_arrival = arrival;
      worst_required = required;
      worst_net = io.net;
    }
    if (slack < 0) rep.tns_ps += slack;
    GroupSlack& gs = groups[0];
    if (slack < gs.wns_ps) {
      gs.wns_ps = slack;
      gs.worst_arrival_ps = arrival * ds;
    }
  }

  rep.min_period_ps = min_period * ds;
  rep.min_write_period_ps = min_write_period * ds;
  rep.fmax_mhz = min_period > 0 ? 1.0e6 / rep.min_period_ps : 0.0;
  for (GroupSlack& gs : groups) {
    if (std::isfinite(gs.wns_ps)) rep.groups.push_back(std::move(gs));
  }

  if (obs::enabled()) {
    // One timed path per (non-untimed) endpoint in this analysis pass.
    obs::metrics().counter("sta.paths.timed").inc(timed_eps);
    obs::metrics().counter("sta.analyze.runs").inc();
  }

  if (worst_sep != nullptr || worst_po != nullptr) {
    rep.critical.arrival_ps = worst_arrival * ds;
    rep.critical.required_ps = worst_required * ds;
    if (worst_sep != nullptr) {
      const cell::Cell& c = *rn_.cell(worst_sep->gate);
      rep.critical.endpoint = c.name + "/" + c.pins[worst_sep->pin].name;
    } else {
      rep.critical.endpoint = "<out>/" + worst_po->name;
    }
    // Trace back the worst path.
    std::uint32_t n = worst_net;
    int guard = 0;
    while (n != kNoNet && guard++ < 4096) {
      PathStage st;
      st.arrival_ps = ps.ts[n].at * ds;
      if (ps.tr[n].via_gate >= 0) {
        const auto g = static_cast<std::uint32_t>(ps.tr[n].via_gate);
        st.master = rn_.cell(g)->name;
        st.group = nl_.group_names()[nl_.gates()[g].group];
      } else {
        st.master = "<source>";
        st.group = "";
      }
      rep.critical.stages.push_back(std::move(st));
      n = ps.tr[n].prev_net;
    }
    std::reverse(rep.critical.stages.begin(), rep.critical.stages.end());
  }
  return rep;
}

}  // namespace syndcim::sta
