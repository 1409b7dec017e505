#include "layout/floorplan.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <unordered_map>

#include "obs/obs.hpp"

namespace syndcim::layout {

using netlist::FlatNetlist;

const Floorplan::Region* Floorplan::region(std::string_view name) const {
  for (const Region& r : regions) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

namespace {

struct ResolvedCells {
  std::vector<const cell::Cell*> per_gate;
};

ResolvedCells resolve(const FlatNetlist& nl, const cell::Library& lib) {
  std::vector<const cell::Cell*> masters;
  for (const std::string& m : nl.master_names()) masters.push_back(&lib.get(m));
  ResolvedCells rc;
  rc.per_gate.reserve(nl.gates().size());
  for (const auto& g : nl.gates()) rc.per_gate.push_back(masters[g.master]);
  return rc;
}

/// Packs `gates` row-major into a strip starting at (x0, y0) with the
/// given width; returns the used height. Rows have std-cell height.
double pack_scanline(const std::vector<std::uint32_t>& gates,
                     const ResolvedCells& rc, double x0, double y0,
                     double strip_w, double row_h, Floorplan& fp) {
  double x = x0, y = y0;
  for (const std::uint32_t g : gates) {
    const cell::Cell* c = rc.per_gate[g];
    if (x + c->width_um > x0 + strip_w + 1e-9) {
      x = x0;
      y += row_h;
    }
    fp.gate_rects[g] = Rect{x, y, c->width_um, row_h};
    fp.placed[g] = 1;
    x += c->width_um;
  }
  return (y - y0) + row_h;
}

double group_logic_area(const std::vector<std::uint32_t>& gates,
                        const ResolvedCells& rc) {
  double a = 0.0;
  for (const std::uint32_t g : gates) a += rc.per_gate[g]->area_um2;
  return a;
}

/// Parses the <N> of a "col<N>" group name. Returns -1 unless the whole
/// suffix is a non-negative decimal integer — net names like "col_en" or
/// "col12x" must not crash (or silently misplace) the floorplan.
int parse_col_index(const std::string& name) {
  if (name.size() <= 3) return -1;
  long v = 0;
  for (std::size_t i = 3; i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return -1;
    v = v * 10 + (c - '0');
    if (v > 1'000'000) return -1;  // implausible column count
  }
  return static_cast<int>(v);
}

}  // namespace

Floorplan sdp_place(const FlatNetlist& nl, const cell::Library& lib,
                    const rtlgen::MacroConfig& cfg, const SdpOptions& opt,
                    core::DiagEngine* diag) {
  OBS_SPAN("layout.place");
  const ResolvedCells rc = resolve(nl, lib);
  const tech::TechNode& node = lib.node();
  const double row_h = node.std_row_height_um;

  Floorplan fp;
  fp.gate_rects.assign(nl.gates().size(), Rect{});
  fp.placed.assign(nl.gates().size(), 0);

  // Partition gates by group; split column groups into bitcells vs logic.
  const auto& group_names = nl.group_names();
  std::vector<std::vector<std::uint32_t>> bitcells(group_names.size());
  std::vector<std::vector<std::uint32_t>> logic(group_names.size());
  for (std::uint32_t g = 0; g < nl.gates().size(); ++g) {
    const auto& fg = nl.gates()[g];
    (rc.per_gate[g]->is_bitcell() ? bitcells : logic)[fg.group].push_back(g);
  }

  const cell::Cell& bc = lib.get(rtlgen::bitcell_cell_name(cfg.bitcell));
  const double cell_w = bc.width_um, cell_h = bc.height_um;
  const double array_h = cfg.rows * cell_h;

  // Column strip geometry: bitcell banks + a logic sub-strip sized from
  // the column's logic area.
  double col_logic_area = 0.0;
  for (std::size_t gi = 0; gi < group_names.size(); ++gi) {
    if (group_names[gi].rfind("col", 0) == 0 && !logic[gi].empty()) {
      col_logic_area = std::max(col_logic_area,
                                group_logic_area(logic[gi], rc));
    }
  }
  // Strip width: the column's tree/S&A logic stacks *vertically* beside
  // the bitcell bank (as in the silicon die photo, where adders extend
  // the column pitch downward). The width is solved so the whole macro
  // lands near a 2:1 aspect ratio:
  //   cols * (bank_w + lw) ~ 2 * col_area / (lw * util).
  const double u = opt.logic_utilization;
  const double bank_w = cfg.mcr * cell_w;
  const double uc = u * cfg.cols;
  const double disc = uc * bank_w * uc * bank_w +
                      8.0 * uc * std::max(col_logic_area, 1.0);
  const double lw_solved =
      (-uc * bank_w + std::sqrt(disc)) / (2.0 * uc);
  const double logic_strip_w = std::max(3.0, lw_solved);
  const double strip_h = std::max(
      array_h,
      std::ceil(col_logic_area / (logic_strip_w * u) / row_h) * row_h);
  const double strip_w = bank_w + logic_strip_w;

  // Peripheral block sizing.
  auto block_height = [&](double area, double width) {
    return std::ceil(area / (width * opt.logic_utilization) / row_h) * row_h;
  };

  // Region origins: wldrv left, array center, OFU right, wrport below,
  // align above.
  // The bottom peripheral strip holds the write port plus any top-level
  // glue (control distribution trees) and unclassified logic.
  std::vector<std::uint32_t> bottom;
  double wl_area = 0.0, al_area = 0.0, ofu_area = 0.0;
  for (std::size_t gi = 0; gi < group_names.size(); ++gi) {
    const std::string& name = group_names[gi];
    const double a = group_logic_area(logic[gi], rc);
    if (name == "wldrv") {
      wl_area = a;
    } else if (name == "align") {
      al_area = a;
    } else if (name.rfind("ofu_g", 0) == 0) {
      ofu_area += a;
    } else if (name.rfind("col", 0) != 0) {
      bottom.insert(bottom.end(), logic[gi].begin(), logic[gi].end());
    }
  }
  const double wr_area = group_logic_area(bottom, rc);
  const double array_w = cfg.cols * strip_w;
  const double wl_w =
      wl_area > 0
          ? std::max(2 * row_h,
                     wl_area / (strip_h * opt.logic_utilization))
          : 0.0;
  const double ofu_w =
      ofu_area > 0
          ? std::max(2 * row_h,
                     ofu_area / (strip_h * opt.logic_utilization))
          : 0.0;
  const double wr_h = wr_area > 0 ? block_height(wr_area, array_w) : 0.0;
  const double al_h = al_area > 0 ? block_height(al_area, array_w) : 0.0;

  const double ax0 = wl_w, ay0 = wr_h;  // array origin

  // Place per-column strips.
  int n_cols_placed = 0;
  for (std::size_t gi = 0; gi < group_names.size(); ++gi) {
    const std::string& name = group_names[gi];
    if (name.rfind("col", 0) != 0 || name.rfind("ofu", 0) == 0) continue;
    const int col = parse_col_index(name);
    if (col < 0) {
      if (diag) {
        diag->warning("FP-BADGROUP",
                      "group name starts with 'col' but is not of the "
                      "col<N> shape; not placed as a column strip",
                      name, "sdp_place");
      }
      continue;
    }
    if (col >= cfg.cols) {
      if (diag) {
        diag->warning("FP-BADGROUP",
                      "column index " + std::to_string(col) +
                          " is outside the configured 0.." +
                          std::to_string(cfg.cols - 1) + " range",
                      name, "sdp_place");
      }
      continue;
    }
    ++n_cols_placed;
    const double sx = ax0 + col * strip_w;
    // Bitcells in (row, bank) generation order onto the grid.
    const auto& cells = bitcells[gi];
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const int r = static_cast<int>(i) / cfg.mcr;
      const int b = static_cast<int>(i) % cfg.mcr;
      fp.gate_rects[cells[i]] =
          Rect{sx + b * cell_w, ay0 + r * cell_h, cell_w, cell_h};
      fp.placed[cells[i]] = 1;
    }
    // Column logic in the adjacent strip.
    pack_scanline(logic[gi], rc, sx + cfg.mcr * cell_w, ay0, logic_strip_w,
                  row_h, fp);
    fp.regions.push_back({name, Rect{sx, ay0, strip_w, strip_h}});
  }
  if (n_cols_placed != cfg.cols) {
    throw std::invalid_argument("sdp_place: netlist does not look like a "
                                "generated macro (missing column groups)");
  }

  // Peripheral blocks.
  pack_scanline(bottom, rc, ax0, 0.0, array_w, row_h, fp);
  fp.regions.push_back({"wrport", Rect{ax0, 0, array_w, wr_h}});
  double ofu_y = ay0;
  for (std::size_t gi = 0; gi < group_names.size(); ++gi) {
    const std::string& name = group_names[gi];
    if (name == "wldrv") {
      pack_scanline(logic[gi], rc, 0.0, ay0, wl_w, row_h, fp);
      fp.regions.push_back({name, Rect{0, ay0, wl_w, strip_h}});
    } else if (name == "align") {
      pack_scanline(logic[gi], rc, ax0, ay0 + strip_h, array_w, row_h, fp);
      fp.regions.push_back({name, Rect{ax0, ay0 + strip_h, array_w, al_h}});
    } else if (name.rfind("ofu_g", 0) == 0) {
      const double used = pack_scanline(logic[gi], rc, ax0 + array_w, ofu_y,
                                        ofu_w, row_h, fp);
      fp.regions.push_back({name, Rect{ax0 + array_w, ofu_y, ofu_w, used}});
      ofu_y += used;
    }
  }

  // Outline with whitespace margin.
  double w = 0.0, h = 0.0;
  for (std::uint32_t g = 0; g < fp.gate_rects.size(); ++g) {
    if (!fp.placed[g]) continue;
    w = std::max(w, fp.gate_rects[g].x2());
    h = std::max(h, fp.gate_rects[g].y2());
  }
  fp.outline = Rect{0, 0, w * std::sqrt(opt.whitespace_factor),
                    h * std::sqrt(opt.whitespace_factor)};
  double cell_area = 0.0;
  for (const auto* c : rc.per_gate) cell_area += c->area_um2;
  fp.utilization = cell_area / fp.outline.area();
  fp.wirelength_um = total_hpwl_um(nl, fp);
  return fp;
}

Floorplan scattered_place(const FlatNetlist& nl, const cell::Library& lib,
                          unsigned seed, const SdpOptions& opt) {
  const ResolvedCells rc = resolve(nl, lib);
  const double row_h = lib.node().std_row_height_um;
  Floorplan fp;
  fp.gate_rects.assign(nl.gates().size(), Rect{});
  fp.placed.assign(nl.gates().size(), 0);

  double cell_area = 0.0;
  std::vector<std::uint32_t> order(nl.gates().size());
  for (std::uint32_t g = 0; g < order.size(); ++g) {
    order[g] = g;
    cell_area += rc.per_gate[g]->area_um2;
  }
  std::mt19937 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);

  const double target_w =
      std::sqrt(cell_area / opt.logic_utilization);
  // Bitcells keep their height; pack everything row-major. Rows must be
  // tall enough for the tallest cell placed in them; use std row height
  // and let bitcells sit inside it.
  pack_scanline(order, rc, 0.0, 0.0, target_w, row_h, fp);
  double w = 0.0, h = 0.0;
  for (std::uint32_t g = 0; g < fp.gate_rects.size(); ++g) {
    w = std::max(w, fp.gate_rects[g].x2());
    h = std::max(h, fp.gate_rects[g].y2());
  }
  fp.outline = Rect{0, 0, w * std::sqrt(opt.whitespace_factor),
                    h * std::sqrt(opt.whitespace_factor)};
  fp.utilization = cell_area / fp.outline.area();
  fp.wirelength_um = total_hpwl_um(nl, fp);
  return fp;
}

double total_hpwl_um(const FlatNetlist& nl, const Floorplan& fp) {
  struct BBox {
    double x0 = 1e30, y0 = 1e30, x1 = -1e30, y1 = -1e30;
    int pins = 0;
  };
  std::vector<BBox> boxes(nl.net_count());
  for (std::uint32_t g = 0; g < nl.gates().size(); ++g) {
    if (!fp.placed[g]) continue;
    const Rect& r = fp.gate_rects[g];
    const double cx = r.x + r.w / 2, cy = r.y + r.h / 2;
    for (const auto& pc : nl.gates()[g].pins) {
      BBox& b = boxes[pc.net];
      b.x0 = std::min(b.x0, cx);
      b.y0 = std::min(b.y0, cy);
      b.x1 = std::max(b.x1, cx);
      b.y1 = std::max(b.y1, cy);
      ++b.pins;
    }
  }
  double total = 0.0;
  for (const BBox& b : boxes) {
    if (b.pins >= 2) total += (b.x1 - b.x0) + (b.y1 - b.y0);
  }
  return total;
}

sta::WireModel extract_wire_model(const FlatNetlist& nl, const Floorplan& fp,
                                  const tech::TechNode& node) {
  OBS_SPAN("layout.extract");
  struct BBox {
    double x0 = 1e30, y0 = 1e30, x1 = -1e30, y1 = -1e30;
    int pins = 0;
    int clock_pins = 0;
  };
  std::vector<BBox> boxes(nl.net_count());
  const auto& pin_names = nl.pin_names();
  for (std::uint32_t g = 0; g < nl.gates().size(); ++g) {
    if (!fp.placed[g]) continue;
    const Rect& r = fp.gate_rects[g];
    const double cx = r.x + r.w / 2, cy = r.y + r.h / 2;
    for (const auto& pc : nl.gates()[g].pins) {
      BBox& b = boxes[pc.net];
      b.x0 = std::min(b.x0, cx);
      b.y0 = std::min(b.y0, cy);
      b.x1 = std::max(b.x1, cx);
      b.y1 = std::max(b.y1, cy);
      ++b.pins;
      if (pin_names[pc.pin_name] == "CK") ++b.clock_pins;
    }
  }
  sta::WireModel wm;
  wm.per_net_cap_ff.assign(nl.net_count(), 0.0);
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    const BBox& b = boxes[n];
    if (b.pins < 2) continue;
    // Clock nets are built by clock-tree synthesis (buffered at every
    // level), not estimated as signal routes.
    if (b.clock_pins * 2 > b.pins) continue;
    // Steiner estimate: HPWL scaled by a bounded fanout-dependent factor
    // (beyond ~20 pins routed trees grow like sqrt(n), not linearly).
    const double hpwl = (b.x1 - b.x0) + (b.y1 - b.y0);
    const double factor =
        std::min(3.0, 1.0 + 0.08 * std::max(0, b.pins - 3));
    wm.per_net_cap_ff[n] = hpwl * factor * node.wire_c_ff_per_um;
  }
  return wm;
}

DrcReport run_drc(const FlatNetlist& nl, const cell::Library& lib,
                  const Floorplan& fp) {
  OBS_SPAN("layout.drc");
  const ResolvedCells rc = resolve(nl, lib);
  DrcReport rep;
  const double eps = 1e-6;
  // Spatial hash for overlap checks. A pair sharing several bins is
  // reported once, from the bin holding the lower corner of the two
  // rectangles' intersection.
  const double bin = 10.0;
  std::unordered_map<std::int64_t, std::vector<std::uint32_t>> grid;
  auto key = [](int bx, int by) {
    return (static_cast<std::int64_t>(bx) << 32) ^
           static_cast<std::uint32_t>(by);
  };
  for (std::uint32_t g = 0; g < nl.gates().size(); ++g) {
    if (!fp.placed[g]) {
      rep.violations.push_back("gate " + std::to_string(g) + " (" +
                               rc.per_gate[g]->name + ") not placed");
      if (rep.violations.size() > 20) return rep;
      continue;
    }
    const Rect& r = fp.gate_rects[g];
    if (r.x < -eps || r.y < -eps || r.x2() > fp.outline.x2() + eps ||
        r.y2() > fp.outline.y2() + eps) {
      rep.violations.push_back("gate " + std::to_string(g) +
                               " outside outline");
      if (rep.violations.size() > 20) return rep;
    }
    for (int bx = static_cast<int>(r.x / bin);
         bx <= static_cast<int>(r.x2() / bin); ++bx) {
      for (int by = static_cast<int>(r.y / bin);
           by <= static_cast<int>(r.y2() / bin); ++by) {
        for (const std::uint32_t o : grid[key(bx, by)]) {
          const Rect& q = fp.gate_rects[o];
          if (r.x < q.x2() - eps && q.x < r.x2() - eps &&
              r.y < q.y2() - eps && q.y < r.y2() - eps &&
              static_cast<int>(std::max(r.x, q.x) / bin) == bx &&
              static_cast<int>(std::max(r.y, q.y) / bin) == by) {
            rep.violations.push_back("overlap between gates " +
                                     std::to_string(g) + " and " +
                                     std::to_string(o));
            if (rep.violations.size() > 20) return rep;
          }
        }
        grid[key(bx, by)].push_back(g);
      }
    }
  }
  return rep;
}

LvsReport run_lvs(const FlatNetlist& nl, const cell::Library& lib,
                  const Floorplan& fp) {
  OBS_SPAN("layout.lvs");
  const ResolvedCells rc = resolve(nl, lib);
  LvsReport rep;
  if (fp.gate_rects.size() != nl.gates().size()) {
    rep.mismatches.push_back("placement database size mismatch");
    return rep;
  }
  for (std::uint32_t g = 0; g < nl.gates().size(); ++g) {
    if (!fp.placed[g]) {
      rep.mismatches.push_back("missing instance " + std::to_string(g));
      if (rep.mismatches.size() > 20) return rep;
      continue;
    }
    const cell::Cell* c = rc.per_gate[g];
    const Rect& r = fp.gate_rects[g];
    // Footprint must match the master (height may be the std row for
    // logic cells packed into rows).
    if (std::abs(r.w - c->width_um) > 1e-6) {
      rep.mismatches.push_back("footprint mismatch on gate " +
                               std::to_string(g) + " (" + c->name + ")");
      if (rep.mismatches.size() > 20) return rep;
    }
  }
  return rep;
}

}  // namespace syndcim::layout
