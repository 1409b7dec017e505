#include "layout/route.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"

namespace syndcim::layout {

RouteReport global_route(const netlist::FlatNetlist& nl, const Floorplan& fp,
                         const tech::TechNode& node, double gcell_um,
                         double capacity_derate) {
  OBS_SPAN("layout.route");
  if (gcell_um <= 0 || capacity_derate <= 0) {
    throw std::invalid_argument("global_route: bad parameters");
  }
  RouteReport rep;
  RoutingGrid& g = rep.grid;
  g.gcell_um = gcell_um;
  g.nx = std::max(1, static_cast<int>(std::ceil(fp.outline.x2() / gcell_um)));
  g.ny = std::max(1, static_cast<int>(std::ceil(fp.outline.y2() / gcell_um)));
  g.demand.assign(static_cast<std::size_t>(g.nx) * g.ny, 0);
  // Tracks crossing one gcell per layer = gcell span / pitch; four signal
  // layers (M2-M5 of a typical 40nm stack), derated for the power grid
  // and clock tree.
  g.capacity = static_cast<std::uint32_t>(
      std::max(1.0, 4.0 * capacity_derate * gcell_um /
                        node.track_pitch_um));

  // Collect pin positions per net.
  struct Pt {
    float x, y;
  };
  std::vector<std::vector<Pt>> pins(nl.net_count());
  for (std::uint32_t i = 0; i < nl.gates().size(); ++i) {
    if (!fp.placed[i]) continue;
    const Rect& r = fp.gate_rects[i];
    const Pt c{static_cast<float>(r.x + r.w / 2),
               static_cast<float>(r.y + r.h / 2)};
    for (const auto& pc : nl.gate_pins(i)) {
      pins[pc.net].push_back(c);
    }
  }

  auto cell_of = [&](double v, int n) {
    return std::clamp(static_cast<int>(v / gcell_um), 0, n - 1);
  };
  auto add_h = [&](double x0, double x1, double y) {
    if (x1 < x0) std::swap(x0, x1);
    const int cy = cell_of(y, g.ny);
    for (int cx = cell_of(x0, g.nx); cx <= cell_of(x1, g.nx); ++cx) {
      ++g.demand[static_cast<std::size_t>(cy) * g.nx + cx];
    }
    rep.total_routed_um += x1 - x0;
  };
  auto add_v = [&](double x, double y0, double y1) {
    if (y1 < y0) std::swap(y0, y1);
    const int cx = cell_of(x, g.nx);
    for (int cy = cell_of(y0, g.ny); cy <= cell_of(y1, g.ny); ++cy) {
      ++g.demand[static_cast<std::size_t>(cy) * g.nx + cx];
    }
    rep.total_routed_um += y1 - y0;
  };

  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    auto& p = pins[n];
    if (p.size() < 2) continue;
    // Nets with enormous fanout are clock/reset spines owned by CTS
    // (same convention as the wire extraction).
    if (p.size() > 512) continue;
    // Trunk at the median y, spanning min..max x.
    std::vector<float> ys;
    ys.reserve(p.size());
    float x0 = p[0].x, x1 = p[0].x;
    for (const Pt& q : p) {
      ys.push_back(q.y);
      x0 = std::min(x0, q.x);
      x1 = std::max(x1, q.x);
    }
    std::nth_element(ys.begin(), ys.begin() + ys.size() / 2, ys.end());
    const float ty = ys[ys.size() / 2];
    add_h(x0, x1, ty);
    const int trunk_row = cell_of(ty, g.ny);
    for (const Pt& q : p) {
      // Pins in the trunk's own gcell row connect with intra-cell jogs
      // that don't consume a global vertical track.
      if (cell_of(q.y, g.ny) != trunk_row) add_v(q.x, q.y, ty);
    }
  }

  double util_sum = 0.0;
  int used_cells = 0;
  for (const std::uint32_t d : g.demand) {
    if (d == 0) continue;
    const double u = static_cast<double>(d) / g.capacity;
    rep.max_utilization = std::max(rep.max_utilization, u);
    util_sum += u;
    ++used_cells;
    if (d > g.capacity) ++rep.overflow_gcells;
  }
  rep.avg_utilization = used_cells ? util_sum / used_cells : 0.0;
  return rep;
}

}  // namespace syndcim::layout
