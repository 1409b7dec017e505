#pragma once
#include <string>
#include <vector>

#include "power/activity.hpp"
#include "sta/sta.hpp"

namespace syndcim::power {

struct PowerOptions {
  double vdd = 0.9;
  double temp_c = 25.0;  ///< junction temperature (leakage corner)
  double freq_mhz = 800.0;
  sta::WireModel wire;  ///< pre-layout estimate or back-annotated caps
};

struct GroupPower {
  std::string group;
  double dynamic_uw = 0.0;
  double leakage_uw = 0.0;
};

struct PowerReport {
  double switching_uw = 0.0;  ///< net charging (0.5*C*V^2 per transition)
  double internal_uw = 0.0;   ///< cell-internal per-toggle energy
  double clock_uw = 0.0;      ///< register clock-pin energy
  double leakage_uw = 0.0;
  std::vector<GroupPower> by_group;

  [[nodiscard]] double dynamic_uw() const {
    return switching_uw + internal_uw + clock_uw;
  }
  [[nodiscard]] double total_uw() const { return dynamic_uw() + leakage_uw; }
  /// Dynamic energy per clock cycle.
  [[nodiscard]] double energy_per_cycle_fj(double freq_mhz) const {
    return dynamic_uw() * 1.0e3 / freq_mhz;  // uW / MHz = pJ -> *1e3 fJ
  }
  [[nodiscard]] double group_uw(std::string_view g) const;
};

/// Activity-based power analysis: switching power from per-net toggle
/// rates and capacitive load, internal/clock energy from the cell tables,
/// leakage from cell leakage at the analysis voltage. Throws the
/// library's lookup error for a master it does not have.
[[nodiscard]] PowerReport analyze_power(const netlist::ResolvedNetlist& rn,
                                        const ActivityModel& activity,
                                        const PowerOptions& opt);
[[nodiscard]] PowerReport analyze_power(const netlist::FlatNetlist& nl,
                                        const cell::Library& lib,
                                        const ActivityModel& activity,
                                        const PowerOptions& opt);

struct GroupArea {
  std::string group;
  double area_um2 = 0.0;
};

struct AreaReport {
  double total_um2 = 0.0;
  double bitcell_um2 = 0.0;
  double logic_um2 = 0.0;
  std::vector<GroupArea> by_group;
  [[nodiscard]] double group_um2(std::string_view g) const;
};

/// Cell-area roll-up (pre-layout; the layout engine reports the real
/// outline including whitespace and pitch matching).
[[nodiscard]] AreaReport analyze_area(const netlist::ResolvedNetlist& rn);
[[nodiscard]] AreaReport analyze_area(const netlist::FlatNetlist& nl,
                                      const cell::Library& lib);

}  // namespace syndcim::power
