#pragma once
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cell/library.hpp"
#include "netlist/flatten.hpp"

namespace syndcim::netlist {

/// One structural defect met while resolving a flat netlist against a
/// cell library. Defects are listed in the order a gate-by-gate walk meets
/// them: per gate, unknown pins in connection order, then per cell pin
/// unconnected inputs and bad drivers; driven primary inputs last.
struct ResolveDefect {
  enum class Kind : std::uint8_t {
    kUnknownPin,        ///< `pin` is a pin-name id the master lacks
    kUnconnectedInput,  ///< `pin` is the cell pin index
    kMultiDriver,       ///< `pin` drives `net`, already driven by a gate
    kDrivesConstant,    ///< `pin` drives the constant net `net`
    kDrivenInput,       ///< primary input `pin` (its index) driven by `gate`
  };
  Kind kind;
  std::uint32_t gate;
  std::uint32_t pin;
  std::uint32_t net;
};

/// A flat netlist resolved against a cell library, built once and shared
/// by every analysis (STA, activity, power, simulation, lint):
///  - the cell of each master and gate (nullptr for a master the library
///    lacks), and a (master, pin-name id) -> cell pin table;
///  - each gate's nets indexed by cell pin (a CSR; kNoNet = unconnected);
///  - per net: the first driving gate, the input-pin count, and
///    the combinational loads (a CSR in (gate, pin) order);
///  - the combinational levelization (netlist::levelize_csr).
/// The pass never throws on a broken netlist: it records ResolveDefects
/// and the number of gates a combinational loop left unscheduled, and each
/// consumer raises or reports what it cares about in its own words.
/// Holds references to the netlist and library, which must outlive it.
class ResolvedNetlist {
 public:
  static constexpr std::uint32_t kNoNet = UINT32_MAX;

  ResolvedNetlist(const FlatNetlist& nl, const cell::Library& lib);

  [[nodiscard]] const FlatNetlist& netlist() const { return nl_; }
  [[nodiscard]] const cell::Library& library() const { return lib_; }

  [[nodiscard]] const cell::Cell* master_cell(std::uint32_t m) const {
    return master_cell_[m];
  }
  /// Cell pin index of pin-name id `pin_name` on master `m`; -1 if the
  /// master has no such pin or is not in the library.
  [[nodiscard]] int pin_of(std::uint32_t m, std::uint32_t pin_name) const {
    return pin_map_[m * n_pin_names_ + pin_name];
  }
  /// Throws the library's own lookup error for the first master (in
  /// master-name order) the library does not have.
  void require_known_cells() const;

  [[nodiscard]] const cell::Cell* cell(std::uint32_t g) const {
    return master_cell_[nl_.gates()[g].master];
  }
  /// Gate `g`'s nets by cell pin index (empty for an unknown master).
  [[nodiscard]] std::span<const std::uint32_t> pin_nets(
      std::uint32_t g) const {
    return {gate_nets_.data() + net_begin_[g],
            gate_nets_.data() + net_begin_[g + 1]};
  }
  [[nodiscard]] bool combinational(std::uint32_t g) const {
    return comb_[g] != 0;
  }

  /// First gate driving `net` (-1 for none).
  [[nodiscard]] std::int32_t driver(std::uint32_t net) const {
    return driver_[net];
  }
  /// Connected gate input pins on `net`.
  [[nodiscard]] std::uint32_t fanout(std::uint32_t net) const {
    return fanout_[net];
  }
  /// Combinational gates with an input pin on `net`, once per pin, in
  /// (gate, pin) order.
  [[nodiscard]] std::span<const std::uint32_t> comb_loads(
      std::uint32_t net) const {
    return {loads_.data() + load_begin_[net],
            loads_.data() + load_begin_[net + 1]};
  }

  [[nodiscard]] std::size_t level_count() const {
    return level_begin_.size() - 1;
  }
  /// Combinational gates of level `l`, in levelize() bucket order.
  [[nodiscard]] std::span<const std::uint32_t> level(std::size_t l) const {
    return {level_order_.data() + level_begin_[l],
            level_order_.data() + level_begin_[l + 1]};
  }
  /// Combinational gates a loop left out of the levels (0 = loop-free).
  [[nodiscard]] std::size_t unscheduled() const { return unscheduled_; }

  [[nodiscard]] const std::vector<ResolveDefect>& defects() const {
    return defects_;
  }

 private:
  const FlatNetlist& nl_;
  const cell::Library& lib_;
  std::size_t n_pin_names_ = 0;
  std::vector<const cell::Cell*> master_cell_;
  std::vector<std::int16_t> pin_map_;  ///< [master * n_pin_names_ + pin]
  std::vector<std::uint32_t> net_begin_;  ///< per gate + 1
  std::vector<std::uint32_t> gate_nets_;
  std::vector<std::uint8_t> comb_;  ///< per gate
  std::vector<std::int32_t> driver_;
  std::vector<std::uint32_t> fanout_;
  std::vector<std::uint32_t> load_begin_;  ///< per net + 1
  std::vector<std::uint32_t> loads_;
  std::vector<std::uint32_t> level_begin_;
  std::vector<std::uint32_t> level_order_;
  std::size_t unscheduled_ = 0;
  std::vector<ResolveDefect> defects_;
};

}  // namespace syndcim::netlist
