#pragma once
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/design.hpp"

namespace syndcim::netlist {

/// Flattened gate-level view of a hierarchical design. All hierarchy is
/// expanded; nets are globally indexed; cell masters and pin names are
/// interned so downstream engines (STA, simulation, power, layout) resolve
/// them once against the cell library (netlist::ResolvedNetlist).
///
/// Layout: every gate's pin connections live in one pin CSR (`pin_begin_`
/// per gate plus one PinConn array, in connection order), and every net
/// name in one character arena with per-net end offsets, so a netlist of
/// N gates and M nets costs a handful of allocations instead of N + M.
class FlatNetlist {
 public:
  struct PinConn {
    std::uint32_t pin_name;  ///< index into pin_names()
    std::uint32_t net;       ///< flat net index
  };
  struct Gate {
    std::uint32_t master;    ///< index into master_names()
    std::uint32_t group;     ///< index into group_names(); top-level inst
  };
  struct PrimaryIo {
    std::string name;
    std::uint32_t net;
  };

  [[nodiscard]] const std::vector<Gate>& gates() const { return gates_; }
  /// Gate `g`'s pin connections, in instance connection order.
  [[nodiscard]] std::span<const PinConn> gate_pins(std::uint32_t g) const {
    return {pins_.data() + pin_begin_[g], pins_.data() + pin_begin_[g + 1]};
  }
  /// Total pin connections over all gates.
  [[nodiscard]] std::size_t pin_count() const { return pins_.size(); }
  [[nodiscard]] std::size_t net_count() const { return net_consts_.size(); }
  [[nodiscard]] const std::vector<std::string>& master_names() const {
    return master_names_;
  }
  [[nodiscard]] const std::vector<std::string>& pin_names() const {
    return pin_names_;
  }
  /// Depth-1 instance names ("adder_tree", "ofu", ...); group 0 is the top
  /// module itself (gates placed directly in the top).
  [[nodiscard]] const std::vector<std::string>& group_names() const {
    return group_names_;
  }
  [[nodiscard]] const std::vector<PrimaryIo>& primary_inputs() const {
    return primary_inputs_;
  }
  [[nodiscard]] const std::vector<PrimaryIo>& primary_outputs() const {
    return primary_outputs_;
  }
  [[nodiscard]] NetConst net_const(std::uint32_t net) const {
    return net_consts_[net];
  }
  /// Best-effort hierarchical net name for reports and lint diagnostics
  /// ("<group>.<local name>"); may be empty for synthesized nets.
  [[nodiscard]] std::string_view net_name(std::uint32_t net) const {
    const std::uint32_t b = net == 0 ? 0 : name_end_[net - 1];
    return {name_chars_.data() + b, name_end_[net] - b};
  }

  /// Primary input/output net by port name; throws if absent.
  [[nodiscard]] std::uint32_t input_net(std::string_view name) const;
  [[nodiscard]] std::uint32_t output_net(std::string_view name) const;

  // --- construction (used by flatten()) ---
  std::uint32_t intern_master(const std::string& name);
  std::uint32_t intern_pin(const std::string& name);
  std::uint32_t intern_group(const std::string& name);
  std::uint32_t new_net(NetConst tie, std::string_view name = {});
  /// New net named "<prefix>.<name>", written straight into the arena.
  std::uint32_t new_net(NetConst tie, std::string_view prefix,
                        std::string_view name);
  /// Appends a gate with no pins; add_pin() then connects its pins in
  /// order (pins always attach to the last gate added).
  void add_gate(std::uint32_t master, std::uint32_t group) {
    gates_.push_back({master, group});
    pin_begin_.push_back(pin_begin_.back());
  }
  void add_pin(std::uint32_t pin_name, std::uint32_t net) {
    pins_.push_back({pin_name, net});
    ++pin_begin_.back();
  }
  /// Capacity hints for bulk gate construction (decode).
  void reserve(std::size_t gates, std::size_t pins);
  void add_primary_input(std::string name, std::uint32_t net) {
    primary_inputs_.push_back({std::move(name), net});
  }
  void add_primary_output(std::string name, std::uint32_t net) {
    primary_outputs_.push_back({std::move(name), net});
  }

 private:
  std::vector<Gate> gates_;
  std::vector<std::uint32_t> pin_begin_{0};  ///< per gate + 1, into pins_
  std::vector<PinConn> pins_;
  std::vector<std::string> master_names_;
  std::vector<std::string> pin_names_;
  std::vector<std::string> group_names_;
  std::vector<NetConst> net_consts_;
  std::string name_chars_;               ///< all net names, concatenated
  std::vector<std::uint32_t> name_end_;  ///< per net, end offset in arena
  std::vector<PrimaryIo> primary_inputs_;
  std::vector<PrimaryIo> primary_outputs_;
};

/// Expands `top` and everything below it into a FlatNetlist.
/// Unconnected submodule input ports are an error; unconnected outputs get
/// fresh dangling nets.
[[nodiscard]] FlatNetlist flatten(const Design& d, const std::string& top);

}  // namespace syndcim::netlist
